"""Trace and value kernels on edge bitmasks.

Every policy run and every DP solve goes through ``sm_trace``,
``gc_trace`` and ``dp_solve``.  Their floating-point accumulation order
is part of the contract: tables, traces and seeded outputs depend on it
bit for bit.

Conventions shared by the kernels:

* an edge set is an integer bitmask over dense edge ids;
* a DP state is packed as ``(round << 2m) | (success_mask << m) | fail_mask``;
* bit scans run from the lowest set bit upward;
* outcome submasks of a selection are enumerated descending via
  ``r = (r - 1) & u``;
* a committing kernel (``sm_trace``, ``gc_trace``) whose round tries no
  new edge leaves the committed and failed masks unchanged, so every
  later round would repeat it: the kernel fills the remaining rounds
  with that selection and stops.
"""

from __future__ import annotations


def active_backend() -> str:
    """Name of the kernel implementation; recorded by benchmark runs."""
    return "python"


def lex_less(a: int, b: int) -> bool:
    """Strict lexicographic order on the sorted edge-id tuples of two masks."""
    if a == b:
        return False
    diff = a ^ b
    d = (diff & -diff).bit_length() - 1
    if (a >> d) & 1:
        return (b >> d) != 0
    return (a >> d) == 0


def sm_trace(tables, real: int) -> list[int]:
    """Stable-matching process: greedy by descending probability, committing."""
    rounds = len(tables.weights)
    p = tables.p
    order = tables.order
    ev = tables.ev
    inc = tables.inc
    cap = tables.cap
    committed = 0
    failed = 0
    sels = []
    for _ in range(rounds):
        new = 0
        tried = committed | failed
        for e in order:
            if (tried >> e) & 1 or p[e] <= 0.0:
                continue
            base = committed | new
            fits = True
            for v in ev[e]:
                if (base & inc[v]).bit_count() >= cap[v]:
                    fits = False
                    break
            if fits:
                new |= 1 << e
        sels.append(committed | new)
        if not new:
            sels += sels[-1:] * (rounds - len(sels))
            break
        committed |= new & real
        failed |= new & ~real
    return sels


def gc_trace(tables, real: int) -> list[int]:
    """Greedy-commit: per round, the max-expected-weight augmentation of the
    committed successes, tie-broken toward the lexicographically smallest set."""
    rounds = len(tables.weights)
    p = tables.p
    feas = tables.feas
    posp = tables.posp_mask
    all_mask = tables.all_mask
    committed = 0
    failed = 0
    sels = []
    for _ in range(rounds):
        pool = all_mask & ~(committed | failed) & posp
        best_w = -1.0
        best_new = 0
        for mask in feas:
            if (mask & committed) != committed:
                continue
            new = mask & ~committed
            if new & ~pool:
                continue
            w = 0.0
            x = new
            while x:
                low = x & -x
                w += p[low.bit_length() - 1]
                x ^= low
            if w > best_w or (w == best_w and lex_less(new, best_new)):
                best_w = w
                best_new = new
        sels.append(committed | best_new)
        if not best_new:
            sels += sels[-1:] * (rounds - len(sels))
            break
        committed |= best_new & real
        failed |= best_new & ~real
    return sels


def dp_solve(tables, commit: bool, prune: bool) -> tuple[float, dict, dict]:
    """Expectimax over knowledge states.

    Returns the optimal expected weighted reward from the all-unknown
    state plus the memoized value and argmax-action tables keyed by
    packed state.  With ``commit`` the action must contain every known
    success; with ``prune`` only selections maximal within the available
    edges are considered (exhaustive mode disables this).
    """
    m = tables.m
    rounds = len(tables.weights)
    weights = tables.weights
    p = tables.p
    posp = tables.posp_mask
    all_mask = tables.all_mask
    feas = tables.feas
    ext = tables.ext
    nfeas = len(feas)
    values: dict[int, float] = {}
    actions: dict[int, int] = {}

    def solve(s: int, f: int, t: int) -> float:
        if t > rounds:
            return 0.0
        key = (t << (2 * m)) | (s << m) | f
        hit = values.get(key)
        if hit is not None:
            return hit
        avail = ((all_mask & ~(s | f)) & posp) | s
        w_t = weights[t - 1]
        best_v = -1.0
        best_a = 0
        have = False
        for idx in range(nfeas):
            mask = feas[idx]
            if mask & ~avail:
                continue
            if commit and (mask & s) != s:
                continue
            if prune and (ext[idx] & avail & ~mask):
                continue
            unknown = mask & ~s
            sp = 0.0
            x = unknown
            while x:
                low = x & -x
                sp += p[low.bit_length() - 1]
                x ^= low
            v = w_t * ((mask & s).bit_count() + sp)
            r = unknown
            while True:
                pr = 1.0
                x = unknown
                while x:
                    low = x & -x
                    e = low.bit_length() - 1
                    pr *= p[e] if (r & low) else 1.0 - p[e]
                    x ^= low
                if pr > 0.0:
                    v += pr * solve(s | r, f | (unknown ^ r), t + 1)
                if r == 0:
                    break
                r = (r - 1) & unknown
            if (not have) or v > best_v or (v == best_v and lex_less(mask, best_a)):
                best_v = v
                best_a = mask
                have = True
        if not have:
            raise ValueError("no feasible action; committed successes exceed capacity")
        values[key] = best_v
        actions[key] = best_a
        return best_v

    root = solve(0, 0, 1)
    return root, values, actions
