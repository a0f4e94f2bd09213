"""Trace and value kernels on edge bitmasks.

Policy runs (but the closed-form alternating scan) go through ``drive``
and DP solves through ``dp_solve``.  Their floating-point accumulation
order is part of the contract: tables, traces and seeded outputs depend
on it bit for bit.  ``gc_trace`` compares exact int sums instead.

Conventions shared by the kernels:

* an edge set is an integer bitmask over dense edge ids;
* a DP state is packed as ``(round << 2m) | (success_mask << m) | fail_mask``;
* bit scans run from the lowest set bit upward;
* outcome submasks of a selection are enumerated descending via
  ``r = (r - 1) & u``;
* a policy is a step ``step(t, s, f)`` on the successes ``s`` and
  failures ``f`` it has revealed.  ``drive`` alone reads ``real``, on
  each round's new edges ``sel & ~(s | f)`` only, which the exact pass's
  footprint index relies on.  A stationary step (sm, gc) is a function
  of (s, f) alone, so once a round tries no new edge ``drive`` fills the
  horizon with it; the replay and the follower run every round.

``dp_solve`` memoizes two kinds of list.  At every state the solve or
replay reaches, the known successes were drawn from edges of positive
probability that have not failed, so the available set is
``posp & ~f``: it is a function of the failed set ``f`` alone.  The
feasible selections that fit it (and, with pruning, are maximal in it)
are listed once per distinct failed mask from the index of
``model.Tables``: starting from every feasible index, clear the
``holds`` row of each edge outside the set and, with pruning, the
``extends`` row of each edge inside it, then read the surviving indices
in ascending order, a byte at a time.  That is feasible-index order,
the order of a scan of the whole list; only the commit filter depends
on the successes.  The probability sum of an unknown set and its
nonzero outcomes, each with the product taken bit by bit upward, are
computed once per distinct unknown mask.  These memos depend on the
tables alone, so one module-level slot keeps them for the tables solved
last, for its next solve (the other commit mode) and replay's
real-state calls.  One slot, because ``build_tables`` caches thousands
of tables.
A state's value still adds its actions' outcomes in the same
descending-submask order, and its children are solved depth first in
that order, so the values and the insertion order of the value table
are those of a solve that recomputes everything per state.

Per action, one AND gives ``hit = mask & s``: the commit test is
``hit == s``, the unknown set ``mask ^ hit`` and the reselected count
``hit.bit_count()``.  Without edge classes each memoized outcome carries
its packed child bits ``rq = (r << m) | q``; the unknown set misses both
``s`` and ``f``, so a child's key is ``base | rq``, with ``base`` the
child round, ``s`` and ``f`` packed once per state.

The last round is a leaf: its children are worth 0.0, so a round-T
state is worth w_T times the max over its actions of the reselected
successes plus the probability sum of the new edges.  As w_T >= 0 and
rounding is monotone, max fl(w_T * x) = fl(w_T * max x): the leaf
multiplies once, reads the sums alone and lists no outcomes.  Its loop
is split by mode.  With ``commit`` every action reselects all of ``s``
and its unknown set is ``mask ^ s``, so by the same monotonicity the
leaf takes the max of the sums alone and adds ``|s|`` once.  It stores
its value when the general loop would, so the insertion order holds.

One loop scores the actions of a state, and it serves both the values
and the policy.  ``dp_solve`` stores values only; the policy is greedy
in them.  The ``action`` it returns runs the same loop at a real state
that replay reaches, in a real-state mode: it scans every fitting
action, breaks ties toward the lexicographically smallest action
(``lex_less`` on the real masks), stores nothing in the value table and
returns the action.  It reads every child from the table, so it never
recurses, and it skips the outcome loop in the last round (adding
``pr * 0.0`` to a non-negative value changes nothing).

When the instance has interchangeable edge classes (``tables.classes``,
see ``model.Tables``), ``dp_solve`` works on orbits of knowledge states:

* *Orbit keys.*  Every child is mapped by ``canonical`` to the
  representative of its orbit before the memo lookup: within each class
  the successes take the lowest edge ids, then the failures, then the
  unknown edges.  This is a popcount and a prefix mask per class.  The
  value table holds only these representatives.
* *Representative actions.*  The candidate list is keyed on the
  failed set and the known successes, and keeps an action only if,
  within each class, the successes it picks and the unknown edges it
  picks are the lowest ids of their part.  Any other action maps onto a
  representative by swaps that fix the state and scores the same, so
  scoring representatives only preserves the max.
* *Real states.*  In the real-state mode the candidates are all the
  fitting actions, keyed by the failed set alone, and each child's
  value is read at its canonical key.

Why the values stay bitwise: a swap inside a class maps the unknown
edges of an action onto those of its image, and where that map keeps
the edge order, the image adds the same probabilities, multiplies the
same factors and visits its outcomes in the same descending-submask
order as the original.  By induction from the last round, the two
actions then score the same float, and an orbit's states share one
value.  When every class is a run of consecutive edge ids, as on every
generated double star, the map always keeps the order.  Where a class
interleaves with other edges (a relabelled instance), the swap can
reorder terms, and the floats may differ in the last bits; the tests
find them bitwise on relabelled double stars too.  Without classes, the
code and the value table are exactly those of the unreduced solve.
"""

from __future__ import annotations

from functools import lru_cache, partial


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


def drive(step, rounds: int, real: int, stationary: bool) -> list[int]:
    """Selection masks of ``rounds`` rounds of ``step(t, s, f)`` against
    ``real``, (s, f) being what the earlier rounds revealed (see the
    module docstring on the early stop of a ``stationary`` step)."""
    s = f = 0
    sels = []
    for t in range(1, rounds + 1):
        sel = step(t, s, f)
        sels.append(sel)
        new = sel & ~(s | f)
        if new:
            s |= new & real
            f |= new & ~real
        elif stationary:
            sels += [sel] * (rounds - t)
            break
    return sels


def sm_trace(tables, real: int) -> list[int]:
    """Stable-matching process: greedy by descending probability, committing."""
    return drive(partial(_sm_step, tables), len(tables.weights), real, True)


def _sm_step(tables, t: int, s: int, f: int) -> int:
    p = tables.p
    inc = tables.inc
    cap = tables.cap
    ev = tables.ev
    new = 0
    tried = s | f
    for e in tables.order:
        if (tried >> e) & 1 or p[e] <= 0.0:
            continue
        base = s | new
        for v in ev[e]:
            if (base & inc[v]).bit_count() >= cap[v]:
                break
        else:
            new |= 1 << e
    return s | new


def gc_trace(tables, real: int) -> list[int]:
    """Greedy-commit: per round, the max-expected-weight augmentation of the
    committed successes, tie-broken toward the lexicographically smallest set.

    The candidates come from the ``holds`` index: the selections that hold
    every committed edge and no edge outside the pool or the committed set.
    They share the committed edges, so their exact weights (int sums on
    ``tables.pint``) rank them as the weights of their augmentations would."""
    return drive(partial(_gc_step, tables, _feas_weights(tables)), len(tables.weights),
                 real, True)


def _gc_step(tables, weight: list[int], t: int, s: int, f: int) -> int:
    feas = tables.feas
    holds = tables.holds
    keep = (1 << len(feas)) - 1
    x = s
    while x:
        low = x & -x
        keep &= holds[low.bit_length() - 1]
        x ^= low
    drop = 0
    x = (tables.all_mask & ~tables.posp_mask) | f  # every edge outside the pool and s
    while x:
        low = x & -x
        drop |= holds[low.bit_length() - 1]
        x ^= low
    best_w = -1
    best_new = 0
    for i in _survivors(keep & ~drop):
        w = weight[i]
        if w > best_w or (w == best_w and lex_less(feas[i] ^ s, best_new)):
            best_w = w
            best_new = feas[i] ^ s
    return s | best_new


@lru_cache(maxsize=1)
def _feas_weights(tables) -> list[int]:
    # per listed selection feas[i], the exact int sum of its pint: each one
    # adds its highest edge to a selection listed before it.  One slot, for
    # the tables traced last, as greedy-commit traces one instance at a time
    pint = tables.pint
    weight = {0: 0}
    for mask in tables.feas[1:]:
        top = mask.bit_length() - 1
        weight[mask] = weight[mask ^ (1 << top)] + pint[top]
    return list(weight.values())


def canonical(classes, s: int, f: int) -> tuple[int, int]:
    """Orbit representative of the knowledge state (s, f): within each
    edge class the successes move to the lowest ids, then the failures,
    then the unknown edges."""
    for pre in classes:
        cls = pre[-1]
        ns = (s & cls).bit_count()
        nsf = ns + (f & cls).bit_count()
        s = (s & ~cls) | pre[ns]
        f = (f & ~cls) | (pre[nsf] ^ pre[ns])
    return s, f


def _representative(classes, mask: int, avail: int, s: int) -> bool:
    # within each class the action picks the lowest ids of the known
    # successes and the lowest ids of the available unknown edges
    for pre in classes:
        cls = pre[-1]
        part = s & cls
        picked = mask & part
        if (part & ((1 << picked.bit_length()) - 1)) != picked:
            return False
        part = avail & cls & ~s
        picked = mask & part
        if (part & ((1 << picked.bit_length()) - 1)) != picked:
            return False
    return True


# _BITS[x] lists the set bits of the byte x, lowest first
_BITS = tuple(tuple(k for k in range(8) if x >> k & 1) for x in range(256))
_NO_ACTION = "no feasible action; committed successes exceed capacity"


def _fitting(tables, prune: bool, avail: int) -> list[int]:
    # a selection fits unless it holds an edge outside avail; with prune it
    # is also dropped if an edge inside avail extends it
    holds = tables.holds
    drop = 0
    x = tables.all_mask & ~avail
    while x:
        low = x & -x
        drop |= holds[low.bit_length() - 1]
        x ^= low
    if prune:
        extends = tables.extends
        x = avail
        while x:
            low = x & -x
            drop |= extends[low.bit_length() - 1]
            x ^= low
    feas = tables.feas
    return [feas[i] for i in _survivors(((1 << len(feas)) - 1) & ~drop)]


def _survivors(keep: int) -> list[int]:
    # the set bits of keep in ascending order, read a byte at a time
    data = keep.to_bytes((keep.bit_length() + 7) >> 3, "little")
    return [i << 3 | k for i, byte in enumerate(data) if byte for k in _BITS[byte]]


def _prob_sum(p, unknown: int) -> float:
    sp = 0.0
    x = unknown
    while x:
        low = x & -x
        sp += p[low.bit_length() - 1]
        x ^= low
    return sp


def _outcome_table(p, unknown: int) -> tuple[float, list[tuple[int, int, float]]]:
    outs = []
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
            outs.append((r, unknown ^ r, pr))
        if r == 0:
            break
        r = (r - 1) & unknown
    return _prob_sum(p, unknown), outs


@lru_cache(maxsize=1)
def _memos(tables) -> tuple:
    # dp_solve's memos for the tables solved last (see the module docstring)
    return ({}, {}), ({}, {}), {}, {}


def dp_solve(tables, commit: bool, prune: bool) -> tuple[float, dict, partial]:
    """Expectimax over knowledge states.

    Returns ``(root, values, action)``: the optimal expected weighted
    reward from the all-unknown state, the memoized value table keyed by
    packed state, and ``action(s, f, t)``, the argmax action at the real
    state (s, f) in round t.  With ``commit`` the action must contain every
    known success; with ``prune`` only selections maximal within the
    available edges are considered (exhaustive mode disables this).  When
    the instance has edge classes the table holds canonical states only
    (see the module docstring).  ``action`` is the solve's own loop in its
    real-state mode; it reads children only, so the orbit of (s, f) in
    round t must be in ``values``.  Last-round states are scored as leaves,
    and the memos are kept for the next solve of the same tables.
    """
    m = tables.m
    rounds = len(tables.weights)
    weights = tables.weights
    p = tables.p
    posp = tables.posp_mask
    all_mask = tables.all_mask
    classes = tables.classes
    values: dict[int, float] = {}
    # per prune, the actions fitting a failed set and the representative
    # ones per failed set and known successes (edge classes); per unknown
    # set, its outcomes with their sum (``outcomes``), and the sum alone for
    # the leaves (``sums``)
    fittings, candidate_lists, outcomes, sums = _memos(tables)
    fitting = fittings[prune]
    candidates = candidate_lists[prune]

    def representatives(s: int, f: int) -> list[int]:
        ckey = (s << m) | f
        cands = candidates.get(ckey)
        if cands is None:
            avail = posp & ~f
            cands = candidates[ckey] = [
                mask for mask in _fitting(tables, prune, avail)
                if _representative(classes, mask, avail, s)]
        return cands

    def leaf(s: int, f: int, key: int) -> float:  # a round-T state
        if classes:
            cands = representatives(s, f)
        else:
            cands = fitting.get(f)
            if cands is None:
                cands = fitting[f] = _fitting(tables, prune, posp & ~f)
        best = -1.0
        if commit:  # every action reselects all of s: max the sums alone
            for mask in cands:
                if (mask & s) == s:
                    unknown = mask ^ s
                    try:
                        sp = sums[unknown]
                    except KeyError:
                        sp = sums[unknown] = _prob_sum(p, unknown)
                    if sp > best:
                        best = sp
            if best >= 0.0:
                best += s.bit_count()
        else:
            for mask in cands:
                hit = mask & s
                unknown = mask ^ hit
                try:
                    sp = sums[unknown]
                except KeyError:
                    sp = sums[unknown] = _prob_sum(p, unknown)
                v = hit.bit_count() + sp
                if v > best:
                    best = v
        if best < 0.0:
            raise ValueError(_NO_ACTION)
        v = values[key] = weights[-1] * best
        return v

    def solve(s: int, f: int, t: int, real: bool = False):
        if classes and not real:
            cands = representatives(s, f)
        else:
            cands = fitting.get(f)
            if cands is None:
                cands = fitting[f] = _fitting(tables, prune, posp & ~f)
        w_t = weights[t - 1]
        last = t == rounds
        to_leaf = t + 1 == rounds
        child_round = (t + 1) << (2 * m)
        base = child_round | (s << m) | f
        best_v = -1.0
        best_a = 0
        for mask in cands:
            hit = mask & s
            if commit and hit != s:
                continue
            unknown = mask ^ hit
            try:
                sp, outs = outcomes[unknown]
            except KeyError:
                sp, outs = _outcome_table(p, unknown)
                if not classes:  # child key = base | (r << m | q)
                    outs = [((r << m) | q, pr) for r, q, pr in outs]
                outcomes[unknown] = sp, outs
            v = w_t * (hit.bit_count() + sp)
            if not last and classes:
                for r, q, pr in outs:
                    cs, cf = canonical(classes, s | r, f | q)
                    key = child_round | (cs << m) | cf
                    child = values.get(key)
                    if child is None:
                        child = leaf(cs, cf, key) if to_leaf else solve(cs, cf, t + 1)
                    v += pr * child
            elif not last:
                for rq, pr in outs:
                    key = base | rq
                    child = values.get(key)
                    if child is None:
                        cs, cf = (key >> m) & all_mask, key & all_mask
                        child = leaf(cs, cf, key) if to_leaf else solve(cs, cf, t + 1)
                    v += pr * child
            if v > best_v or (real and v == best_v and lex_less(mask, best_a)):
                best_v = v
                best_a = mask
        if best_v < 0.0:
            raise ValueError(_NO_ACTION)
        if real:
            return best_a
        values[(t << (2 * m)) | (s << m) | f] = best_v
        return best_v

    try:
        root = leaf(0, 0, 1 << (2 * m)) if rounds == 1 else solve(0, 0, 1)
        action = partial(solve, real=True)
    finally:
        # The closure refers to itself through its cell; break that cycle
        # so the tables are freed by reference counting, not a GC pass.
        # ``action`` never recurses: every child of a solved state is stored.
        solve = None
    return root, values, action
