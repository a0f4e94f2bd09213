"""Independent brute-force oracles the tests check the package against.

Everything here is deliberately written from the problem statement, not
from the package internals: subsets are enumerated through itertools,
feasibility goes through the public checker, and the policy-value
oracle recurses over raw histories with no memoization, no action
pruning and no bitmask machinery.

The loops at the end are the exception.  The first is the sampler as
first written, one ``uniform01`` draw per edge; the lane draw of
``model.sample`` must give the same masks, bit for bit.  The next is
the feasible selection table as first written, a scan of all 2^m
masks; the listing by extension must give the same lists, bit for bit.
After it come the DP's fitting selections as first found, a scan of
that whole list, which the per-edge index must reproduce in the same
order, and the instance masks of ``model.Tables`` built one edge bit at
a time, which the byte-buffer constructor must reproduce field for
field.  The round loops are the committing kernels and the alternating
scan as first written, recomputing every round from scratch, and serve
as references for the versions that stop once a round can no longer
change anything.  So is the expectimax DP after them, as first written, which rebuilds every action's candidate
filters and outcome products at every state; the kernel must reproduce
its tables exactly, insertion order included.  So is the Monte Carlo
reduction, which keeps every trial's counts and computes each mean and
variance in ``Fraction``; the streamed integer sums must round to the
same floats, bit for bit.  So, last, is the
exact coupling pass as first written, one sample at a time with no
grouping, here summing in ``Fraction``: every expectation of the grouped
pass must be its correct rounding.  And the dual-feasibility check as
first written, which re-sums every cover row's prefix; the running
prefixes must report the same violations, digit for digit.  And the
LP certificate as first written, every row checked in ``Fraction``; the
integer check must accept and refuse the same LPs, with the same message.
"""

import math
from fractions import Fraction
from itertools import combinations

from rematch import coupling, kernels, model
from rematch.errors import SolverError
from rematch.kernels import lex_less
from rematch.matching import WeightedSubproblem, max_weight_matching
from rematch.model import (Hypergraph, Instance, ManyToOne, build_tables, dyadic,
                           enumerate_samples, feasible, sample)
from rematch.montecarlo import RewardStats, make_runner
from rematch.policies import PolicyId, build_dp, follower_masks
from rematch.rng import sub_seed, uniform01


def all_feasible_subsets(inst: Instance, edge_ids):
    edge_ids = sorted(edge_ids)
    for size in range(len(edge_ids) + 1):
        for combo in combinations(edge_ids, size):
            if feasible(inst, combo):
                yield combo


def brute_max_weight(inst: Instance, weights) -> float:
    """Max total weight over feasible positive-weight selections."""
    avail = [e for e, w in weights.items() if w > 0]
    return max((sum(weights[e] for e in sel)
                for sel in all_feasible_subsets(inst, avail)), default=0.0)


def brute_lex_max_weight(inst: Instance, weights) -> tuple[int, ...]:
    """The max-weight feasible selection of positive-weight edges, summed in
    ``Fraction``; among ties the lexicographically smallest sorted id tuple."""
    avail = [e for e, w in weights.items() if w > 0]
    return min(all_feasible_subsets(inst, avail),
               key=lambda sel: (-sum(Fraction(weights[e]) for e in sel), sel))


def brute_policy_value(inst: Instance, commit: bool) -> float:
    """Optimal expected weighted reward by raw recursion over histories.

    State is a plain status dict; actions are every feasible subset of
    the usable edges (known failures and p=0 edges dropped, successes
    forced under commit).  Exponential and slow; only call on tiny
    instances.
    """
    m = inst.num_edges
    p = {e.id: e.p for e in inst.edges}

    def value(status: tuple, t: int) -> float:
        if t > inst.rounds:
            return 0.0
        usable = [e for e in range(m) if status[e] != "fail" and
                  (status[e] == "success" or p[e] > 0)]
        successes = [e for e in range(m) if status[e] == "success"]
        w = inst.weights[t - 1]
        best = None
        for sel in all_feasible_subsets(inst, usable):
            if commit and not set(successes) <= set(sel):
                continue
            unknown = [e for e in sel if status[e] == "unknown"]
            imm = w * (len([e for e in sel if status[e] == "success"]) +
                       sum(p[e] for e in unknown))
            cont = 0.0
            for bits in range(1 << len(unknown)):
                prob = 1.0
                nxt = list(status)
                for idx, e in enumerate(unknown):
                    if bits >> idx & 1:
                        prob *= p[e]
                        nxt[e] = "success"
                    else:
                        prob *= 1.0 - p[e]
                        nxt[e] = "fail"
                if prob > 0.0:
                    cont += prob * value(tuple(nxt), t + 1)
            cand = imm + cont
            if best is None or cand > best:
                best = cand
        return best if best is not None else 0.0

    return value(("unknown",) * m, 1)


def expectation(inst: Instance, statistic) -> float:
    """Exact expectation of statistic(sample) over all realizations."""
    total = 0.0
    for smp, prob in enumerate_samples(inst):
        if prob > 0.0:
            total += prob * statistic(smp)
    return total


# ---------------------------------------------------------------------
# reference sampler: one draw per edge


def sample_loop(inst: Instance, seed: int) -> int:
    """The sample mask: edge e realized iff uniform01(seed, e) < p_e."""
    mask = 0
    for e in inst.edges:
        if uniform01(seed, e.id) < e.p:
            mask |= 1 << e.id
    return mask


# ---------------------------------------------------------------------
# reference feasible-selection table: every mask scanned


def feasible_selections_scan(inst: Instance) -> tuple[list[int], list[int]]:
    """(feas, ext): every feasible mask in ascending order, and per mask the
    edges outside it whose addition keeps it feasible."""
    m = inst.num_edges
    flags = bytearray(1 << m)
    feas = []
    for mask in range(1 << m):
        if feasible(inst, [e for e in range(m) if mask >> e & 1]):
            flags[mask] = 1
            feas.append(mask)
    ext = []
    for mask in feas:
        ext.append(sum(1 << e for e in range(m) if not mask >> e & 1 and flags[mask | 1 << e]))
    return feas, ext


# ---------------------------------------------------------------------
# reference table loops: the fitting selections by a scan of the list,
# and the instance masks one edge bit at a time


def ext_of(tables) -> list[int]:
    """Per feasible selection, the edges outside it with no saturated
    endpoint: the ``extends`` rows of a listed ``Tables`` transposed back."""
    return model._transpose(tables.extends, len(tables.feas))


def fitting_scan(feas: list[int], ext: list[int], prune: bool, avail: int) -> list[int]:
    """The selections of ``feas`` inside ``avail``, in list order; with
    ``prune`` only those that no edge of ``avail`` extends (``ext``)."""
    return [feas[idx] for idx in range(len(feas))
            if not (feas[idx] & ~avail)
            and not (prune and (ext[idx] & avail & ~feas[idx]))]


def tables_loop(inst: Instance) -> dict:
    """The mask fields of ``model.Tables`` built one edge bit at a time."""
    vindex = {v.id: i for i, v in enumerate(inst.vertices)}
    hyper = isinstance(inst.structure, Hypergraph)
    m, n = inst.num_edges, inst.num_vertices
    p = [e.p for e in inst.edges]
    ev = [tuple(vindex[u] for u in e.endpoints) for e in inst.edges]
    cap = [1 if hyper else v.capacity for v in inst.vertices]
    inc = [0] * n
    for e, vs in enumerate(ev):
        for v in vs:
            inc[v] |= 1 << e
    left = inst.structure.left if isinstance(inst.structure, ManyToOne) else frozenset()
    vids = [v.id for v in inst.vertices]
    groups: dict[tuple, list[int]] = {}
    for e, vs in enumerate(ev):
        shared = tuple(v for v in vs if inc[v] != 1 << e)
        private = sorted((cap[v], vids[v] in left) for v in vs if inc[v] == 1 << e)
        groups.setdefault((p[e], shared, tuple(private)), []).append(e)
    classes = []
    for ids in groups.values():
        if len(ids) > 1:
            prefix = [0]
            for e in ids:
                prefix.append(prefix[-1] | (1 << e))
            classes.append(tuple(prefix))
    return {"m": m, "n": n, "p": p, "pint": dyadic(p)[0], "all_mask": (1 << m) - 1,
            "posp_mask": sum(1 << e.id for e in inst.edges if e.p > 0.0), "ev": ev,
            "vmask": [sum(1 << v for v in vs) for vs in ev], "cap": cap, "inc": inc,
            "order": sorted(range(m), key=lambda e: (-p[e], e)),
            "weights": list(inst.weights), "classes": tuple(classes)}


# ---------------------------------------------------------------------
# reference round loops: every round recomputed, no early exit


def sm_trace_loop(tables, real: int) -> list[int]:
    committed = failed = 0
    sels = []
    for _ in range(len(tables.weights)):
        new = 0
        tried = committed | failed
        for e in tables.order:
            if (tried >> e) & 1 or tables.p[e] <= 0.0:
                continue
            base = committed | new
            if all((base & tables.inc[v]).bit_count() < tables.cap[v] for v in tables.ev[e]):
                new |= 1 << e
        sels.append(committed | new)
        committed |= new & real
        failed |= new & ~real
    return sels


def gc_trace_loop(tables, real: int) -> list[int]:
    committed = failed = 0
    sels = []
    for _ in range(len(tables.weights)):
        pool = tables.all_mask & ~(committed | failed) & tables.posp_mask
        best_w, best_new = -1.0, 0
        for mask in tables.feas:
            if (mask & committed) != committed:
                continue
            new = mask & ~committed
            if new & ~pool:
                continue
            w = 0.0
            for e in range(tables.m):
                if new >> e & 1:
                    w += tables.p[e]
            if w > best_w or (w == best_w and lex_less(new, best_new)):
                best_w, best_new = w, new
        sels.append(committed | best_new)
        committed |= best_new & real
        failed |= best_new & ~real
    return sels


def gc_trace_large_loop(instance: Instance, real: int) -> list[int]:
    committed: set[int] = set()
    failed: set[int] = set()
    caps = {v.id: v.capacity for v in instance.vertices}
    sels = []
    for _ in range(instance.rounds):
        residual = dict(caps)
        for e in committed:
            for v in instance.edges[e].endpoints:
                residual[v] -= 1
        weights = {e.id: e.p for e in instance.edges
                   if e.id not in committed and e.id not in failed and e.p > 0.0}
        picked = max_weight_matching(WeightedSubproblem(instance, weights, residual)).chosen
        sels.append(sum(1 << e for e in committed | set(picked)))
        for e in picked:
            (committed if real >> e & 1 else failed).add(e)
    return sels


def alternating_scan_loop(layout, rounds: int, real: int) -> list[int]:
    n, _, left_ids, right_ids = layout
    pairs = list(zip(left_ids, right_ids))
    success = 0
    sels = []
    for r in range(rounds):
        pair = pairs[r % (n - 1)]
        sel = (1 << pair[0]) | (1 << pair[1])
        if r >= n - 1:
            ls = next((e for e in left_ids if success >> e & 1), None)
            rs = next((e for e in right_ids if success >> e & 1), None)
            if ls is not None and rs is not None:
                sel = (1 << ls) | (1 << rs)
        sels.append(sel)
        success |= sel & real
    return sels


# ---------------------------------------------------------------------
# reference expectimax DP: no per-call candidate or outcome tables


def reference_dp_solve(tables, commit: bool, prune: bool) -> tuple[float, dict, dict]:
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
    ext = ext_of(tables)
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


# ---------------------------------------------------------------------
# reference Monte Carlo reduction: all trial results listed, then summed


def monte_carlo_list_reduce(instance: Instance, policy: PolicyId, trials: int,
                            seed: int) -> RewardStats:
    """Every trial's per-round counts listed, then each mean and variance of
    the mean computed in ``Fraction`` and rounded once; the standard error
    is the square root of the rounded variance."""
    policy = PolicyId(policy)
    runner = make_runner(instance, policy)
    counts = [runner(sample(instance, sub_seed(seed, i))) for i in range(trials)]
    weights = [Fraction(1)] if policy is PolicyId.OFFLINE_MAX else [
        Fraction(w) for w in instance.weights]

    def stats(values):
        n = len(values)
        mean = sum(values, Fraction(0)) / n
        if n < 2:
            return float(mean), 0.0
        var = sum(((x - mean) ** 2 for x in values), Fraction(0)) / (n - 1) / n
        return float(mean), math.sqrt(float(var))

    mean, se = stats([sum(w * c for w, c in zip(weights, per_round)) for per_round in counts])
    per_round = [stats([Fraction(per_round[r]) for per_round in counts])
                 for r in range(len(weights))]
    return RewardStats(policy.value, trials, seed, mean, se,
                       [mu for mu, _ in per_round], [s_e for _, s_e in per_round])


# ---------------------------------------------------------------------
# reference exact coupling pass: one sample at a time, exact sums


def _first_rounds(sels) -> dict:
    """Edge -> the 1-based round in which ``sels`` first selects it."""
    first = {}
    for r, sel in enumerate(sels, 1):
        for e in range(sel.bit_length()):
            if sel >> e & 1:
                first.setdefault(e, r)
    return first


def unit_classes_loop(tables, new, opt_sels, o_mask: int, t: int):
    """(aug, adj) of the opt successes ``o_mask`` at horizon t as first
    written: each edge's donor is found by scanning the reference's new
    successes ``new`` of rounds 1..t for one sharing a vertex with it."""
    first = _first_rounds(opt_sels)
    aug, adj = {}, {}
    for e in range(tables.m):
        if not o_mask >> e & 1:
            continue
        ends = set(tables.ev[e])
        donor = None
        for j in range(1, t + 1):
            if any(new[j - 1] >> f & 1 and ends & set(tables.ev[f]) for f in range(tables.m)):
                donor = j
                break
        i = first[e]
        if donor is None:
            aug[i] = aug.get(i, 0) | 1 << e
        else:
            adj[i, donor] = adj.get((i, donor), 0) | 1 << e
    return aug, adj


def cap_classes_loop(tables, s_le: int, opt_sels, o_mask: int):
    """(overlap, occupied, remainder) of the opt successes ``o_mask``
    against the reference successes ``s_le`` as first written: occupancy
    counted at every vertex, a vertex heavy when occupied to at least
    half its capacity, and on many-to-one instances any touched left
    vertex blocking, with no overlap class."""
    inst = tables.instance
    many_to_one = isinstance(inst.structure, ManyToOne)
    occ = [(s_le & tables.inc[v]).bit_count() for v in range(tables.n)]
    heavy = [occ[v] > 0 and 2 * occ[v] >= tables.cap[v] for v in range(tables.n)]
    left = {v for v, vert in enumerate(inst.vertices)
            if many_to_one and vert.id in inst.structure.left}
    first = _first_rounds(opt_sels)
    overlap, occupied, remainder = 0, 0, {}
    for e in range(tables.m):
        if not o_mask >> e & 1:
            continue
        if not many_to_one and s_le >> e & 1:
            overlap |= 1 << e
        elif any(occ[v] > 0 if v in left else heavy[v] for v in tables.ev[e]):
            occupied |= 1 << e
        else:
            remainder[first[e]] = remainder.get(first[e], 0) | 1 << e
    return overlap, occupied, remainder


def reference_coupling_expectations(instance: Instance) -> dict:
    """The fields of ``coupling.coupling_expectations``, summed per sample
    in ``Fraction``: every ``e_*`` value is exact (round it with
    ``float``), the charging worst cases and checks are as computed."""
    tables = build_tables(instance)
    tables.build_enumeration()
    T = instance.rounds
    horizons = range(1, T + 1)
    rules = coupling.lemma_rules(instance)
    refs = rules.references
    run_names = list(rules.runs)
    table = build_dp(instance, commit=False)
    table_c = build_dp(instance, commit=True)
    zero = Fraction(0)
    out = {
        "e_new": {name: [zero] * T for name in run_names},
        "e_succ": {name: [zero] * T for name in run_names},
        "e_opt_succ": [zero] * T,
        "e_aug": {r: {} for r in refs}, "e_adj": {r: {} for r in refs},
        "e_remainder": None if rules.occupancy is None else {},
        "e_reward": {name: zero for name in ["sm", "opt", "opt_commit"] + run_names[1:]},
        "charging_worst": {r: {} for r in refs},
        "occ_charging_worst": None if rules.occupancy is None else {},
        "partition_ok": True, "commit_ok": True,
    }
    weights = [Fraction(w) for w in instance.weights]

    def reward(sels, real):
        return sum(w * (sel & real).bit_count() for w, sel in zip(weights, sels))

    for smp, prob in enumerate_samples(instance):
        if prob == 0.0:
            continue
        prob = Fraction(prob)
        real = smp.mask
        runs = {"sm": kernels.sm_trace(tables, real)}
        if "gc" in run_names:
            runs["gc"] = kernels.gc_trace(tables, real)
        opt_sels = table.replay(real)
        optc_sels = table_c.replay(real)
        if "opt_follower" in run_names:
            runs["opt_follower"] = follower_masks(tables, opt_sels, real)
        for name, sels in [*runs.items(), ("opt", opt_sels), ("opt_commit", optc_sels)]:
            out["e_reward"][name] += prob * reward(sels, real)
            out["commit_ok"] &= name == "opt" or coupling._commits(sels, real)
        for name, sels in runs.items():
            new = coupling._new_masks(sels, real)
            for t in horizons:
                out["e_new"][name][t - 1] += prob * new[t - 1].bit_count()
                out["e_succ"][name][t - 1] += prob * (sels[t - 1] & real).bit_count()
        for t in horizons:
            out["e_opt_succ"][t - 1] += prob * (opt_sels[t - 1] & real).bit_count()
        for name in refs:
            aug_sums, adj_sums = out["e_aug"][name], out["e_adj"][name]
            new = coupling._new_masks(runs[name], real)
            for t in horizons:
                o_mask = opt_sels[t - 1] & real
                aug, adj = unit_classes_loop(tables, new, opt_sels, o_mask, t)
                out["partition_ok"] &= coupling._is_partition(
                    o_mask, [*aug.values(), *adj.values()])
                for i, mask in aug.items():
                    aug_sums[t, i] = aug_sums.get((t, i), zero) + prob * mask.bit_count()
                for (i, j), mask in adj.items():
                    adj_sums[t, i, j] = adj_sums.get((t, i, j), zero) + prob * mask.bit_count()
                coupling._charge(out["charging_worst"][name], t, rules.charging[1], new,
                                 adj=adj)
        if rules.occupancy is not None:
            rem_sums = out["e_remainder"]
            for t in horizons:
                o_mask = opt_sels[t - 1] & real
                s_le = runs["sm"][t - 1] & real
                overlap, occ, rem = cap_classes_loop(tables, s_le, opt_sels, o_mask)
                out["partition_ok"] &= coupling._is_partition(
                    o_mask, [overlap, occ, *rem.values()])
                for i, mask in rem.items():
                    rem_sums[t, i] = rem_sums.get((t, i), zero) + prob * mask.bit_count()
                coupling._charge(out["occ_charging_worst"], t, rules.occupancy[1], occ=occ,
                                 s_le=s_le)
    return out


# ---------------------------------------------------------------------
# reference dual-feasibility check: every cover row summed from scratch


def dual_violations_loop(cert) -> tuple[str, ...]:
    """The violations of ``factorlp.verify_dual_feasible`` as first written,
    re-summing the prefix F[i][:j + 1] for every cover row: O(t^3)."""
    t, variant, tol = cert.horizon, cert.variant, 1e-9
    F, c, u = cert.F, cert.c, cert.u
    bad = []
    for i in range(t):
        for j in range(t):
            lhs = sum(F[i][:j + 1]) + c[j]
            if lhs < 1.0 - tol:
                bad.append(f"cover row (i={i + 1}, j={j + 1}): {lhs:.12f} < 1")
    coef = 2.0 if variant == "sm" else 1.0
    for j in range(t):
        lhs = coef * sum(row[j] for row in F) + 2.0 * c[j]
        if lhs > u + tol:
            bad.append(f"budget row (j={j + 1}): {lhs:.12f} > u={u:.12f}")
    for i in range(t):
        lhs = sum(F[i])
        if lhs < 1.0 - tol:
            bad.append(f"mass row (i={i + 1}): {lhs:.12f} < 1")
    if min(map(min, F)) < -tol or min(c) < -tol or u < -tol:
        bad.append("negative entry")
    return tuple(bad)


# ---------------------------------------------------------------------
# reference LP certificate: every row checked in Fraction


def certify_fraction(lp, x, y, u: Fraction) -> None:
    """``factorlp._certify`` as first written: the LP's float entries become
    Fractions and every row sum, comparison and objective is a Fraction."""
    if len(x) != lp.num_vars or len(lp.objective) != lp.num_vars:
        raise SolverError("LP variables do not match the horizon")
    if len(y) != len(lp.rows) or len(lp.rhs) != len(lp.rows):
        raise SolverError("LP rows do not match the horizon")
    rows = [[(var, Fraction(coef)) for var, coef in row] for row in lp.rows]
    rhs = [Fraction(b) for b in lp.rhs]
    objective = [Fraction(c) for c in lp.objective]
    if min(x) < 0 or any(sum(coef * x[var] for var, coef in row) > b
                         for row, b in zip(rows, rhs)):
        raise SolverError("closed-form primal point is infeasible")
    reduced = [Fraction(0)] * lp.num_vars
    for row, y_r in zip(rows, y):
        for var, coef in row:
            reduced[var] += coef * y_r
    if min(y) < 0 or any(lhs < c for lhs, c in zip(reduced, objective)):
        raise SolverError("closed-form dual multipliers are infeasible")
    primal = sum(c * x_v for c, x_v in zip(objective, x))
    dual = sum(b * y_r for b, y_r in zip(rhs, y))
    if primal != u or dual != u:
        raise SolverError(f"objectives differ: primal {primal}, dual {dual}, u {u}")
