"""Edge decompositions of coupled policy runs and the lemma checks built on them.

Two traces from the same sample graph are coupled by classifying the
successful edges of the adaptive (opt) run at a horizon ``t`` against
the committing reference run:

* unit capacities: ``augmenting`` edges are vertex-disjoint from every
  reference success, the rest are ``adjacent`` to the reference's
  round-j new successes; both are indexed by the round in which the opt
  run first selected the edge.
* capacitated: edges split into the overlap with the reference
  successes, edges blocked at a heavily occupied endpoint
  (``occupied``), and the ``remainder``; the many-to-one flavor blocks
  on any touched left endpoint or a half-occupied right endpoint.

Charging bounds are combinatorial and checked per sample with zero
tolerance; domination bounds are expectation-level claims and are only
ever checked in expectation (exactly via enumeration, or by Monte Carlo
with a stated confidence multiplier).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .errors import ValidationError
from .model import (Hypergraph, Instance, ManyToOne, Trace,
                    build_tables, enumerate_samples, mask_to_set)
from .policies import build_dp, follower_masks, run_opt
from .rng import sub_seed
from .model import sample as draw_sample

EXACT_TOL = 1e-9
MC_CONFIDENCE = 4.0


# ---------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class Decomposition:
    """Classification of the opt run's round-t successful edges.

    ``kind`` is "unit", "capacitated" or "many_to_one".  Round indices
    are 1-based.  Unit decompositions fill ``augmenting``/``adjacent``;
    capacitated ones fill ``overlap``/``occupied``/``remainder``.
    """

    kind: str
    horizon: int
    opt_successes: frozenset[int]
    augmenting: dict[int, frozenset[int]] | None = None
    adjacent: dict[tuple[int, int], frozenset[int]] | None = None
    overlap: frozenset[int] | None = None
    occupied: frozenset[int] | None = None
    remainder: dict[int, frozenset[int]] | None = None

    def classes(self) -> list[frozenset[int]]:
        out = []
        if self.augmenting is not None:
            out.extend(self.augmenting.values())
            out.extend(self.adjacent.values())
        else:
            out.append(self.overlap)
            out.append(self.occupied)
            out.extend(self.remainder.values())
        return out

    def is_partition(self) -> bool:
        """Classes pairwise disjoint with union exactly the opt successes."""
        union: set[int] = set()
        total = 0
        for c in self.classes():
            union |= c
            total += len(c)
        return union == set(self.opt_successes) and total == len(self.opt_successes)


def _first_selection(sel_masks: list[int], horizon: int) -> dict[int, int]:
    first: dict[int, int] = {}
    seen = 0
    for r in range(horizon):
        fresh = sel_masks[r] & ~seen
        seen |= sel_masks[r]
        x = fresh
        while x:
            low = x & -x
            first[low.bit_length() - 1] = r + 1
            x ^= low
    return first


def _ref_new_masks(ref_sels: list[int], real: int, horizon: int) -> list[int]:
    new = []
    prev = 0
    for r in range(horizon):
        succ = ref_sels[r] & real
        new.append(succ & ~prev)
        prev |= succ
    return new


def _decompose_unit_masks(tables, ref_sels, opt_sels, real, t):
    """(aug: {i: mask}, adj: {(i, j): mask}, opt success mask) at horizon t."""
    vmask = tables.vmask
    new = _ref_new_masks(ref_sels, real, t)
    vnew = []
    for mask in new:
        vm = 0
        x = mask
        while x:
            low = x & -x
            vm |= vmask[low.bit_length() - 1]
            x ^= low
        vnew.append(vm)
    o_mask = opt_sels[t - 1] & real
    first = _first_selection(opt_sels, t)
    aug: dict[int, int] = {}
    adj: dict[tuple[int, int], int] = {}
    x = o_mask
    while x:
        low = x & -x
        e = low.bit_length() - 1
        x ^= low
        i = first[e]
        donor = next((j + 1 for j in range(t) if vmask[e] & vnew[j]), None)
        if donor is None:
            aug[i] = aug.get(i, 0) | low
        else:
            key = (i, donor)
            adj[key] = adj.get(key, 0) | low
    return aug, adj, o_mask


def _decompose_cap_masks(tables, structure, ref_sels, opt_sels, real, t):
    """(overlap, occupied, remainder {i: mask}, opt success mask) at horizon t."""
    o_mask = opt_sels[t - 1] & real
    s_le = ref_sels[t - 1] & real
    occ_counts = [(s_le & tables.inc[v]).bit_count() for v in range(tables.n)]
    heavy = [2 * occ_counts[v] >= tables.cap[v] and occ_counts[v] > 0
             for v in range(tables.n)]
    many_to_one = isinstance(structure, ManyToOne)
    if many_to_one:
        vindex = {v.id: i for i, v in enumerate(tables.instance.vertices)}
        left = {vindex[u] for u in structure.left}
    first = _first_selection(opt_sels, t)
    overlap = 0
    occupied = 0
    remainder: dict[int, int] = {}
    x = o_mask
    while x:
        low = x & -x
        e = low.bit_length() - 1
        x ^= low
        if not many_to_one and (low & s_le):
            overlap |= low
            continue
        blocked = False
        for v in tables.ev[e]:
            if many_to_one and v in left:
                if occ_counts[v] > 0:
                    blocked = True
                    break
            elif heavy[v]:
                blocked = True
                break
        if blocked:
            occupied |= low
        else:
            i = first[e]
            remainder[i] = remainder.get(i, 0) | low
    return overlap, occupied, remainder, o_mask


def _commits(sels, real: int) -> bool:
    """True iff every success is reselected in all later rounds."""
    prev = 0
    for sel in sels:
        if prev & ~sel:
            return False
        prev |= sel & real
    return True


def _charge(worst: dict, t: int, factor: float, ref_sels, real: int,
            adj: dict | None = None, occ: int = 0) -> None:
    """Fold one sample's horizon-t charging pairs (lhs, rhs) into ``worst``.

    With ``adj`` (unit capacities) the opt edges adjacent to the
    reference's round-j new successes are charged against ``factor``
    times those, keyed (t, j); otherwise the occupied class ``occ`` is
    charged against ``factor`` times all reference successes, keyed t.
    ``worst`` keeps the pair with the largest lhs - rhs per key.
    """
    if adj is None:
        pairs = [(t, float(occ.bit_count()), factor * (ref_sels[t - 1] & real).bit_count())]
    else:
        per_donor: dict[int, int] = {}
        for (_, j), mask in adj.items():
            per_donor[j] = per_donor.get(j, 0) | mask
        new = _ref_new_masks(ref_sels, real, t)
        pairs = [((t, j), float(per_donor.get(j, 0).bit_count()),
                  factor * new[j - 1].bit_count()) for j in range(1, t + 1)]
    for key, lhs, rhs in pairs:
        prev = worst.get(key)
        if prev is None or lhs - rhs > prev[0] - prev[1]:
            worst[key] = (lhs, rhs)


def _check_coupled(ref_trace: Trace, opt_trace: Trace, t: int) -> None:
    if ref_trace.instance != opt_trace.instance:
        raise ValidationError("traces come from different instances")
    if ref_trace.sample_mask != opt_trace.sample_mask:
        raise ValidationError("traces come from different sample graphs")
    if not (1 <= t <= ref_trace.rounds):
        raise ValidationError(f"horizon {t} outside 1..{ref_trace.rounds}")
    if not _commits(ref_trace.selection_masks(), ref_trace.sample_mask):
        raise ValidationError("reference trace does not commit to its successes")


def decompose(ref_trace: Trace, opt_trace: Trace, t: int) -> Decomposition:
    """Unit-capacity decomposition of the opt run's horizon-t successes."""
    _check_coupled(ref_trace, opt_trace, t)
    inst = ref_trace.instance
    if not inst.unit_capacities():
        raise ValidationError("unit decomposition needs unit capacities")
    tables = build_tables(inst)
    aug, adj, o_mask = _decompose_unit_masks(
        tables, ref_trace.selection_masks(), opt_trace.selection_masks(),
        ref_trace.sample_mask, t)
    return Decomposition(
        kind="unit", horizon=t, opt_successes=mask_to_set(o_mask),
        augmenting={i: mask_to_set(m) for i, m in aug.items()},
        adjacent={k: mask_to_set(m) for k, m in adj.items()})


def decompose_capacitated(ref_trace: Trace, opt_trace: Trace, t: int) -> Decomposition:
    """Occupancy decomposition; many-to-one instances use the one-sided rule."""
    _check_coupled(ref_trace, opt_trace, t)
    inst = ref_trace.instance
    if isinstance(inst.structure, Hypergraph):
        raise ValidationError("capacitated decomposition covers general/many-to-one")
    tables = build_tables(inst)
    overlap, occ, rem, o_mask = _decompose_cap_masks(
        tables, inst.structure, ref_trace.selection_masks(),
        opt_trace.selection_masks(), ref_trace.sample_mask, t)
    kind = "many_to_one" if isinstance(inst.structure, ManyToOne) else "capacitated"
    return Decomposition(
        kind=kind, horizon=t, opt_successes=mask_to_set(o_mask),
        overlap=mask_to_set(overlap), occupied=mask_to_set(occ),
        remainder={i: mask_to_set(m) for i, m in rem.items()})


# ---------------------------------------------------------------------
# exact coupling engine


@dataclass
class CouplingSummary:
    """Exact (enumeration) expectations and per-sample check results."""

    instance: Instance
    horizons: list[int]
    references: list[str]                       # unit-decomposition references
    e_new: dict[str, list[float]]               # ref -> E[new successes in round i]
    e_succ: dict[str, list[float]]              # ref -> E[successes in round-t selection]
    e_opt_succ: list[float]
    e_aug: dict[str, dict[tuple[int, int], float]]
    e_adj: dict[str, dict[tuple[int, int, int], float]]
    e_overlap: list[float] | None
    e_occupied: list[float] | None
    e_remainder: dict[tuple[int, int], float] | None
    e_reward: dict[str, float]
    opt_value: float
    opt_commit_value: float
    charging_worst: dict[str, dict[tuple[int, int], tuple[float, float]]]
    occ_charging_worst: dict[int, tuple[float, float]] | None
    partition_ok: bool
    commit_ok: bool
    charging_factor: float
    occ_charging_factor: float | None

    def charging_ok(self) -> bool:
        return all(lhs <= rhs for per_ref in self.charging_worst.values()
                   for lhs, rhs in per_ref.values()) and (
            self.occ_charging_worst is None or
            all(lhs <= rhs for lhs, rhs in self.occ_charging_worst.values()))


def _charges_unit(instance: Instance) -> bool:
    """Whether the unit-capacity decomposition and charging apply.

    Hypergraph selections are vertex-disjoint whatever the declared
    capacities (``Tables.cap`` collapses them to 1), so a hypergraph
    always counts as unit.
    """
    return isinstance(instance.structure, Hypergraph) or instance.unit_capacities()


def _unit_charging_factor(instance: Instance) -> float:
    if isinstance(instance.structure, Hypergraph):
        return float(instance.structure.k)
    return 2.0


@lru_cache(maxsize=64)
def coupling_expectations(instance: Instance) -> CouplingSummary:
    """One exact pass: traces for every policy on every sample graph,
    decompositions at every horizon, expectations and per-sample checks."""
    tables = build_tables(instance)
    tables.build_enumeration()
    T = instance.rounds
    horizons = list(range(1, T + 1))
    hyper = isinstance(instance.structure, Hypergraph)
    unit = _charges_unit(instance)
    with_gc = not hyper
    with_cap = not hyper
    with_follower = unit and not hyper
    refs = (["sm", "gc"] if with_gc and unit else ["sm"] if unit else [])
    run_names = ["sm"] + (["gc"] if with_gc else []) + (
        ["opt_follower"] if with_follower else [])

    table = build_dp(instance, commit=False)
    table_c = build_dp(instance, commit=True)

    e_new = {name: [0.0] * T for name in run_names}
    e_succ = {name: [0.0] * T for name in run_names}
    e_opt_succ = [0.0] * T
    e_aug = {r: {} for r in refs}
    e_adj = {r: {} for r in refs}
    e_overlap = [0.0] * T if with_cap else None
    e_occupied = [0.0] * T if with_cap else None
    e_remainder: dict[tuple[int, int], float] | None = {} if with_cap else None
    e_reward = {"sm": 0.0, "opt": 0.0, "opt_commit": 0.0}
    if with_gc:
        e_reward["gc"] = 0.0
    if with_follower:
        e_reward["opt_follower"] = 0.0
    charging_worst = {r: {} for r in refs}
    occ_charging_worst = {} if with_cap else None
    partition_ok = True
    commit_ok = True
    charging_factor = _unit_charging_factor(instance)
    occ_factor = (3.0 if isinstance(instance.structure, ManyToOne) else 4.0) if with_cap else None

    weights = instance.weights

    def reward(sels, real):
        return sum(w * (sel & real).bit_count() for w, sel in zip(weights, sels))

    for smp, prob in enumerate_samples(instance):
        if prob == 0.0:
            continue
        real = smp.mask
        runs: dict[str, list[int]] = {"sm": kernels.sm_trace(tables, real)}
        if with_gc:
            runs["gc"] = kernels.gc_trace(tables, real)
        opt_sels = run_opt(instance, smp, table).selection_masks()
        optc_sels = run_opt(instance, smp, table_c).selection_masks()
        if with_follower:
            runs["opt_follower"] = follower_masks(tables, opt_sels, real)

        e_reward["sm"] += prob * reward(runs["sm"], real)
        e_reward["opt"] += prob * reward(opt_sels, real)
        e_reward["opt_commit"] += prob * reward(optc_sels, real)
        if with_gc:
            e_reward["gc"] += prob * reward(runs["gc"], real)
        if with_follower:
            e_reward["opt_follower"] += prob * reward(runs["opt_follower"], real)

        commit_ok &= all(_commits(sels, real) for sels in runs.values())
        commit_ok &= _commits(optc_sels, real)

        for name, sels in runs.items():
            new = _ref_new_masks(sels, real, T)
            for t in horizons:
                e_new[name][t - 1] += prob * new[t - 1].bit_count()
                e_succ[name][t - 1] += prob * (sels[t - 1] & real).bit_count()
        for t in horizons:
            e_opt_succ[t - 1] += prob * (opt_sels[t - 1] & real).bit_count()

        for t in horizons:
            for name in refs:
                aug, adj, o_mask = _decompose_unit_masks(
                    tables, runs[name], opt_sels, real, t)
                cover = 0
                count = 0
                for mask in list(aug.values()) + list(adj.values()):
                    cover |= mask
                    count += mask.bit_count()
                if cover != o_mask or count != o_mask.bit_count():
                    partition_ok = False
                for i, mask in aug.items():
                    key = (t, i)
                    e_aug[name][key] = e_aug[name].get(key, 0.0) + prob * mask.bit_count()
                for (i, j), mask in adj.items():
                    key3 = (t, i, j)
                    e_adj[name][key3] = e_adj[name].get(key3, 0.0) + prob * mask.bit_count()
                _charge(charging_worst[name], t, charging_factor, runs[name], real, adj=adj)
            if with_cap:
                overlap, occ, rem, o_mask = _decompose_cap_masks(
                    tables, instance.structure, runs["sm"], opt_sels, real, t)
                cover = overlap | occ
                count = overlap.bit_count() + occ.bit_count()
                for mask in rem.values():
                    cover |= mask
                    count += mask.bit_count()
                if cover != o_mask or count != o_mask.bit_count():
                    partition_ok = False
                e_overlap[t - 1] += prob * overlap.bit_count()
                e_occupied[t - 1] += prob * occ.bit_count()
                for i, mask in rem.items():
                    key = (t, i)
                    e_remainder[key] = e_remainder.get(key, 0.0) + prob * mask.bit_count()
                _charge(occ_charging_worst, t, occ_factor, runs["sm"], real, occ=occ)

    return CouplingSummary(
        instance=instance, horizons=horizons, references=refs,
        e_new=e_new, e_succ=e_succ, e_opt_succ=e_opt_succ,
        e_aug=e_aug, e_adj=e_adj, e_overlap=e_overlap, e_occupied=e_occupied,
        e_remainder=e_remainder, e_reward=e_reward,
        opt_value=table.root_value, opt_commit_value=table_c.root_value,
        charging_worst=charging_worst, occ_charging_worst=occ_charging_worst,
        partition_ok=partition_ok, commit_ok=commit_ok,
        charging_factor=charging_factor, occ_charging_factor=occ_factor)


# ---------------------------------------------------------------------
# lemma reports


@dataclass
class LemmaReport:
    """Per-index left/right values for one lemma check.

    Exact mode carries no standard errors; Monte Carlo verdicts flag a
    violation only when the mean gap exceeds ``confidence`` standard
    errors of the per-trial gap.
    """

    lemma: str
    mode: str
    indices: list[dict]
    lhs: list[float]
    rhs: list[float]
    verdict: bool
    stderr: list[float] | None = None
    confidence: float | None = None
    trials: int | None = None

    def to_json(self) -> dict:
        out = {"lemma": self.lemma, "mode": self.mode, "indices": self.indices,
               "lhs": self.lhs, "rhs": self.rhs, "verdict": self.verdict}
        if self.stderr is not None:
            out["stderr"] = self.stderr
            out["confidence"] = self.confidence
            out["trials"] = self.trials
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


_DOMINATION_VARIANTS = {
    # variant: (reference, factor, shape)
    "sm": ("sm", 2.0, "per_round"),
    "sm_refined": ("sm", 2.0, "tail"),
    "gc": ("gc", 1.0, "per_round"),
    "gc_refined": ("gc", 1.0, "tail"),
    "capacitated": ("sm", 6.0, "remainder"),
    "many_to_one": ("sm", 4.0, "remainder"),
    "hypergraph": ("sm", None, "per_round"),
}


def _domination_pairs(instance, t, variant, aug, adj, rem, new_sizes):
    """Yield (index descriptor, lhs, rhs) for one realization or expectation table."""
    ref, factor, shape = _DOMINATION_VARIANTS[variant]
    if variant == "hypergraph":
        factor = float(instance.structure.k)
    if shape == "per_round":
        for i in range(1, t + 1):
            lhs = aug.get((t, i), 0.0)
            yield {"t": t, "i": i}, lhs, factor * new_sizes[i - 1]
    elif shape == "tail":
        for i in range(1, t + 1):
            base = aug.get((t, i), 0.0)
            for j in range(1, t + 1):
                lhs = base + sum(adj.get((t, i, q), 0.0) for q in range(j, t + 1))
                yield {"t": t, "i": i, "j": j}, lhs, factor * new_sizes[j - 1]
    else:
        for i in range(1, t + 1):
            lhs = rem.get((t, i), 0.0)
            yield {"t": t, "i": i}, lhs, factor * new_sizes[i - 1]


def verify_domination(instance: Instance, t: int, variant: str, mode: str = "exact",
                      trials: int = 20000, seed: int = 0) -> LemmaReport:
    """Expectation-level domination inequalities; never asserted per sample."""
    if variant not in _DOMINATION_VARIANTS:
        raise ValidationError(f"unknown domination variant {variant!r}")
    if not (1 <= t <= instance.rounds):
        raise ValidationError(f"horizon {t} outside 1..{instance.rounds}")
    ref, _, shape = _DOMINATION_VARIANTS[variant]
    lemma = f"domination_{variant}"
    if mode == "exact":
        summary = coupling_expectations(instance)
        if shape == "remainder":
            aug, adj, rem = {}, {}, summary.e_remainder
        else:
            aug, adj, rem = summary.e_aug[ref], summary.e_adj[ref], {}
        new_sizes = summary.e_new[ref]
        rows = list(_domination_pairs(instance, t, variant, aug, adj, rem, new_sizes))
        indices = [r[0] for r in rows]
        lhs = [r[1] for r in rows]
        rhs = [r[2] for r in rows]
        verdict = all(a <= b + EXACT_TOL for a, b in zip(lhs, rhs))
        return LemmaReport(lemma, "exact", indices, lhs, rhs, verdict)
    if mode != "monte_carlo":
        raise ValidationError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    sums: dict = {}
    sq: dict = {}
    indices = None
    for trial in range(trials):
        smp = draw_sample(instance, sub_seed(seed, trial))
        aug, adj, rem, new_sizes = _per_sample_parts(instance, smp, t, ref, shape)
        rows = list(_domination_pairs(instance, t, variant, aug, adj, rem, new_sizes))
        if indices is None:
            indices = [r[0] for r in rows]
            sums = {k: [0.0, 0.0] for k in range(len(rows))}
            sq = {k: 0.0 for k in range(len(rows))}
        for k, (_, a, b) in enumerate(rows):
            sums[k][0] += a
            sums[k][1] += b
            sq[k] += (a - b) ** 2
    lhs, rhs, stderr = [], [], []
    verdict = True
    for k in range(len(indices)):
        la, rb = sums[k][0] / trials, sums[k][1] / trials
        gap_mean = la - rb
        var = max(sq[k] / trials - gap_mean * gap_mean, 0.0)
        se = math.sqrt(var / trials) if trials > 1 else 0.0
        lhs.append(la)
        rhs.append(rb)
        stderr.append(se)
        if gap_mean > MC_CONFIDENCE * se + EXACT_TOL:
            verdict = False
    return LemmaReport(lemma, "monte_carlo", indices, lhs, rhs, verdict,
                       stderr=stderr, confidence=MC_CONFIDENCE, trials=trials)


def _per_sample_parts(instance, smp, t, ref, shape):
    tables = build_tables(instance)
    tables.build_enumeration()
    real = smp.mask
    if ref == "sm":
        ref_sels = kernels.sm_trace(tables, real)
    else:
        ref_sels = kernels.gc_trace(tables, real)
    table = _cached_dp(instance)
    opt_sels = run_opt(instance, smp, table).selection_masks()
    new_sizes = [m.bit_count() for m in _ref_new_masks(ref_sels, real, t)]
    if shape == "remainder":
        _, _, rem, _ = _decompose_cap_masks(
            tables, instance.structure, ref_sels, opt_sels, real, t)
        return {}, {}, {(t, i): float(m.bit_count()) for i, m in rem.items()}, new_sizes
    aug, adj, _ = _decompose_unit_masks(tables, ref_sels, opt_sels, real, t)
    return ({(t, i): float(m.bit_count()) for i, m in aug.items()},
            {(t, i, j): float(m.bit_count()) for (i, j), m in adj.items()},
            {}, new_sizes)


@lru_cache(maxsize=64)
def _cached_dp(instance: Instance):
    return build_dp(instance, commit=False)


def verify_charging(instance: Instance, t: int, mode: str = "exact",
                    reference: str = "sm", trials: int = 20000, seed: int = 0
                    ) -> LemmaReport:
    """Per-sample charging bounds (combinatorial, zero tolerance).

    Unit capacities charge adjacent opt edges against each donor round
    at factor 2 (hypergraphs: k); capacitated and many-to-one instances
    charge the occupied class against all successes at factor 4 / 3.
    """
    if not (1 <= t <= instance.rounds):
        raise ValidationError(f"horizon {t} outside 1..{instance.rounds}")
    unit = _charges_unit(instance)
    hyper = isinstance(instance.structure, Hypergraph)
    if unit:
        factor = _unit_charging_factor(instance)
        lemma = "charging_hypergraph" if hyper else "charging"
    else:
        factor = 3.0 if isinstance(instance.structure, ManyToOne) else 4.0
        lemma = ("charging_many_to_one" if isinstance(instance.structure, ManyToOne)
                 else "charging_capacitated")
    if mode == "exact":
        summary = coupling_expectations(instance)
        worst = summary.charging_worst[reference] if unit else summary.occ_charging_worst
    elif mode == "monte_carlo":
        if trials < 1:
            raise ValidationError("trials must be >= 1")
        tables = build_tables(instance)
        tables.build_enumeration()
        table = _cached_dp(instance)
        worst = {}
        for trial in range(trials):
            smp = draw_sample(instance, sub_seed(seed, trial))
            real = smp.mask
            ref_sels = (kernels.sm_trace(tables, real) if reference == "sm"
                        else kernels.gc_trace(tables, real))
            opt_sels = run_opt(instance, smp, table).selection_masks()
            if unit:
                _, adj, _ = _decompose_unit_masks(tables, ref_sels, opt_sels, real, t)
                _charge(worst, t, factor, ref_sels, real, adj=adj)
            else:
                _, occ, _, _ = _decompose_cap_masks(
                    tables, instance.structure, ref_sels, opt_sels, real, t)
                _charge(worst, t, factor, ref_sels, real, occ=occ)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    if unit:
        indices = [{"t": t, "j": j} for j in range(1, t + 1)]
        pairs = [worst.get((t, j), (0.0, 0.0)) for j in range(1, t + 1)]
    else:
        indices = [{"t": t}]
        pairs = [worst.get(t, (0.0, 0.0))]
    lhs = [p[0] for p in pairs]
    rhs = [p[1] for p in pairs]
    verdict = all(a <= b for a, b in zip(lhs, rhs))
    if mode == "exact":
        return LemmaReport(lemma, "exact", indices, lhs, rhs, verdict)
    return LemmaReport(lemma, "monte_carlo", indices, lhs, rhs, verdict,
                       stderr=[0.0] * len(pairs), confidence=MC_CONFIDENCE,
                       trials=trials)
