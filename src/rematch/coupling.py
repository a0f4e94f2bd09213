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
ever checked in expectation.  Both are checked exactly, over every
sample graph of positive probability; no check estimates by sampling.

The exact pass (``coupling_expectations``) traces every run on every
sample graph of positive probability, then groups the samples into
footprint classes: samples on which every run makes the same selections
and the selected edges have the same outcomes.  The decompositions, the
checks and the counts read a sample only through those, so they run
once per class, weighted by the class probability.  Probabilities are
floats, hence dyadic rationals, so every expectation is summed exactly
as an integer over a power of two and rounded once: each ``e_*`` value
is correctly rounded, whatever the grouping or the enumeration order.

This module is the one owner of the lemma rules: which checks apply to
an instance (``default_lemmas``), the charging lemma and factor
(``charging_rule``) and the domination rows (``_DOMINATION_VARIANTS``),
read by ``verify``, the CLI and the acceptance suites alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import kernels
from .errors import ValidationError
from .model import (Hypergraph, Instance, ManyToOne, Trace,
                    build_tables, enumerate_samples, mask_to_set)
from .policies import build_dp, follower_masks
# benchmarks/perf/selftest.py requires these two bindings to patch
from .model import sample as draw_sample  # noqa: F401
from .policies import run_opt  # noqa: F401

EXACT_TOL = 1e-9


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


def _first_selection(sel_masks) -> dict[int, int]:
    """Edge -> the 1-based round in which the run first selected it."""
    first: dict[int, int] = {}
    seen = 0
    for r, sel in enumerate(sel_masks, 1):
        x = sel & ~seen
        seen |= sel
        while x:
            low = x & -x
            first[low.bit_length() - 1] = r
            x ^= low
    return first


def _new_masks(sels, real: int) -> list[int]:
    """Per round, the successes the run selected for the first time."""
    new = []
    prev = 0
    for sel in sels:
        succ = sel & real
        new.append(succ & ~prev)
        prev |= succ
    return new


def _vertex_masks(tables, edge_masks: list[int]) -> list[int]:
    vmask = tables.vmask
    out = []
    for mask in edge_masks:
        vm = 0
        while mask:
            low = mask & -mask
            vm |= vmask[low.bit_length() - 1]
            mask ^= low
        out.append(vm)
    return out


def _unit_masks(tables, vnew: list[int], first: dict[int, int], o_mask: int, t: int):
    """(aug: {i: mask}, adj: {(i, j): mask}) of the opt successes ``o_mask`` at horizon t."""
    vmask = tables.vmask
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
    return aug, adj


def _cap_masks(tables, structure, s_le: int, first: dict[int, int], o_mask: int):
    """(overlap, occupied, remainder: {i: mask}) of the opt successes ``o_mask``
    against the reference successes ``s_le`` at the same horizon."""
    occ_counts = [(s_le & tables.inc[v]).bit_count() for v in range(tables.n)]
    heavy = [2 * occ_counts[v] >= tables.cap[v] and occ_counts[v] > 0
             for v in range(tables.n)]
    many_to_one = isinstance(structure, ManyToOne)
    left = set()
    if many_to_one:  # a left endpoint blocks once touched at all
        vindex = {v.id: i for i, v in enumerate(tables.instance.vertices)}
        left = {vindex[u] for u in structure.left}
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
        elif any(occ_counts[v] > 0 if v in left else heavy[v] for v in tables.ev[e]):
            occupied |= low
        else:
            i = first[e]
            remainder[i] = remainder.get(i, 0) | low
    return overlap, occupied, remainder


def _decompositions(tables, unit: bool, ref_sels, opt_sels, real: int, horizons):
    """Yield (t, opt success mask, reference new-success masks, classes) per horizon.

    ``classes`` is (aug, adj) when ``unit`` and (overlap, occupied,
    remainder) otherwise.  The whole-run prefixes every horizon slices,
    the reference's new-success masks with their vertex masks and the
    opt run's first-selection rounds, are built once per call; a single
    horizon is the call ``next(_decompositions(..., (t,)))``.
    """
    new = _new_masks(ref_sels, real)
    vnew = _vertex_masks(tables, new) if unit else None
    first = _first_selection(opt_sels)
    structure = tables.instance.structure
    for t in horizons:
        o_mask = opt_sels[t - 1] & real
        if unit:
            classes = _unit_masks(tables, vnew, first, o_mask, t)
        else:
            classes = _cap_masks(tables, structure, ref_sels[t - 1] & real, first, o_mask)
        yield t, o_mask, new, classes


def _is_partition(whole: int, classes) -> bool:
    cover = 0
    count = 0
    for mask in classes:
        cover |= mask
        count += mask.bit_count()
    return cover == whole and count == whole.bit_count()


def _commits(sels, real: int) -> bool:
    """True iff every success is reselected in all later rounds."""
    prev = 0
    for sel in sels:
        if prev & ~sel:
            return False
        prev |= sel & real
    return True


def _charge(worst: dict, t: int, factor: float, new: list[int] | None = None,
            adj: dict | None = None, occ: int = 0, s_le: int = 0) -> None:
    """Fold one sample's horizon-t charging pairs (lhs, rhs) into ``worst``.

    With ``adj`` (unit capacities) the opt edges adjacent to the
    reference's round-j new successes ``new[j - 1]`` are charged against
    ``factor`` times those, keyed (t, j); otherwise the occupied class
    ``occ`` is charged against ``factor`` times the reference successes
    ``s_le``, keyed t.  ``worst`` keeps the pair with the largest
    lhs - rhs per key.
    """
    if adj is None:
        pairs = [(t, float(occ.bit_count()), factor * s_le.bit_count())]
    else:
        per_donor: dict[int, int] = {}
        for (_, j), mask in adj.items():
            per_donor[j] = per_donor.get(j, 0) | mask
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
    _, o_mask, _, (aug, adj) = next(_decompositions(
        build_tables(inst), True, ref_trace.selection_masks(),
        opt_trace.selection_masks(), ref_trace.sample_mask, (t,)))
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
    _, o_mask, _, (overlap, occ, rem) = next(_decompositions(
        build_tables(inst), False, ref_trace.selection_masks(),
        opt_trace.selection_masks(), ref_trace.sample_mask, (t,)))
    kind = "many_to_one" if isinstance(inst.structure, ManyToOne) else "capacitated"
    return Decomposition(
        kind=kind, horizon=t, opt_successes=mask_to_set(o_mask),
        overlap=mask_to_set(overlap), occupied=mask_to_set(occ),
        remainder={i: mask_to_set(m) for i, m in rem.items()})


# ---------------------------------------------------------------------
# exact coupling summary


@dataclass
class CouplingSummary:
    """Exact (enumeration) expectations, each correctly rounded, and
    per-sample check results."""

    instance: Instance
    horizons: list[int]
    references: list[str]                       # unit-decomposition references
    e_new: dict[str, list[float]]               # ref -> E[new successes in round i]
    e_succ: dict[str, list[float]]              # ref -> E[successes in round-t selection]
    e_opt_succ: list[float]
    e_aug: dict[str, dict[tuple[int, int], float]]
    e_adj: dict[str, dict[tuple[int, int, int], float]]
    e_remainder: dict[tuple[int, int], float] | None
    e_reward: dict[str, float]
    opt_value: float
    opt_commit_value: float
    charging_worst: dict[str, dict[tuple[int, int], tuple[float, float]]]
    occ_charging_worst: dict[int, tuple[float, float]] | None
    partition_ok: bool
    commit_ok: bool

    def charging_ok(self) -> bool:
        return all(lhs <= rhs for per_ref in self.charging_worst.values()
                   for lhs, rhs in per_ref.values()) and (
            self.occ_charging_worst is None or
            all(lhs <= rhs for lhs, rhs in self.occ_charging_worst.values()))


# ---------------------------------------------------------------------
# lemma rules: which charging and domination checks apply to an instance


def _references(instance: Instance) -> list[str]:
    """The committing runs the unit decomposition is taken against.

    Empty when capacities are not all 1.  Hypergraph selections are
    vertex-disjoint whatever the declared capacities (``Tables.cap``
    collapses them to 1), so a hypergraph always counts as unit; it has
    no greedy-commit run.
    """
    if isinstance(instance.structure, Hypergraph):
        return ["sm"]
    return ["sm", "gc"] if instance.unit_capacities() else []


def _occupancy_rule(instance: Instance) -> tuple[str, float]:
    """(lemma, factor) charging the occupied class against all reference successes."""
    if isinstance(instance.structure, ManyToOne):
        return "charging_many_to_one", 3.0
    return "charging_capacitated", 4.0


def charging_rule(instance: Instance) -> tuple[str, float]:
    """(lemma, factor) of the charging bound :func:`verify_charging` checks.

    Unit capacities charge adjacent opt edges against each donor round
    at factor 2 (hypergraphs: k); other instances use the occupancy rule.
    """
    if isinstance(instance.structure, Hypergraph):
        return "charging_hypergraph", float(instance.structure.k)
    if instance.unit_capacities():
        return "charging", 2.0
    return _occupancy_rule(instance)


def default_lemmas(instance: Instance) -> list[str]:
    """The checks ``rematch verify --lemma all`` runs: "charging", then
    the domination variants that apply to the instance."""
    if isinstance(instance.structure, Hypergraph):
        return ["charging", "hypergraph"]
    if not instance.unit_capacities():
        if isinstance(instance.structure, ManyToOne):
            return ["charging", "many_to_one"]
        return ["charging", "capacitated"]
    return ["charging", "sm", "sm_refined", "gc", "gc_refined"]


# ---------------------------------------------------------------------
# exact coupling engine


@lru_cache(maxsize=64)
def coupling_expectations(instance: Instance) -> CouplingSummary:
    """One exact pass over the sample graphs of positive probability.

    *Group.*  Every run (sm, gc, opt, opt-commit, opt-follower) is traced
    on each sample, and the sample's probability is added to its
    footprint class: every run's selection masks together with the
    sample's outcomes on the union of those masks.  The rest of the pass
    reads a sample only through ``selection & real``, so all samples of a
    class give the same decompositions, checks and counts.

    *Evaluate.*  Once per class: decompositions at every horizon, the
    partition and commit checks, the charging worst cases (which need no
    weight) and the counts, weighted by the class probability.

    Each probability is a float, hence a dyadic rational; it is scaled to
    an integer over the instance's largest power-of-two denominator 2^K,
    and every sum is an exact integer, rounded once by int/int division.
    Every ``e_*`` value is therefore the correctly rounded expectation,
    whatever the grouping or the enumeration order.  ``e_reward`` weights
    the exact per-round success sums by the round weights in ``Fraction``
    arithmetic and is rounded once too.
    """
    tables = build_tables(instance)
    tables.build_enumeration()
    T = instance.rounds
    horizons = list(range(1, T + 1))
    hyper = isinstance(instance.structure, Hypergraph)
    refs = _references(instance)
    with_gc = not hyper
    with_cap = not hyper
    with_follower = bool(refs) and not hyper
    run_names = ["sm"] + (["gc"] if with_gc else []) + (
        ["opt_follower"] if with_follower else [])

    table = build_dp(instance, commit=False)
    table_c = build_dp(instance, commit=True)

    # scaled probabilities: prob = num / 2^k exactly, with 2^K the common denominator
    samples = []
    for smp, prob in enumerate_samples(instance):
        if prob > 0.0:
            num, den = prob.as_integer_ratio()
            samples.append((smp.mask, num, den.bit_length() - 1))
    K = max((k for _, _, k in samples), default=0)

    # group: footprint key -> summed scaled probability
    footprints: dict[tuple, int] = {}
    for real, num, k in samples:
        opt_sels = table.replay(real)
        sels = opt_sels + table_c.replay(real) + kernels.sm_trace(tables, real)
        if with_gc:
            sels += kernels.gc_trace(tables, real)
        if with_follower:
            sels += follower_masks(tables, opt_sels, real)
        union = 0
        for sel in sels:
            union |= sel
        sels.append(real & union)
        key = tuple(sels)
        footprints[key] = footprints.get(key, 0) + (num << (K - k))

    # evaluate: once per class, with exact integer sums
    names = ["opt", "opt_commit"] + run_names
    succ = {name: [0] * T for name in names}
    new_sums = {name: [0] * T for name in run_names}
    aug_sums = {r: {} for r in refs}
    adj_sums = {r: {} for r in refs}
    rem_sums: dict[tuple[int, int], int] = {}
    charging_worst = {r: {} for r in refs}
    occ_charging_worst = {} if with_cap else None
    partition_ok = True
    commit_ok = True
    charging_factor = charging_rule(instance)[1]
    occ_factor = _occupancy_rule(instance)[1]

    for footprint, w in footprints.items():
        real = footprint[-1]
        runs = {name: footprint[i * T:(i + 1) * T] for i, name in enumerate(names)}
        opt_sels = runs["opt"]
        commit_ok &= all(_commits(runs[name], real) for name in names[1:])

        for name, sels in runs.items():
            row = succ[name]
            for t in horizons:
                c = (sels[t - 1] & real).bit_count()
                if c:
                    row[t - 1] += w * c
        for name in run_names:
            row = new_sums[name]
            for t, mask in enumerate(_new_masks(runs[name], real)):
                if mask:
                    row[t] += w * mask.bit_count()

        for name in refs:
            aug_w, adj_w = aug_sums[name], adj_sums[name]
            for t, o_mask, new, (aug, adj) in _decompositions(
                    tables, True, runs[name], opt_sels, real, horizons):
                partition_ok &= _is_partition(o_mask, [*aug.values(), *adj.values()])
                for i, mask in aug.items():
                    key = (t, i)
                    aug_w[key] = aug_w.get(key, 0) + w * mask.bit_count()
                for (i, j), mask in adj.items():
                    key3 = (t, i, j)
                    adj_w[key3] = adj_w.get(key3, 0) + w * mask.bit_count()
                _charge(charging_worst[name], t, charging_factor, new, adj=adj)
        if with_cap:
            sm_sels = runs["sm"]
            for t, o_mask, _, (overlap, occ, rem) in _decompositions(
                    tables, False, sm_sels, opt_sels, real, horizons):
                partition_ok &= _is_partition(o_mask, [overlap, occ, *rem.values()])
                for i, mask in rem.items():
                    key = (t, i)
                    rem_sums[key] = rem_sums.get(key, 0) + w * mask.bit_count()
                _charge(occ_charging_worst, t, occ_factor, occ=occ,
                        s_le=sm_sels[t - 1] & real)

    scale = 1 << K  # int / int true division rounds correctly

    def rounded(sums: dict) -> dict:
        return {key: total / scale for key, total in sums.items()}

    weights = [Fraction(w) for w in instance.weights]
    e_reward = {name: float(sum(w * total for w, total in zip(weights, succ[name]))
                            / scale)
                for name in ["sm", "opt", "opt_commit"] + run_names[1:]}
    return CouplingSummary(
        instance=instance, horizons=horizons, references=refs,
        e_new={name: [total / scale for total in new_sums[name]] for name in run_names},
        e_succ={name: [total / scale for total in succ[name]] for name in run_names},
        e_opt_succ=[total / scale for total in succ["opt"]],
        e_aug={r: rounded(aug_sums[r]) for r in refs},
        e_adj={r: rounded(adj_sums[r]) for r in refs},
        e_remainder=rounded(rem_sums) if with_cap else None, e_reward=e_reward,
        opt_value=table.root_value, opt_commit_value=table_c.root_value,
        charging_worst=charging_worst, occ_charging_worst=occ_charging_worst,
        partition_ok=partition_ok, commit_ok=commit_ok)


# ---------------------------------------------------------------------
# lemma reports


@dataclass
class LemmaReport:
    """Per-index left/right values of one lemma check, read from the exact pass."""

    lemma: str
    mode: str  # always "exact"; kept so ``rematch verify`` output keeps its bytes
    indices: list[dict]
    lhs: list[float]
    rhs: list[float]
    verdict: bool

    def to_json(self) -> dict:
        return {"lemma": self.lemma, "mode": self.mode, "indices": self.indices,
                "lhs": self.lhs, "rhs": self.rhs, "verdict": self.verdict}

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


def _check_variant(instance: Instance, variant: str) -> None:
    """Reject a variant the exact pass keeps no expectation table for."""
    if variant not in _DOMINATION_VARIANTS:
        raise ValidationError(f"unknown domination variant {variant!r}")
    ref, _, shape = _DOMINATION_VARIANTS[variant]
    hyper = isinstance(instance.structure, Hypergraph)
    if shape == "remainder":
        applies = not hyper
    else:
        applies = ref in _references(instance) and (hyper or variant != "hypergraph")
    if not applies:
        raise ValidationError(f"domination variant {variant!r} does not apply to this instance")


def _exact_pairs(summary: CouplingSummary, t: int, variant: str):
    """Yield (index descriptor, lhs, rhs) per row of one domination variant
    at horizon t, in expectation."""
    ref, factor, shape = _DOMINATION_VARIANTS[variant]
    if variant == "hypergraph":
        factor = float(summary.instance.structure.k)
    new = summary.e_new[ref]
    if shape == "tail":
        aug, adj = summary.e_aug[ref], summary.e_adj[ref]
        for i in range(1, t + 1):
            base = aug.get((t, i), 0.0)
            for j in range(1, t + 1):
                lhs = base + sum(adj.get((t, i, q), 0.0) for q in range(j, t + 1))
                yield {"t": t, "i": i, "j": j}, lhs, factor * new[j - 1]
    else:
        table = summary.e_remainder if shape == "remainder" else summary.e_aug[ref]
        for i in range(1, t + 1):
            yield {"t": t, "i": i}, table.get((t, i), 0.0), factor * new[i - 1]


def domination_violations(summary: CouplingSummary, variant: str) -> int:
    """Rows of a domination variant violated beyond ``EXACT_TOL``, over all horizons."""
    _check_variant(summary.instance, variant)
    return sum(lhs > rhs + EXACT_TOL for t in summary.horizons
               for _, lhs, rhs in _exact_pairs(summary, t, variant))


def _check_mode(mode: str) -> None:
    # benchmarks/perf/workloads.py still passes "exact" positionally
    if mode != "exact":
        raise ValidationError(f"unknown mode {mode!r}")


def verify_domination(instance: Instance, t: int, variant: str, mode: str = "exact"
                      ) -> LemmaReport:
    """Expectation-level domination inequalities from the exact pass; never
    asserted per sample."""
    _check_mode(mode)
    _check_variant(instance, variant)
    if not (1 <= t <= instance.rounds):
        raise ValidationError(f"horizon {t} outside 1..{instance.rounds}")
    rows = list(_exact_pairs(coupling_expectations(instance), t, variant))
    lhs = [r[1] for r in rows]
    rhs = [r[2] for r in rows]
    verdict = all(a <= b + EXACT_TOL for a, b in zip(lhs, rhs))
    return LemmaReport(f"domination_{variant}", "exact", [r[0] for r in rows],
                       lhs, rhs, verdict)


def verify_charging(instance: Instance, t: int, mode: str = "exact",
                    reference: str = "sm") -> LemmaReport:
    """Per-sample charging bounds (combinatorial, zero tolerance), by
    :func:`charging_rule`: the worst sample of the exact pass per index."""
    _check_mode(mode)
    if not (1 <= t <= instance.rounds):
        raise ValidationError(f"horizon {t} outside 1..{instance.rounds}")
    refs = _references(instance)
    if reference not in (refs or ["sm"]):  # the occupancy rule charges against sm
        raise ValidationError(f"no charging check against {reference!r} on this instance")
    summary = coupling_expectations(instance)
    if refs:
        worst = summary.charging_worst[reference]
        indices = [{"t": t, "j": j} for j in range(1, t + 1)]
        pairs = [worst.get((t, j), (0.0, 0.0)) for j in range(1, t + 1)]
    else:
        indices = [{"t": t}]
        pairs = [summary.occ_charging_worst.get(t, (0.0, 0.0))]
    lhs = [p[0] for p in pairs]
    rhs = [p[1] for p in pairs]
    verdict = all(a <= b for a, b in zip(lhs, rhs))
    return LemmaReport(charging_rule(instance)[0], "exact", indices, lhs, rhs, verdict)
