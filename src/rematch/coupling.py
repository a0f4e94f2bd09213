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

The exact pass (``coupling_expectations``) groups the sample graphs of
positive probability into footprint classes: samples on which every run
makes the same selections and the selected edges have the same
outcomes.  A run reads only the outcomes of edges it has selected, so
an index of the revealed outcomes, round by round, finds a sample's
class without tracing it; every run is traced once per class.  The
decompositions, the checks and the counts read a sample only through
its class, so they run once per class too, weighted by the class
probability; each takes its donor and first-selection rounds once for
all horizons.  Probabilities are floats, hence dyadic rationals, so
every expectation is summed exactly as an integer over a power of two
and rounded once: each ``e_*`` value is correctly rounded, whatever the
grouping or the enumeration order.

This module is the one owner of the lemma rules: ``lemma_rules`` works
out an instance's kind and returns every rule that depends on it, read
by the exact pass, ``verify``, the CLI and the acceptance suites alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .errors import ValidationError
from .model import (Hypergraph, Instance, ManyToOne, Trace,
                    build_tables, dyadic, enumerate_samples, mask_to_set)
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


def _touched(vmask: list[int], mask: int) -> int:
    """The vertex mask of the edges in ``mask``."""
    vm = 0
    while mask:
        low = mask & -mask
        vm |= vmask[low.bit_length() - 1]
        mask ^= low
    return vm


def _decompositions(tables, unit: bool, ref_sels, opt_sels, real: int, horizons,
                    new: list[int] | None = None):
    """Yield (t, opt success mask, classes) per horizon.

    ``classes`` is (aug, adj) when ``unit`` and (overlap, occupied,
    remainder) otherwise.  The opt run's first-selection rounds and, for
    the unit rule, each opt success's donor round (the first round whose
    new reference successes ``new`` touch it) are found once per call;
    horizon t calls an edge adjacent iff its donor round is at most t.
    The capacitated rule blocks, per horizon, each vertex the reference
    successes fill to half its capacity, and on many-to-one instances
    each touched left vertex.
    """
    vmask = tables.vmask
    first = _first_selection(opt_sels)
    if unit:
        if new is None:
            new = _new_masks(ref_sels, real)
        donor: dict[int, int] = {}
        rest = 0
        for sel in opt_sels:
            rest |= sel & real
        for j, mask in enumerate(new, 1):
            vm = _touched(vmask, mask)
            x = rest if vm else 0
            while x:
                low = x & -x
                e = low.bit_length() - 1
                x ^= low
                if vmask[e] & vm:
                    donor[e] = j
                    rest ^= low
    else:
        inst = tables.instance
        many_to_one = isinstance(inst.structure, ManyToOne)
        left = sum(1 << v for v, vert in enumerate(inst.vertices)
                   if vert.id in inst.structure.left) if many_to_one else 0
    for t in horizons:
        o_mask = opt_sels[t - 1] & real
        if unit:
            aug: dict[int, int] = {}
            adj: dict[tuple[int, int], int] = {}
            x = o_mask
            while x:
                low = x & -x
                e = low.bit_length() - 1
                x ^= low
                i, j = first[e], donor.get(e, t + 1)
                if j > t:
                    aug[i] = aug.get(i, 0) | low
                else:
                    adj[i, j] = adj.get((i, j), 0) | low
            yield t, o_mask, (aug, adj)
            continue
        s_le = ref_sels[t - 1] & real
        blocked = 0
        touched = _touched(vmask, s_le)
        while touched:
            low = touched & -touched
            v = low.bit_length() - 1
            touched ^= low
            if left & low or 2 * (s_le & tables.inc[v]).bit_count() >= tables.cap[v]:
                blocked |= low
        overlap = 0 if many_to_one else o_mask & s_le
        occupied = 0
        remainder: dict[int, int] = {}
        x = o_mask & ~overlap
        while x:
            low = x & -x
            e = low.bit_length() - 1
            x ^= low
            if vmask[e] & blocked:
                occupied |= low
            else:
                remainder[first[e]] = remainder.get(first[e], 0) | low
        yield t, o_mask, (overlap, occupied, remainder)


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
    _, o_mask, (aug, adj) = next(_decompositions(
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
    _, o_mask, (overlap, occ, rem) = next(_decompositions(
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
# lemma rules: the one place that works out an instance's kind


# domination variant -> (reference run, shape of its rows); the factor of
# each variant that applies to an instance is in its ``LemmaRules``
DOMINATION_VARIANTS = {
    "sm": ("sm", "per_round"),
    "sm_refined": ("sm", "tail"),
    "gc": ("gc", "per_round"),
    "gc_refined": ("gc", "tail"),
    "capacitated": ("sm", "remainder"),
    "many_to_one": ("sm", "remainder"),
    "hypergraph": ("sm", "per_round"),
}


@dataclass(frozen=True)
class LemmaRules:
    """Every rule of the coupling argument that depends on the instance's kind."""

    references: tuple[str, ...]            # runs the unit decomposition is taken against
    runs: tuple[str, ...]                  # committing runs the pass traces besides opt's
    charging: tuple[str, float]            # (lemma, factor) that verify_charging reports
    charging_references: tuple[str, ...]   # runs verify_charging may charge against
    occupancy: tuple[str, float] | None    # (lemma, factor) of the occupied class vs sm
    lemmas: tuple[str, ...]                # what `rematch verify --lemma all` checks
    domination: tuple[tuple[str, float], ...]  # (variant, factor) of the rows that apply
    # criterion 4's (reference, factor): E[opt successes at t] <= factor *
    # E[reference successes at t]; a factor of None is the reference's LP u(t)
    ratio_bounds: tuple[tuple[str, float | None], ...]


def lemma_rules(instance: Instance) -> LemmaRules:
    """The lemma and ratio rules of ``instance``'s kind.

    A hypergraph is unit whatever its declared capacities (``Tables.cap``
    collapses them to 1): factor k against sm, its only committing run.
    """
    st = instance.structure
    if isinstance(st, Hypergraph):
        k = float(st.k)
        return LemmaRules(
            references=("sm",), runs=("sm",), charging=("charging_hypergraph", k),
            charging_references=("sm",), occupancy=None, lemmas=("charging", "hypergraph"),
            domination=(("hypergraph", k),), ratio_bounds=(("sm", 2 * k),))
    if isinstance(st, ManyToOne):
        occupancy, remainder, theorem = ("charging_many_to_one", 3.0), ("many_to_one", 4.0), 7.0
    else:
        occupancy, remainder, theorem = ("charging_capacitated", 4.0), ("capacitated", 6.0), 11.0
    ratio_bounds = (("sm", theorem), ("gc", 3.0), ("sm", None), ("gc", None))
    if instance.unit_capacities():
        unit = (("sm", 2.0), ("sm_refined", 2.0), ("gc", 1.0), ("gc_refined", 1.0))
        return LemmaRules(
            references=("sm", "gc"), runs=("sm", "gc", "opt_follower"),
            charging=("charging", 2.0), charging_references=("sm", "gc"), occupancy=occupancy,
            lemmas=("charging", *(v for v, _ in unit)), domination=(*unit, remainder),
            ratio_bounds=ratio_bounds)
    return LemmaRules(  # the occupancy rule charges against sm
        references=(), runs=("sm", "gc"), charging=occupancy, charging_references=("sm",),
        occupancy=occupancy, lemmas=("charging", remainder[0]), domination=(remainder,),
        ratio_bounds=ratio_bounds)


# ---------------------------------------------------------------------
# exact coupling engine


def _footprints(run_all, reals, T: int):
    """Yield each sample's footprint key: every run's T selection masks
    (``run_all(real)``, run after run), then ``real`` on their union.

    The index maps (t, U_t, real & U_t) to U_{t+1} and (T, U_T, real &
    U_T) to the key, U_t being the union of every run's selections in
    rounds <= t (U_1 is the same for every sample).  A sample takes at
    most T lookups; ``run_all`` runs only on a path not indexed yet.
    """
    index: dict[tuple, object] = {}
    root = None
    for real in reals:
        node = root
        t = 0
        while node is not None and t < T:
            t += 1
            node = index.get((t, node, real & node))
        if node is None:
            sels = run_all(real)
            unions = []
            union = 0
            for t in range(T):
                for sel in sels[t::T]:
                    union |= sel
                unions.append(union)
            node = (*sels, real & union)
            for t, (u, nxt) in enumerate(zip(unions, unions[1:] + [node]), 1):
                index[t, u, real & u] = nxt
            root = unions[0]
        yield node


@lru_cache(maxsize=64)
def coupling_expectations(instance: Instance) -> CouplingSummary:
    """One exact pass over the sample graphs of positive probability.

    *Group.*  Each sample's probability is added to its footprint class:
    every run's (sm, gc, opt, opt-commit, opt-follower) selection masks
    together with the sample's outcomes on the union of those masks.
    ``_footprints`` finds the class by walking an index of outcome paths:
    with U_t the union of every run's selections in rounds <= t, it maps
    (t, U_t, real & U_t) to U_{t+1}.  This is sound because every run
    reads only the outcomes of edges it has already selected
    (``test_runs_read_only_the_outcomes_of_edges_they_selected``), so
    samples that agree on U_t make the same round-(t+1) selections.  The
    runs are traced only for a sample whose path is not indexed yet: once
    per class.  The rest of the pass reads a sample only through
    ``selection & real``, so all samples of a class give the same
    decompositions, checks and counts.

    *Evaluate.*  Once per class: decompositions at every horizon, each
    from the donor and first-selection rounds computed once per run
    pair, the partition and commit checks, the charging worst cases
    (which need no weight) and the counts, weighted by the class
    probability.

    Each probability is a float, hence a dyadic rational: ``dyadic``
    scales them, and the round weights of ``e_reward``, to integers over
    a power of two, so every sum is exact and rounded once by int/int
    division.  Every ``e_*`` value is therefore the correctly rounded
    expectation, whatever the grouping or the enumeration order.
    """
    # scaled probabilities: prob = num / 2^K exactly; listed first, so the
    # enumeration limit refuses an instance before any DP is solved
    reals, probs = zip(*((smp.mask, prob) for smp, prob in enumerate_samples(instance)
                         if prob > 0.0))
    nums, K = dyadic(probs)

    tables = build_tables(instance)
    tables.build_enumeration()
    T = instance.rounds
    horizons = list(range(1, T + 1))
    rules = lemma_rules(instance)
    refs = list(rules.references)
    run_names = list(rules.runs)

    table = build_dp(instance, commit=False)
    table_c = build_dp(instance, commit=True)

    def run_all(real: int) -> list[int]:
        opt_sels = table.replay(real)
        sels = opt_sels + table_c.replay(real) + kernels.sm_trace(tables, real)
        if "gc" in run_names:
            sels += kernels.gc_trace(tables, real)
        if "opt_follower" in run_names:
            sels += follower_masks(tables, opt_sels, real)
        return sels

    # group: footprint key -> summed scaled probability
    footprints: dict[tuple, int] = {}
    for num, key in zip(nums, _footprints(run_all, reals, T)):
        footprints[key] = footprints.get(key, 0) + num

    # evaluate: once per class, with exact integer sums
    names = ["opt", "opt_commit"] + run_names
    succ = {name: [0] * T for name in names}
    new_sums = {name: [0] * T for name in run_names}
    aug_sums = {r: {} for r in refs}
    adj_sums = {r: {} for r in refs}
    rem_sums: dict[tuple[int, int], int] = {}
    charging_worst = {r: {} for r in refs}
    occ_charging_worst = None if rules.occupancy is None else {}
    partition_ok = True
    commit_ok = True

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
        news = {name: _new_masks(runs[name], real) for name in run_names}
        for name in run_names:
            row = new_sums[name]
            for t, mask in enumerate(news[name]):
                if mask:
                    row[t] += w * mask.bit_count()

        for name in refs:
            aug_w, adj_w = aug_sums[name], adj_sums[name]
            for t, o_mask, (aug, adj) in _decompositions(
                    tables, True, runs[name], opt_sels, real, horizons, news[name]):
                partition_ok &= _is_partition(o_mask, [*aug.values(), *adj.values()])
                for i, mask in aug.items():
                    key = (t, i)
                    aug_w[key] = aug_w.get(key, 0) + w * mask.bit_count()
                for (i, j), mask in adj.items():
                    key3 = (t, i, j)
                    adj_w[key3] = adj_w.get(key3, 0) + w * mask.bit_count()
                _charge(charging_worst[name], t, rules.charging[1], news[name], adj=adj)
        if rules.occupancy is not None:
            sm_sels = runs["sm"]
            for t, o_mask, (overlap, occ, rem) in _decompositions(
                    tables, False, sm_sels, opt_sels, real, horizons):
                partition_ok &= _is_partition(o_mask, [overlap, occ, *rem.values()])
                for i, mask in rem.items():
                    key = (t, i)
                    rem_sums[key] = rem_sums.get(key, 0) + w * mask.bit_count()
                _charge(occ_charging_worst, t, rules.occupancy[1], occ=occ,
                        s_le=sm_sels[t - 1] & real)

    scale = 1 << K  # int / int true division rounds correctly

    def rounded(sums: dict) -> dict:
        return {key: total / scale for key, total in sums.items()}

    weights, Kw = dyadic(instance.weights)
    e_reward = {name: sum(w * total for w, total in zip(weights, succ[name])) / (scale << Kw)
                for name in ["sm", "opt", "opt_commit"] + run_names[1:]}
    return CouplingSummary(
        instance=instance, horizons=horizons, references=refs,
        e_new={name: [total / scale for total in new_sums[name]] for name in run_names},
        e_succ={name: [total / scale for total in succ[name]] for name in run_names},
        e_opt_succ=[total / scale for total in succ["opt"]],
        e_aug={r: rounded(aug_sums[r]) for r in refs},
        e_adj={r: rounded(adj_sums[r]) for r in refs},
        e_remainder=None if rules.occupancy is None else rounded(rem_sums),
        e_reward=e_reward,
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


def _domination_factor(instance: Instance, variant: str) -> float:
    """The factor of ``variant`` on ``instance``; reject a variant that does not apply."""
    if variant not in DOMINATION_VARIANTS:
        raise ValidationError(f"unknown domination variant {variant!r}")
    factor = dict(lemma_rules(instance).domination).get(variant)
    if factor is None:
        raise ValidationError(f"domination variant {variant!r} does not apply to this instance")
    return factor


def _exact_pairs(summary: CouplingSummary, t: int, variant: str, factor: float):
    """Yield (index descriptor, lhs, rhs) per row of one domination variant
    at horizon t, in expectation."""
    ref, shape = DOMINATION_VARIANTS[variant]
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
    factor = _domination_factor(summary.instance, variant)
    return sum(lhs > rhs + EXACT_TOL for t in summary.horizons
               for _, lhs, rhs in _exact_pairs(summary, t, variant, factor))


def _check_mode(mode: str) -> None:
    # benchmarks/perf/workloads.py still passes "exact" positionally
    if mode != "exact":
        raise ValidationError(f"unknown mode {mode!r}")


def verify_domination(instance: Instance, t: int, variant: str, mode: str = "exact"
                      ) -> LemmaReport:
    """Expectation-level domination inequalities from the exact pass; never
    asserted per sample."""
    _check_mode(mode)
    factor = _domination_factor(instance, variant)
    if not (1 <= t <= instance.rounds):
        raise ValidationError(f"horizon {t} outside 1..{instance.rounds}")
    rows = list(_exact_pairs(coupling_expectations(instance), t, variant, factor))
    lhs = [r[1] for r in rows]
    rhs = [r[2] for r in rows]
    verdict = all(a <= b + EXACT_TOL for a, b in zip(lhs, rhs))
    return LemmaReport(f"domination_{variant}", "exact", [r[0] for r in rows],
                       lhs, rhs, verdict)


def verify_charging(instance: Instance, t: int, mode: str = "exact",
                    reference: str = "sm") -> LemmaReport:
    """Per-sample charging bounds (combinatorial, zero tolerance), by the
    instance's ``LemmaRules.charging``: the worst sample of the exact pass
    per index."""
    _check_mode(mode)
    if not (1 <= t <= instance.rounds):
        raise ValidationError(f"horizon {t} outside 1..{instance.rounds}")
    rules = lemma_rules(instance)
    if reference not in rules.charging_references:
        raise ValidationError(f"no charging check against {reference!r} on this instance")
    summary = coupling_expectations(instance)
    if rules.references:
        worst = summary.charging_worst[reference]
        indices = [{"t": t, "j": j} for j in range(1, t + 1)]
        pairs = [worst.get((t, j), (0.0, 0.0)) for j in range(1, t + 1)]
    else:
        indices = [{"t": t}]
        pairs = [summary.occ_charging_worst.get(t, (0.0, 0.0))]
    lhs = [p[0] for p in pairs]
    rhs = [p[1] for p in pairs]
    verdict = all(a <= b for a, b in zip(lhs, rhs))
    return LemmaReport(rules.charging[0], "exact", indices, lhs, rhs, verdict)
