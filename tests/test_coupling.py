import builtins
import dataclasses
import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from oracles import (expectation, follower_loop, gc_trace_loop, reference_coupling_expectations,
                     replay_loop, sm_trace_loop)
from rematch import cli, coupling, kernels, suites
from rematch.coupling import (DOMINATION_VARIANTS, _footprints, coupling_expectations,
                              decompose, decompose_capacitated, lemma_rules, verify_charging,
                              verify_domination)
from rematch.errors import LimitExceededError, ValidationError
from rematch.generators import (PROFILES, gen_complete_bipartite, gen_double_star,
                                gen_random, gen_separation)
from rematch.model import (Edge, Hypergraph, Instance, ManyToOne, SampleGraph, Trace,
                           Vertex, build_tables, enumerate_samples, sample)
from rematch.policies import build_dp, run_opt, run_sm
from rematch.rng import sub_seed

# a path-plus-tail where the committing reference grabs the high-probability
# middle edge and the adaptive optimum plays the outer pair around it
FORK = make_instance([(1, 2, 0.9), (0, 1, 0.8), (2, 3, 0.8)], rounds=1)


def _traces(inst, smp):
    table = build_dp(inst, commit=False)
    return run_sm(inst, smp), run_opt(inst, smp, table)


def test_decompose_all_adjacent_on_fork():
    smp = SampleGraph.from_mask(3, 0b111)
    ref, opt = _traces(FORK, smp)
    assert ref.successful[0] == {0}
    assert opt.selections[0] == {1, 2}
    d = decompose(ref, opt, 1)
    assert d.augmenting == {}
    assert d.adjacent == {(1, 1): {1, 2}}
    assert d.is_partition()
    # both outer edges charge the single middle success: factor 2 is tight
    assert len(d.adjacent[(1, 1)]) == 2 * len(ref.newly_successful[0])


def test_decompose_trivial_cases():
    sep = gen_separation()
    nothing = SampleGraph.from_mask(4, 0)
    ref, opt = _traces(sep, nothing)
    d = decompose(ref, opt, 2)
    assert d.opt_successes == frozenset() and d.augmenting == {} and d.adjacent == {}

    # reference finds nothing: everything splits into augmenting classes
    inst = make_instance([(0, 1, 0.9), (2, 3, 0.8)], rounds=2)
    smp = SampleGraph.from_mask(2, 0b10)  # only the edge SM tries second succeeds
    table = build_dp(inst, commit=False)
    ref = Trace.from_selection_masks(inst, "ref", [0b01, 0b01], smp.mask)
    opt = run_opt(inst, smp, table)
    d = decompose(ref, opt, 2)
    assert d.adjacent == {}
    assert set().union(*d.augmenting.values()) == set(d.opt_successes)


def test_decompose_requires_same_sample_and_committing_reference():
    sep = gen_separation()
    table = build_dp(sep, commit=False)
    s1 = SampleGraph.from_mask(4, 0b0001)
    s2 = SampleGraph.from_mask(4, 0b1111)
    with pytest.raises(ValidationError):
        decompose(run_sm(sep, s1), run_opt(sep, s2, table), 1)
    # the adaptive optimum drops its success after one round: not committing
    opt_trace = run_opt(sep, s1, table)
    with pytest.raises(ValidationError):
        decompose(opt_trace, opt_trace, 2)


def test_decompose_capacitated_half_occupied_right_vertex():
    inst = Instance([Vertex(0), Vertex(1), Vertex(2, 2)],
                    [Edge(0, (0, 2), 0.5), Edge(1, (1, 2), 0.5)],
                    1, structure=ManyToOne([0, 1]))
    real = 0b11
    ref = Trace.from_selection_masks(inst, "ref", [0b01], real)
    opt = Trace.from_selection_masks(inst, "opt", [0b10], real)
    d = decompose_capacitated(ref, opt, 1)
    # one committed edge fills half of the right vertex's capacity of 2
    assert d.occupied == {1}
    assert d.remainder == {}
    assert d.is_partition()


def test_decompose_capacitated_reduces_to_adjacency_at_unit_capacities():
    for i in range(12):
        inst = gen_random("unit-small", sub_seed(33, i))
        table = build_dp(inst, commit=False)
        for smp, prob in enumerate_samples(inst):
            if prob == 0.0:
                continue
            ref = run_sm(inst, smp)
            opt = run_opt(inst, smp, table)
            for t in range(1, inst.rounds + 1):
                u = decompose(ref, opt, t)
                c = decompose_capacitated(ref, opt, t)
                adj_union = set().union(*u.adjacent.values()) if u.adjacent else set()
                aug_union = set().union(*u.augmenting.values()) if u.augmenting else set()
                overlap = set(u.opt_successes) & set(ref.successful[t - 1])
                assert set(c.overlap) == overlap
                assert set(c.occupied) == adj_union - overlap
                rem_union = set().union(*c.remainder.values()) if c.remainder else set()
                assert rem_union == aug_union
                assert u.is_partition() and c.is_partition()


def test_partition_property_on_random_capacitated_instances():
    for i in range(10):
        inst = gen_random("cap-small", sub_seed(44, i))
        table = build_dp(inst, commit=False)
        for seed in range(10):
            smp = sample(inst, seed)
            ref = run_sm(inst, smp)
            opt = run_opt(inst, smp, table)
            for t in range(1, inst.rounds + 1):
                assert decompose_capacitated(ref, opt, t).is_partition()


def test_verify_charging_exact_and_reports():
    report = verify_charging(FORK, 1)
    assert report.verdict and report.mode == "exact"
    assert report.lemma == "charging"
    # tight witness: two adjacent opt successes against one reference success
    assert max(l - r for l, r in zip(report.lhs, report.rhs)) == 0.0
    payload = json.loads(report.dumps())
    assert set(payload) == {"lemma", "mode", "indices", "lhs", "rhs", "verdict"}
    assert verify_charging(FORK, 1, reference="gc").verdict
    # references the exact pass does not run: no greedy-commit on a hypergraph
    hyper = gen_random("hyper3-small", 3)
    for reference in ("gc", "opt"):
        with pytest.raises(ValidationError):
            verify_charging(hyper, hyper.rounds, reference=reference)


def test_verify_accepts_only_the_exact_mode():
    with pytest.raises(ValidationError):
        verify_charging(FORK, 1, mode="monte_carlo")
    with pytest.raises(ValidationError):
        verify_domination(FORK, 1, "sm", mode="monte_carlo")


def test_verify_domination_exact_all_variants_hold():
    for i in range(6):
        inst = gen_random("unit-small", sub_seed(55, i))
        t = inst.rounds
        for variant in ("sm", "sm_refined", "gc", "gc_refined"):
            assert verify_domination(inst, t, variant).verdict, (i, variant)
    for i in range(4):
        inst = gen_random("cap-small", sub_seed(56, i))
        assert verify_domination(inst, inst.rounds, "capacitated").verdict
        assert verify_charging(inst, inst.rounds).verdict
    for i in range(4):
        inst = gen_random("mto-small", sub_seed(57, i))
        assert verify_domination(inst, inst.rounds, "many_to_one").verdict
    for i in range(4):
        inst = gen_random("hyper3-small", sub_seed(58, i))
        assert verify_domination(inst, inst.rounds, "hypergraph").verdict
        assert verify_charging(inst, inst.rounds).verdict


# one instance of each kind, with the rules of the paper written out by hand:
# (references, runs, charging, occupancy, lemmas, domination rows, ratio
#  bounds), and the runs verify_charging may charge against; a ratio factor
# of None is the LP's u(t)
_UNIT = (("sm", 2), ("sm_refined", 2), ("gc", 1), ("gc_refined", 1))
_RULE_KINDS = {
    "unit general": (
        make_instance([(0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.4)], rounds=2),
        (("sm", "gc"), ("sm", "gc", "opt_follower"), ("charging", 2),
         ("charging_capacitated", 4),
         ("charging", "sm", "sm_refined", "gc", "gc_refined"),
         _UNIT + (("capacitated", 6),),
         (("sm", 11), ("gc", 3), ("sm", None), ("gc", None))), {"sm", "gc"}),
    "unit many-to-one": (
        make_instance([(0, 2, 0.6), (1, 2, 0.5), (1, 3, 0.4)], rounds=2,
                      structure=ManyToOne([0, 1])),
        (("sm", "gc"), ("sm", "gc", "opt_follower"), ("charging", 2),
         ("charging_many_to_one", 3),
         ("charging", "sm", "sm_refined", "gc", "gc_refined"),
         _UNIT + (("many_to_one", 4),),
         (("sm", 7), ("gc", 3), ("sm", None), ("gc", None))), {"sm", "gc"}),
    "capacitated general": (
        make_instance([(0, 1, 0.6), (1, 2, 0.5), (2, 0, 0.4)], rounds=2, caps={1: 2}),
        ((), ("sm", "gc"), ("charging_capacitated", 4),
         ("charging_capacitated", 4), ("charging", "capacitated"),
         (("capacitated", 6),),
         (("sm", 11), ("gc", 3), ("sm", None), ("gc", None))), {"sm"}),
    "capacitated many-to-one": (
        make_instance([(0, 2, 0.6), (1, 2, 0.5), (1, 3, 0.4)], rounds=2, caps={2: 2},
                      structure=ManyToOne([0, 1])),
        ((), ("sm", "gc"), ("charging_many_to_one", 3),
         ("charging_many_to_one", 3), ("charging", "many_to_one"),
         (("many_to_one", 4),),
         (("sm", 7), ("gc", 3), ("sm", None), ("gc", None))), {"sm"}),
    # hypergraph selections are vertex-disjoint, so a capacity of 2 is unit
    "hypergraph, a capacity-2 vertex": (
        make_instance([(0, 1, 0.5), (0, 2, 0.6), (0, 1, 2, 0.4)], rounds=2, caps={0: 2},
                      structure=Hypergraph(3)),
        (("sm",), ("sm",), ("charging_hypergraph", 3), None,
         ("charging", "hypergraph"), (("hypergraph", 3),), (("sm", 6),)), {"sm"}),
}


@pytest.mark.parametrize("kind", sorted(_RULE_KINDS))
def test_lemma_rules_per_kind(kind):
    inst, want, charged = _RULE_KINDS[kind]
    rules = lemma_rules(inst)
    got = (rules.references, rules.runs, rules.charging, rules.occupancy, rules.lemmas,
           rules.domination, rules.ratio_bounds)
    assert got == want
    # the factors of charging, domination rows and ratio bounds are exact ints
    assert type(rules.charging[1]) is int
    assert rules.occupancy is None or type(rules.occupancy[1]) is int
    assert all(type(f) is int for _, f in rules.domination)
    assert all(f is None or type(f) is int for _, f in rules.ratio_bounds)
    t = inst.rounds
    for reference in charged:
        assert verify_charging(inst, t, reference=reference).lemma == rules.charging[0]
    for reference in {"sm", "gc", "opt", "opt_follower"} - charged:
        with pytest.raises(ValidationError):
            verify_charging(inst, t, reference=reference)
    applies = {variant for variant, _ in rules.domination}
    assert set(rules.lemmas[1:]) <= applies
    for variant in DOMINATION_VARIANTS:
        if variant in applies:
            assert verify_domination(inst, t, variant).lemma == f"domination_{variant}"
        else:
            with pytest.raises(ValidationError):
                verify_domination(inst, t, variant)
    summary = coupling_expectations(inst)
    assert summary.references == list(rules.references)
    assert list(summary.succ) == ["opt", "opt_commit", *rules.runs]
    assert list(summary.new) == list(rules.runs)
    assert (summary.remainder is None) == (rules.occupancy is None)
    # every ratio bound's reference is a run the pass traces
    assert {ref for ref, _ in rules.ratio_bounds} <= set(rules.runs)


def test_degenerate_probabilities_deterministic_world():
    inst = make_instance([(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)], rounds=2)
    for variant in ("sm", "sm_refined", "gc", "gc_refined"):
        assert verify_domination(inst, 2, variant).verdict
    assert verify_charging(inst, 2).verdict


def test_summary_reward_expectations_match_direct_enumeration():
    inst = gen_random("unit-small", sub_seed(60, 4))
    s = coupling_expectations(inst)
    direct = expectation(inst, lambda smp: run_sm(inst, smp).total_weighted_reward)
    scale = 1 << (s.K + s.Kw)
    assert s.reward["sm"] / scale == pytest.approx(direct, abs=1e-12)
    assert s.reward["opt"] / scale == pytest.approx(s.opt_value, abs=1e-9)
    assert s.reward["opt_commit"] / scale == pytest.approx(s.opt_commit_value, abs=1e-9)


_SUMS = ("new", "succ", "aug", "adj", "remainder")


def _exact(x, den: int):
    """The summary's int sums as exact Fractions over ``den``."""
    if isinstance(x, dict):
        return {k: _exact(v, den) for k, v in x.items()}
    if isinstance(x, list):
        return [_exact(v, den) for v in x]
    return None if x is None else Fraction(x, den)


def _oracle_instances():
    for profile in ("unit-small", "cap-small", "mto-small", "hyper3-small"):
        for i in range(10):
            yield f"{profile}-{i}", gen_random(profile, sub_seed(61, i))
    for n in (2, 3, 4, 5):
        yield f"ds{n}", gen_double_star(n, 0.1)
    yield "separation", gen_separation()
    yield "k33", gen_complete_bipartite(3, 0.5, rounds=2)
    base = gen_random("cap-small", sub_seed(62, 0))
    weights = [0.7, 1.3, 0.1, 2.5, 1.1][:base.rounds]
    yield "weighted", Instance(base.vertices, base.edges, base.rounds, weights, base.structure)


@lru_cache(maxsize=None)
def _reference(inst):
    return reference_coupling_expectations(inst)


def test_grouped_pass_rounds_the_exact_per_sample_sums():
    """Every field of the grouped pass equals the per-sample oracle's: each
    int sum is exactly the per-sample sum, and the worst cases, with int
    charging pairs, and the checks are the per-sample ones."""
    scaled = {**{name: "K" for name in _SUMS}, "reward": "K+Kw"}
    for label, inst in _oracle_instances():
        got = coupling_expectations(inst)
        want = _reference(inst)
        for field in dataclasses.fields(got):
            name, value = field.name, getattr(got, field.name)
            if name in scaled:
                den = 1 << (got.K + got.Kw if scaled[name] == "K+Kw" else got.K)
                assert _exact(value, den) == want[name], (label, name)
            elif name in want:
                assert value == want[name], (label, name)
            else:  # the instance and the scales of the sums
                assert name in ("instance", "K", "Kw"), (label, name)
        pairs = [pair for per_ref in got.charging_worst.values() for pair in per_ref.values()]
        pairs += (got.occ_charging_worst or {}).values()
        assert pairs and all(type(x) is int for pair in pairs for x in pair), label
        assert got.partition_ok and got.commit_ok, label
    assert got.instance == inst and any(w != 1.0 for w in inst.weights)


def _oracle_rows(want: dict, t: int, variant: str, factor: int) -> list:
    """(index, lhs, rhs) per row of one domination variant at horizon t, from
    the oracle's exact Fractions, written out apart from the library's rows."""
    ref, shape = DOMINATION_VARIANTS[variant]
    new, zero = want["new"][ref], Fraction(0)
    rounds = range(1, t + 1)
    if shape == "tail":
        aug, adj = want["aug"][ref], want["adj"][ref]
        return [({"t": t, "i": i, "j": j},
                 aug.get((t, i), zero) + sum((adj.get((t, i, q), zero) for q in range(j, t + 1)),
                                             zero),
                 factor * new[j - 1]) for i in rounds for j in rounds]
    table = want["remainder"] if shape == "remainder" else want["aug"][ref]
    return [({"t": t, "i": i}, table.get((t, i), zero), factor * new[i - 1]) for i in rounds]


def test_verify_domination_prints_each_exact_row_rounded_once():
    # a bound added up from rounded expectations is rounded twice: on
    # hyper3-small sub_seed(7, 1) the rhs 3 * E[new] would print 3.0, but
    # E[new] sums the enumerated probabilities to 1 + 8.3e-17
    instances = [*_oracle_instances(),
                 ("hyper3-small-7-1", gen_random("hyper3-small", sub_seed(7, 1)))]
    for label, inst in instances:
        want = _reference(inst)
        for variant, factor in lemma_rules(inst).domination:
            for t in range(1, inst.rounds + 1):
                rows = _oracle_rows(want, t, variant, factor)
                report = verify_domination(inst, t, variant)
                assert report.indices == [r[0] for r in rows], (label, variant, t)
                assert report.lhs == [float(r[1]) for r in rows], (label, variant, t)
                assert report.rhs == [float(r[2]) for r in rows], (label, variant, t)
                assert report.verdict == all(r[1] <= r[2] for r in rows), (label, variant, t)
    assert verify_domination(instances[-1][1], 1, "hypergraph").rhs[0] == 3.0000000000000004


def test_a_row_violated_by_one_part_in_2_to_the_k_fails(monkeypatch):
    # unit-small draw 0's gc_refined row (t, i, j) = (1, 1, 1) is tight,
    # E[opt round-1 successes] == E[gc round-1 new successes], exactly;
    # raised by 1 / 2^56, far below the old 1e-9 tolerance, it is violated
    inst = gen_random("unit-small", sub_seed(suites.UNIT_SEED, 0))
    s = coupling_expectations(inst)
    (_, lhs, rhs), = coupling._exact_pairs(s, 1, "gc_refined", 1)
    assert lhs == rhs > 0 and s.K == 56
    assert coupling.domination_violations(s, "gc_refined") == 0
    aug = {**s.aug, "gc": {**s.aug["gc"], (1, 1): s.aug["gc"].get((1, 1), 0) + 1}}
    bumped = dataclasses.replace(s, aug=aug)
    assert coupling.domination_violations(bumped, "gc_refined") == 1
    monkeypatch.setattr(coupling, "coupling_expectations", lambda instance: bumped)
    report = verify_domination(inst, 1, "gc_refined")
    assert not report.verdict
    assert report.lhs == report.rhs  # the violation is below a float's resolution


@lru_cache(maxsize=8)
def _all_runs(inst):
    """Every run of the exact pass on one sample, each by its reference
    loop: opt, opt-commit, sm, then gc and the opt-follower where the pass
    runs them (gc not on hypergraphs, the follower at unit capacities only)."""
    tables = build_tables(inst)
    tables.build_enumeration()
    table, table_c = build_dp(inst, commit=False), build_dp(inst, commit=True)
    runs = lemma_rules(inst).runs

    def run_all(real):
        opt_sels = replay_loop(table, real)
        sels = opt_sels + replay_loop(table_c, real) + sm_trace_loop(tables, real)
        if "gc" in runs:
            sels += gc_trace_loop(tables, real)
        if "opt_follower" in runs:
            sels += follower_loop(tables, opt_sels, real)
        return sels
    return run_all


def _direct_footprint(run_all, real):
    sels = run_all(real)
    union = 0
    for sel in sels:
        union |= sel
    return (*sels, real & union)


@settings(max_examples=40, deadline=None)
@given(inst=st.one_of(
           st.builds(gen_random, st.sampled_from(sorted(PROFILES)), st.integers(0, 10**6)),
           st.builds(gen_double_star, st.integers(2, 5), st.just(0.1)),
           st.just(gen_complete_bipartite(3, 0.5, rounds=2))),
       order=st.randoms(use_true_random=False))
def test_footprint_index_returns_the_direct_footprint(inst, order):
    # The path index runs the policies only on a sample whose outcome path
    # is new; in any enumeration order, every positive sample must still
    # get the footprint that running every policy on it gives.
    run_all = _all_runs(inst)
    reals = [smp.mask for smp, prob in enumerate_samples(inst) if prob > 0.0]
    order.shuffle(reals)
    keys = list(_footprints(run_all, reals, inst.rounds))
    assert keys == [_direct_footprint(run_all, real) for real in reals]


def test_exact_pass_runs_the_policies_once_per_footprint_class(monkeypatch):
    # sm_trace runs once per class, and on some instance a class holds
    # more than one sample, so the pass runs it fewer times than samples
    instances = [inst for profile in suites.SUITES
                 for inst in suites._suite_instances(profile)[:3]]
    counts = []
    for inst in instances:
        run_all = _all_runs(inst)
        reals = [smp.mask for smp, prob in enumerate_samples(inst) if prob > 0.0]
        counts.append((len({_direct_footprint(run_all, r) for r in reals}), len(reals)))
    calls = []
    sm_trace = kernels.sm_trace
    monkeypatch.setattr(kernels, "sm_trace", lambda *args: calls.append(1) or sm_trace(*args))
    for inst, (classes, samples) in zip(instances, counts):
        calls.clear()
        coupling_expectations.__wrapped__(inst)
        assert len(calls) == classes <= samples
    assert any(classes < samples for classes, samples in counts)


def test_exact_pass_checks_the_dp_limits_before_listing_samples(monkeypatch):
    # K_{4,4} at p = 0.5: 2^16 samples are within the enumeration limit, but
    # its 3^16 orbit states are not within the DP's
    def listed(instance, masks=False):
        raise AssertionError("samples listed for an instance the DP refuses")
    monkeypatch.setattr(coupling, "enumerate_samples", listed)
    with pytest.raises(LimitExceededError, match="orbit states"):
        coupling_expectations(gen_complete_bipartite(4, 0.5))
    # ds9 (17 edges) is refused by the sample limit, checked first
    with pytest.raises(LimitExceededError, match="samples exceeds"):
        coupling_expectations(gen_double_star(9, 0.1))


def _compensated_sum(items, start=0):
    # a stand-in for the builtin sum() of Python 3.12 and later, which adds
    # floats with compensation: here exactly, by math.fsum; int sums as before
    items = list(items)
    if any(isinstance(x, float) for x in [start, *items]):
        return math.fsum([start, *items])
    return builtins.sum(items, start)


def test_verify_tail_rows_do_not_depend_on_the_builtin_sum(monkeypatch):
    argv = ["verify", "--family", "random", "--profile", "unit-small", "--count", "7",
            "--gen-seed", "101", "--lemma", "domination-sm-refined"]

    def stdout():
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(argv) == 0
        return buf.getvalue()

    plain = stdout()
    monkeypatch.setattr(coupling, "sum", _compensated_sum, raising=False)
    assert stdout() == plain
