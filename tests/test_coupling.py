import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from oracles import expectation, reference_coupling_expectations
from rematch import kernels, suites
from rematch.coupling import (DOMINATION_VARIANTS, _footprints, coupling_expectations,
                              decompose, decompose_capacitated, lemma_rules, verify_charging,
                              verify_domination)
from rematch.errors import ValidationError
from rematch.generators import (PROFILES, gen_complete_bipartite, gen_double_star,
                                gen_random, gen_separation)
from rematch.model import (Edge, Hypergraph, Instance, ManyToOne, SampleGraph, Trace,
                           Vertex, build_tables, enumerate_samples, sample)
from rematch.policies import build_dp, follower_masks, run_opt, run_sm
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
# (references, runs, charging, charging references, occupancy, lemmas,
#  domination rows, ratio bounds); a ratio factor of None is the LP's u(t)
_UNIT = (("sm", 2.0), ("sm_refined", 2.0), ("gc", 1.0), ("gc_refined", 1.0))
_RULE_KINDS = {
    "unit general": (
        make_instance([(0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.4)], rounds=2),
        (("sm", "gc"), ("sm", "gc", "opt_follower"), ("charging", 2.0), ("sm", "gc"),
         ("charging_capacitated", 4.0),
         ("charging", "sm", "sm_refined", "gc", "gc_refined"),
         _UNIT + (("capacitated", 6.0),),
         (("sm", 11.0), ("gc", 3.0), ("sm", None), ("gc", None)))),
    "unit many-to-one": (
        make_instance([(0, 2, 0.6), (1, 2, 0.5), (1, 3, 0.4)], rounds=2,
                      structure=ManyToOne([0, 1])),
        (("sm", "gc"), ("sm", "gc", "opt_follower"), ("charging", 2.0), ("sm", "gc"),
         ("charging_many_to_one", 3.0),
         ("charging", "sm", "sm_refined", "gc", "gc_refined"),
         _UNIT + (("many_to_one", 4.0),),
         (("sm", 7.0), ("gc", 3.0), ("sm", None), ("gc", None)))),
    "capacitated general": (
        make_instance([(0, 1, 0.6), (1, 2, 0.5), (2, 0, 0.4)], rounds=2, caps={1: 2}),
        ((), ("sm", "gc"), ("charging_capacitated", 4.0), ("sm",),
         ("charging_capacitated", 4.0), ("charging", "capacitated"),
         (("capacitated", 6.0),),
         (("sm", 11.0), ("gc", 3.0), ("sm", None), ("gc", None)))),
    "capacitated many-to-one": (
        make_instance([(0, 2, 0.6), (1, 2, 0.5), (1, 3, 0.4)], rounds=2, caps={2: 2},
                      structure=ManyToOne([0, 1])),
        ((), ("sm", "gc"), ("charging_many_to_one", 3.0), ("sm",),
         ("charging_many_to_one", 3.0), ("charging", "many_to_one"),
         (("many_to_one", 4.0),),
         (("sm", 7.0), ("gc", 3.0), ("sm", None), ("gc", None)))),
    # hypergraph selections are vertex-disjoint, so a capacity of 2 is unit
    "hypergraph, a capacity-2 vertex": (
        make_instance([(0, 1, 0.5), (0, 2, 0.6), (0, 1, 2, 0.4)], rounds=2, caps={0: 2},
                      structure=Hypergraph(3)),
        (("sm",), ("sm",), ("charging_hypergraph", 3.0), ("sm",), None,
         ("charging", "hypergraph"), (("hypergraph", 3.0),), (("sm", 6.0),))),
}


@pytest.mark.parametrize("kind", sorted(_RULE_KINDS))
def test_lemma_rules_per_kind(kind):
    inst, want = _RULE_KINDS[kind]
    rules = lemma_rules(inst)
    assert (rules.references, rules.runs, rules.charging, rules.charging_references,
            rules.occupancy, rules.lemmas, rules.domination, rules.ratio_bounds) == want
    t = inst.rounds
    for reference in rules.charging_references:
        assert verify_charging(inst, t, reference=reference).lemma == rules.charging[0]
    for reference in {"sm", "gc", "opt", "opt_follower"} - set(rules.charging_references):
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
    assert set(summary.e_succ) == set(rules.runs)
    assert (summary.e_remainder is None) == (rules.occupancy is None)
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
    assert s.e_reward["sm"] == pytest.approx(direct, abs=1e-12)
    assert s.e_reward["opt"] == pytest.approx(s.opt_value, abs=1e-9)
    assert s.e_reward["opt_commit"] == pytest.approx(s.opt_commit_value, abs=1e-9)


_E_FIELDS = ("e_new", "e_succ", "e_opt_succ", "e_aug", "e_adj", "e_remainder", "e_reward")


def _bits(x):
    """Floats as their hex strings, exact values rounded once first."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_bits(v) for v in x]
    if isinstance(x, Fraction):
        x = float(x)
    return None if x is None else x.hex()


def _oracle_instances():
    for profile in ("unit-small", "cap-small", "mto-small", "hyper3-small"):
        for i in range(10):
            yield f"{profile}-{i}", gen_random(profile, sub_seed(61, i))
    for n in (2, 3, 4):
        yield f"ds{n}", gen_double_star(n, 0.1)
    yield "k33", gen_complete_bipartite(3, 0.5, rounds=2)
    base = gen_random("cap-small", sub_seed(62, 0))
    weights = [0.7, 1.3, 0.1, 2.5, 1.1][:base.rounds]
    yield "weighted", Instance(base.vertices, base.edges, base.rounds, weights, base.structure)


def test_grouped_pass_rounds_the_exact_per_sample_sums():
    """Every expectation of the grouped pass is the correct rounding of the
    per-sample sum, and the worst cases and checks are the per-sample ones."""
    for label, inst in _oracle_instances():
        got = coupling_expectations(inst)
        want = reference_coupling_expectations(inst)
        for name in _E_FIELDS:
            assert _bits(getattr(got, name)) == _bits(want[name]), (label, name)
        for name in ("charging_worst", "occ_charging_worst", "partition_ok", "commit_ok"):
            assert getattr(got, name) == want[name], (label, name)
        assert got.partition_ok and got.commit_ok, label
    assert any(w != 1.0 for w in inst.weights)


@lru_cache(maxsize=8)
def _all_runs(inst):
    """Every run of the exact pass on one sample, each policy run directly:
    opt, opt-commit, sm, then gc and the opt-follower where the pass runs
    them (gc not on hypergraphs, the follower at unit capacities only)."""
    tables = build_tables(inst)
    tables.build_enumeration()
    table, table_c = build_dp(inst, commit=False), build_dp(inst, commit=True)
    runs = lemma_rules(inst).runs

    def run_all(real):
        opt_sels = table.replay(real)
        sels = opt_sels + table_c.replay(real) + kernels.sm_trace(tables, real)
        if "gc" in runs:
            sels += kernels.gc_trace(tables, real)
        if "opt_follower" in runs:
            sels += follower_masks(tables, opt_sels, real)
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
