import json

import pytest

from conftest import make_instance
from oracles import expectation
from rematch.coupling import (coupling_expectations, decompose, decompose_capacitated,
                              verify_charging, verify_domination)
from rematch.errors import ValidationError
from rematch.generators import gen_random, gen_separation
from rematch.model import (Edge, Instance, ManyToOne, SampleGraph, Trace, Vertex,
                           enumerate_samples, sample)
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
    report = verify_charging(FORK, 1, mode="exact")
    assert report.verdict and report.mode == "exact"
    assert report.lemma == "charging"
    # tight witness: two adjacent opt successes against one reference success
    assert max(l - r for l, r in zip(report.lhs, report.rhs)) == 0.0
    payload = json.loads(report.dumps())
    assert set(payload) >= {"lemma", "mode", "indices", "lhs", "rhs", "verdict"}
    assert verify_charging(FORK, 1, mode="exact", reference="gc").verdict
    # references the exact pass does not run: no greedy-commit on a hypergraph
    hyper = gen_random("hyper3-small", 3)
    for mode in ("exact", "monte_carlo"):
        for reference in ("gc", "opt"):
            with pytest.raises(ValidationError):
                verify_charging(hyper, hyper.rounds, mode, reference=reference, trials=10)


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


def test_verify_domination_monte_carlo_consistent_with_exact():
    inst = gen_random("unit-small", sub_seed(55, 1))
    t = inst.rounds
    exact = verify_domination(inst, t, "sm", mode="exact")
    mc = verify_domination(inst, t, "sm", mode="monte_carlo", trials=4000, seed=9)
    assert mc.verdict
    assert mc.trials == 4000 and mc.confidence == 4.0
    for k in range(len(exact.indices)):
        gap_exact = exact.lhs[k] - exact.rhs[k]
        gap_mc = mc.lhs[k] - mc.rhs[k]
        assert abs(gap_mc - gap_exact) <= 4 * mc.stderr[k] + 0.05


def test_verify_charging_monte_carlo():
    report = verify_charging(FORK, 1, mode="monte_carlo", trials=500, seed=3)
    assert report.verdict and report.mode == "monte_carlo"


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
