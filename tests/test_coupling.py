import json
from fractions import Fraction

import pytest

from conftest import make_instance
from oracles import expectation, reference_coupling_expectations
from rematch.coupling import (coupling_expectations, decompose, decompose_capacitated,
                              verify_charging, verify_domination)
from rematch.errors import ValidationError
from rematch.generators import (gen_complete_bipartite, gen_double_star, gen_random,
                                gen_separation)
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
