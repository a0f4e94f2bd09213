import pytest

from conftest import make_instance
from oracles import (alternating_scan_loop, brute_max_weight, brute_policy_value,
                     expectation, gc_trace_large_loop, gc_trace_loop, sm_trace_loop)
from rematch import kernels
from rematch.errors import LimitExceededError, ValidationError
from rematch.generators import (double_star_layout, gen_complete_bipartite,
                                gen_double_star, gen_random, gen_separation)
from rematch.model import (Edge, Hypergraph, Instance, ManyToOne, SampleGraph, Vertex,
                           build_tables, enumerate_samples, sample)
from rematch.policies import (DP_LIMIT, _gc_trace_large, _kuhn_size,
                              _unit_bipartite_ends, build_dp, offline_max_matching,
                              opt_value, run_alternating_scan, run_greedy_commit,
                              run_opt, run_opt_follower, run_sm)
from rematch.rng import CounterRng, sub_seed

ONE_EDGE = make_instance([(0, 1, 1.0)], rounds=3)


def test_sm_single_certain_edge():
    trace = run_sm(ONE_EDGE, sample(ONE_EDGE, 0))
    assert trace.total_weighted_reward == 3.0
    assert all(s == {0} for s in trace.selections)


def test_sm_double_star_reward_is_always_n_squared():
    inst = gen_double_star(6, 0.1)
    for seed in range(25):
        trace = run_sm(inst, sample(inst, seed))
        assert trace.total_weighted_reward == 36.0
        assert all(s == {0} for s in trace.selections)


def test_sm_two_disjoint_edges_expectation():
    inst = make_instance([(0, 1, 0.5), (2, 3, 0.5)], rounds=1)
    e = expectation(inst, lambda smp: run_sm(inst, smp).total_weighted_reward)
    assert e == pytest.approx(1.0, abs=1e-12)


def test_sm_vs_greedy_commit_divergence():
    # probabilities (0.4, 0.6, 0.4) on a path: SM grabs the middle edge,
    # greedy-commit the outer pair worth 0.8
    inst = make_instance([(0, 1, 0.4), (1, 2, 0.6), (2, 3, 0.4)], rounds=1)
    smp = sample(inst, 3)
    assert run_sm(inst, smp).selections[0] == {1}
    assert run_greedy_commit(inst, smp).selections[0] == {0, 2}


def test_greedy_commit_single_edge_expectation():
    inst = make_instance([(0, 1, 0.7)], rounds=1)
    e = expectation(inst, lambda smp: run_greedy_commit(inst, smp).total_weighted_reward)
    assert e == pytest.approx(0.7, abs=1e-12)


def test_greedy_commit_first_round_on_separation():
    inst = gen_separation()
    trace = run_greedy_commit(inst, sample(inst, 1))
    assert trace.selections[0] == {0, 3}  # (u1,u3) and (u2,u4)


def test_opt_value_single_edge_is_p_times_rounds():
    for p in (0.3, 0.5, 1.0):
        inst = make_instance([(0, 1, p)], rounds=5)
        for commit in (False, True):
            assert opt_value(inst, commit) == pytest.approx(p * 5, abs=1e-12)


def test_opt_value_separation_frozen_values():
    inst = gen_separation()
    # hand computation: 1.4 + 0.49*2 + 0.51*1.4 and 1.4 + 0.49*2 + 0.42*1 + 0.09*1.4
    assert opt_value(inst, commit=False) == pytest.approx(3.094, abs=1e-12)
    assert opt_value(inst, commit=True) == pytest.approx(2.926, abs=1e-12)


def test_opt_value_matches_brute_oracle():
    for i in range(25):
        inst = gen_random("unit-small", sub_seed(5150, i))
        if inst.num_edges > 5 or inst.rounds > 3:
            continue
        for commit in (False, True):
            got = opt_value(inst, commit)
            want = brute_policy_value(inst, commit)
            assert got == pytest.approx(want, abs=1e-9), (i, commit)


def test_zero_weight_rounds_still_allow_querying():
    # two edges sharing a vertex, only the last round pays: probing one edge
    # in round 1 is free information worth 0.75 vs 0.5 for a blind round 2
    inst = make_instance([(0, 1, 0.5), (1, 2, 0.5)], rounds=2, weights=[0.0, 1.0])
    got = opt_value(inst, commit=False)
    assert got == pytest.approx(0.75, abs=1e-12)
    assert got == pytest.approx(brute_policy_value(inst, False), abs=1e-12)


def test_pruned_dp_equals_exhaustive():
    checked = 0
    for i in range(40):
        inst = gen_random("unit-small", sub_seed(626, i))
        if inst.num_edges > 6:
            continue
        checked += 1
        for commit in (False, True):
            assert opt_value(inst, commit, prune=True) == pytest.approx(
                opt_value(inst, commit, prune=False), abs=1e-9)
    assert checked >= 10


def test_run_opt_replay():
    inst = ONE_EDGE
    table = build_dp(inst, commit=False)
    trace = run_opt(inst, sample(inst, 0), table)
    assert trace.total_weighted_reward == 3.0

    sep = gen_separation()
    tbl = build_dp(sep, commit=False)
    only_first = SampleGraph.from_mask(4, 0b0001)
    trace = run_opt(sep, only_first, tbl)
    assert trace.selections[0] == {0, 3}
    assert trace.selections[1] == {1, 2}  # re-pairs after a single success


def test_run_opt_enumeration_mean_equals_value():
    for i in (3, 9):
        inst = gen_random("unit-small", sub_seed(747, i))
        table = build_dp(inst, commit=False)
        mean = expectation(inst, lambda smp: run_opt(inst, smp, table).total_weighted_reward)
        assert mean == pytest.approx(table.root_value, abs=1e-9)
        table_c = build_dp(inst, commit=True)
        mean_c = expectation(inst, lambda smp: run_opt(inst, smp, table_c).total_weighted_reward)
        assert mean_c == pytest.approx(table_c.root_value, abs=1e-9)


def test_dp_table_accessors():
    sep = gen_separation()
    table = build_dp(sep, commit=False)
    assert table.value(0, 1) == pytest.approx(3.094, abs=1e-12)
    assert table.action(0, 1) == {0, 3}
    keys = dict(table.items())
    assert keys[(0, 1)] == table.root_value
    assert all(v >= 0.0 for v in keys.values())
    with pytest.raises(KeyError):
        table.value(1, 1)  # unreachable state at round 1


def test_run_opt_rejects_inconsistent_sample():
    # an unrealized p=1 edge reaches states the table never evaluated
    inst = make_instance([(0, 1, 1.0)], rounds=2)
    table = build_dp(inst, commit=False)
    with pytest.raises(ValidationError):
        run_opt(inst, SampleGraph.from_mask(1, 0), table)


def test_dp_limit():
    inst = make_instance([(i, i + 1, 0.5) for i in range(DP_LIMIT + 1)], rounds=1)
    with pytest.raises(LimitExceededError):
        opt_value(inst, commit=False)


def test_commit_property_on_random_instances():
    for i in range(10):
        inst = gen_random("unit-small", sub_seed(888, i))
        table_c = build_dp(inst, commit=True)
        tbl = build_dp(inst, commit=False)
        for seed in range(12):
            smp = sample(inst, seed)
            opt_trace = run_opt(inst, smp, tbl)
            traces = [run_sm(inst, smp), run_greedy_commit(inst, smp),
                      run_opt(inst, smp, table_c),
                      run_opt_follower(inst, smp, opt_trace)]
            for trace in traces:
                held = set()
                for t in range(trace.rounds):
                    assert held <= set(trace.selections[t]), trace.policy
                    held |= trace.successful[t]


def test_opt_dominates_other_policies():
    for i in range(8):
        inst = gen_random("unit-small", sub_seed(999, i))
        tbl = build_dp(inst, commit=False)
        tbl_c = build_dp(inst, commit=True)
        e_opt = expectation(inst, lambda s: run_opt(inst, s, tbl).total_weighted_reward)
        for runner in (run_sm, run_greedy_commit,
                       lambda I, s: run_opt(I, s, tbl_c)):
            e_p = expectation(inst, lambda s: runner(inst, s).total_weighted_reward)
            assert e_p <= e_opt + 1e-9
        assert tbl_c.root_value >= 0.5 * tbl.root_value - 1e-9


def test_follower_trivial_cases():
    sep = gen_separation()
    tbl = build_dp(sep, commit=False)
    nothing = SampleGraph.from_mask(4, 0)
    opt_trace = run_opt(sep, nothing, tbl)
    follower = run_opt_follower(sep, nothing, opt_trace)
    assert follower.total_weighted_reward == 0.0

    one = make_instance([(0, 1, 0.5)], rounds=3)
    t1 = build_dp(one, commit=False)
    for mask in (0, 1):
        smp = SampleGraph.from_mask(1, mask)
        opt_trace = run_opt(one, smp, t1)
        follower = run_opt_follower(one, smp, opt_trace)
        assert follower.selections == opt_trace.selections


def test_follower_coupling_on_separation():
    sep = gen_separation()
    tbl = build_dp(sep, commit=False)

    def both(smp):
        ot = run_opt(sep, smp, tbl)
        ft = run_opt_follower(sep, smp, ot)
        return ot, ft

    for t in (1, 2):
        e_o = expectation(sep, lambda s: len(both(s)[0].successful[t - 1]))
        e_f = expectation(sep, lambda s: len(both(s)[1].successful[t - 1]))
        assert e_o <= 2 * e_f + 1e-9


def test_follower_rejects_mismatched_sample():
    sep = gen_separation()
    tbl = build_dp(sep, commit=False)
    trace = run_opt(sep, SampleGraph.from_mask(4, 0b1111), tbl)
    with pytest.raises(ValidationError):
        run_opt_follower(sep, SampleGraph.from_mask(4, 0), trace)


def test_alternating_scan_small_family():
    inst = gen_double_star(2, 0.1)  # 3 edges, T = 4, spokes p = 0.4
    # the scan holds the single spoke pair every round: E = 4 * 2 * 0.4
    e = expectation(inst, lambda s: run_alternating_scan(inst, s).total_weighted_reward)
    assert e == pytest.approx(4 * 2 * 0.4, abs=1e-12)
    # chance the pair is fully successful
    hit = expectation(inst, lambda s: float(s.realized[1] and s.realized[2]))
    assert hit == pytest.approx(0.4 ** 2, abs=1e-12)


def test_alternating_scan_holds_discovered_pair():
    inst = gen_double_star(3, 0.1)  # spokes 1,2 (left) 3,4 (right), T = 9
    smp = SampleGraph.from_mask(5, 0b01010)  # left spoke 1 and right spoke 3 realized
    trace = run_alternating_scan(inst, smp)
    assert trace.selections[0] == {1, 3}
    assert trace.selections[1] == {2, 4}
    for t in range(2, 9):
        assert trace.selections[t] == {1, 3}
        assert trace.round_rewards[t] == 2


def test_alternating_scan_rejects_non_family():
    with pytest.raises(ValidationError):
        run_alternating_scan(gen_separation(), sample(gen_separation(), 0))


def test_scan_full_pair_probability_closed_form():
    # chance some scan round sees both its spokes realized: 1 - (1 - p^2)^(n-1)
    inst = gen_double_star(6, 0.1)
    pairs = list(zip(range(1, 6), range(6, 11)))

    def event(smp):
        return float(any(smp.realized[a] and smp.realized[b] for a, b in pairs))

    exact = expectation(inst, event)
    assert exact == pytest.approx(1 - (1 - 0.4 ** 2) ** 5, abs=1e-12)


def test_offline_max_matching():
    sep = gen_separation()
    assert offline_max_matching(sep, SampleGraph.from_mask(4, 0)) == 0
    assert offline_max_matching(sep, SampleGraph.from_mask(4, 0b1111)) == 2
    for i in range(30):
        inst = gen_random("unit-small", sub_seed(4242, i))
        smp = sample(inst, i)
        realized = {e.id: 1.0 for e in inst.edges if smp.realized[e.id]}
        assert offline_max_matching(inst, smp) == int(brute_max_weight(inst, realized))


def test_offline_uses_matching_path_on_large_bipartite():
    inst = gen_complete_bipartite(6, 0.9)
    smp = SampleGraph.from_mask(36, (1 << 36) - 1)  # everything realized
    assert offline_max_matching(inst, smp) == 6


def test_offline_kuhn_size_matches_enumeration():
    # unit-capacity bipartite instances, some with more than 12 realized edges
    rng = CounterRng(77)
    checked_large = 0
    for k in range(60):
        if k % 4 == 0:
            inst = gen_complete_bipartite(rng.randint(2, 4), 0.8)
        else:
            n_left, n_right = rng.randint(1, 5), rng.randint(1, 5)
            pairs = [(u, n_left + j) for u in range(n_left) for j in range(n_right)]
            rng.shuffle(pairs)
            m = rng.randint(1, min(16, len(pairs)))
            inst = Instance([Vertex(i) for i in range(n_left + n_right)],
                            [Edge(i, pairs[i], 0.7) for i in range(m)], 1,
                            structure=ManyToOne(range(n_left)) if k % 2 else None)
        ends = _unit_bipartite_ends(inst)
        assert ends is not None
        smp = sample(inst, sub_seed(78, k))
        realized = {e.id: 1.0 for e in inst.edges if smp.realized[e.id]}
        checked_large += len(realized) > 12
        want = int(brute_max_weight(inst, realized))
        assert _kuhn_size(ends, smp.mask) == want
        assert offline_max_matching(inst, smp) == want
    assert checked_large >= 3


def _samples(inst, seed, count=120):
    if inst.num_edges <= 8:
        return [smp for smp, prob in enumerate_samples(inst) if prob > 0.0]
    return [sample(inst, sub_seed(seed, i)) for i in range(count)]


def test_committing_kernels_match_reference_loops():
    # the kernels stop once a round tries nothing new; the loops never stop
    instances = [gen_double_star(n, 0.1) for n in range(2, 7)]
    instances += [gen_random(profile, sub_seed(900 + i, i))
                  for profile in ("unit-small", "cap-small", "mto-small", "hyper3-small")
                  for i in range(8)]
    instances.append(gen_complete_bipartite(3, 0.5, rounds=4))
    for k, inst in enumerate(instances):
        tables = build_tables(inst)
        tables.build_enumeration()
        hyper = isinstance(inst.structure, Hypergraph)
        for smp in _samples(inst, k):
            real = smp.mask
            want_sm = sm_trace_loop(tables, real)
            want_gc = None if hyper else gc_trace_loop(tables, real)
            assert kernels.sm_trace(tables, real) == want_sm
            if not hyper:
                assert kernels.gc_trace(tables, real) == want_gc
            if not hyper and inst.num_edges <= 8:
                assert _gc_trace_large(inst, real) == gc_trace_large_loop(inst, real)


def test_gc_trace_large_matches_reference_loop_on_k55():
    # 25 edges: beyond enumeration, so the first round solves an assignment problem
    for p in (0.3, 0.5):
        inst = gen_complete_bipartite(5, p, rounds=4)
        for i in range(15):
            smp = sample(inst, sub_seed(31, i))
            want = gc_trace_large_loop(inst, smp.mask)
            assert run_greedy_commit(inst, smp).selection_masks() == tuple(want)


def test_alternating_scan_matches_reference_loop():
    for n in range(2, 7):
        for rounds in (1, n - 1, n, n * n):
            base = gen_double_star(n, 0.1)
            inst = Instance(base.vertices, base.edges, rounds)
            layout = double_star_layout(inst)
            for smp in _samples(inst, n, count=200):
                want = alternating_scan_loop(layout, rounds, smp.mask)
                assert run_alternating_scan(inst, smp).selection_masks() == tuple(want)
