import gc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from oracles import (alternating_scan_loop, brute_max_weight, brute_policy_value,
                     expectation, gc_trace_large_loop, gc_trace_loop, reference_dp_solve,
                     sm_trace_loop)
from rematch import kernels
from rematch.coupling import _footprints
from rematch.errors import LimitExceededError, ValidationError
from rematch.generators import (PROFILES, RandomProfile, double_star_layout,
                                gen_complete_bipartite, gen_double_star, gen_random,
                                gen_separation)
from rematch.model import (Edge, Hypergraph, Instance, KnowledgeState, ManyToOne,
                           SampleGraph, Vertex, build_tables, enumerate_samples,
                           mask_to_set, sample)
from rematch.policies import (DP_ROUNDS_LIMIT, DP_STATES_LIMIT, _gc_trace_large, _kuhn_size,
                              _unit_bipartite_ends, build_dp, follower_masks,
                              offline_max_matching, opt_value, run_alternating_scan,
                              run_greedy_commit, run_opt, run_opt_follower, run_sm)
from rematch.rng import CounterRng, sub_seed
from rematch.suites import _suite_instances

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


def _relabel(instance, seed):
    """The same instance with vertex ids and edge order permuted by seed."""
    rng = CounterRng(seed)
    vperm = [v.id for v in instance.vertices]
    rng.shuffle(vperm)
    vmap = {v.id: new for v, new in zip(instance.vertices, vperm)}
    order = list(range(instance.num_edges))
    rng.shuffle(order)
    vertices = sorted((Vertex(vmap[v.id], v.capacity) for v in instance.vertices),
                      key=lambda v: v.id)
    edges = [Edge(new, [vmap[u] for u in instance.edges[old].endpoints],
                  instance.edges[old].p) for new, old in enumerate(order)]
    return Instance(vertices, edges, instance.rounds, instance.weights)


# hand-built instances with interchangeable edges: a capacity-2 star, two
# hubs with unequal spokes and round weights, a many-to-one hub of
# capacity 2, and 3-uniform teams sharing a captain.  TWO_HUB's last round
# is free, so every action ties there and the tie-break decides: the hub
# edge 3 comes first in mask order, a spoke pair such as {0, 4} in
# lexicographic order.
STAR_CAP2 = make_instance([(0, i, 0.5) for i in range(1, 5)], rounds=3, caps={0: 2})
TWO_HUB = make_instance([(0, 2, 0.3), (0, 3, 0.3), (0, 4, 0.3), (0, 1, 0.9),
                         (1, 5, 0.6), (1, 6, 0.6)], rounds=3, weights=[2.0, 0.5, 0.0])
MTO_HUB = make_instance([(0, 4, 0.5), (1, 4, 0.5), (2, 4, 0.5), (3, 4, 0.7), (3, 5, 0.7)],
                        rounds=3, caps={4: 2}, structure=ManyToOne([0, 1, 2, 3]))
TEAMS = make_instance([(0, 1, 2, 0.4), (0, 3, 4, 0.4), (0, 5, 6, 0.4), (7, 8, 9, 0.6),
                       (7, 10, 0.5)], rounds=3, structure=Hypergraph(3))


def _class_ids(inst):
    return [[e for e in range(inst.num_edges) if pre[-1] >> e & 1]
            for pre in build_tables(inst).classes]


def test_dp_solve_matches_reference_tables():
    # without edge classes: same root and values bit for bit, in the same
    # insertion order, and dp_action derives the reference action at every
    # reference state
    instances = [gen_double_star(2, 0.1), gen_complete_bipartite(3, 0.5, rounds=3)]
    instances += [gen_random(profile, sub_seed(4242, i))
                  for profile in ("unit-small", "cap-small", "mto-small", "hyper3-small")
                  for i in range(10)]
    for k, inst in enumerate(instances):
        tables = build_tables(inst)
        tables.build_enumeration()
        assert not tables.classes, k
        for commit in (False, True):
            for prune in (False, True):
                root, values = kernels.dp_solve(tables, commit, prune)
                want_root, want_values, want_actions = reference_dp_solve(
                    tables, commit, prune)
                assert root == want_root, (k, commit, prune)
                assert list(values.items()) == list(want_values.items()), (k, commit, prune)
                m = tables.m
                fitting, outcomes = {}, {}  # shared across states, as replay shares them
                for key, want in want_actions.items():
                    s, f = (key >> m) & tables.all_mask, key & tables.all_mask
                    got = kernels.dp_action(tables, commit, prune, values, s, f,
                                            key >> (2 * m), fitting, outcomes)
                    assert got == want, (k, commit, prune, key)


def test_dp_table_stores_no_actions():
    # the solve keeps values only; replay derives the actions it visits
    table = build_dp(gen_double_star(5, 0.1), commit=False)
    assert table._actions == table._fitting == table._outcomes == {}
    table.replay(0b1)  # the certain hub edge succeeds, every spoke fails
    assert len(table._actions) == 25
    # replay's own action lists and outcome tables, one per distinct key
    assert 0 < len(table._fitting) <= 25 and table._outcomes


def _assert_matches_reference(inst, commit, prune, label):
    # with edge classes the table holds one state per orbit; every state
    # the unreduced solve reaches still reads its value and action bit for bit
    tables = build_tables(inst)
    tables.build_enumeration()
    table = build_dp(inst, commit, prune)
    want_root, want_values, want_actions = reference_dp_solve(tables, commit, prune)
    assert table.root_value == want_root, label
    assert len(table) < len(want_values), label
    m = inst.num_edges
    for key, want in want_values.items():
        ks = KnowledgeState((key >> m) & tables.all_mask, key & tables.all_mask)
        t = key >> (2 * m)
        assert table.value(ks, t) == want, (label, key)
        assert table.action(ks, t) == mask_to_set(want_actions[key]), (label, key)


def test_orbit_dp_matches_reference_on_double_stars():
    for n in (3, 4):
        inst = gen_double_star(n, 0.1)
        for commit in (False, True):
            for prune in (False, True):
                _assert_matches_reference(inst, commit, prune, (n, commit, prune))


def test_orbit_dp_matches_reference_on_relabelled_and_hand_built_instances():
    ds4 = gen_double_star(4, 0.1)
    for seed in range(6):
        inst = _relabel(ds4, seed)
        assert sorted(map(len, _class_ids(inst))) == [3, 3]
        for commit in (False, True):
            _assert_matches_reference(inst, commit, True, (seed, commit))
    for k, inst in enumerate((STAR_CAP2, TWO_HUB, MTO_HUB, TEAMS)):
        assert build_tables(inst).classes, k
        for commit in (False, True):
            for prune in (False, True):
                _assert_matches_reference(inst, commit, prune, (k, commit, prune))


def test_orbit_replay_matches_reference_replay():
    # run_opt at states the solve did not store agrees with replaying the
    # unreduced argmax actions, on every realization
    for inst in (gen_double_star(3, 0.1), _relabel(gen_double_star(4, 0.1), 2)):
        tables = build_tables(inst)
        tables.build_enumeration()
        m = inst.num_edges
        for commit in (False, True):
            table = build_dp(inst, commit)
            _, _, want_actions = reference_dp_solve(tables, commit, True)
            for smp, prob in enumerate_samples(inst):
                if prob == 0.0:
                    continue
                s = f = 0
                want = []
                for t in range(1, inst.rounds + 1):
                    mask = want_actions[(t << (2 * m)) | (s << m) | f]
                    want.append(mask)
                    unknown = mask & ~s
                    s |= unknown & smp.mask
                    f |= unknown & ~smp.mask
                assert run_opt(inst, smp, table).selection_masks() == tuple(want)


def test_orbit_solve_evaluates_representative_actions_only():
    # ds3: hub edge 0, left spokes 1-2, right spokes 3-4.  The pair {1, 3}
    # stands for {1, 4}, {2, 3} and {2, 4} at the root, so those are never
    # scored there; {2, 4} comes up only after {1, 3} has failed.
    tables = build_tables(gen_double_star(3, 0.1))
    tables.build_enumeration()
    scored = []
    real_outcome_table = kernels._outcome_table

    def spy(p, unknown):
        scored.append(unknown)
        return real_outcome_table(p, unknown)

    kernels._outcome_table = spy
    try:
        kernels.dp_solve(tables, False, True)
    finally:
        kernels._outcome_table = real_outcome_table
    masks = [(), (0,), (2,), (4,), (1, 3), (2, 4)]
    assert sorted(scored) == sorted(sum(1 << e for e in ids) for ids in masks)


def test_representative_actions_take_the_lowest_ids_of_each_part():
    # ds4: left spokes 1-3, right spokes 4-6; spokes 1 and 2 succeeded
    classes = build_tables(gen_double_star(4, 0.1)).classes
    s = 0b110
    avail = 0b1111111

    def rep(*ids):
        return kernels._representative(classes, sum(1 << e for e in ids), avail, s)

    assert rep(1, 4) and rep(3, 4) and rep(1) and rep(4) and rep()
    assert not rep(2, 4)  # success 2 stands in for the lower success 1
    assert not rep(1, 5) and not rep(3, 6)  # unknown 5 or 6 for the lower 4


def test_edge_classes():
    for n in range(3, 8):
        assert _class_ids(gen_double_star(n, 0.1)) == [
            list(range(1, n)), list(range(n, 2 * n - 1))]
    assert _class_ids(gen_double_star(2, 0.1)) == []
    assert _class_ids(gen_complete_bipartite(3, 0.5)) == []
    assert _class_ids(gen_separation()) == []
    # equal p, same shared endpoint, same private signature
    assert _class_ids(STAR_CAP2) == [[0, 1, 2, 3]]
    assert _class_ids(TWO_HUB) == [[0, 1, 2], [4, 5]]
    # unequal p splits
    assert _class_ids(make_instance([(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.4)])) == [[0, 1]]
    # a private endpoint's effective capacity splits
    caps = {2: 2}
    assert _class_ids(make_instance([(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5)], caps=caps)) == [
        [0, 2]]
    assert _class_ids(make_instance([(0, 1, 2, 0.5), (0, 3, 4, 0.5)], caps=caps,
                                    structure=Hypergraph(3))) == [[0, 1]]
    # the many-to-one left side: a right hub's left spokes form a class,
    # and so do disjoint edges, which keep their sides when swapped
    mto = make_instance([(0, 4, 0.5), (1, 4, 0.5), (2, 5, 0.5), (3, 6, 0.5)],
                        caps={4: 2}, structure=ManyToOne([0, 1, 2, 3]))
    assert _class_ids(mto) == [[0, 1], [2, 3]]
    assert _class_ids(MTO_HUB) == [[0, 1, 2]]
    assert _class_ids(TEAMS) == [[0, 1, 2]]


def test_edge_classes_absent_on_benchmark_draws():
    # the CAP11 draws of benchmarks/perf (dp-opt) and the random profiles
    # keep the unreduced solve
    cap11 = RandomProfile("bench-cap11", "general", (6, 6), (11, 11), (1, 3), (3, 3))
    for draw in range(1, 9):
        assert build_tables(gen_random(cap11, draw)).classes == ()
    for profile in ("unit-small", "cap-small", "mto-small", "hyper3-small"):
        for i in range(100):
            assert build_tables(gen_random(profile, i)).classes == (), (profile, i)


def test_orbit_dp_reaches_ds6():
    inst = gen_double_star(6, 0.1)
    table = build_dp(inst, commit=False)
    assert len(table) == 17358
    assert table.root_value == pytest.approx(64.5996051456, rel=1e-12)
    assert len(build_dp(inst, commit=True)) == 1336


def test_dropped_dp_table_leaves_no_cyclic_garbage():
    inst = gen_double_star(3, 0.1)
    gc.collect()
    gc.disable()
    try:
        table = build_dp(inst, commit=False)
        assert len(table) == 237
        del table
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    root = KnowledgeState(0, 0)
    assert table.value(root, 1) == pytest.approx(3.094, abs=1e-12)
    assert table.action(root, 1) == {0, 3}
    keys = dict(table.items())
    assert len(keys) == len(table) and keys[(root, 1)] == table.root_value
    assert all(table.value(ks, t) == v >= 0.0 for (ks, t), v in keys.items())
    with pytest.raises(KeyError):
        table.value(KnowledgeState(0b1, 0), 1)  # unreachable state at round 1
    # the 4-edge instance has no edge 4: a failed edge 4 beside a successful
    # edge 3 packs to the key of the reached state "0 and 3 succeeded"
    assert table.value(KnowledgeState(0b1001, 0), 2) == 2.0
    for ks in (KnowledgeState(0b1000, 1 << 4), KnowledgeState(1 << 4, 0)):
        with pytest.raises(ValidationError):
            table.value(ks, 2)
        with pytest.raises(ValidationError):
            table.action(ks, 2)


def test_run_opt_rejects_inconsistent_sample():
    # an unrealized p=1 edge reaches states the table never evaluated
    inst = make_instance([(0, 1, 1.0)], rounds=2)
    table = build_dp(inst, commit=False)
    with pytest.raises(ValidationError):
        run_opt(inst, SampleGraph.from_mask(1, 0), table)


def test_dp_limit(monkeypatch):
    # T rounds times the per-round orbit bound: 3^13 = 1,594,323 states
    # for 13 edges without classes at T = 1, twice that at T = 2
    path = [(i, i + 1, 0.5) for i in range(13)]
    assert 3**13 <= DP_STATES_LIMIT < 2 * 3**13
    assert opt_value(make_instance(path, rounds=1), commit=False) == pytest.approx(3.5)
    with pytest.raises(LimitExceededError, match="states"):
        opt_value(make_instance(path, rounds=2), commit=False)
    # one class of 13 spokes: C(15, 2) = 105 orbit states per round
    star = make_instance([(0, i, 0.5) for i in range(1, 14)], rounds=2)
    assert len(build_tables(star).classes) == 1
    assert opt_value(star, commit=False) == pytest.approx(0.5 + 0.75)  # reselect or retry
    # K_3,3 at T = 900 is within the rounds limit but not the states limit
    with pytest.raises(LimitExceededError, match="states"):
        build_dp(gen_complete_bipartite(3, 0.5, rounds=900), commit=False)
    # ds9 (17 edges, 82 feasible selections) is admitted and listed
    class Admitted(Exception):
        pass

    def admitted(tables, commit, prune):
        assert len(tables.feas) == 82
        raise Admitted

    monkeypatch.setattr(kernels, "dp_solve", admitted)
    with pytest.raises(Admitted):
        build_dp(gen_double_star(9, 0.1), commit=False)
    # the solve recurses once per round
    with pytest.raises(LimitExceededError, match="rounds"):
        build_dp(make_instance([(0, 1, 0.5)], rounds=DP_ROUNDS_LIMIT + 1), commit=False)


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


def test_greedy_commit_kernels_agree():
    # the scan over listed selections and the per-round exact matching, on
    # every positive-probability sample.  Both kernels read only the outcomes
    # of the edges they select, so one sample per footprint class (the
    # selections and the outcomes on their union) stands for its class.
    instances = [inst for profile in ("unit-small", "cap-small", "mto-small")
                 for inst in _suite_instances(profile)]
    instances += [gen_complete_bipartite(3, 0.5, rounds=4),
                  gen_complete_bipartite(4, 0.5, rounds=3)]
    for k, inst in enumerate(instances):
        tables = build_tables(inst)
        tables.build_enumeration()

        def both(real):
            sels = kernels.gc_trace(tables, real)
            assert _gc_trace_large(inst, real) == sels, (k, real)
            return sels

        reals = [smp.mask for smp, prob in enumerate_samples(inst) if prob > 0.0]
        assert len(list(_footprints(both, reals, inst.rounds))) == len(reals)


def test_alternating_scan_matches_reference_loop():
    for n in range(2, 7):
        for rounds in (1, n - 1, n, n * n):
            base = gen_double_star(n, 0.1)
            inst = Instance(base.vertices, base.edges, rounds)
            layout = double_star_layout(inst)
            for smp in _samples(inst, n, count=200):
                want = alternating_scan_loop(layout, rounds, smp.mask)
                assert run_alternating_scan(inst, smp).selection_masks() == tuple(want)


@lru_cache(maxsize=8)
def _solved(inst):
    return build_dp(inst, commit=False), build_dp(inst, commit=True)


@settings(max_examples=50, deadline=None)
@given(inst=st.one_of(
           st.builds(gen_random, st.sampled_from(sorted(PROFILES)), st.integers(0, 10**6)),
           st.builds(gen_double_star, st.integers(2, 5), st.just(0.1))),
       bits=st.integers(0, (1 << 16) - 1))
def test_runs_read_only_the_outcomes_of_edges_they_selected(inst, bits):
    # Non-anticipation: a run's selections are fixed by the outcomes of the
    # edges it has selected, so flipping the outcome of any other edge leaves
    # them unchanged.  The exact pass's footprint classes rest on this.
    tables = build_tables(inst)
    tables.build_enumeration()
    table, table_c = _solved(inst)
    certain = sum(1 << e.id for e in inst.edges if e.p == 1.0)
    real = (bits & tables.posp_mask) | certain  # a sample of positive probability
    runs = {
        "sm": lambda r: kernels.sm_trace(tables, r),
        "opt": table.replay,
        "opt-commit": table_c.replay,
        # the follower reads its companion's selections, so both are one run
        "opt-follower": lambda r: table.replay(r) + follower_masks(
            tables, table.replay(r), r),
    }
    if not isinstance(inst.structure, Hypergraph):
        runs["gc"] = lambda r: kernels.gc_trace(tables, r)
    if double_star_layout(inst) is not None:
        runs["alternating-scan"] = lambda r: list(run_alternating_scan(
            inst, SampleGraph(inst.num_edges, r)).selection_masks())
    for name, run in runs.items():
        sels = run(real)
        union = 0
        for sel in sels:
            union |= sel
        for e in range(inst.num_edges):
            if not union >> e & 1:
                assert run(real ^ (1 << e)) == sels, (name, e)
