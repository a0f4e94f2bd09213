import gc
import time
import weakref
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_instance, make_instance, path_instance
from oracles import (alternating_scan_loop, brute_max_weight, brute_policy_value,
                     expectation, follower_loop, gc_trace_large_loop, gc_trace_loop,
                     reference_dp_solve, replay_loop, sm_trace_loop)
from rematch import kernels
from rematch.coupling import _footprints
from rematch.errors import LimitExceededError, ValidationError
from rematch.generators import (PROFILES, RandomProfile, double_star_layout,
                                gen_complete_bipartite, gen_double_star, gen_random,
                                gen_separation)
from rematch.model import (Edge, Hypergraph, Instance, KnowledgeState, ManyToOne,
                           SampleGraph, Tables, Vertex, build_tables, enumerate_samples,
                           mask_to_set, sample)
from rematch.policies import (DP_ROUNDS_LIMIT, DP_STATES_LIMIT, _gc_trace_large, _kuhn_size,
                              _unit_bipartite_ends, build_dp, follower_masks,
                              offline_max_matching, opt_value, run_alternating_scan,
                              run_greedy_commit, run_opt, run_opt_follower, run_sm)
from rematch.rng import CounterRng, sub_seed
from rematch.suites import SUITES, _suite_instances
from test_model import _small_instances

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
    # insertion order, and the solve's action derives the reference action
    # at every reference state
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
                root, values, action = kernels.dp_solve(tables, commit, prune)
                want_root, want_values, want_actions = reference_dp_solve(
                    tables, commit, prune)
                assert root == want_root, (k, commit, prune)
                assert list(values.items()) == list(want_values.items()), (k, commit, prune)
                m = tables.m
                for key, want in want_actions.items():
                    s, f = (key >> m) & tables.all_mask, key & tables.all_mask
                    got = action(s, f, key >> (2 * m))
                    assert got == want, (k, commit, prune, key)


_DP_MODES = [(False, False), (False, True), (True, False), (True, True)]
_PROBS = (0.0, 0.3, 0.5, 0.7, 1.0)
_WEIGHTS = (0.0, 0.25, 1.0, 3.0)


@settings(max_examples=150, deadline=None)
@given(inst=_small_instances(), data=st.data())
def test_dp_solve_matches_reference_tables_on_drawn_instances(inst, data):
    # drawn instances cut to 6 edges, with drawn probabilities (0 and 1
    # among them), rounds and round weights.  The edge classes are cleared,
    # so the kernel keeps every state: root, value table in insertion order
    # and actions bit for bit, in all four modes
    edges = inst.edges[:6]
    ps = data.draw(st.lists(st.sampled_from(_PROBS), min_size=len(edges), max_size=len(edges)))
    weights = data.draw(st.lists(st.sampled_from(_WEIGHTS), min_size=1, max_size=3))
    inst = Instance(inst.vertices, [Edge(e.id, e.endpoints, q) for e, q in zip(edges, ps)],
                    len(weights), weights, inst.structure)
    tables = Tables(inst)
    tables.classes = ()
    tables.build_enumeration()
    m = tables.m
    for commit, prune in _DP_MODES:
        root, values, action = kernels.dp_solve(tables, commit, prune)
        want_root, want_values, want_actions = reference_dp_solve(tables, commit, prune)
        assert root == want_root, (commit, prune)
        assert list(values.items()) == list(want_values.items()), (commit, prune)
        for key, want in want_actions.items():
            s, f = (key >> m) & tables.all_mask, key & tables.all_mask
            assert action(s, f, key >> (2 * m)) == want, (commit, prune, key)


def test_dp_table_stores_no_actions():
    # the solve keeps values only; replay derives the actions it visits
    table = build_dp(gen_double_star(5, 0.1), commit=False)
    assert table._actions == {}
    table.replay(0b1)  # the certain hub edge succeeds, every spoke fails
    assert len(table._actions) == 25
    # replay scores the children the solve stored and solves no new state
    ds4 = gen_double_star(4, 0.1)
    for inst in (ds4, _relabel(ds4, 2)):
        table = build_dp(inst, commit=False)
        size = len(table)
        for smp, prob in enumerate_samples(inst):
            if prob > 0.0:
                table.replay(smp.mask)
        assert len(table) == size


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
    # scored there; {2, 4} comes up only after {1, 3} has failed.  Fresh
    # tables: an earlier solve of the cached ones would leave its memos.
    tables = Tables(gen_double_star(3, 0.1))
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


def _reweighted(inst, weights):
    return Instance(inst.vertices, inst.edges, len(weights), weights, inst.structure)


def test_reused_memos_leave_every_solve_unchanged():
    # every (commit, prune) solve of one Tables, in two orders back to back:
    # later solves read the memos of earlier ones, and each still gives the
    # reference root, the value table of a solve on fresh tables (the
    # reference's own, without classes) and the reference actions
    bases = [gen_random(profile, sub_seed(77, i))
             for profile in ("unit-small", "cap-small", "mto-small", "hyper3-small")
             for i in range(3)]
    bases += [_relabel(gen_double_star(4, 0.1), 1), STAR_CAP2]
    assert build_tables(bases[-2]).classes and build_tables(STAR_CAP2).classes
    instances = bases + [_reweighted(inst, weights)
                         for inst in (bases[3], bases[9], bases[-2], STAR_CAP2)
                         for weights in ((0.7, 0.3, 0.1), (1.0, 0.0, 0.0),
                                         (0.1, 1e-300, 3.0), (0.3,))]
    for k, inst in enumerate(instances):
        tables = build_tables(inst)
        tables.build_enumeration()
        m = tables.m
        want = {}
        for commit, prune in _DP_MODES:
            fresh = Tables(inst)
            fresh.build_enumeration()
            want[commit, prune] = (reference_dp_solve(tables, commit, prune),
                                   list(kernels.dp_solve(fresh, commit, prune)[1].items()))
        hits = kernels._memos.cache_info().hits
        for commit, prune in _DP_MODES + _DP_MODES[::-1]:
            (want_root, want_values, want_actions), fresh_items = want[commit, prune]
            root, values, action = kernels.dp_solve(tables, commit, prune)
            label = (k, commit, prune)
            assert root == want_root, label
            assert list(values.items()) == fresh_items, label
            if not tables.classes:
                assert fresh_items == list(want_values.items()), label
            for key, mask in want_actions.items():
                s, f = (key >> m) & tables.all_mask, key & tables.all_mask
                assert action(s, f, key >> (2 * m)) == mask, (label, key)
        assert kernels._memos.cache_info().hits == hits + 7, k


def test_dp_memos_hold_only_the_tables_solved_last():
    # the memo slot keeps one Tables alive, not every table build_tables caches
    class WeakTables(Tables):
        __slots__ = ("__weakref__",)

    tables = WeakTables(gen_random("cap-small", 7))
    tables.build_enumeration()
    result = kernels.dp_solve(tables, False, True)
    ref = weakref.ref(tables)
    del tables, result
    assert ref() is not None
    other = build_tables(STAR_CAP2)
    other.build_enumeration()
    kernels.dp_solve(other, False, True)
    assert ref() is None


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


def test_dp_solves_and_replays_at_the_rounds_limit():
    # one frame per round: the solve and the replay reach DP_ROUNDS_LIMIT
    inst = gen_complete_bipartite(1, 0.5, rounds=DP_ROUNDS_LIMIT)
    for commit in (False, True):
        table = build_dp(inst, commit)
        assert table.root_value == 450.0
        won = run_opt(inst, SampleGraph.from_mask(1, 1), table)
        assert won.selection_masks() == (1,) * DP_ROUNDS_LIMIT
        lost = run_opt(inst, SampleGraph.from_mask(1, 0), table)
        assert lost.selection_masks() == (1,) + (0,) * (DP_ROUNDS_LIMIT - 1)


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


def test_runs_refuse_a_sample_graph_of_another_width():
    # a sample of 8 edges for the 4-edge separation instance, and one of 2:
    # offline-max used to end in an IndexError and sm to return a reward
    sep = gen_separation()
    table = build_dp(sep, commit=False)
    companion = run_opt(sep, SampleGraph(4, 0b1001), table)
    runs = {"sm": run_sm, "greedy-commit": run_greedy_commit,
            "offline-max": offline_max_matching,
            "opt": lambda inst, smp: run_opt(inst, smp, table),
            "opt-follower": lambda inst, smp: run_opt_follower(inst, smp, companion)}
    for smp in (SampleGraph(8, 0b10000001), SampleGraph(2, 0b11)):
        for name, run in runs.items():
            with pytest.raises(ValidationError, match="sample graph has"):
                run(sep, smp)
    ds = gen_double_star(3, 0.1)
    for width in (ds.num_edges - 1, ds.num_edges + 1):
        with pytest.raises(ValidationError, match="sample graph has"):
            run_alternating_scan(ds, SampleGraph(width, 1))
    assert run_sm(sep, SampleGraph(4, 0b1001)).sample_mask == 0b1001


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


def test_offline_kuhn_size_follows_augmenting_paths_of_any_length():
    # the search from the last left vertex runs through all 3,000 of them
    inst = chain_instance(3000)
    assert _kuhn_size(_unit_bipartite_ends(inst), (1 << inst.num_edges) - 1) == 3000


def test_offline_kuhn_size_is_linear_on_a_path():
    # every left vertex of the path has a free right neighbour, so no search
    # runs; one from each left vertex would walk back along the whole path
    inst = path_instance(3000)
    start = time.perf_counter()
    assert _kuhn_size(_unit_bipartite_ends(inst), (1 << inst.num_edges) - 1) == 3000
    assert time.perf_counter() - start < 2.0


def test_offline_kuhn_size_matches_scipy():
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    rng = CounterRng(31)
    for k in range(150):
        n_left, n_right = rng.randint(1, 30), rng.randint(1, 30)
        density = rng.uniform(0.02, 0.4)
        ends = [(u, j) for u in range(n_left) for j in range(n_right) if rng.uniform() < density]
        rng.shuffle(ends)
        real = sum(1 << e for e in range(len(ends)) if rng.uniform() < 0.8)
        realized = [ends[e] for e in range(len(ends)) if real >> e & 1]
        graph = sparse.csr_matrix(([1] * len(realized), ([u for u, _ in realized],
                                                         [j for _, j in realized])),
                                  shape=(n_left, n_right))
        want = int((csgraph.maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())
        assert _kuhn_size(ends, real) == want, k


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


def test_drive_stops_early_only_for_a_stationary_step():
    calls = []

    def idle(t, s, f):
        calls.append((t, s, f))
        return 0
    # a stationary step that tries nothing is called once, and its
    # selection fills the horizon
    assert kernels.drive(idle, 5, 0b101, True) == [0] * 5
    assert calls == [(1, 0, 0)]
    calls.clear()

    def hold(t, s, f):
        calls.append((t, s, f))
        return s | 0b100
    # so is one that reselects what it has tried, from the round it does
    assert kernels.drive(hold, 5, 0b101, True) == [0b100] * 5
    assert calls == [(1, 0, 0), (2, 0b100, 0)]
    calls.clear()

    def late(t, s, f):
        calls.append((t, s, f))
        return 0 if t == 1 else 0b11
    # a step that is not stationary is called every round, and only the
    # outcomes of the edges it tries for the first time are read
    assert kernels.drive(late, 4, 0b01, False) == [0, 0b11, 0b11, 0b11]
    assert calls == [(1, 0, 0), (2, 0, 0), (3, 0b01, 0b10), (4, 0b01, 0b10)]


IDLE_ROUND = Instance.loads(
    (Path(__file__).parent / "golden" / "idle-round-instance.json").read_text())


def test_driven_runs_match_reference_loops():
    # every run of kernels.drive against the loop that keeps its own
    # knowledge state and never stops early: the four suites and more draws
    # of their profiles, ds2-ds8, K3,3, the separation instance and the
    # idle-round instance, where opt idles in round 2
    suite = [inst for profile in SUITES for inst in _suite_instances(profile)]
    instances = suite + [gen_random(profile, sub_seed(900 + i, i)) for profile in SUITES
                         for i in range(8)]
    instances += [gen_double_star(n, 0.1) for n in range(2, 9)]
    instances += [gen_complete_bipartite(3, 0.5, rounds=4), gen_separation(), IDLE_ROUND]
    idled = False
    for k, inst in enumerate(instances):
        tables = build_tables(inst)
        tables.build_enumeration()
        hyper = isinstance(inst.structure, Hypergraph)
        table, table_c = _solved(inst)
        for smp in _samples(inst, k):
            real = smp.mask
            assert kernels.sm_trace(tables, real) == sm_trace_loop(tables, real), k
            if not hyper:
                assert kernels.gc_trace(tables, real) == gc_trace_loop(tables, real), k
            # the matching path on the suites: test_greedy_commit_kernels_agree
            if not hyper and inst.num_edges <= 8 and k >= len(suite):
                assert _gc_trace_large(inst, real) == gc_trace_large_loop(inst, real), k
            opt_sels = replay_loop(table, real)
            assert table.replay(real) == opt_sels, k
            assert table_c.replay(real) == replay_loop(table_c, real), k
            want = follower_loop(tables, opt_sels, real)
            assert follower_masks(tables, opt_sels, real) == want, k
            seen, new = 0, []
            for sel in opt_sels:
                new.append(sel & ~seen)
                seen |= sel
            idled |= any(not a and b for a, b in zip(new, new[1:]))
    assert idled
    # past the listing of samples and of the DP: sm and the matching path
    for n, count in ((5, 20), (6, 8)):
        inst = gen_complete_bipartite(n, 0.3, rounds=3)
        tables = build_tables(inst)
        for i in range(count):
            real = sample(inst, sub_seed(55, i)).mask
            assert kernels.sm_trace(tables, real) == sm_trace_loop(tables, real), (n, i)
            assert _gc_trace_large(inst, real) == gc_trace_large_loop(inst, real), (n, i)


def test_gc_trace_large_matches_reference_loop_on_k55():
    # 25 edges: beyond enumeration, so the first round solves an assignment problem
    for p in (0.3, 0.5):
        inst = gen_complete_bipartite(5, p, rounds=4)
        for i in range(15):
            smp = sample(inst, sub_seed(31, i))
            want = gc_trace_large_loop(inst, smp.mask)
            assert run_greedy_commit(inst, smp).selection_masks() == tuple(want)


@pytest.mark.parametrize("n, count", [(5, 100), (6, 40)])
def test_greedy_commit_follows_the_kernel_past_the_enumeration_limit(n, count):
    # 25 and 36 edges: run_greedy_commit solves each round by max_weight_matching,
    # and the kernel can still scan K6,6's 13,327 feasible selections
    for p in (0.3, 0.5):
        for rounds in (3, 4):
            inst = gen_complete_bipartite(n, p, rounds=rounds)
            tables = build_tables(inst)
            tables.build_enumeration()
            for i in range(count):
                smp = sample(inst, sub_seed(31, i))
                want = tuple(kernels.gc_trace(tables, smp.mask))
                assert run_greedy_commit(inst, smp).selection_masks() == want, (p, rounds, i)


def test_greedy_commit_kernels_agree():
    # the scan over listed selections and the per-round exact matching, on
    # every positive-probability sample.  Both kernels read only the outcomes
    # of the edges they select, so one sample per footprint class (the
    # selections and the outcomes on their union) stands for its class.
    instances = [inst for profile in ("unit-small", "cap-small", "mto-small")
                 for inst in _suite_instances(profile)]
    instances += [gen_complete_bipartite(3, 0.5, rounds=4),
                  gen_complete_bipartite(4, 0.5, rounds=3)]
    # float sums would tie both pairs: 1.0 + 2**-53 rounds down to 1.0, and
    # 0.5 + 3 * 2**-55 rounds up to 0.5 + 2**-53; the exact sums do not tie
    rounding = [(make_instance([(1, 2, 1.0), (0, 1, 1.0), (2, 3, 2.0 ** -53)]), 0b110),
                (make_instance([(0, 1, 0.5), (2, 3, 3 * 2.0 ** -55), (1, 2, 0.5 + 2.0 ** -53)]),
                 0b100)]
    for inst, want in rounding:
        tables = build_tables(inst)
        tables.build_enumeration()
        assert kernels.gc_trace(tables, 0) == [want]
    instances += [inst for inst, _ in rounding]
    for k, inst in enumerate(instances):
        tables = build_tables(inst)
        tables.build_enumeration()

        def both(real):
            sels = kernels.gc_trace(tables, real)
            assert _gc_trace_large(inst, real) == sels, (k, real)
            return sels

        reals = [smp.mask for smp, prob in enumerate_samples(inst) if prob > 0.0]
        assert len(list(_footprints(both, reals, inst.rounds))) == len(reals)


def test_gc_trace_matches_reference_loop_on_k44_and_disjoint_edges():
    # the candidates read from the holds index and ranked by their whole
    # weight, against the loop over every listed selection: K4,4 at p 0.3,
    # and at p 0.5, where matchings of one size tie and the lexicographic
    # rule decides; 16 disjoint edges of equal p list 2^16 selections
    for p in (0.3, 0.5):
        inst = gen_complete_bipartite(4, p, rounds=3)
        tables = build_tables(inst)
        tables.build_enumeration()
        for i in range(60):
            real = sample(inst, sub_seed(44, i)).mask
            assert kernels.gc_trace(tables, real) == gc_trace_loop(tables, real), (p, i)
    disjoint = make_instance([(2 * i, 2 * i + 1, 0.5) for i in range(16)], rounds=2)
    tables = Tables(disjoint)
    tables.build_enumeration()
    for real in (0b1010110011110001, 0):
        assert kernels.gc_trace(tables, real) == gc_trace_loop(tables, real) == [0xFFFF, real]


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
