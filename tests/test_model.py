import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from oracles import (expectation, ext_of, feasible_selections_scan, fitting_scan, sample_loop,
                     sample_probabilities_loop, tables_loop)
from rematch import kernels, suites
from rematch.errors import LimitExceededError, UnknownEdgeError, ValidationError
from rematch.generators import (PROFILES, RandomProfile, double_star_layout,
                                gen_complete_bipartite, gen_double_star, gen_random,
                                gen_separation)
from rematch.model import (ROUNDS_LIMIT, Edge, Hypergraph, Instance, KnowledgeState,
                           ManyToOne, SampleGraph, Tables, Trace, Vertex,
                           enumerate_samples, feasible, sample, sample_probabilities,
                           weighted_reward)
from rematch.montecarlo import monte_carlo
from rematch.policies import (PolicyId, build_dp, run_alternating_scan, run_greedy_commit,
                               run_opt, run_opt_follower, run_sm)
from rematch.rng import _GAMMA, _MIX1, _MIX2, CounterRng, counter_value, sub_seed


def test_validation_rejects_bad_instances():
    with pytest.raises(ValidationError):
        Instance([Vertex(0), Vertex(0)], [], 1)  # duplicate vertex
    with pytest.raises(ValidationError):
        make_instance([(0, 1, 1.5)])  # p out of range
    with pytest.raises(ValidationError):
        Instance([Vertex(0, 0), Vertex(1)], [Edge(0, (0, 1), 0.5)], 1)  # capacity 0
    with pytest.raises(ValidationError):
        Instance([Vertex(0), Vertex(1)], [Edge(1, (0, 1), 0.5)], 1)  # sparse edge ids
    with pytest.raises(ValidationError):
        Edge(0, (1, 1), 0.5)  # repeated endpoint
    with pytest.raises(ValidationError):
        make_instance([(0, 1, 0.5)], weights=[1.0, 1.0])  # weights length
    for w in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValidationError):
            make_instance([(0, 1, 0.5)], rounds=2, weights=[w, 1.0])
    with pytest.raises(ValidationError):  # two successes in a round would overflow
        make_instance([(0, 1, 0.5), (2, 3, 0.5)], weights=[1e308])
    with pytest.raises(LimitExceededError):  # before the weights are allocated
        make_instance([(0, 1, 0.5)], rounds=ROUNDS_LIMIT + 1)
    with pytest.raises(ValidationError):
        make_instance([(0, 1, 2, 0.5)])  # 3 endpoints under general structure
    with pytest.raises(ValidationError):  # left vertex with capacity 2
        Instance([Vertex(0, 2), Vertex(1)], [Edge(0, (0, 1), 0.5)], 1,
                 structure=ManyToOne([0]))
    with pytest.raises(ValidationError):  # edge within one side
        Instance([Vertex(0), Vertex(1), Vertex(2)],
                 [Edge(0, (0, 1), 0.5)], 1, structure=ManyToOne([0, 1]))
    with pytest.raises(ValidationError):  # hyperedge above arity
        make_instance([(0, 1, 2, 3, 0.5)], structure=Hypergraph(3))


def test_sample_degenerate_probabilities():
    inst = make_instance([(0, 1, 1.0), (1, 2, 0.0)])
    for seed in range(200):
        smp = sample(inst, seed)
        assert smp.realized[0] is True
        assert smp.realized[1] is False


def test_sample_deterministic_per_seed():
    inst = make_instance([(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75)])
    assert sample(inst, 99) == sample(inst, 99)
    masks = {sample(inst, s).mask for s in range(64)}
    assert len(masks) > 1


def test_sample_frequency_within_three_sigma():
    inst = make_instance([(0, 1, 0.3)])
    hits = sum(sample(inst, seed).realized[0] for seed in range(100000))
    assert abs(hits / 100000 - 0.3) < 0.01


# p at the ends of uniform01's range and next to its 2^-53 steps, and seeds
# that sample() reduces mod 2^64
EDGE_PS = (0.0, 5e-324, 2.0 ** -54, 2.0 ** -53, 0.1, 0.5, 1.0 - 2.0 ** -53, 1.0)
ODD_SEEDS = (-5, 0, 2 ** 64 - 1, 2 ** 64, 2 ** 70, -2 ** 130, 2 ** 130 + 5)


def _star(ps):
    return make_instance([(0, i + 1, p) for i, p in enumerate(ps)])


def test_sample_matches_per_edge_loop():
    instances = [inst for profile in suites.SUITES for inst in suites._suite_instances(profile)]
    instances += [gen_double_star(n, 0.1) for n in range(2, 9)]
    instances += [gen_complete_bipartite(5, 0.3), gen_complete_bipartite(10, 0.1)]
    instances += [gen_random(profile, seed) for profile in PROFILES for seed in range(20)]
    seeds = ODD_SEEDS + tuple(sub_seed(7, i) for i in range(20))
    for inst in instances:
        for seed in seeds:
            assert sample(inst, seed).mask == sample_loop(inst, seed), (inst, seed)


def test_sample_at_edge_probabilities_and_seeds():
    inst = _star(EDGE_PS)
    for seed in ODD_SEEDS + tuple(range(20000)):
        assert sample(inst, seed).mask == sample_loop(inst, seed), seed
    for seed in ODD_SEEDS:
        assert sample(Instance([], [], 1), seed) == SampleGraph(0, 0)


def test_sample_graph_refuses_a_mask_outside_its_edges():
    # a bit at or above num_edges, or a negative mask, names no edge; an
    # offline-max run on one ended in an IndexError
    inst = gen_separation()
    for mask in (1 << inst.num_edges | 1, -1, -(1 << inst.num_edges)):
        with pytest.raises(ValidationError, match="not a subset of"):
            SampleGraph(inst.num_edges, mask)
    assert SampleGraph(3, 0b111).realized == (True, True, True)
    assert SampleGraph(0, 0).realized == ()
    # from_mask keeps dropping the bits above the edges
    assert SampleGraph.from_mask(3, 0b11111) == SampleGraph(3, 0b111)
    assert SampleGraph.from_mask(3, -1) == SampleGraph(3, 0b111)


def _unmix64(z: int) -> int:
    """The inverse of ``rng.mix64``: each xor-shift undone by iteration, each
    multiply by the inverse of its odd factor mod 2^64."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x
    z = unshift(z, 31) * pow(_MIX2, -1, 1 << 64) % (1 << 64)
    z = unshift(z, 27) * pow(_MIX1, -1, 1 << 64) % (1 << 64)
    return unshift(z, 30)


def test_sample_at_words_next_to_each_threshold():
    # seeds whose word for edge e is 0, 2^64 - 1 or next to e's threshold
    # c << 11 (c = ceil(p_e * 2^53)): the words where z < c << 11 can err
    inst = _star(EDGE_PS)
    for e, p in enumerate(EDGE_PS):
        cut = math.ceil(p * 2.0 ** 53) << 11
        for word in {w % 2 ** 64 for w in (0, 1, cut - 1, cut, cut + 1, 2 ** 64 - 1)}:
            seed = (_unmix64(word) - (e + 1) * _GAMMA) % (1 << 64)
            assert counter_value(seed, e) == word
            for s in (seed, seed - (1 << 64), seed + (1 << 70)):
                assert sample(inst, s).mask == sample_loop(inst, s), (e, word, s)


@settings(max_examples=200, deadline=None)
@given(ps=st.lists(st.one_of(st.sampled_from(EDGE_PS), st.floats(0.0, 1.0)), max_size=40),
       seed=st.one_of(st.sampled_from(ODD_SEEDS), st.integers(-2 ** 140, 2 ** 140)))
def test_sample_matches_per_edge_loop_property(ps, seed):
    inst = _star(ps)
    assert sample(inst, seed).mask == sample_loop(inst, seed)


def test_trace_serialization():
    inst = make_instance([(0, 1, 1.0), (2, 3, 1.0)], rounds=2)
    trace = run_sm(inst, sample(inst, 0))
    payload = trace.to_json()
    assert payload["selections"] == [[0, 1], [0, 1]]
    assert payload["round_rewards"] == [2, 2]
    assert payload["total_weighted_reward"] == 4.0
    assert json.dumps(payload, sort_keys=True)  # JSON-serializable


def test_enumerate_uniform_two_edges():
    inst = make_instance([(0, 1, 0.5), (2, 3, 0.5)])
    out = list(enumerate_samples(inst))
    assert len(out) == 4
    assert all(p == 0.25 for _, p in out)


def test_enumerate_single_edge():
    inst = make_instance([(0, 1, 0.7)])
    [(g0, p0), (g1, p1)] = list(enumerate_samples(inst))
    assert (g0.realized[0], p0) == (False, pytest.approx(0.3))
    assert (g1.realized[0], p1) == (True, 0.7)


def test_enumerate_zero_probability_graphs_carry_weight_zero():
    inst = make_instance([(0, 1, 1.0), (1, 2, 0.0), (2, 3, 0.5)])
    out = list(enumerate_samples(inst))
    assert len(out) == 8
    nonzero = [(g.mask, p) for g, p in out if p > 0]
    assert len(nonzero) == 2
    assert all(p == 0.5 for _, p in nonzero)
    assert math.isclose(sum(p for _, p in out), 1.0, abs_tol=1e-12)


def test_enumerate_probabilities_sum_to_one():
    edges = [(i, i + 1, 0.1 + 0.08 * i) for i in range(10)]
    inst = make_instance(edges)
    assert math.isclose(sum(p for _, p in enumerate_samples(inst)), 1.0, abs_tol=1e-12)


def test_sample_probabilities_match_the_per_factor_loop():
    # the prefix products are the per-mask products bit for bit, and both
    # forms of enumerate_samples list them in mask order
    instances = [inst for profile in suites.SUITES for inst in suites._suite_instances(profile)]
    instances += [gen_double_star(n, 0.1) for n in range(2, 9)]
    instances += [gen_complete_bipartite(3, 0.3),
                  make_instance([(0, 1, 1.0), (1, 2, 0.0), (2, 3, 0.3), (3, 4, 1.0), (4, 5, 0.0)])]
    for k, inst in enumerate(instances):
        want = sample_probabilities_loop(inst)
        got = sample_probabilities([e.p for e in inst.edges])
        assert [x.hex() for x in got] == [x.hex() for x in want], k
        assert list(enumerate_samples(inst, masks=True)) == list(enumerate(want)), k
        if inst.num_edges <= 12:
            assert [(smp.mask, prob) for smp, prob in enumerate_samples(inst)] == list(
                enumerate(want)), k


def test_enumerate_limit():
    inst = make_instance([(i, i + 1, 0.5) for i in range(17)])
    with pytest.raises(LimitExceededError):
        list(enumerate_samples(inst))


def _assert_listing_matches_scan(inst, label):
    tables = Tables(inst)  # fresh: the cached tables may be listed already
    tables.build_enumeration()
    assert (tables.feas, ext_of(tables)) == feasible_selections_scan(inst), label


def _listed_instances():
    # the four suites, dp-opt's CAP11 draws, ds2-ds8, K3,3 and K4,4
    cap11 = RandomProfile("bench-cap11", "general", (6, 6), (11, 11), (1, 3), (3, 3))
    instances = [inst for profile in suites.SUITES for inst in suites._suite_instances(profile)]
    instances += [gen_random(cap11, draw) for draw in range(1, 9)]
    instances += [gen_double_star(n, 0.1) for n in range(2, 9)]
    instances += [gen_complete_bipartite(n, 0.5) for n in (3, 4)]
    return instances


def test_feasible_selection_listing_matches_scan():
    for k, inst in enumerate(_listed_instances()):
        _assert_listing_matches_scan(inst, k)


@st.composite
def _small_instances(draw):
    kind = draw(st.sampled_from(("general", "capacitated", "many_to_one", "hypergraph")))
    nv = draw(st.integers(2, 7))
    caps = {v: draw(st.integers(1, 3)) for v in range(nv)} if kind != "general" else {}
    structure = None
    if kind == "many_to_one":
        nl = draw(st.integers(1, nv - 1))
        ends = st.tuples(st.integers(0, nl - 1), st.integers(nl, nv - 1))
    else:
        ends = st.lists(st.integers(0, nv - 1), min_size=2,
                        max_size=3 if kind == "hypergraph" else 2, unique=True)
    edges = [(*e, 0.5) for e in draw(st.lists(ends, min_size=1, max_size=12))]
    if kind == "many_to_one":
        left = {e[0] for e in edges}
        caps.update((v, 1) for v in left)
        structure = ManyToOne(left)
    elif kind == "hypergraph":
        structure = Hypergraph(3)
    return make_instance(edges, caps=caps, structure=structure)


@settings(max_examples=200, deadline=None)
@given(inst=_small_instances())
def test_feasible_selection_listing_matches_scan_on_drawn_instances(inst):
    _assert_listing_matches_scan(inst, inst)


def _assert_index_matches_scan(inst, masks, label):
    tables = Tables(inst)
    tables.build_enumeration()
    ext = ext_of(tables)
    for avail in (tables.all_mask, *masks):
        for prune in (False, True):
            got = kernels._fitting(tables, prune, avail)
            assert got == fitting_scan(tables.feas, ext, prune, avail), (label, avail, prune)


def test_fitting_index_matches_scan():
    # the DP's fitting selections, read from the per-edge index, are the
    # scan's list in the scan's order; 16 disjoint edges list 2^16 selections
    rng = CounterRng(24)
    disjoint = make_instance([(2 * i, 2 * i + 1, 0.5) for i in range(16)])
    for k, inst in enumerate(_listed_instances() + [disjoint]):
        masks = [rng.randint(0, (1 << inst.num_edges) - 1) for _ in range(200)]
        _assert_index_matches_scan(inst, masks, k)


@settings(max_examples=200, deadline=None)
@given(inst=_small_instances(), avail=st.integers(0, 2**12 - 1))
def test_fitting_index_matches_scan_on_drawn_instances(inst, avail):
    _assert_index_matches_scan(inst, [avail & ((1 << inst.num_edges) - 1)], inst)


def test_tables_match_the_constructor_loop():
    # the byte-buffer constructor gives every field of the bitwise one
    instances = [inst for profile in suites.SUITES for inst in suites._suite_instances(profile)]
    instances += [gen_double_star(n, 0.1) for n in range(2, 9)]
    instances += [gen_complete_bipartite(n, 0.3) for n in (5, 64, 512)]
    for k, inst in enumerate(instances):
        want = tables_loop(inst)
        tables = Tables(inst)
        assert {name: getattr(tables, name) for name in want} == want, k


@settings(max_examples=200, deadline=None)
@given(inst=_small_instances())
def test_tables_match_the_constructor_loop_on_drawn_instances(inst):
    want = tables_loop(inst)
    tables = Tables(inst)
    assert {name: getattr(tables, name) for name in want} == want


def test_listing_caps_feasible_selections_not_edges():
    # 40 spokes of one hub: 40 edges but only 41 feasible selections
    star = make_instance([(0, i, 0.5) for i in range(1, 41)])
    tables = Tables(star)
    tables.build_enumeration()
    assert tables.feas == [0] + [1 << e for e in range(40)]
    # 16 disjoint edges give 2^16 selections, the limit; 17 give twice that
    disjoint = [(2 * i, 2 * i + 1, 0.5) for i in range(17)]
    tables = Tables(make_instance(disjoint[:16]))
    tables.build_enumeration()
    assert len(tables.feas) == 2**16
    with pytest.raises(LimitExceededError, match="feasible selections"):
        Tables(make_instance(disjoint)).build_enumeration()


def test_feasible():
    inst = make_instance([(0, 1, 0.5), (1, 2, 0.5)])
    assert feasible(inst, [])
    assert feasible(inst, [0])
    assert not feasible(inst, [0, 1])  # share vertex 1 at capacity 1
    with pytest.raises(UnknownEdgeError):
        feasible(inst, [5])
    star = make_instance([(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5)], caps={0: 3})
    assert feasible(star, [0, 1, 2])
    hyper = make_instance([(0, 1, 2, 0.5), (2, 3, 4, 0.5)], structure=Hypergraph(3))
    assert feasible(hyper, [0, 1]) is False or 2 in hyper.edges[0].endpoints
    assert not feasible(hyper, [0, 1])
    # hyperedge selections are vertex-disjoint whatever capacity a vertex declares
    shared = make_instance([(0, 1, 2, 0.5), (2, 3, 4, 0.5)], caps={2: 2},
                           structure=Hypergraph(3))
    assert not feasible(shared, [0, 1])
    assert feasible(shared, [1])


def test_weighted_reward():
    inst = make_instance([(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)], rounds=2)
    smp = SampleGraph.from_mask(3, 0b111)
    trace = Trace.from_selection_masks(inst, "x", [0b011, 0b111], 0b111)
    assert weighted_reward(trace, [1.0, 1.0]) == 5.0
    assert weighted_reward(trace, [0.0, 1.0]) == 3.0  # last-round objective
    zero = Trace.from_selection_masks(inst, "x", [0, 0], 0b111)
    assert weighted_reward(zero, [1.0, 1.0]) == 0.0
    with pytest.raises(ValidationError):
        weighted_reward(trace, [1.0])


def test_trace_keeps_only_masks_and_sums_its_reward_exactly():
    assert [f.name for f in dataclasses.fields(Trace)] == [
        "instance", "policy", "round_masks", "sample_mask"]
    # a float loop over ten rounds of weight 0.1 gives 0.9999999999999999
    certain = make_instance([(0, 1, 1.0)], rounds=10, weights=[0.1] * 10)
    assert run_sm(certain, sample(certain, 1)).total_weighted_reward == 1.0
    sep = gen_separation()
    for inst in (gen_double_star(3, 0.1),
                 Instance(sep.vertices, sep.edges, sep.rounds, (0.1, 0.7))):
        table, table_c = build_dp(inst, commit=False), build_dp(inst, commit=True)
        for smp in (smp for smp, prob in enumerate_samples(inst) if prob > 0.0):
            opt = run_opt(inst, smp, table)
            traces = [run_sm(inst, smp), run_greedy_commit(inst, smp), opt,
                      run_opt(inst, smp, table_c), run_opt_follower(inst, smp, opt)]
            if double_star_layout(inst) is not None:
                traces.append(run_alternating_scan(inst, smp))
            for trace in traces:
                exact = weighted_reward(trace, inst.weights)
                assert trace.total_weighted_reward.hex() == exact.hex()


def test_monte_carlo_mean_matches_enumeration():
    edges = [(0, 1, 0.3), (1, 2, 0.8), (2, 3, 0.5), (0, 3, 0.6),
             (0, 2, 0.4), (1, 3, 0.9), (4, 0, 0.7), (4, 2, 0.2)]
    inst = make_instance(edges, rounds=3)
    exact = expectation(inst, lambda smp: run_sm(inst, smp).total_weighted_reward)
    stats = monte_carlo(inst, PolicyId.SM, trials=100000, seed=11)
    assert abs(stats.mean - exact) <= 4 * stats.stderr + 1e-12


def test_json_round_trip():
    inst = make_instance([(0, 1, 0.25), (1, 2, 0.75)], rounds=3,
                         weights=[1.0, 0.5, 0.0])
    again = Instance.loads(inst.dumps())
    assert again == inst
    mto = Instance([Vertex(0), Vertex(1), Vertex(2, 3)],
                   [Edge(0, (0, 2), 0.5), Edge(1, (1, 2), 0.125)],
                   2, structure=ManyToOne([0, 1]))
    assert Instance.from_json(json.loads(mto.dumps())) == mto


def test_equal_instances_hash_equal_and_share_cached_tables():
    from rematch.model import build_tables

    insts = [make_instance([(0, 1, 0.25), (1, 2, 0.75)], rounds=3),
             Instance([Vertex(0), Vertex(1), Vertex(2, 3)],
                      [Edge(0, (0, 2), 0.5), Edge(1, (1, 2), 0.125)],
                      2, structure=ManyToOne([0, 1])),
             make_instance([(0, 1, 2, 0.5)], structure=Hypergraph(3))]
    for inst in insts:
        again = Instance.loads(inst.dumps())
        assert again == inst and again is not inst
        # the dataclass hash of the fields, the same before and after caching
        fields = (inst.vertices, inst.edges, inst.rounds, inst.weights, inst.structure)
        assert hash(again) == hash(inst) == hash(fields) == hash(inst)
        assert repr(again) == repr(inst)
        build_tables.cache_clear()
        tables = build_tables(inst)
        assert build_tables(again) is tables
        assert build_tables.cache_info().hits == 1
    assert hash(insts[0]) != hash(insts[1])


def test_json_weights_default_to_ones():
    data = {"vertices": [{"id": 0}, {"id": 1}],
            "edges": [{"id": 0, "endpoints": [0, 1], "p": 0.5}], "rounds": 3}
    inst = Instance.from_json(data)
    assert inst.weights == (1.0, 1.0, 1.0)


def test_knowledge_state_rejects_overlapping_masks():
    assert KnowledgeState(0b001, 0b010) == KnowledgeState(0b001, 0b010)
    with pytest.raises(ValidationError):
        KnowledgeState(0b011, 0b010)  # edge 1 both succeeded and failed


def test_trace_new_successes_partition_for_committing_policy():
    inst = make_instance([(0, 1, 0.6), (1, 2, 0.7), (2, 3, 0.5)], rounds=3)
    for seed in range(40):
        trace = run_sm(inst, sample(inst, seed))
        seen = set()
        for t in range(trace.rounds):
            assert trace.newly_successful[t].isdisjoint(seen)
            seen |= trace.newly_successful[t]
            assert seen == set(trace.successful[t])
            assert trace.round_rewards[t] == len(trace.successful[t])
            assert feasible(inst, trace.selections[t])
