from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from oracles import brute_lex_max_weight, brute_max_weight
from rematch.errors import ValidationError
from rematch.kernels import lex_less
from rematch.matching import (WeightedSubproblem, _assignment, _bipartite_sides,
                              _shortest_paths, degree_halving_subgraph, greedy_matching,
                              greedy_hypergraph_matching, max_weight_matching)
from rematch.model import Edge, Hypergraph, Instance, ManyToOne, Vertex, dyadic, mask_to_set
from rematch.rng import CounterRng

PATH = make_instance([(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
PATH_W = {0: 2.0, 1: 3.0, 2: 2.0}


def test_greedy_empty_when_no_positive_weights():
    sub = WeightedSubproblem(PATH, {0: 0.0, 1: 0.0})
    assert greedy_matching(sub).chosen == frozenset()


def test_greedy_path_takes_the_middle():
    # optimum is the outer pair (4); greedy gets 3, within the 1/2 bound
    sel = greedy_matching(WeightedSubproblem(PATH, PATH_W))
    assert sel.chosen == {1}


def test_greedy_disjoint_edges_all_selected():
    inst = make_instance([(0, 1, 0.9), (2, 3, 0.8)])
    sel = greedy_matching(WeightedSubproblem(inst, {0: 0.9, 1: 0.8}))
    assert sel.chosen == {0, 1}


def test_max_weight_path_takes_outer_pair():
    sel = max_weight_matching(WeightedSubproblem(PATH, PATH_W))
    assert sel.chosen == {0, 2}
    assert sel.total_weight(PATH_W) == 4.0


def test_max_weight_single_edge():
    inst = make_instance([(0, 1, 0.5)])
    sel = max_weight_matching(WeightedSubproblem(inst, {0: 7.0}))
    assert sel.chosen == {0} and sel.total_weight({0: 7.0}) == 7.0


def test_max_weight_triangle():
    tri = make_instance([(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
    w = {0: 3.0, 1: 2.0, 2: 2.0}
    sel = max_weight_matching(WeightedSubproblem(tri, w))
    assert sel.chosen == {0}


def test_max_weight_lexicographic_tie_break():
    k22 = make_instance([(0, 2, 0.5), (0, 3, 0.5), (1, 2, 0.5), (1, 3, 0.5)])
    w = dict.fromkeys(range(4), 1.0)
    assert max_weight_matching(WeightedSubproblem(k22, w)).chosen == {0, 3}


@pytest.mark.parametrize("edges", [
    [(1, 2, 0.5), (0, 1, 0.5), (2, 3, 0.5)],
    [(1, 2, 0.5), (0, 1, 0.5), (2, 3, 0.5), (0, 2, 0.5)],
], ids=["path", "path-and-triangle"])
def test_max_weight_sums_exactly(edges):
    # 1.0 + 2**-53 rounds to 1.0, so a float sum ties the lighter middle edge
    # with the outer pair; the assignment (path) and the search (triangle) agree
    inst = make_instance(edges)
    weights = {0: 1.0, 1: 1.0, 2: 2.0 ** -53, 3: 2.0 ** -60}
    sel = max_weight_matching(WeightedSubproblem(inst, {e.id: weights[e.id] for e in inst.edges}))
    assert sel.chosen == {1, 2}


def _random_bipartite(rng, many_to_one):
    n_left, n_right = rng.randint(1, 4), rng.randint(1, 4)
    vertices = [Vertex(i) for i in range(n_left)]
    vertices += [Vertex(n_left + j, rng.randint(1, 3) if many_to_one else 1)
                 for j in range(n_right)]
    pairs = [(u, n_left + j) for u in range(n_left) for j in range(n_right)]
    rng.shuffle(pairs)
    edges = [Edge(i, pairs[i], 0.5) for i in range(rng.randint(1, min(8, len(pairs))))]
    return Instance(vertices, edges, 1,
                    structure=ManyToOne(range(n_left)) if many_to_one else None)


def test_max_weight_matches_lexicographic_oracle():
    # unit bipartite, many-to-one, capacitated and general rounds of at most
    # 8 edges; weights from a few values, so equal and near-equal sums abound
    rng = CounterRng(1955)
    values = (0.0, 0.1, 0.2, 0.3, 0.5, 1.0)
    for k in range(800):
        kind = k % 4
        inst = (_random_bipartite(rng, kind == 1) if kind < 2
                else _random_instance(rng, capacitated=kind == 2))
        weights = {e.id: rng.choice(values) for e in inst.edges}
        sel = max_weight_matching(WeightedSubproblem(inst, weights))
        assert tuple(sorted(sel.chosen)) == brute_lex_max_weight(inst, weights), k


def _random_instance(rng, capacitated):
    nv = rng.randint(3, 7)
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    rng.shuffle(pairs)
    m = rng.randint(1, min(8, len(pairs)))
    caps = {v: rng.randint(1, 3) for v in range(nv)} if capacitated else None
    return make_instance([p + (0.5,) for p in pairs[:m]], caps=caps)


def test_max_weight_agrees_with_enumeration():
    rng = CounterRng(314)
    for k in range(300):
        inst = _random_instance(rng, capacitated=k % 2 == 1)
        weights = {e.id: rng.uniform(0.01, 1.0) for e in inst.edges}
        sub = WeightedSubproblem(inst, weights)
        sel = max_weight_matching(sub)
        got = sel.total_weight(weights)
        want = brute_max_weight(inst, weights)
        assert got == pytest.approx(want, abs=1e-12)


def test_greedy_is_half_of_exact():
    rng = CounterRng(2718)
    for k in range(300):
        inst = _random_instance(rng, capacitated=k % 2 == 1)
        weights = {e.id: rng.uniform(0.0, 1.0) for e in inst.edges}
        sub = WeightedSubproblem(inst, weights)
        g = greedy_matching(sub).total_weight(weights)
        opt = max_weight_matching(sub).total_weight(weights)
        assert g >= 0.5 * opt - 1e-12


def test_assignment_path_matches_enumeration():
    # the polynomial path, called directly on one-side-unit instances
    rng = CounterRng(41)
    for k in range(60):
        n_left = rng.randint(2, 4)
        n_right = rng.randint(1, 3)
        vertices = [Vertex(i) for i in range(n_left)]
        vertices += [Vertex(n_left + j, rng.randint(1, 3) if k % 2 else 1)
                     for j in range(n_right)]
        pairs = [(u, n_left + j) for u in range(n_left) for j in range(n_right)]
        rng.shuffle(pairs)
        m = rng.randint(1, min(8, len(pairs)))
        edges = [Edge(i, pairs[i], 0.5) for i in range(m)]
        inst = Instance(vertices, edges, 1, structure=ManyToOne(range(n_left)))
        ints, _ = dyadic(rng.uniform(0.01, 1.0) for _ in inst.edges)
        weights = dict(enumerate(ints))
        residual = {v.id: v.capacity for v in inst.vertices}
        chosen = _assignment(inst, list(weights), weights, residual, _bipartite_sides(inst))
        assert sum(weights[e] for e in chosen) == brute_max_weight(inst, weights)


def test_shortest_paths_exact_on_big_ints():
    # costs 2**60 apart by a few units: a float solver cannot tell them apart
    rng = CounterRng(53)
    for _ in range(300):
        n = rng.randint(1, 5)
        cost = [[(rng.randint(1, 3) << 60) + rng.randint(0, 3) for _ in range(n)]
                for _ in range(n)]
        sums = [sum(cost[i][j] for i, j in enumerate(perm)) for perm in permutations(range(n))]
        for sign in (1, -1):  # -1: the max-weight assignment, as _assignment poses it
            signed = [[sign * c for c in row] for row in cost]
            col4row, u, v = _shortest_paths(signed)
            assert sorted(col4row) == list(range(n))
            got = sum(cost[i][j] for i, j in enumerate(col4row))
            assert got == (min(sums) if sign == 1 else max(sums))
            assert all(signed[i][j] >= u[i] + v[j] for i in range(n) for j in range(n))
            assert all(signed[i][j] == u[i] + v[j] for i, j in enumerate(col4row))


def test_shortest_paths_matches_scipy():
    # SciPy is the oracle here only; the package itself never imports it
    scipy_optimize = pytest.importorskip("scipy.optimize")
    import numpy as np

    rng = CounterRng(2016)
    value_sets = ((0.0, 0.3), (0.0, 0.1, 0.2, 0.3, 1.0), (0.0, 1.0, 2.0), None)
    for k in range(20000):
        n = rng.randint(1, 8)
        values = value_sets[k % len(value_sets)]
        cost = [[rng.choice(values) if values else rng.uniform() for _ in range(n)]
                for _ in range(n)]
        for maximize in (False, True):
            rows, cols = scipy_optimize.linear_sum_assignment(
                np.array(cost), maximize=maximize)
            assert rows.tolist() == list(range(n))
            signed = [[-c for c in row] for row in cost] if maximize else cost
            assert _shortest_paths(signed)[0] == cols.tolist()


def test_hypergraph_greedy():
    disjoint = make_instance([(0, 1, 2, 0.5), (3, 4, 5, 0.5)], structure=Hypergraph(3))
    w = {0: 1.0, 1: 2.0}
    assert greedy_hypergraph_matching(WeightedSubproblem(disjoint, w)).chosen == {0, 1}

    overlapping = make_instance([(0, 1, 2, 0.5), (2, 3, 4, 0.5)], structure=Hypergraph(3))
    w = {0: 5.0, 1: 4.0}
    assert greedy_hypergraph_matching(WeightedSubproblem(overlapping, w)).chosen == {0}

    sunflower = make_instance([(0, 1 + 2 * i, 2 + 2 * i, 0.5) for i in range(3)],
                              structure=Hypergraph(3))
    w = dict.fromkeys(range(3), 1.0)
    sel = greedy_hypergraph_matching(WeightedSubproblem(sunflower, w))
    assert len(sel.chosen) == 1
    assert brute_max_weight(sunflower, w) == 1.0


def test_hypergraph_greedy_is_one_third_of_exact():
    rng = CounterRng(55)
    for _ in range(150):
        nv = rng.randint(4, 7)
        edges = []
        seen = set()
        for _ in range(rng.randint(1, 7)):
            ids = set()
            while len(ids) < rng.randint(2, 3):
                ids.add(rng.randint(0, nv - 1))
            key = tuple(sorted(ids))
            if key not in seen and len(key) >= 2:
                seen.add(key)
                edges.append(key + (0.5,))
        if not edges:
            continue
        inst = make_instance(edges, structure=Hypergraph(3))
        weights = {e.id: rng.uniform(0.01, 1.0) for e in inst.edges}
        g = greedy_hypergraph_matching(
            WeightedSubproblem(inst, weights)).total_weight(weights)
        assert g >= brute_max_weight(inst, weights) / 3.0 - 1e-12


def test_degree_halving_examples():
    assert degree_halving_subgraph([]) == set()
    assert degree_halving_subgraph([(0, 1, 0.3)]) == {0}
    star = [(0, i, 1.0) for i in range(1, 5)]
    chosen = degree_halving_subgraph(star)
    assert chosen == {0, 2}
    assert sum(star[i][2] for i in chosen) == 2.0  # half the weight, >= 1/3
    with pytest.raises(ValidationError):
        degree_halving_subgraph([(2, 2, 1.0)])


def test_degree_halving_postconditions():
    import math

    rng = CounterRng(77)
    for _ in range(200):
        nv = rng.randint(2, 6)
        edges = []
        for _ in range(rng.randint(1, 9)):
            u = rng.randint(0, nv - 2)
            edges.append((u, rng.randint(u + 1, nv - 1), rng.uniform(0.0, 1.0)))
        chosen = degree_halving_subgraph(edges)
        total = sum(w for _, _, w in edges)
        assert sum(edges[i][2] for i in chosen) >= total / 3.0 - 1e-12
        deg, deg_s = {}, {}
        for i, (u, v, _) in enumerate(edges):
            for x in (u, v):
                deg[x] = deg.get(x, 0) + 1
                deg_s[x] = deg_s.get(x, 0) + (1 if i in chosen else 0)
        assert all(deg_s[v] <= math.ceil(deg[v] / 2) for v in deg)


def test_subproblem_validation():
    with pytest.raises(ValidationError):
        WeightedSubproblem(PATH, {0: -1.0})
    with pytest.raises(ValidationError):
        WeightedSubproblem(PATH, {9: 1.0})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 10) - 1), st.integers(0, (1 << 10) - 1))
def test_lex_less_matches_tuple_order(a, b):
    assert lex_less(a, b) == (tuple(sorted(mask_to_set(a))) < tuple(sorted(mask_to_set(b))))
