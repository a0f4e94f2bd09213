"""Deterministic matching subroutines shared by all policies.

All operations are pure functions of their inputs.  Tie-breaking is
deterministic everywhere: weight descending, then edge id ascending for
greedy; lexicographically smallest edge-id set among optima for the
exact solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import LimitExceededError, UnknownEdgeError, ValidationError
from .model import Hypergraph, Instance, ManyToOne, RoundSelection

EXACT_SEARCH_LIMIT = 20


@dataclass(frozen=True)
class WeightedSubproblem:
    """One round's residual matching problem.

    ``weights`` defines the available edges (id -> weight >= 0);
    ``residual`` the remaining per-vertex capacity (defaults to the
    declared capacities).
    """

    instance: Instance
    weights: Mapping[int, float]
    residual: Mapping[int, int]

    def __init__(self, instance, weights, residual=None):
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "weights", dict(weights))
        if residual is None:
            residual = {v.id: v.capacity for v in instance.vertices}
        object.__setattr__(self, "residual", dict(residual))
        self._validate()

    def _validate(self):
        m = self.instance.num_edges
        caps = {v.id: v.capacity for v in self.instance.vertices}
        for e, w in self.weights.items():
            if not (0 <= e < m):
                raise UnknownEdgeError(f"unknown edge id {e}")
            if not math.isfinite(w) or w < 0:
                raise ValidationError(f"edge {e}: weight must be finite and >= 0")
        for v, r in self.residual.items():
            if v not in caps:
                raise ValidationError(f"unknown vertex {v}")
            if not (0 <= r <= caps[v]):
                raise ValidationError(f"vertex {v}: residual outside 0..capacity")

    @classmethod
    def fresh(cls, instance: Instance, weights: Mapping[int, float] | None = None
              ) -> "WeightedSubproblem":
        """Full-capacity subproblem; weights default to the edge probabilities."""
        if weights is None:
            weights = {e.id: e.p for e in instance.edges}
        return cls(instance, weights)

    def _effective_residual(self) -> dict[int, int]:
        if isinstance(self.instance.structure, Hypergraph):
            return {v: min(r, 1) for v, r in self.residual.items()}
        return dict(self.residual)


def greedy_matching(sub: WeightedSubproblem) -> RoundSelection:
    """Repeatedly take the heaviest positive-weight edge that still fits.

    Ties break toward the lowest edge id.  Zero-weight edges are never
    selected.
    """
    inst = sub.instance
    residual = sub._effective_residual()
    order = sorted((e for e, w in sub.weights.items() if w > 0),
                   key=lambda e: (-sub.weights[e], e))
    chosen = []
    for e in order:
        ends = inst.edges[e].endpoints
        if all(residual.get(v, 0) >= 1 for v in ends):
            chosen.append(e)
            for v in ends:
                residual[v] -= 1
    return RoundSelection(chosen)


def greedy_hypergraph_matching(sub: WeightedSubproblem) -> RoundSelection:
    """Greedy by descending weight over vertex-disjoint hyperedges."""
    if not isinstance(sub.instance.structure, Hypergraph):
        raise ValidationError("greedy_hypergraph_matching requires a hypergraph instance")
    return greedy_matching(sub)


def _bipartite_sides(inst: Instance) -> tuple[set[int], set[int]] | None:
    """Left/right vertex sets, or None when the graph is not bipartite."""
    if isinstance(inst.structure, ManyToOne):
        left = set(inst.structure.left)
        return left, {v.id for v in inst.vertices} - left
    if isinstance(inst.structure, Hypergraph):
        return None
    color: dict[int, int] = {}
    adj: dict[int, list[int]] = {v.id: [] for v in inst.vertices}
    for e in inst.edges:
        u, w = e.endpoints
        adj[u].append(w)
        adj[w].append(u)
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    left = {v for v, c in color.items() if c == 0}
    return left, {v for v in adj} - left


def _branch_and_bound(inst: Instance, avail: list[int], weights: Mapping[int, float],
                      residual: dict[int, int]) -> tuple[float, list[int]]:
    """Exact max-weight selection by include-first DFS over ids ascending.

    Visiting the include branch first enumerates candidate sets in
    lexicographic edge-id order, so keeping only strict improvements
    returns the lexicographically smallest optimum (weights are strictly
    positive, so distinct optima are never subset-related).  The greedy
    solution seeds the incumbent bound.
    """
    avail = sorted(avail)
    wts = [weights[e] for e in avail]
    suffix = [0.0] * (len(avail) + 1)
    for i in range(len(avail) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + wts[i]

    greedy = greedy_matching(WeightedSubproblem(
        inst, {e: weights[e] for e in avail}, residual))
    best_w = sum(weights[e] for e in greedy.chosen) - 1e-12
    best: list[int] | None = None

    chosen: list[int] = []

    def dfs(i: int, cur: float):
        nonlocal best_w, best
        if cur + suffix[i] <= best_w:
            return
        if i == len(avail):
            if cur > best_w:
                best_w = cur
                best = list(chosen)
            return
        e = avail[i]
        ends = inst.edges[e].endpoints
        if all(residual[v] >= 1 for v in ends):
            for v in ends:
                residual[v] -= 1
            chosen.append(e)
            dfs(i + 1, cur + wts[i])
            chosen.pop()
            for v in ends:
                residual[v] += 1
        dfs(i + 1, cur)

    dfs(0, 0.0)
    if best is None:
        # nothing beat the greedy incumbent
        return sum(weights[e] for e in greedy.chosen), sorted(greedy.chosen)
    return best_w, best


def linear_sum_assignment(cost: list[list[float]], maximize: bool = False
                          ) -> tuple[list[int], list[int]]:
    """Rectangular linear sum assignment on a list-of-rows cost matrix.

    A pure-Python port of the shortest augmenting path solver behind
    SciPy's ``linear_sum_assignment`` (Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016), kept step for step
    so that it returns the same ``(rows, cols)``, ties included: a tall matrix is transposed, ``maximize`` negates the costs,
    the column scan runs over ``remaining`` filled in reverse, a tied
    minimum prefers an unassigned column, and the duals are updated in the
    same order.  The updates only add and subtract, so the float values are
    those of the compiled solver.  ``rows`` comes out ascending.
    """
    nr = len(cost)
    nc = len(cost[0]) if nr else 0
    if nr == 0 or nc == 0:
        return [], []
    transpose = nc < nr
    if transpose:
        cost = [list(col) for col in zip(*cost)]
        nr, nc = nc, nr
    if maximize:
        cost = [[-c for c in row] for row in cost]
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # shortest augmenting path from cur_row
        min_val = 0.0
        remaining = list(range(nc - 1, -1, -1))
        num_remaining = nc
        shortest = [inf] * nc
        sr = [False] * nr
        sc = [False] * nc
        i = cur_row
        sink = -1
        while sink == -1:
            index = -1
            lowest = inf
            sr[i] = True
            row = cost[i]
            ui = u[i]
            for it in range(num_remaining):
                j = remaining[it]
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if min_val == inf:
                raise ValidationError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]
        # update the duals
        u[cur_row] += min_val
        for i in range(nr):
            if sr[i] and i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(nc):
            if sc[j]:
                v[j] -= min_val - shortest[j]
        # augment the previous solution along the path
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[c] for c in cols], cols
    return list(range(nr)), col4row


def _assignment(inst: Instance, avail: list[int], weights: Mapping[int, float],
                residual: dict[int, int], sides: tuple[set[int], set[int]]
                ) -> list[int]:
    """Polynomial bipartite path: capacity-expanded assignment problem.

    Sound whenever at most one endpoint of each edge has capacity > 1
    (otherwise the same edge could be assigned twice), which covers the
    unit and many-to-one cases this path is used for.
    """
    left, right = sides
    for e in avail:
        u, w = inst.edges[e].endpoints
        if residual.get(u, 0) > 1 and residual.get(w, 0) > 1:
            raise LimitExceededError(
                "exact matching beyond the search limit needs one side of unit capacity")
    lcopies = [(v, i) for v in sorted(left) for i in range(residual.get(v, 0))]
    rcopies = [(v, i) for v in sorted(right) for i in range(residual.get(v, 0))]
    lpos = {}
    for idx, (v, _) in enumerate(lcopies):
        lpos.setdefault(v, []).append(idx)
    rpos = {}
    for idx, (v, _) in enumerate(rcopies):
        rpos.setdefault(v, []).append(idx)
    cost = [[0.0] * len(rcopies) for _ in lcopies]
    edge_at = {}
    for e in avail:
        u, w = inst.edges[e].endpoints
        if u not in left:
            u, w = w, u
        for i in lpos.get(u, []):
            for j in rpos.get(w, []):
                if weights[e] > cost[i][j]:
                    cost[i][j] = weights[e]
                    edge_at[i, j] = e
    rows, cols = linear_sum_assignment(cost, maximize=True)
    chosen = set()
    for i, j in zip(rows, cols):
        if cost[i][j] > 0:
            chosen.add(edge_at[i, j])
    return sorted(chosen)


def max_weight_matching(sub: WeightedSubproblem) -> RoundSelection:
    """Feasible selection maximizing total weight.

    Small problems (and all non-bipartite ones up to the exact-search
    limit) are solved exactly by branch and bound with a deterministic
    lexicographic tie-break; larger bipartite problems fall back to the
    augmenting-path assignment solver, :func:`linear_sum_assignment` (a
    port of SciPy's rectangular LSAP, so its ties break as SciPy's do).
    """
    inst = sub.instance
    if isinstance(inst.structure, Hypergraph):
        raise ValidationError("max_weight_matching covers general/many-to-one structures")
    avail = [e for e, w in sub.weights.items() if w > 0]
    residual = sub._effective_residual()
    for v in (v.id for v in inst.vertices):
        residual.setdefault(v, 0)
    if len(avail) <= EXACT_SEARCH_LIMIT:
        _, chosen = _branch_and_bound(inst, avail, sub.weights, residual)
        return RoundSelection(chosen)
    sides = _bipartite_sides(inst)
    if sides is None:
        raise LimitExceededError(
            f"exact matching over {len(avail)} edges exceeds limit {EXACT_SEARCH_LIMIT} "
            "on a non-bipartite instance")
    return RoundSelection(_assignment(inst, avail, sub.weights, residual, sides))


def degree_halving_subgraph(edges: Iterable[tuple[int, int, float]]) -> set[int]:
    """Heavy subgraph with per-vertex degree at most ceil(d_v / 2).

    Input is a weighted multigraph as (u, v, weight) triples; the result
    is the set of selected edge positions.  Repeatedly moves the
    heaviest remaining edge into the output, then deletes one remaining
    edge at each of its endpoints (lowest position first).  The output
    carries at least one third of the total weight.
    """
    edges = list(edges)
    for i, (u, v, w) in enumerate(edges):
        if u == v:
            raise ValidationError(f"edge {i} is a self-loop")
        if not math.isfinite(w) or w < 0:
            raise ValidationError(f"edge {i}: weight must be finite and >= 0")
    remaining = set(range(len(edges)))
    incident: dict[int, set[int]] = {}
    for i, (u, v, _) in enumerate(edges):
        incident.setdefault(u, set()).add(i)
        incident.setdefault(v, set()).add(i)

    def drop(i: int):
        remaining.discard(i)
        u, v, _ = edges[i]
        incident[u].discard(i)
        incident[v].discard(i)

    selected: set[int] = set()
    while remaining:
        i = min(remaining, key=lambda j: (-edges[j][2], j))
        selected.add(i)
        drop(i)
        for v in edges[i][:2]:
            live = incident[v] & remaining
            if live:
                drop(min(live))
    return selected
