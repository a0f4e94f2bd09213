"""Deterministic matching subroutines shared by all policies.

All operations are pure functions of their inputs.  Tie-breaking is
deterministic everywhere: weight descending, then edge id ascending for
greedy; for the exact solver, the lexicographically smallest edge-id set
among max-weight selections, compared on exact integer weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import LimitExceededError, UnknownEdgeError, ValidationError
from .model import Hypergraph, Instance, ManyToOne, RoundSelection, dyadic

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
    return RoundSelection(_greedy(sub.instance, sub.weights, sub._effective_residual()))


def _greedy(inst: Instance, weights: Mapping[int, float], residual: dict[int, int]
            ) -> list[int]:
    # consumes ``residual``
    order = sorted((e for e, w in weights.items() if w > 0), key=lambda e: (-weights[e], e))
    chosen = []
    for e in order:
        ends = inst.edges[e].endpoints
        if all(residual.get(v, 0) >= 1 for v in ends):
            chosen.append(e)
            for v in ends:
                residual[v] -= 1
    return chosen


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


def _branch_and_bound(inst: Instance, avail: list[int], weights: Mapping[int, int],
                      residual: dict[int, int], greedy: Iterable[int]) -> list[int]:
    """Max-weight selection by include-first DFS over ``avail`` (ids ascending).

    The DFS meets selections in lexicographic order, and on the int
    ``weights`` every sum is exact, so keeping only strict improvements keeps
    the lexicographically smallest optimum.  The sum of the feasible
    ``greedy`` selection minus 1 seeds the incumbent: every optimum beats it.
    """
    wts = [weights[e] for e in avail]
    suffix = [0] * (len(avail) + 1)
    for i in range(len(avail) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + wts[i]
    best_w = sum(weights[e] for e in greedy) - 1
    best: list[int] = []
    chosen: list[int] = []

    def dfs(i: int, cur: int):
        nonlocal best_w, best
        if cur + suffix[i] <= best_w:
            return
        if i == len(avail):
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

    dfs(0, 0)
    return best


def _shortest_paths(cost: list[list[float]]) -> tuple[list[int], list, list]:
    """Min-cost assignment of every row of ``cost`` (no more rows than
    columns): ``(col4row, u, v)``.

    A pure-Python port of the shortest augmenting path solver behind
    SciPy's ``linear_sum_assignment`` (Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016), kept step for step
    so that it picks the same columns, ties included: the column scan runs
    over ``remaining`` filled in reverse, a tied minimum prefers an
    unassigned column, and the duals are updated in the same order.  The
    updates only add and subtract, and the duals start at int 0, so on int
    costs every step is exact at any magnitude.  The duals satisfy
    cost[i][j] >= u[i] + v[j] everywhere, with equality on the assignment,
    and v[j] <= 0, with v[j] == 0 on every unassigned column."""
    nr, nc = len(cost), len(cost[0])
    inf = math.inf
    u = [0] * nr
    v = [0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # shortest augmenting path from cur_row
        min_val = 0
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
    return col4row, u, v


def _assignment(inst: Instance, avail: list[int], weights: Mapping[int, int],
                residual: dict[int, int], sides: tuple[set[int], set[int]]
                ) -> list[int] | None:
    """Bipartite path on int weights, or None when some available edge has
    residual above 1 at both ends (the expansion could then take it twice).

    Rows are the left vertices' copies, one per unit of residual, columns the
    right ones', both padded with dummies to a square; a cell costs minus the
    weight of its heaviest, then lowest-id, edge, and 0 without one.  One
    solve gives an optimum and its duals, and by complementary slackness the
    optima are the perfect matchings on the tight cells (cost == u + v).
    Edges are then fixed in ascending id: one on the matching stays; any
    other is swapped in along an alternating cycle of tight cells that moves
    no kept edge, or else its cells are priced out of the tight set.  What
    stays is the lexicographically smallest optimum.
    """
    left, right = sides
    ends = {}
    for e in avail:
        u, w = inst.edges[e].endpoints
        if residual.get(u, 0) > 1 and residual.get(w, 0) > 1:
            return None
        ends[e] = (u, w) if u in left else (w, u)
    lcopies = [v for v in sorted(left) for _ in range(residual.get(v, 0))]
    rcopies = [v for v in sorted(right) for _ in range(residual.get(v, 0))]
    n = max(len(lcopies), len(rcopies))
    if n == 0:
        return []
    lpos, rpos = {}, {}
    for copies, pos in ((lcopies, lpos), (rcopies, rpos)):
        for idx, v in enumerate(copies):
            pos.setdefault(v, []).append(idx)
    cost = [[0] * n for _ in range(n)]
    owner = [-1] * (n * n)
    ce, ci, cj = [], [], []  # each claim of a cell: edge, row, column
    for e in avail:
        u, w = ends[e]
        c = -weights[e]
        for i in lpos.get(u, ()):
            row = cost[i]
            for j in rpos.get(w, ()):
                if c < row[j]:
                    row[j] = c
                    owner[i * n + j] = e
                    ce.append(e)
                    ci.append(i)
                    cj.append(j)
    col4row, du, dv = _shortest_paths(cost)
    row4col = [0] * n
    for i, j in enumerate(col4row):
        row4col[j] = i
    kept = [False] * n
    last = -1
    for e, i, j in zip(ce, ci, cj):
        if e == last or owner[i * n + j] != e:
            continue
        if col4row[i] == j or (not kept[i] and not kept[row4col[j]]
                               and cost[i][j] == du[i] + dv[j]
                               and _swap_in(i, j, cost, du, dv, kept, col4row, row4col)):
            kept[i] = True
            last = e
        else:
            cost[i][j] = 1
    return sorted(owner[i * n + j] for i, j in enumerate(col4row) if owner[i * n + j] >= 0)


def _swap_in(i: int, j: int, cost: list[list[int]], du: list[int], dv: list[int],
             kept: list[bool], col4row: list[int], row4col: list[int]) -> bool:
    """Move cell (i, j) onto the matching along an alternating cycle of tight
    cells through no kept row: a breadth-first search from the row on column
    j to row i's column.  False, and nothing moved, when there is none."""
    target = col4row[i]
    start = row4col[j]
    came = {start: None}
    queue = [start]
    for r in queue:
        row, ur = cost[r], du[r]
        for c, vc in enumerate(dv):
            if row[c] != ur + vc:
                continue
            if c == target:
                step = (r, c)
                while step is not None:
                    r, c = step
                    step = came[r]
                    col4row[r], row4col[c] = c, r
                col4row[i], row4col[j] = j, i
                return True
            r2 = row4col[c]
            if r2 not in came and not kept[r2]:
                came[r2] = (r, c)
                queue.append(r2)
    return False


def max_weight_matching(sub: WeightedSubproblem) -> RoundSelection:
    """Feasible selection of maximum total weight; among those, the
    lexicographically smallest edge-id set.

    The available weights become exact ints once (``model.dyadic``), so
    every comparison is exact.  A bipartite round where every available
    edge has an end of unit residual is solved by :func:`_assignment` at any
    size; every other round by :func:`_branch_and_bound`, up to
    ``EXACT_SEARCH_LIMIT`` available edges.
    """
    inst = sub.instance
    if isinstance(inst.structure, Hypergraph):
        raise ValidationError("max_weight_matching covers general/many-to-one structures")
    avail = sorted(e for e, w in sub.weights.items() if w > 0)
    ints, _ = dyadic(sub.weights[e] for e in avail)
    return RoundSelection(_max_weight(inst, dict(zip(avail, ints)),
                                      sub._effective_residual(), _bipartite_sides(inst)))


def _max_weight(inst: Instance, weights: dict[int, int], residual: dict[int, int],
                sides: tuple[set[int], set[int]] | None) -> list[int]:
    """:func:`max_weight_matching` on positive int ``weights`` keyed by the
    available edges, with the instance's ``_bipartite_sides``."""
    avail = sorted(weights)
    for v in inst.vertices:
        residual.setdefault(v.id, 0)
    chosen = None if sides is None else _assignment(inst, avail, weights, residual, sides)
    if chosen is None:
        if len(avail) > EXACT_SEARCH_LIMIT:
            raise LimitExceededError(
                f"exact matching over {len(avail)} edges exceeds limit {EXACT_SEARCH_LIMIT} "
                "on a non-bipartite or doubly capacitated round")
        chosen = _branch_and_bound(inst, avail, weights, residual,
                                   _greedy(inst, weights, dict(residual)))
    return chosen


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
