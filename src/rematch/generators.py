"""Instance generators: canonical example families and random profiles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ValidationError
from .model import (Edge, General, Hypergraph, Instance, ManyToOne, Vertex,
                    check_edges_limit, check_rounds_limit)
from .rng import CounterRng


def gen_double_star(n: int, eps: float) -> Instance:
    """Two hubs joined by a certain edge, plus 2n-2 spokes of probability 0.5-eps.

    Vertices 0..n-1 are the left side (hub 0), n..2n-1 the right side
    (hub n).  Edge 0 is the hub-hub edge with p=1; edges 1..n-1 fan out
    from the left hub, edges n..2n-2 from the right hub.  T = n^2,
    unit capacities and weights; a T past ``ROUNDS_LIMIT`` raises
    ``LimitExceededError`` before anything is built.
    """
    if n < 2:
        raise ValidationError("double star needs n >= 2")
    if not (0.0 < eps < 0.5):
        raise ValidationError("eps must lie strictly between 0 and 0.5")
    check_rounds_limit(n * n)
    p = 0.5 - eps
    vertices = [Vertex(i) for i in range(2 * n)]
    edges = [Edge(0, (0, n), 1.0)]
    for i in range(1, n):
        edges.append(Edge(len(edges), (0, n + i), p))
    for i in range(1, n):
        edges.append(Edge(len(edges), (i, n), p))
    return Instance(vertices, edges, n * n)


@lru_cache(maxsize=256)
def double_star_layout(instance: Instance):
    """(n, hub edge id, left spoke ids, right spoke ids) or None.

    Detection is structural so instances round-tripped through JSON are
    still recognized: one certain edge between two hubs, every other
    edge a spoke of equal probability in (0, 0.5) at exactly one hub,
    unit capacities, spokes pairwise distinct.  Memoized per instance, so
    the spoke ids come as sorted tuples.
    """
    m = instance.num_edges
    if m < 3 or m % 2 == 0 or not instance.unit_capacities():
        return None
    if isinstance(instance.structure, Hypergraph):
        return None
    n = (m + 1) // 2
    hubs = [e for e in instance.edges if e.p == 1.0]
    if len(hubs) != 1:
        return None
    hub = hubs[0]
    a, b = hub.endpoints
    spokes = [e for e in instance.edges if e.id != hub.id]
    ps = {e.p for e in spokes}
    if len(ps) != 1 or not (0.0 < next(iter(ps)) < 0.5):
        return None
    left_ids, right_ids = [], []
    seen = set()
    for e in spokes:
        if len(e.endpoints) != 2:
            return None
        at_a = a in e.endpoints
        at_b = b in e.endpoints
        if at_a == at_b:
            return None
        other = e.endpoints[0] if e.endpoints[1] in (a, b) else e.endpoints[1]
        if other in seen or other in (a, b):
            return None
        seen.add(other)
        (left_ids if at_a else right_ids).append(e.id)
    if len(left_ids) != n - 1 or len(right_ids) != n - 1:
        return None
    return n, hub.id, tuple(sorted(left_ids)), tuple(sorted(right_ids))


def gen_separation() -> Instance:
    """Complete 2x2 bipartite instance, all p=0.7, two rounds.

    The smallest instance separating the optimal policy from its
    committing restriction.
    """
    vertices = [Vertex(i) for i in range(4)]
    edges = [Edge(0, (0, 2), 0.7), Edge(1, (0, 3), 0.7),
             Edge(2, (1, 2), 0.7), Edge(3, (1, 3), 0.7)]
    return Instance(vertices, edges, 2)


def gen_complete_bipartite(n: int, p: float, rounds: int = 1) -> Instance:
    """K_{n,n} with uniform edge probability; single round by default.

    The rounds are checked against ``ROUNDS_LIMIT``, and the n^2 edges
    against ``EDGES_LIMIT``, before anything is built."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    check_rounds_limit(rounds)
    check_edges_limit(n * n)
    vertices = [Vertex(i) for i in range(2 * n)]
    edges = []
    for i in range(n):
        for j in range(n):
            edges.append(Edge(len(edges), (i, n + j), p))
    return Instance(vertices, edges, rounds,
                    structure=ManyToOne(range(n)))


# ---------------------------------------------------------------------
# random profiles (property-test fodder)


@dataclass(frozen=True)
class RandomProfile:
    name: str
    structure: str           # "general" | "many_to_one" | "hypergraph"
    vertices: tuple[int, int]
    edges: tuple[int, int]
    capacities: tuple[int, int]
    rounds: tuple[int, int]
    degenerate_p: float = 0.1   # chance an edge gets p in {0, 1}


PROFILES = {
    # unit capacities, within the lemma-suite budget (<= 8 edges, T <= 4)
    "unit-small": RandomProfile("unit-small", "general", (4, 8), (3, 8), (1, 1), (2, 4)),
    "cap-small": RandomProfile("cap-small", "general", (3, 6), (3, 6), (1, 3), (2, 3)),
    "mto-small": RandomProfile("mto-small", "many_to_one", (3, 6), (3, 6), (1, 3), (2, 3)),
    "hyper3-small": RandomProfile("hyper3-small", "hypergraph", (4, 7), (3, 6), (1, 1), (2, 3)),
}


def gen_random(profile: str | RandomProfile, seed: int) -> Instance:
    """Seeded random instance drawn from a named profile."""
    if isinstance(profile, str):
        if profile not in PROFILES:
            raise ValidationError(f"unknown profile {profile!r}; have {sorted(PROFILES)}")
        prof = PROFILES[profile]
    else:
        prof = profile
    rng = CounterRng(seed)
    nv = rng.randint(*prof.vertices)
    rounds = rng.randint(*prof.rounds)

    def edge_p() -> float:
        if rng.uniform() < prof.degenerate_p:
            return 0.0 if rng.uniform() < 0.5 else 1.0
        return rng.uniform(0.05, 0.95)

    if prof.structure == "many_to_one":
        n_left = max(2, nv // 2)
        n_right = max(1, nv - n_left)
        vertices = [Vertex(i, 1) for i in range(n_left)]
        vertices += [Vertex(n_left + i, rng.randint(*prof.capacities))
                     for i in range(n_right)]
        pairs = [(u, n_left + w) for u in range(n_left) for w in range(n_right)]
        structure = ManyToOne(range(n_left))
    elif prof.structure == "hypergraph":
        vertices = [Vertex(i, 1) for i in range(nv)]
        pairs = None
        structure = Hypergraph(3)
    else:
        vertices = [Vertex(i, rng.randint(*prof.capacities)) for i in range(nv)]
        pairs = [(u, w) for u in range(nv) for w in range(u + 1, nv)]
        structure = General()

    target = rng.randint(*prof.edges)
    edges: list[Edge] = []
    if pairs is not None:
        rng.shuffle(pairs)
        for u, w in pairs[:target]:
            edges.append(Edge(len(edges), (u, w), edge_p()))
    else:
        chosen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(edges) < target and attempts < 200:
            attempts += 1
            size = rng.randint(2, 3)
            ids = set()
            while len(ids) < size:
                ids.add(rng.randint(0, nv - 1))
            key = tuple(sorted(ids))
            if key in chosen:
                continue
            chosen.add(key)
            edges.append(Edge(len(edges), key, edge_p()))
    if not edges:
        edges.append(Edge(0, (0, 1), edge_p()))
    return Instance(vertices, edges, rounds, structure=structure)
