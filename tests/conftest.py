import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from rematch.model import Edge, Instance, Vertex


def make_instance(edges, rounds=1, caps=None, weights=None, structure=None):
    """Tiny-instance helper: edges as (u, v[, ...], p) tuples."""
    vids = sorted({v for e in edges for v in e[:-1]})
    caps = caps or {}
    vertices = [Vertex(v, caps.get(v, 1)) for v in vids]
    es = [Edge(i, e[:-1], e[-1]) for i, e in enumerate(edges)]
    return Instance(vertices, es, rounds, weights, structure)


def path_instance(n):
    """Unit-capacity bipartite path with n left vertices, every edge certain:
    left k meets right n + k and, for k >= 1, right n + k - 1.  A search
    for an augmenting path from left k would run through all k earlier
    left vertices; Kuhn's algorithm matches left k to its free right
    vertex n + k at once."""
    edges = []
    for k in range(n):
        if k:
            edges.append((k, n + k - 1, 1.0))
        edges.append((k, n + k, 1.0))
    return make_instance(edges)


def chain_instance(n):
    """Unit-capacity bipartite chain with n left vertices, every edge certain:
    left k < n - 1 meets right n + k and n + k + 1, and left n - 1 meets
    right n only.  Each earlier left vertex takes its lowest free right
    vertex, so Kuhn's search from the last runs an augmenting path through
    all of them."""
    edges = []
    for k in range(n - 1):
        edges += [(k, n + k, 1.0), (k, n + k + 1, 1.0)]
    edges.append((n - 1, n, 1.0))
    return make_instance(edges)
