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
    left k meets right n + k and, for k >= 1, right n + k - 1.  Kuhn's
    search from left k runs down a path through all k earlier left vertices."""
    edges = []
    for k in range(n):
        if k:
            edges.append((k, n + k - 1, 1.0))
        edges.append((k, n + k, 1.0))
    return make_instance(edges)
