"""Problem instances, sample graphs, knowledge tracking, and reward accounting.

An :class:`Instance` is the problem definition: vertices with integer
capacities, probabilistic (hyper)edges, a round count and per-round
weights.  Nature's hidden draw is a :class:`SampleGraph` (one boolean per
edge); what a policy has learned so far is a :class:`KnowledgeState`
(the masks of the edges known to have succeeded and failed); a policy
execution record is a :class:`Trace`.

Instances and sample graphs are immutable and safe to share across
threads.  Edge ids are dense 0..m-1 by construction, so an edge set is
stored as an integer bitmask (bit e set iff edge e is in the set): sample
graphs, knowledge states and traces keep only masks.  Their frozenset or
tuple attributes are views built on access for the API boundary, and so
are a trace's per-round success counts and its exact weighted reward.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import LimitExceededError, UnknownEdgeError, ValidationError
from .rng import draw_mask, lane_table

ENUMERATION_LIMIT = 2**16  # listed items: sample graphs or feasible selections
ROUNDS_LIMIT = 10**6
EDGES_LIMIT = 2**18  # K_{512,512}: simulating it peaks at 276 MB; 10^6 edges at 1.2 GB
# instance JSON at indent=2 spends about 230 bytes per edge (its record and
# its endpoints' vertex records) and 30 per round weight: 99.1 MB in all
INSTANCE_BYTES_LIMIT = 256 * EDGES_LIMIT + 32 * ROUNDS_LIMIT


def dyadic(values: Iterable[float]) -> tuple[list[int], int]:
    """(ints, K) with ``values[i] == ints[i] / 2**K`` exactly: every finite float
    is dyadic, so int sums and products are exact, and dividing one by its power
    of two (int / int) rounds it once, correctly."""
    ratios = [v.as_integer_ratio() for v in values]
    K = max((den.bit_length() - 1 for _, den in ratios), default=0)
    return [num << (K - den.bit_length() + 1) for num, den in ratios], K


def check_rounds_limit(rounds: int) -> None:
    """Raise ``LimitExceededError`` past ``ROUNDS_LIMIT``; call it before allocating."""
    if rounds > ROUNDS_LIMIT:
        raise LimitExceededError(f"{rounds} rounds exceed limit {ROUNDS_LIMIT}")


def check_samples_limit(edges: int) -> None:
    """Raise ``LimitExceededError`` if listing the 2^edges samples passes ``ENUMERATION_LIMIT``."""
    if 1 << edges > ENUMERATION_LIMIT:
        raise LimitExceededError(
            f"enumeration of 2^{edges} samples exceeds limit {ENUMERATION_LIMIT}")


def check_edges_limit(edges: int) -> None:
    """Raise ``LimitExceededError`` past ``EDGES_LIMIT``; call it before building edges."""
    if edges > EDGES_LIMIT:
        raise LimitExceededError(f"{edges} edges exceed limit {EDGES_LIMIT}")


@dataclass(frozen=True)
class General:
    """Plain matching: every edge has exactly two endpoints."""


@dataclass(frozen=True)
class ManyToOne:
    """Bipartite, left side capacity 1, right side arbitrary capacities."""

    left: frozenset[int]

    def __init__(self, left: Iterable[int]):
        object.__setattr__(self, "left", frozenset(left))


@dataclass(frozen=True)
class Hypergraph:
    """Team formation: edges of 2..k vertices, selections vertex-disjoint."""

    k: int


Structure = General | ManyToOne | Hypergraph


@dataclass(frozen=True)
class Vertex:
    id: int
    capacity: int = 1


@dataclass(frozen=True)
class Edge:
    id: int
    endpoints: tuple[int, ...]
    p: float

    def __init__(self, id: int, endpoints: Iterable[int], p: float):
        ends = tuple(sorted(endpoints))
        if len(set(ends)) != len(ends):
            raise ValidationError(f"edge {id} repeats an endpoint")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "endpoints", ends)
        object.__setattr__(self, "p", float(p))


@dataclass(frozen=True)
class Instance:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    rounds: int
    weights: tuple[float, ...]
    structure: Structure = field(default_factory=General)

    def __init__(self, vertices, edges, rounds, weights=None, structure=None):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "rounds", int(rounds))
        check_rounds_limit(self.rounds)  # before the default weights are allocated
        if weights is None:
            weights = (1.0,) * int(rounds)
        object.__setattr__(self, "weights", tuple(float(w) for w in weights))
        object.__setattr__(self, "structure", structure if structure is not None else General())
        self._validate()

    def __hash__(self) -> int:
        # the dataclass hash, kept outside the fields on first use: lru_cache
        # keys such as build_tables hash the instance on every lookup
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.vertices, self.edges, self.rounds, self.weights, self.structure))
            object.__setattr__(self, "_hash", h)
            return h

    def _edge_lanes(self) -> tuple[int, int, int, int, int]:
        # the rng.lane_table of the edge probabilities, kept like the hash:
        # sample() draws from it, and offline-max needs no Tables
        try:
            return self.__dict__["_lanes"]
        except KeyError:
            lanes = lane_table([e.p for e in self.edges])
            object.__setattr__(self, "_lanes", lanes)
            return lanes

    # -- validation ---------------------------------------------------

    def _validate(self) -> None:
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate vertex ids")
        vset = set(ids)
        for v in self.vertices:
            if v.capacity < 1:
                raise ValidationError(f"vertex {v.id}: capacity must be a positive integer")
        for pos, e in enumerate(self.edges):
            if e.id != pos:
                raise ValidationError("edge ids must be unique and dense 0..m-1, in order")
            if len(set(e.endpoints)) != len(e.endpoints):
                raise ValidationError(f"edge {e.id} repeats an endpoint")
            if not set(e.endpoints) <= vset:
                raise ValidationError(f"edge {e.id} references undeclared vertices")
            if not (0.0 <= e.p <= 1.0):
                raise ValidationError(f"edge {e.id}: p={e.p} outside [0, 1]")
        if self.rounds < 1:
            raise ValidationError("rounds must be >= 1")
        if len(self.weights) != self.rounds:
            raise ValidationError("weights length must equal rounds")
        # a round rewards at most m successes, so every total reward stays finite
        if not (all(w >= 0 for w in self.weights)
                and math.isfinite(sum(self.weights) * max(1, len(self.edges)))):
            raise ValidationError("round weights must be non-negative with a finite m * sum")

        st = self.structure
        if isinstance(st, General):
            for e in self.edges:
                if len(e.endpoints) != 2:
                    raise ValidationError(f"edge {e.id}: general structure needs exactly 2 endpoints")
        elif isinstance(st, ManyToOne):
            if not st.left <= vset:
                raise ValidationError("left side references undeclared vertices")
            caps = {v.id: v.capacity for v in self.vertices}
            for vid in st.left:
                if caps[vid] != 1:
                    raise ValidationError(f"left vertex {vid} must have capacity 1")
            for e in self.edges:
                if len(e.endpoints) != 2:
                    raise ValidationError(f"edge {e.id}: bipartite edges need exactly 2 endpoints")
                sides = sum(1 for u in e.endpoints if u in st.left)
                if sides != 1:
                    raise ValidationError(f"edge {e.id} must join the two sides")
        elif isinstance(st, Hypergraph):
            if st.k < 2:
                raise ValidationError("hypergraph arity k must be >= 2")
            for e in self.edges:
                if not (2 <= len(e.endpoints) <= st.k):
                    raise ValidationError(f"edge {e.id}: hyperedge size outside 2..{st.k}")
        else:
            raise ValidationError(f"unknown structure {st!r}")

    # -- accessors ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def unit_capacities(self) -> bool:
        return all(v.capacity == 1 for v in self.vertices)

    # -- JSON schema ---------------------------------------------------
    #
    # {"vertices":[{"id":0,"capacity":1},...],
    #  "edges":[{"id":0,"endpoints":[0,1],"p":0.5},...],
    #  "rounds":T, "weights":[...], "structure":"general"|"many_to_one"|"hypergraph",
    #  "k":..., "left":[...]}
    # weights default to all-ones when omitted.

    def to_json(self) -> dict:
        out = {
            "vertices": [{"id": v.id, "capacity": v.capacity} for v in self.vertices],
            "edges": [{"id": e.id, "endpoints": list(e.endpoints), "p": e.p} for e in self.edges],
            "rounds": self.rounds,
            "weights": list(self.weights),
        }
        st = self.structure
        if isinstance(st, General):
            out["structure"] = "general"
        elif isinstance(st, ManyToOne):
            out["structure"] = "many_to_one"
            out["left"] = sorted(st.left)
        else:
            out["structure"] = "hypergraph"
            out["k"] = st.k
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "Instance":
        try:
            check_edges_limit(len(data["edges"]))
            vertices = [Vertex(int(v["id"]), int(v.get("capacity", 1))) for v in data["vertices"]]
            raw_edges = sorted(data["edges"], key=lambda e: int(e["id"]))
            edges = [Edge(int(e["id"]), [int(u) for u in e["endpoints"]], float(e["p"])) for e in raw_edges]
            rounds = int(data["rounds"])
            weights = data.get("weights")
            if weights is not None:
                weights = [float(w) for w in weights]
            name = data.get("structure", "general")
            if name == "general":
                structure: Structure = General()
            elif name == "many_to_one":
                structure = ManyToOne(data.get("left", []))
            elif name == "hypergraph":
                structure = Hypergraph(int(data.get("k", 2)))
            else:
                raise ValidationError(f"unknown structure {name!r}")
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed instance JSON: {exc}") from exc
        return cls(vertices, edges, rounds, weights, structure)

    def dumps(self, **kw) -> str:
        return json.dumps(self.to_json(), **kw)

    @classmethod
    def loads(cls, text: str) -> "Instance":
        return cls.from_json(json.loads(text))


# ---------------------------------------------------------------------
# sample graphs and knowledge states


@dataclass(frozen=True)
class SampleGraph:
    """One realization of every edge; nature's hidden draw.

    ``mask`` is the stored form (bit e set iff edge e < ``num_edges`` is
    realized); ``realized`` is a per-edge tuple-of-bools view built on access.
    """

    num_edges: int
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.num_edges:
            raise ValidationError(f"sample mask {self.mask} is not a subset of {self.num_edges} edges")

    @property
    def realized(self) -> tuple[bool, ...]:
        return tuple(bool(self.mask >> i & 1) for i in range(self.num_edges))

    @classmethod
    def from_mask(cls, num_edges: int, mask: int) -> "SampleGraph":
        """The sample realizing the edges in ``mask``; bits above ``num_edges`` are dropped."""
        return cls(num_edges, mask & ((1 << num_edges) - 1))


@dataclass(frozen=True)
class KnowledgeState:
    """What a policy has learned: the masks of the edges it has seen
    succeed and fail (every other edge is unknown); the DP state."""

    success_mask: int
    fail_mask: int

    def __post_init__(self):
        if self.success_mask & self.fail_mask:
            raise ValidationError("an edge cannot be both successful and failed")


@dataclass(frozen=True)
class RoundSelection:
    """Edges selected within a single round; must be feasible."""

    chosen: frozenset[int]

    def __init__(self, chosen: Iterable[int]):
        object.__setattr__(self, "chosen", frozenset(chosen))

    @property
    def mask(self) -> int:
        return sum(1 << e for e in self.chosen)

    def total_weight(self, weights: Mapping[int, float]) -> float:
        """Sum of the chosen weights, exact and rounded once."""
        ints, K = dyadic(weights[e] for e in self.chosen)
        return sum(ints) / (1 << K)


# ---------------------------------------------------------------------
# traces


def mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _fresh(sels: Sequence[int]) -> list[int]:
    """Per round, the edges of ``sels`` selected for the first time; a run's
    new successes in round i are ``fresh[i - 1] & real``."""
    fresh = []
    seen = 0
    for sel in sels:
        fresh.append(sel & ~seen)
        seen |= sel
    return fresh


@dataclass(frozen=True)
class Trace:
    """Per-round record of one policy execution on one sample graph.

    The stored form is one selection mask per round (``round_masks``) and
    the sample mask; everything else is derived on access.
    ``round_rewards[t]`` counts the successful edges of the round-t
    selection, and ``total_weighted_reward`` is :func:`weighted_reward`
    under the instance's round weights: exact, rounded once.
    ``selections``, ``successful`` and ``newly_successful`` are frozenset
    views: ``successful[t]`` is the set of successful edges inside the
    round-t selection; ``newly_successful[t]`` restricts that to edges the
    policy selected for the first time in round t.  For committing
    policies the newly-successful sets are disjoint and their union up to
    t equals ``successful[t]``.
    """

    instance: Instance
    policy: str
    round_masks: tuple[int, ...]
    sample_mask: int

    @classmethod
    def from_selection_masks(cls, instance: Instance, policy: str,
                             selection_masks: Sequence[int], real_mask: int) -> "Trace":
        return cls(instance, policy, tuple(selection_masks), real_mask)

    @property
    def rounds(self) -> int:
        return len(self.round_masks)

    def selection_masks(self) -> tuple[int, ...]:
        return self.round_masks

    @property
    def round_rewards(self) -> tuple[int, ...]:
        return tuple((sel & self.sample_mask).bit_count() for sel in self.round_masks)

    @property
    def total_weighted_reward(self) -> float:
        return weighted_reward(self, self.instance.weights)

    @property
    def selections(self) -> tuple[frozenset[int], ...]:
        return tuple(mask_to_set(sel) for sel in self.round_masks)

    @property
    def successful(self) -> tuple[frozenset[int], ...]:
        return tuple(mask_to_set(sel & self.sample_mask) for sel in self.round_masks)

    @property
    def newly_successful(self) -> tuple[frozenset[int], ...]:
        return tuple(mask_to_set(x & self.sample_mask) for x in _fresh(self.round_masks))

    def to_json(self) -> dict:
        return {
            "policy": self.policy,
            "selections": [sorted(s) for s in self.selections],
            "successful": [sorted(s) for s in self.successful],
            "newly_successful": [sorted(s) for s in self.newly_successful],
            "round_rewards": list(self.round_rewards),
            "total_weighted_reward": self.total_weighted_reward,
            "sample_mask": self.sample_mask,
        }


# ---------------------------------------------------------------------
# operations


def sample(instance: Instance, seed: int) -> SampleGraph:
    """Realize each edge independently with probability p_e; deterministic in (instance, seed).

    Edge e is realized iff ``rng.uniform01(seed, e) < p_e``; ``rng.draw_mask``
    draws every edge at once from the instance's lane table, built in O(m)
    on the first draw and kept with the instance.  Any int seed is reduced
    mod 2^64.
    """
    return SampleGraph(len(instance.edges), draw_mask(instance._edge_lanes(), seed))


def sample_probabilities(ps: Sequence[float]) -> list[float]:
    """The probability of every sample mask over edges with probabilities
    ``ps``, indexed by the mask: the float product of its factors, p_e for
    a realized edge and 1 - p_e otherwise, taken from edge 0 upward.

    The products are built edge by edge as prefixes: after edge e the list
    holds every mask of edges 0..e, those without e first, so each product
    is rounded at the same factors as a per-mask loop.
    """
    probs = [1.0]
    for p in ps:
        q = 1.0 - p
        probs = [x * q for x in probs] + [x * p for x in probs]
    return probs


def enumerate_samples(instance: Instance, masks: bool = False
                      ) -> Iterator[tuple[SampleGraph | int, float]]:
    """Iterate over all 2^m sample graphs with their probabilities (summing
    to 1), from :func:`sample_probabilities`, in ascending mask order.

    Zero-probability realizations come with weight 0.0 so callers can rely
    on seeing every mask exactly once.  The limit is checked at the call,
    before anything is listed.  With ``masks`` each sample is its mask and
    no ``SampleGraph`` is built (the exact pass reads samples so).
    """
    m = instance.num_edges
    check_samples_limit(m)
    probs = sample_probabilities([e.p for e in instance.edges])
    if masks:
        return enumerate(probs)
    return zip(map(partial(SampleGraph, m), range(1 << m)), probs)


def feasible(instance: Instance, selection) -> bool:
    """True iff per-vertex load respects capacity (hyperedges: vertex-disjoint)."""
    if isinstance(selection, RoundSelection):
        chosen = selection.chosen
    else:
        chosen = set(selection)
    m = instance.num_edges
    for e in chosen:
        if not (0 <= e < m):
            raise UnknownEdgeError(f"unknown edge id {e}")
    tables = build_tables(instance)
    mask = sum(1 << e for e in chosen)
    return all((mask & inc).bit_count() <= cap for inc, cap in zip(tables.inc, tables.cap))


def weighted_reward(trace: Trace, weights: Sequence[float]) -> float:
    """Sum over rounds of weight_t times the round-t success count, exact, rounded once."""
    if len(weights) != trace.rounds:
        raise ValidationError("weights length does not match trace rounds")
    ints, K = dyadic(weights)
    return sum(w * r for w, r in zip(ints, trace.round_rewards)) / (1 << K)


# ---------------------------------------------------------------------
# precomputed mask tables shared with the trace/DP kernels


# _BIT_DIGITS[k] maps a byte to b"1" if its bit k is set, else to b"0"
_BIT_DIGITS = tuple(bytes(48 + (x >> k & 1) for x in range(256)) for k in range(8))


def _mask_of(ids: list[int]) -> int:
    """The bitmask of ascending ids, set in one byte buffer: linear in the top id."""
    if not ids:
        return 0
    buf = bytearray((ids[-1] >> 3) + 1)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _transpose(masks: Iterable[int], width: int) -> list[int]:
    """``rows[b]`` has bit i set iff ``masks[i]`` has bit b, for b < width.

    Every mask is laid out in the same number of bytes; row b is then one
    strided slice of its byte, mapped to binary digits: linear in
    ``len(masks)`` per row, with no big-int work per mask.
    """
    size = (width + 7) >> 3
    data = b"".join([mask.to_bytes(size, "little") for mask in masks])
    return [int(b"0" + data[b >> 3::size].translate(_BIT_DIGITS[b & 7])[::-1], 2)
            for b in range(width)]


class Tables:
    """Dense-index mask tables for one instance (internal).

    Kernel code sees only plain ints, floats and lists, built once per
    instance and shared by every trace and DP solve.  ``ev[e]`` holds the
    vertex indices of edge e and ``inc[v]`` the mask of the edges at
    vertex v; every vertex test reads these two (``kernels.near``), so no
    per-edge vertex mask is kept.  ``cap`` holds the effective capacity:
    hypergraph selections are vertex-disjoint, so capacities collapse to 1
    there.  ``pint`` holds the probabilities as exact ints over one power
    of two (:func:`dyadic`).

    ``classes`` holds the interchangeable edge classes: groups of two or
    more edges with equal p, the same shared endpoints (vertices of
    degree > 1) and the same multiset of private-endpoint signatures
    (effective capacity, membership in the many-to-one left side).
    Swapping two edges of a class together with their private endpoints
    is an automorphism of the instance.  Each class is stored as the
    masks of its lowest 0, 1, ..., k edge ids, so the last entry is the
    whole class; the tuple is empty when no two edges are interchangeable.

    ``build_enumeration`` lists ``feas``, the feasible selections in
    ascending order, and indexes them by edge: ``holds[e]`` is the bitset
    of the indices i whose selection ``feas[i]`` contains edge e, and
    ``extends[e]`` of those whose ``ext[i]`` contains it, where ``ext[i]``
    is the set of edges outside ``feas[i]`` with no saturated endpoint
    (the edges that extend it).  The DP finds the selections that fit an
    available set by clearing rows of this index instead of scanning the
    list (``kernels._fitting``), and greedy-commit its candidates by
    combining rows (``kernels.gc_trace``).
    """

    __slots__ = ("instance", "m", "n", "p", "pint", "all_mask", "posp_mask", "ev", "cap",
                 "inc", "order", "feas", "holds", "extends", "weights", "classes")

    def __init__(self, instance: Instance):
        self.instance = instance
        self.m = instance.num_edges
        self.n = instance.num_vertices
        vindex = {v.id: i for i, v in enumerate(instance.vertices)}
        hyper = isinstance(instance.structure, Hypergraph)
        self.p = [e.p for e in instance.edges]
        self.pint = dyadic(self.p)[0]
        self.all_mask = (1 << self.m) - 1
        self.posp_mask = self.all_mask ^ _mask_of([e for e, p in enumerate(self.p) if p == 0.0])
        self.ev = [tuple(map(vindex.__getitem__, e.endpoints)) for e in instance.edges]
        self.cap = [1 if hyper else v.capacity for v in instance.vertices]
        incident: list[list[int]] = [[] for _ in range(self.n)]
        for e, ev in enumerate(self.ev):
            for v in ev:
                incident[v].append(e)
        self.inc = [_mask_of(edges) for edges in incident]  # each linear in m
        # descending p; the sort is stable, so ties stay in ascending id order
        self.order = sorted(range(self.m), key=self.p.__getitem__, reverse=True)
        self.weights = list(instance.weights)
        self.feas: list[int] | None = None
        self.holds: list[int] | None = None
        self.extends: list[int] | None = None
        self.classes = self._edge_classes([mask.bit_count() for mask in self.inc])

    def _edge_classes(self, degree: list[int]) -> tuple[tuple[int, ...], ...]:
        st = self.instance.structure
        left = st.left if isinstance(st, ManyToOne) else frozenset()
        vids = [v.id for v in self.instance.vertices]
        # the signatures of each edge's private endpoints (degree 1); an edge
        # with none keys on its p and endpoints alone, all of them shared
        private: dict[int, list[tuple]] = {}
        for v, d in enumerate(degree):
            if d == 1:
                e = self.inc[v].bit_length() - 1
                private.setdefault(e, []).append((self.cap[v], vids[v] in left))
        lowest: dict[tuple, int] = {}  # each key's lowest edge id
        groups: dict[int, list[int]] = {}  # the edges of each repeated key, by lowest id
        for e, ev in enumerate(self.ev):
            if e in private:
                shared = tuple(v for v in ev if degree[v] > 1)
                key = (self.p[e], shared, tuple(sorted(private[e])))
            else:
                key = (self.p[e], ev, ())
            low = lowest.setdefault(key, e)
            if low != e:
                groups.setdefault(low, [low]).append(e)
        classes = []
        for low in sorted(groups):
            prefix = [0]
            for e in groups[low]:
                prefix.append(prefix[-1] | (1 << e))
            classes.append(tuple(prefix))
        return tuple(classes)

    def build_enumeration(self) -> None:
        """List ``feas``, the feasible selections in ascending order, and
        the ``holds`` and ``extends`` rows that index them by edge.

        From ``[0]``, each edge e in turn is added to every listed selection
        it fits; those masks have e as their highest bit, so the list stays
        ascending.  ``ENUMERATION_LIMIT`` caps its length.  The index is one
        transpose of the list, linear in its length per edge.
        """
        if self.feas is not None:
            return
        inc, cap = self.inc, self.cap
        feas, blocked = [0], [0]  # blocked: the edges at a saturated vertex
        for e in range(self.m):
            bit = 1 << e
            for i in range(len(feas)):
                if not blocked[i] & bit:
                    mask, full = feas[i] | bit, blocked[i]
                    for v in self.ev[e]:
                        if (mask & inc[v]).bit_count() == cap[v]:
                            full |= inc[v]
                    feas.append(mask)
                    blocked.append(full)
            if len(feas) > ENUMERATION_LIMIT:
                raise LimitExceededError(
                    f"over {ENUMERATION_LIMIT} feasible selections exceed the enumeration limit")
        self.feas = feas
        # one transpose of the masks feas[i] | ext[i] << m gives both index rows
        m, all_mask = self.m, self.all_mask
        rows = _transpose((mask | (all_mask & ~(mask | b)) << m
                           for mask, b in zip(feas, blocked)), 2 * m)
        self.holds, self.extends = rows[:m], rows[m:]



@lru_cache(maxsize=2048)
def build_tables(instance: Instance) -> Tables:
    return Tables(instance)
