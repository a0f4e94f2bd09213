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
graphs, knowledge states and traces keep only masks, and their frozenset
or tuple attributes are views built on access for the API boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import LimitExceededError, UnknownEdgeError, ValidationError
from .rng import uniform01

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

    ``mask`` is the stored form (bit e set iff edge e is realized);
    ``realized`` is a per-edge tuple-of-bools view built on access.
    """

    num_edges: int
    mask: int

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
        return sum(weights[e] for e in sorted(self.chosen))


# ---------------------------------------------------------------------
# traces


def mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


@dataclass(frozen=True)
class Trace:
    """Per-round record of one policy execution on one sample graph.

    The stored form is one selection mask per round (``round_masks``) plus
    the sample mask, the per-round success counts and the weighted reward.
    ``selections``, ``successful`` and ``newly_successful`` are frozenset
    views built on access: ``successful[t]`` is the set of successful
    edges inside the round-t selection; ``newly_successful[t]`` restricts
    that to edges the policy selected for the first time in round t.  For
    committing policies the newly-successful sets are disjoint and their
    union up to t equals ``successful[t]``.
    """

    instance: Instance
    policy: str
    round_masks: tuple[int, ...]
    round_rewards: tuple[int, ...]
    total_weighted_reward: float
    sample_mask: int

    @classmethod
    def from_selection_masks(cls, instance: Instance, policy: str,
                             selection_masks: Sequence[int], real_mask: int) -> "Trace":
        rewards = []
        total = 0.0
        for t, sel in enumerate(selection_masks):
            count = (sel & real_mask).bit_count()
            rewards.append(count)
            total += instance.weights[t] * count
        return cls(instance, policy, tuple(selection_masks), tuple(rewards), total, real_mask)

    @property
    def rounds(self) -> int:
        return len(self.round_masks)

    def selection_masks(self) -> tuple[int, ...]:
        return self.round_masks

    @property
    def selections(self) -> tuple[frozenset[int], ...]:
        return tuple(mask_to_set(sel) for sel in self.round_masks)

    @property
    def successful(self) -> tuple[frozenset[int], ...]:
        return tuple(mask_to_set(sel & self.sample_mask) for sel in self.round_masks)

    @property
    def newly_successful(self) -> tuple[frozenset[int], ...]:
        out = []
        seen = 0
        for sel in self.round_masks:
            out.append(mask_to_set(sel & self.sample_mask & ~seen))
            seen |= sel
        return tuple(out)

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
    """Realize each edge independently with probability p_e; deterministic in (instance, seed)."""
    mask = 0
    for e in instance.edges:
        if uniform01(seed, e.id) < e.p:
            mask |= 1 << e.id
    return SampleGraph(instance.num_edges, mask)


def enumerate_samples(instance: Instance) -> Iterator[tuple[SampleGraph, float]]:
    """Yield all 2^m sample graphs with their probabilities (summing to 1).

    Zero-probability realizations are yielded with weight 0.0 so callers
    can rely on seeing every mask exactly once, in ascending mask order.
    """
    m = instance.num_edges
    if 1 << m > ENUMERATION_LIMIT:
        raise LimitExceededError(f"enumeration of 2^{m} samples exceeds limit {ENUMERATION_LIMIT}")
    ps = [e.p for e in instance.edges]
    for mask in range(1 << m):
        prob = 1.0
        for i, p in enumerate(ps):
            prob *= p if mask >> i & 1 else 1.0 - p
        yield SampleGraph(m, mask), prob


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
    """Sum over rounds of weight_t times the round-t successful count."""
    if len(weights) != trace.rounds:
        raise ValidationError("weights length does not match trace rounds")
    return sum(w * r for w, r in zip(weights, trace.round_rewards))


# ---------------------------------------------------------------------
# precomputed mask tables shared with the trace/DP kernels


class Tables:
    """Dense-index mask tables for one instance (internal).

    Kernel code sees only plain ints, floats and lists, built once per
    instance and shared by every trace and DP solve.  ``cap`` holds the
    effective capacity: hypergraph selections are vertex-disjoint, so
    capacities collapse to 1 there.

    ``classes`` holds the interchangeable edge classes: groups of two or
    more edges with equal p, the same shared endpoints (vertices of
    degree > 1) and the same multiset of private-endpoint signatures
    (effective capacity, membership in the many-to-one left side).
    Swapping two edges of a class together with their private endpoints
    is an automorphism of the instance.  Each class is stored as the
    masks of its lowest 0, 1, ..., k edge ids, so the last entry is the
    whole class; the tuple is empty when no two edges are interchangeable.
    """

    __slots__ = ("instance", "m", "n", "p", "all_mask", "posp_mask", "vmask",
                 "ev", "cap", "inc", "order", "feas", "ext", "weights", "classes")

    def __init__(self, instance: Instance):
        self.instance = instance
        self.m = instance.num_edges
        self.n = instance.num_vertices
        vindex = {v.id: i for i, v in enumerate(instance.vertices)}
        hyper = isinstance(instance.structure, Hypergraph)
        self.p = [e.p for e in instance.edges]
        self.all_mask = (1 << self.m) - 1
        self.posp_mask = sum(1 << e.id for e in instance.edges if e.p > 0.0)
        self.ev = [tuple(vindex[u] for u in e.endpoints) for e in instance.edges]
        self.vmask = [sum(1 << v for v in ev) for ev in self.ev]
        self.cap = [1 if hyper else v.capacity for v in instance.vertices]
        self.inc = [0] * self.n
        for e, ev in enumerate(self.ev):
            for v in ev:
                self.inc[v] |= 1 << e
        self.order = sorted(range(self.m), key=lambda e: (-self.p[e], e))
        self.weights = list(instance.weights)
        self.feas: list[int] | None = None
        self.ext: list[int] | None = None
        self.classes = self._edge_classes()

    def _edge_classes(self) -> tuple[tuple[int, ...], ...]:
        st = self.instance.structure
        left = st.left if isinstance(st, ManyToOne) else frozenset()
        vids = [v.id for v in self.instance.vertices]
        groups: dict[tuple, list[int]] = {}
        for e, ev in enumerate(self.ev):
            shared = tuple(v for v in ev if self.inc[v] != 1 << e)
            private = sorted((self.cap[v], vids[v] in left)
                             for v in ev if self.inc[v] == 1 << e)
            groups.setdefault((self.p[e], shared, tuple(private)), []).append(e)
        classes = []
        for ids in groups.values():
            if len(ids) > 1:
                prefix = [0]
                for e in ids:
                    prefix.append(prefix[-1] | (1 << e))
                classes.append(tuple(prefix))
        return tuple(classes)

    def build_enumeration(self) -> None:
        """List ``feas``, the feasible selections in ascending order, and per
        selection ``ext``, the edges outside it with no saturated endpoint.

        From ``[0]``, each edge e in turn is added to every listed selection
        it fits; those masks have e as their highest bit, so the list stays
        ascending.  ``ENUMERATION_LIMIT`` caps its length.
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
        self.ext = [self.all_mask & ~(mask | b) for mask, b in zip(feas, blocked)]


@lru_cache(maxsize=2048)
def build_tables(instance: Instance) -> Tables:
    return Tables(instance)
