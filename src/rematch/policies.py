"""Executable matching policies.

Committing policies (stable matching, greedy-commit, the optimal
committing policy, the opt-follower) reselect every discovered
successful edge in all later rounds.  The exact optimal policies come
from an expectimax dynamic program over knowledge states; per-sample
replay derives the argmax policy from its value table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, Sequence

from . import kernels
from .errors import LimitExceededError, ValidationError
from .generators import double_star_layout
from .matching import WeightedSubproblem, _bipartite_sides, _max_weight, max_weight_matching
from .model import (ENUMERATION_LIMIT, Hypergraph, Instance, KnowledgeState,
                    SampleGraph, Tables, Trace, build_tables, dyadic, mask_to_set)

DP_STATES_LIMIT = 2**21  # admits ds11, bounded by 1,581,228 states; it solves in 121 MB
# the solve recurses one frame per round
DP_ROUNDS_LIMIT = 900


class PolicyId(str, Enum):
    SM = "sm"
    GREEDY_COMMIT = "greedy_commit"
    OPT = "opt"
    OPT_COMMIT = "opt_commit"
    OPT_FOLLOWER = "opt_follower"
    ALTERNATING_SCAN = "alternating_scan"
    OFFLINE_MAX = "offline_max"


def _real(instance: Instance, sample: SampleGraph) -> int:
    """``sample``'s mask, once it is known to realize ``instance``'s edges."""
    if sample.num_edges != instance.num_edges:
        raise ValidationError(f"sample graph has {sample.num_edges} edges, not {instance.num_edges}")
    return sample.mask


# ---------------------------------------------------------------------
# committing heuristics


def run_sm(instance: Instance, sample: SampleGraph) -> Trace:
    """Decentralized stable matching process.

    Per round: committed successes occupy capacity, the remaining
    positive-probability untried edges are matched greedily by
    descending probability, outcomes are observed, failures drop to
    probability zero and successes commit.
    """
    real = _real(instance, sample)
    sels = kernels.sm_trace(build_tables(instance), real)
    return Trace.from_selection_masks(instance, PolicyId.SM.value, sels, real)


def run_greedy_commit(instance: Instance, sample: SampleGraph) -> Trace:
    """Committed successes plus a max-expected-weight augmentation each round,
    ties broken toward the lexicographically smallest, on exact sums.  Up to
    16 edges the kernel ranks the listed selections that fit the round,
    read from their per-edge index; beyond, each round
    solves the exact matching of :func:`max_weight_matching` on the
    probabilities made ints once.  Both pick the same augmentation."""
    if isinstance(instance.structure, Hypergraph):
        raise ValidationError("greedy-commit covers general/many-to-one structures")
    real = _real(instance, sample)
    if 1 << instance.num_edges <= ENUMERATION_LIMIT:
        tables = build_tables(instance)
        tables.build_enumeration()
        sels = kernels.gc_trace(tables, real)
    else:
        sels = _gc_trace_large(instance, real)
    return Trace.from_selection_masks(instance, PolicyId.GREEDY_COMMIT.value, sels, real)


def _gc_trace_large(instance: Instance, real: int) -> list[int]:
    # beyond the enumeration limit: per-round exact matching on the residual,
    # with the probabilities made exact ints once
    caps = {v.id: v.capacity for v in instance.vertices}
    step = partial(_gc_large_step, instance, caps, dyadic(e.p for e in instance.edges)[0],
                   _bipartite_sides(instance))
    return kernels.drive(step, instance.rounds, real, True)


def _gc_large_step(instance: Instance, caps: dict[int, int], pints: list[int], sides,
                   t: int, s: int, f: int) -> int:
    residual = dict(caps)
    x = s
    while x:
        low = x & -x
        for v in instance.edges[low.bit_length() - 1].endpoints:
            residual[v] -= 1
        x ^= low
    tried = s | f
    weights = {e: w for e, w in enumerate(pints) if w and not tried >> e & 1}
    return s | sum(1 << e for e in _max_weight(instance, weights, residual, sides))


# ---------------------------------------------------------------------
# exact optimal policies


@dataclass
class DpValueTable:
    """Memoized expectimax values for one instance, and the argmax policy
    derived from them.

    Keys are reachable (knowledge state, round) pairs, packed as
    ``(round << 2m) | (success_mask << m) | fail_mask``; the accessors
    take a :class:`KnowledgeState`.  ``commit`` forces every known success
    into the action; ``prune`` restricts actions to maximal selections
    (the exhaustive mode ``prune=False`` exists to verify that
    restriction); ``tables`` are the mask tables the solve ran on.

    On an instance with interchangeable edge classes (``Tables.classes``)
    the solve stores one state per orbit, so ``items()`` and ``len()``
    run over orbit representatives; ``value()`` maps any state to its
    representative first.  The solve stores no actions: ``action()`` and
    ``replay()`` derive the argmax at each real state they reach with the
    solve's own scoring loop (the ``action`` that ``kernels.dp_solve``
    returns), once per state, and keep it in ``_actions``.
    """

    instance: Instance
    tables: Tables = field(repr=False, compare=False)
    commit: bool
    prune: bool
    root_value: float
    _values: dict[int, float]
    _argmax: Callable[[int, int, int], int] = field(repr=False, compare=False)
    _actions: dict[int, int] = field(default_factory=dict, init=False, repr=False,
                                     compare=False)

    def _masks(self, knowledge: KnowledgeState) -> tuple[int, int]:
        s, f = knowledge.success_mask, knowledge.fail_mask
        if (s | f) >> self.tables.m:  # its packed key would be another state's
            raise ValidationError(f"knowledge state names an edge past {self.tables.m - 1}")
        return s, f

    def _key(self, s: int, f: int, round_index: int) -> int:
        m = self.tables.m
        return (round_index << (2 * m)) | (s << m) | f

    def value(self, knowledge: KnowledgeState, round_index: int) -> float:
        s, f = kernels.canonical(self.tables.classes, *self._masks(knowledge))
        return self._values[self._key(s, f, round_index)]

    def action(self, knowledge: KnowledgeState, round_index: int) -> frozenset[int]:
        s, f = self._masks(knowledge)
        mask = self._actions.get(self._key(s, f, round_index))
        if mask is None:
            mask = self._replay_action(s, f, round_index)
        return mask_to_set(mask)

    def _replay_action(self, s: int, f: int, t: int) -> int:
        """The argmax action at the real state (s, f) in round t, kept in
        ``_actions``; KeyError when the state's orbit was never reached."""
        key = self._key(s, f, t)
        cs, cf = kernels.canonical(self.tables.classes, s, f)
        if self._key(cs, cf, t) not in self._values:
            raise KeyError(key)
        mask = self._actions[key] = self._argmax(s, f, t)
        return mask

    def replay(self, real: int) -> list[int]:
        """Selection masks, one per round, of the argmax policy against the
        realization ``real`` (the mask of successful edges)."""
        m = self.tables.m
        actions = self._actions

        def step(t: int, s: int, f: int) -> int:
            mask = actions.get((t << (2 * m)) | (s << m) | f)
            if mask is None:
                try:
                    mask = self._replay_action(s, f, t)
                except KeyError:
                    raise ValidationError(
                        "sample graph reaches a state the table never evaluated "
                        "(inconsistent with an edge of probability 0 or 1)") from None
            return mask
        # not stationary: an idle round can precede one that explores
        return kernels.drive(step, self.instance.rounds, real, False)

    def items(self):
        """Yield ((KnowledgeState, round), value) over all memoized states
        (one per orbit on an instance with edge classes)."""
        m = self.tables.m
        all_mask = self.tables.all_mask
        for key, v in self._values.items():
            yield (KnowledgeState(key >> m & all_mask, key & all_mask), key >> (2 * m)), v

    def __len__(self) -> int:
        return len(self._values)


def check_dp_limits(instance: Instance) -> None:
    """Raise ``LimitExceededError`` unless :func:`build_dp` admits the instance.

    The bound is on its total orbit states: per round, a class of k
    interchangeable edges has C(k+2, 2) orbits of success/fail/unknown
    labels and every other edge 3 labels, and T rounds times that product
    must stay within ``DP_STATES_LIMIT``.  The solve also recurses one
    frame per round, so the horizon must stay within ``DP_ROUNDS_LIMIT``.
    """
    if instance.rounds > DP_ROUNDS_LIMIT:
        raise LimitExceededError(
            f"DP over {instance.rounds} rounds exceeds limit {DP_ROUNDS_LIMIT}")
    tables = build_tables(instance)
    ks = [len(cls) - 1 for cls in tables.classes]
    per_round = math.prod(math.comb(k + 2, 2) for k in ks) * 3 ** (tables.m - sum(ks))
    if instance.rounds * per_round > DP_STATES_LIMIT:
        raise LimitExceededError(f"DP over {instance.rounds} rounds of {per_round} orbit "
                                 f"states exceeds limit {DP_STATES_LIMIT} states")


def build_dp(instance: Instance, commit: bool, prune: bool = True) -> DpValueTable:
    """Solve the expectimax DP over orbit states (see :class:`DpValueTable`).

    The instance must pass :func:`check_dp_limits`; listing the feasible
    selections then applies ``ENUMERATION_LIMIT`` to their number.
    """
    check_dp_limits(instance)
    tables = build_tables(instance)
    tables.build_enumeration()
    root, values, argmax = kernels.dp_solve(tables, commit, prune)
    return DpValueTable(instance, tables, commit, prune, root, values, argmax)


def opt_value(instance: Instance, commit: bool, prune: bool = True) -> float:
    """Optimal expected weighted reward from the all-unknown state, by
    :func:`build_dp` (which raises ``LimitExceededError`` past its limits)."""
    return build_dp(instance, commit, prune).root_value


def run_opt(instance: Instance, sample: SampleGraph, table: DpValueTable) -> Trace:
    """Replay the DP argmax policy against one realization."""
    if table.instance != instance:
        raise ValidationError("value table was built for a different instance")
    name = PolicyId.OPT_COMMIT.value if table.commit else PolicyId.OPT.value
    real = _real(instance, sample)
    return Trace.from_selection_masks(instance, name, table.replay(real), real)


# ---------------------------------------------------------------------
# opt-follower: commit to own successes, copy the augmenting edges of a
# companion run


def run_opt_follower(instance: Instance, sample: SampleGraph, opt_trace: Trace) -> Trace:
    """Each round, reselect all own successes plus the companion's newly
    selected edges that can augment them.

    The companion trace must come from the same sample graph; the
    construction is specific to unit-capacity matching.
    """
    if isinstance(instance.structure, Hypergraph) or not instance.unit_capacities():
        raise ValidationError("opt-follower is defined for unit-capacity matching")
    if opt_trace.instance != instance:
        raise ValidationError("companion trace belongs to a different instance")
    real = _real(instance, sample)
    if opt_trace.sample_mask != real:
        raise ValidationError("companion trace was run on a different sample graph")
    sels = follower_masks(build_tables(instance), opt_trace.selection_masks(), real)
    return Trace.from_selection_masks(instance, PolicyId.OPT_FOLLOWER.value, sels, real)


def follower_masks(tables: Tables, opt_sels: Sequence[int], real: int) -> list[int]:
    """Opt-follower selections on masks: each round the own successes so far
    plus the companion's newly selected edges vertex-disjoint from them."""
    fresh = []
    seen = 0
    for opt_sel in opt_sels:
        fresh.append(opt_sel & ~seen)
        seen |= opt_sel
    return kernels.drive(partial(_follower_step, tables.vmask, fresh), len(fresh), real, False)


def _follower_step(vmask: list[int], fresh: list[int], t: int, s: int, f: int) -> int:
    add = fresh[t - 1]
    if not add:  # most rounds: no vertex mask of s to build
        return s
    verts = 0
    x = s
    while x:
        low = x & -x
        verts |= vmask[low.bit_length() - 1]
        x ^= low
    x = add
    while x:
        low = x & -x
        if vmask[low.bit_length() - 1] & verts:
            add ^= low
        x ^= low
    return s | add


# ---------------------------------------------------------------------
# alternating scan for the double-star family


def run_alternating_scan(instance: Instance, sample: SampleGraph) -> Trace:
    """Scan the spoke pairs of a double-star instance, then hold the best
    discovered fully-successful cross pair (falling back to cyclic
    re-scanning while none exists)."""
    layout = double_star_layout(instance)
    if layout is None:
        raise ValidationError("instance is not a double-star family member")
    n, _, left_ids, right_ids = layout
    real = _real(instance, sample)
    pairs = [(1 << a) | (1 << b) for a, b in zip(left_ids, right_ids)]
    scan = n - 1
    sels = pairs[:instance.rounds]
    if instance.rounds > scan:
        # every spoke has been tried, so the successes, and with them the
        # held pair or the cyclic fallback, stay fixed from here on
        ls = next((e for e in left_ids if real >> e & 1), None)
        rs = next((e for e in right_ids if real >> e & 1), None)
        if ls is not None and rs is not None:
            sels += [(1 << ls) | (1 << rs)] * (instance.rounds - scan)
        else:
            sels += [pairs[r % scan] for r in range(scan, instance.rounds)]
    return Trace.from_selection_masks(
        instance, PolicyId.ALTERNATING_SCAN.value, sels, real)


# ---------------------------------------------------------------------
# offline benchmark


def offline_max_matching(instance: Instance, sample: SampleGraph) -> int:
    """Maximum-cardinality feasible selection among realized edges.

    Unit-capacity bipartite instances take Kuhn's augmenting paths (only
    the cardinality is returned, and it is unique); all others take the
    exact matcher with unit weights.
    """
    if isinstance(instance.structure, Hypergraph):
        raise ValidationError("offline benchmark covers general/many-to-one structures")
    real = _real(instance, sample)
    if not real:
        return 0
    ends = _unit_bipartite_ends(instance)
    if ends is not None:
        return _kuhn_size(ends, real)
    realized = [e for e in range(instance.num_edges) if real >> e & 1]
    sel = max_weight_matching(WeightedSubproblem(
        instance, {e: 1.0 for e in realized}))
    return len(sel.chosen)


@lru_cache(maxsize=256)
def _unit_bipartite_ends(instance: Instance) -> tuple[tuple[int, int], ...] | None:
    """(left index, right index) per edge of a unit-capacity bipartite
    instance, or None for any other instance."""
    if not instance.unit_capacities():
        return None
    sides = _bipartite_sides(instance)
    if sides is None:
        return None
    left, right = sides
    li = {v: i for i, v in enumerate(sorted(left))}
    ri = {v: i for i, v in enumerate(sorted(right))}
    out = []
    for e in instance.edges:
        u, w = e.endpoints
        out.append((li[u], ri[w]) if u in left else (li[w], ri[u]))
    return tuple(out)


def _kuhn_size(ends: Sequence[tuple[int, int]], real: int) -> int:
    """Maximum matching size among the realized edges, by augmenting paths
    (Kuhn's algorithm) over right-side bitmasks.  A left vertex with a free
    neighbour takes the lowest one at once; the search runs only when
    every neighbour is taken, and keeps its path on a list, so a path of
    any length needs no recursion."""
    adj: dict[int, int] = {}
    x = real
    while x:
        low = x & -x
        u, w = ends[low.bit_length() - 1]
        adj[u] = adj.get(u, 0) | (1 << w)
        x ^= low
    owner: dict[int, int] = {}
    taken = 0  # the right vertices in owner
    size = 0
    for u in adj:
        free = adj[u] & ~taken
        if free:
            low = free & -free
            owner[low.bit_length() - 1] = u
            taken |= low
            size += 1
            continue
        # depth-first search for an augmenting path: left[i] has tried
        # right vertex tried[i], held by left[i + 1] (the last by u)
        seen = 0
        left: list[int] = []
        tried: list[int] = []
        while True:
            free = adj[u] & ~seen
            if free:
                low = free & -free
                seen |= low
                j = low.bit_length() - 1
                holder = owner.get(j)
                if holder is None:
                    owner[j] = u
                    taken |= low
                    if tried:
                        owner.update(zip(tried, left))
                    size += 1
                    break
                left.append(u)
                tried.append(j)
                u = holder
            elif left:
                u = left.pop()
                tried.pop()
            else:
                break
    return size
