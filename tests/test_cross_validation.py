"""Independent re-implementations of the core classifications, checked
against the package on random instances.

The oracles here work on plain sets and vertex ids straight from the
definitions, with none of the package's bitmask machinery, so they fail
loudly if the fast paths drift.
"""

import pytest

from oracles import brute_policy_value
from rematch.coupling import (coupling_expectations, decompose, decompose_capacitated,
                              verify_charging, verify_domination)
from rematch.generators import gen_random
from rematch.model import Hypergraph, ManyToOne, enumerate_samples
from rematch.policies import build_dp, opt_value, run_greedy_commit, run_opt, run_sm
from rematch.rng import sub_seed


def _verts(inst, edge_ids):
    out = set()
    for e in edge_ids:
        out |= set(inst.edges[e].endpoints)
    return out


def oracle_unit_decomposition(inst, ref_trace, opt_trace, t):
    realized = {e for e in range(inst.num_edges) if opt_trace.sample_mask >> e & 1}
    opt_round_succ = set(opt_trace.selections[t - 1]) & realized
    first = {}
    for r in range(t):
        for e in sorted(opt_trace.selections[r]):
            first.setdefault(e, r + 1)
    new_sets = [set(ref_trace.newly_successful[r]) for r in range(t)]
    aug, adj = {}, {}
    for e in opt_round_succ:
        ev = set(inst.edges[e].endpoints)
        donor = next((j + 1 for j in range(t) if ev & _verts(inst, new_sets[j])), None)
        if donor is None:
            aug.setdefault(first[e], set()).add(e)
        else:
            adj.setdefault((first[e], donor), set()).add(e)
    return aug, adj


def oracle_cap_decomposition(inst, ref_trace, opt_trace, t):
    realized = {e for e in range(inst.num_edges) if opt_trace.sample_mask >> e & 1}
    opt_round_succ = set(opt_trace.selections[t - 1]) & realized
    s_le = set(ref_trace.successful[t - 1])
    caps = {v.id: v.capacity for v in inst.vertices}
    occ_count = {v.id: 0 for v in inst.vertices}
    for e in s_le:
        for v in inst.edges[e].endpoints:
            occ_count[v] += 1
    mto = isinstance(inst.structure, ManyToOne)
    first = {}
    for r in range(t):
        for e in sorted(opt_trace.selections[r]):
            first.setdefault(e, r + 1)
    overlap, occupied, remainder = set(), set(), {}
    for e in opt_round_succ:
        if not mto and e in s_le:
            overlap.add(e)
            continue
        blocked = False
        for v in inst.edges[e].endpoints:
            if mto and v in inst.structure.left:
                blocked = occ_count[v] > 0
            else:
                blocked = occ_count[v] > 0 and 2 * occ_count[v] >= caps[v]
            if blocked:
                break
        if blocked:
            occupied.add(e)
        else:
            remainder.setdefault(first[e], set()).add(e)
    return overlap, occupied, remainder


def test_unit_decomposition_matches_set_oracle():
    for i in range(15):
        profile = "unit-small" if i % 2 == 0 else "hyper3-small"
        inst = gen_random(profile, sub_seed(13131, i))
        table = build_dp(inst, commit=False)
        for smp, prob in enumerate_samples(inst):
            if prob == 0.0:
                continue
            ref = run_sm(inst, smp)
            opt = run_opt(inst, smp, table)
            for t in range(1, inst.rounds + 1):
                d = decompose(ref, opt, t)
                aug, adj = oracle_unit_decomposition(inst, ref, opt, t)
                assert {i_: set(v) for i_, v in d.augmenting.items()} == aug
                assert {k: set(v) for k, v in d.adjacent.items()} == adj


def test_capacitated_decomposition_matches_set_oracle():
    for i in range(15):
        profile = "cap-small" if i % 2 == 0 else "mto-small"
        inst = gen_random(profile, sub_seed(24242, i))
        table = build_dp(inst, commit=False)
        for smp, prob in enumerate_samples(inst):
            if prob == 0.0:
                continue
            ref = run_sm(inst, smp)
            opt = run_opt(inst, smp, table)
            for t in range(1, inst.rounds + 1):
                d = decompose_capacitated(ref, opt, t)
                overlap, occupied, remainder = oracle_cap_decomposition(inst, ref, opt, t)
                assert set(d.overlap) == overlap
                assert set(d.occupied) == occupied
                assert {i_: set(v) for i_, v in d.remainder.items()} == remainder


# instances of the criteria-2/3 suites: (profile, suite seed, indices); each
# profile includes instances with augmenting or remainder edges
_SUITE_PICKS = [("unit-small", 101, (0, 6, 25)), ("hyper3-small", 404, (0, 23, 80)),
                ("cap-small", 202, (0, 33, 46)), ("mto-small", 303, (0, 8, 76))]


@pytest.mark.parametrize("profile,seed,picks", _SUITE_PICKS)
def test_exact_pass_matches_set_oracles_at_every_horizon(profile, seed, picks):
    # the probability-weighted oracle classes, summed over every sample and
    # horizon, against the expectations of the one exact pass
    refs = {"sm": run_sm, "gc": run_greedy_commit}
    found = 0
    for k in picks:
        inst = gen_random(profile, sub_seed(seed, k))
        summary = coupling_expectations(inst)
        names = [name for name in refs if name in summary.e_new]
        assert "sm" in names and ("gc" in names) != (profile == "hyper3-small")
        e_new = {name: [0.0] * inst.rounds for name in names}
        e_aug = {name: {} for name in summary.references}
        e_adj = {name: {} for name in summary.references}
        e_rem = {}
        table = build_dp(inst, commit=False)
        for smp, prob in enumerate_samples(inst):
            if prob == 0.0:
                continue
            opt = run_opt(inst, smp, table)
            traces = {name: refs[name](inst, smp) for name in names}
            for t in range(1, inst.rounds + 1):
                for name in names:
                    e_new[name][t - 1] += prob * len(traces[name].newly_successful[t - 1])
                for name in summary.references:
                    aug, adj = oracle_unit_decomposition(inst, traces[name], opt, t)
                    for i, edges in aug.items():
                        e_aug[name][t, i] = e_aug[name].get((t, i), 0.0) + prob * len(edges)
                    for (i, j), edges in adj.items():
                        e_adj[name][t, i, j] = e_adj[name].get((t, i, j), 0.0) + prob * len(edges)
                if summary.e_remainder is not None:
                    _, _, rem = oracle_cap_decomposition(inst, traces["sm"], opt, t)
                    for i, edges in rem.items():
                        e_rem[t, i] = e_rem.get((t, i), 0.0) + prob * len(edges)
        for name in names:
            assert summary.e_new[name] == pytest.approx(e_new[name], abs=1e-12)
        for name in summary.references:
            assert summary.e_aug[name] == pytest.approx(e_aug[name], abs=1e-12)
            assert summary.e_adj[name] == pytest.approx(e_adj[name], abs=1e-12)
        assert summary.references == (["sm"] if profile == "hyper3-small" else
                                      ["sm", "gc"] if inst.unit_capacities() else [])
        if profile == "hyper3-small":
            assert summary.e_remainder is None
        else:
            assert summary.e_remainder == pytest.approx(e_rem, abs=1e-12)
        found += len(e_rem) + sum(len(e_aug[name]) for name in summary.references)
    assert found > 0


def test_dp_matches_brute_oracle_on_all_structures():
    from rematch.generators import PROFILES, RandomProfile

    tiny = {
        "cap": RandomProfile("cap", "general", (3, 5), (2, 4), (1, 3), (1, 2)),
        "mto": RandomProfile("mto", "many_to_one", (3, 5), (2, 4), (1, 3), (1, 2)),
        "hyper": RandomProfile("hyper", "hypergraph", (4, 6), (2, 4), (1, 1), (1, 2)),
    }
    for name, prof in tiny.items():
        for i in range(8):
            inst = gen_random(prof, sub_seed(5555, i))
            for commit in (False, True):
                got = opt_value(inst, commit)
                want = brute_policy_value(inst, commit)
                assert got == pytest.approx(want, abs=1e-9), (name, i, commit)


def test_opt_successful_sets_are_selection_intersect_realization():
    for i in range(6):
        inst = gen_random("unit-small", sub_seed(8686, i))
        table = build_dp(inst, commit=False)
        for smp, prob in enumerate_samples(inst):
            if prob == 0.0:
                continue
            trace = run_opt(inst, smp, table)
            for t in range(trace.rounds):
                realized = {e for e in trace.selections[t] if smp.realized[e]}
                assert set(trace.successful[t]) == realized


def test_mc_consistency_on_capacitated_variant():
    inst = gen_random("cap-small", sub_seed(24242, 2))
    t = inst.rounds
    exact = verify_domination(inst, t, "capacitated", mode="exact")
    mc = verify_domination(inst, t, "capacitated", mode="monte_carlo",
                           trials=3000, seed=77)
    assert mc.verdict
    for k in range(len(exact.indices)):
        gap_exact = exact.lhs[k] - exact.rhs[k]
        gap_mc = mc.lhs[k] - mc.rhs[k]
        assert abs(gap_mc - gap_exact) <= 4 * mc.stderr[k] + 0.1
    assert verify_charging(inst, t, mode="monte_carlo", trials=1000, seed=78).verdict


def test_from_json_accepts_out_of_order_edges():
    from rematch.model import Instance

    data = {"vertices": [{"id": 0}, {"id": 1}, {"id": 2}],
            "edges": [{"id": 1, "endpoints": [1, 2], "p": 0.5},
                      {"id": 0, "endpoints": [0, 1], "p": 0.25}],
            "rounds": 1}
    inst = Instance.from_json(data)
    assert [e.id for e in inst.edges] == [0, 1]
    assert inst.edges[0].p == 0.25
