"""Named experiment bundles, one per acceptance criterion.

Each bundle returns a :class:`CriterionResult` whose ``details`` are
JSON-serializable and deterministic for fixed seeds; the test suite and
the ``reproduce`` CLI subcommand both run these.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field

from .coupling import (EXACT_TOL, CouplingSummary, coupling_expectations,
                       domination_violations, lemma_rules)
from .errors import ValidationError
from .factorlp import (build_primal, dual_certificate, solve_lp, u_limit,
                       u_value, verify_dual_feasible, primal_embedding)
from .generators import gen_complete_bipartite, gen_double_star, gen_random, gen_separation
from .matching import (WeightedSubproblem, degree_halving_subgraph, greedy_matching,
                       greedy_hypergraph_matching, max_weight_matching)
from .model import (Edge, Hypergraph, Instance, KnowledgeState, Vertex,
                    build_tables, enumerate_samples)
from .montecarlo import monte_carlo
from .policies import PolicyId, build_dp, run_sm
from .rng import CounterRng, sub_seed

UNIT_SEED = 101
CAP_SEED = 202
MTO_SEED = 303
HYPER_SEED = 404
UPPER_SEED = 606
OFFLINE_SEED = 707
KERNEL_SEED = 808

UNIT_COUNT = 200
GENERAL_COUNT = 100
# the exact lemma suites of criteria 2 and 3: profile -> (count, seed, label),
# the label naming the suite and, in criterion 3, its domination variant
SUITES = {"unit-small": (UNIT_COUNT, UNIT_SEED, "unit"),
          "cap-small": (GENERAL_COUNT, CAP_SEED, "capacitated"),
          "mto-small": (GENERAL_COUNT, MTO_SEED, "many_to_one"),
          "hyper3-small": (GENERAL_COUNT, HYPER_SEED, "hypergraph")}
# relative gap allowed between a replayed policy's exact expected reward
# and the DP root value it was derived from
EVALUATION_RTOL = 1e-12


@dataclass
class CriterionResult:
    number: int
    key: str
    ok: bool
    details: dict
    data: object = field(default=None, repr=False)

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} criterion {self.number} ({self.key})"


# ---------------------------------------------------------------------
# criterion 1: LP certificate suite


def criterion_1_lp_certificates() -> CriterionResult:
    rows = []
    ok = True
    for variant, ts in (("sm", range(2, 9)), ("gc", range(3, 9))):
        for t in ts:
            cert = dual_certificate(t, variant)
            feas = verify_dual_feasible(cert)
            primal = solve_lp(build_primal(t, variant))
            gap = abs(primal - cert.u)
            factor = 1.0 / cert.u
            floor = 0.316 if variant == "sm" else 0.43
            row_ok = bool(feas) and gap <= 1e-6 and factor >= floor
            ok &= row_ok
            rows.append({"variant": variant, "t": t, "primal": primal, "u": cert.u,
                         "gap": gap, "factor": factor, "feasible": bool(feas),
                         "ok": row_ok})
    tail = {}
    for variant in ("sm", "gc"):
        u200 = u_value(200, variant)
        lim = u_limit(variant)
        tail_ok = abs(u200 - lim) <= 0.02
        increasing = all(u_value(t, variant) < u_value(t + 1, variant) for t in range(1, 200))
        floor = 0.316 if variant == "sm" else 0.43
        factors_ok = all(1.0 / u_value(t, variant) >= floor for t in range(1, 201))
        ok &= tail_ok and increasing and factors_ok
        tail[variant] = {"u200": u200, "limit": lim, "within": tail_ok,
                         "increasing": increasing, "factor_floor_ok": factors_ok}
    return CriterionResult(1, "lp-certificates", ok, {"rows": rows, "tails": tail})


# ---------------------------------------------------------------------
# criteria 2 and 3: exact lemma suites


def _suite_instances(profile: str) -> list[Instance]:
    count, seed, _ = SUITES[profile]
    return [gen_random(profile, sub_seed(seed, i)) for i in range(count)]


def criterion_2_unit_lemmas() -> CriterionResult:
    count, seed, _ = SUITES["unit-small"]
    summaries = []
    totals = {"sm": 0, "sm_refined": 0, "gc": 0, "gc_refined": 0}
    charging_bad = 0
    partition_bad = 0
    commit_bad = 0
    for inst in _suite_instances("unit-small"):
        s = coupling_expectations(inst)
        summaries.append(s)
        for variant in totals:
            totals[variant] += domination_violations(s, variant)
        charging_bad += 0 if s.charging_ok() else 1
        partition_bad += 0 if s.partition_ok else 1
        commit_bad += 0 if s.commit_ok else 1
    ok = (not any(totals.values()) and charging_bad == 0 and partition_bad == 0
          and commit_bad == 0)
    details = {"instances": count, "seed": seed, "domination_violations": totals,
               "charging_violations": charging_bad,
               "partition_violations": partition_bad,
               "commit_violations": commit_bad}
    return CriterionResult(2, "lemma-exact-unit", ok, details, data=summaries)


def criterion_3_generalized() -> CriterionResult:
    data: dict[str, list[CouplingSummary]] = {}
    details: dict = {}
    ok = True
    for profile in ("cap-small", "mto-small", "hyper3-small"):
        count, seed, label = SUITES[profile]
        summaries = []
        dom_bad = 0
        charge_bad = 0
        part_bad = 0
        for inst in _suite_instances(profile):
            s = coupling_expectations(inst)
            summaries.append(s)
            part_bad += 0 if s.partition_ok else 1
            charge_bad += 0 if s.charging_ok() else 1
            dom_bad += domination_violations(s, label)
        ok &= dom_bad == 0 and charge_bad == 0 and part_bad == 0
        data[label] = summaries
        details[label] = {"instances": count, "seed": seed,
                          "domination_violations": dom_bad,
                          "charging_violations": charge_bad,
                          "partition_violations": part_bad}
    return CriterionResult(3, "lemma-exact-generalized", ok, details, data=data)


# ---------------------------------------------------------------------
# criterion 4: round-by-round ratio bounds


def _ratio_violations(s: CouplingSummary) -> int:
    """Horizons and ``LemmaRules.ratio_bounds`` at which E[opt successes]
    exceeds the bound times E[reference successes]."""
    bad = 0
    bounds = lemma_rules(s.instance).ratio_bounds
    for t in s.horizons:
        o = s.e_opt_succ[t - 1]
        for ref, factor in bounds:
            cap = u_value(t, ref) if factor is None else factor
            denom = s.e_succ[ref][t - 1]
            if denom <= EXACT_TOL:
                bad += 0 if o <= EXACT_TOL else 1
            elif o > cap * denom + EXACT_TOL:
                bad += 1
    return bad


def criterion_4_ratio_bounds(unit: list[CouplingSummary] | None = None,
                             generalized: dict[str, list[CouplingSummary]] | None = None
                             ) -> CriterionResult:
    if unit is None:
        unit = criterion_2_unit_lemmas().data
    if generalized is None:
        generalized = criterion_3_generalized().data
    bad_unit = sum(_ratio_violations(s) for s in unit)
    bad_gen = sum(_ratio_violations(s) for summaries in generalized.values()
                  for s in summaries)
    # embedding feasibility and the empirical-factor bound on the unit suite;
    # each unit-decomposition reference (sm, gc) names the variant of its LP
    embed_bad = 0
    for s in unit:
        for ref in s.references:
            for t in s.horizons:
                succ = s.e_succ[ref][t - 1]
                if succ <= EXACT_TOL:
                    continue
                x, objective = primal_embedding(
                    t, ref, s.e_aug[ref], s.e_adj[ref], s.e_new[ref], succ)
                lp = build_primal(t, ref)
                if lp.check_point(x, tol=EXACT_TOL):
                    embed_bad += 1
                if abs(objective - s.e_opt_succ[t - 1] / succ) > EXACT_TOL:
                    embed_bad += 1
                if objective > u_value(t, ref) + 1e-6:
                    embed_bad += 1
    ok = bad_unit == 0 and bad_gen == 0 and embed_bad == 0
    return CriterionResult(4, "ratio-bounds", ok, {
        "unit_violations": bad_unit, "generalized_violations": bad_gen,
        "embedding_violations": embed_bad})


# ---------------------------------------------------------------------
# criterion 5: commit separation, sandwich, follower coupling


def criterion_5_separation(unit: list[CouplingSummary] | None = None,
                           generalized: dict[str, list[CouplingSummary]] | None = None
                           ) -> CriterionResult:
    if unit is None:
        unit = criterion_2_unit_lemmas().data
    if generalized is None:
        generalized = criterion_3_generalized().data
    sep = gen_separation()
    table = build_dp(sep, commit=False)
    table_c = build_dp(sep, commit=True)
    gap = table.root_value - table_c.root_value
    # conditional on exactly one first-round success, the adaptive policy
    # re-pairs for expected 1.4 while the committing one holds its success for 1
    conds = []
    for s_mask, f_mask in ((0b0001, 0b1000), (0b1000, 0b0001)):
        ks = KnowledgeState(s_mask, f_mask)
        conds.append((table.value(ks, 2), table_c.value(ks, 2)))
    cond_ok = all(abs(a - 1.4) <= 1e-12 and abs(b - 1.0) <= 1e-12 for a, b in conds)

    sandwich_bad = 0
    follower_bad = 0
    all_summaries = list(unit) + [x for v in generalized.values() for x in v]
    sep_summary = coupling_expectations(sep)
    for s in all_summaries + [sep_summary]:
        if s.opt_commit_value < 0.5 * s.opt_value - EXACT_TOL:
            sandwich_bad += 1
    for s in list(unit) + [sep_summary]:
        if "opt_follower" not in s.e_succ:
            continue
        for t in s.horizons:
            if s.e_opt_succ[t - 1] > 2.0 * s.e_succ["opt_follower"][t - 1] + EXACT_TOL:
                follower_bad += 1
    # dominance of the adaptive optimum over every other policy, in expectation
    dominance_bad = 0
    for s in all_summaries + [sep_summary]:
        for name, value in s.e_reward.items():
            if name != "opt" and value > s.e_reward["opt"] + EXACT_TOL:
                dominance_bad += 1
    # policy evaluation: the replayed argmax policies earn the DP root values
    evaluation_bad = sum(
        abs(s.e_reward["opt"] - s.opt_value) > EVALUATION_RTOL * abs(s.opt_value)
        or abs(s.e_reward["opt_commit"] - s.opt_commit_value)
        > EVALUATION_RTOL * abs(s.opt_commit_value)
        for s in all_summaries + [sep_summary])
    ok = (gap > 0 and cond_ok and sandwich_bad == 0 and follower_bad == 0
          and dominance_bad == 0 and evaluation_bad == 0)
    return CriterionResult(5, "separation-commit", ok, {
        "opt_value": table.root_value, "opt_commit_value": table_c.root_value,
        "gap": gap, "conditional_round2": conds, "conditional_ok": cond_ok,
        "sandwich_violations": sandwich_bad, "follower_violations": follower_bad,
        "dominance_violations": dominance_bad, "evaluation_violations": evaluation_bad})


# ---------------------------------------------------------------------
# criterion 6: the double-star gap at desk scale


def criterion_6_upper_bound() -> CriterionResult:
    trials, seed = 100000, UPPER_SEED
    inst = gen_double_star(6, 0.1)
    sm_ok = True
    for smp, prob in enumerate_samples(inst):
        if prob == 0.0:
            continue
        trace = run_sm(inst, smp)
        if trace.total_weighted_reward != 36.0:
            sm_ok = False
            break
    stats = monte_carlo(inst, PolicyId.ALTERNATING_SCAN, trials, seed)
    opt = build_dp(inst, commit=False).root_value
    threshold = 1.2 * 36.0
    ok = sm_ok and threshold < stats.mean <= opt + 3.0 * stats.stderr
    return CriterionResult(6, "upper-bound-gap", ok, {
        "sm_reward_always_36": sm_ok, "alternating_mean": stats.mean,
        "alternating_stderr": stats.stderr, "opt_value": opt,
        "threshold": threshold, "trials": trials, "seed": seed})


# ---------------------------------------------------------------------
# criterion 7: offline benchmark vs any online policy


def criterion_7_offline() -> CriterionResult:
    trials, seed = 20000, OFFLINE_SEED
    inst = gen_complete_bipartite(10, 0.1)
    stats = monte_carlo(inst, PolicyId.OFFLINE_MAX, trials, seed)
    online_bound = max_weight_matching(
        WeightedSubproblem.fresh(inst)).total_weight({e.id: e.p for e in inst.edges})
    ok = stats.mean >= 1.35 and online_bound <= 1.0 + 1e-9
    return CriterionResult(7, "offline-vs-online", ok, {
        "offline_mean": stats.mean, "offline_stderr": stats.stderr,
        "online_round_bound": online_bound, "floor": 1.35,
        "trials": trials, "seed": seed})


# ---------------------------------------------------------------------
# criterion 8: matching-kernel properties


def _random_unit_instance(rng: CounterRng) -> Instance:
    nv = rng.randint(4, 8)
    pairs = [(u, w) for u in range(nv) for w in range(u + 1, nv)]
    rng.shuffle(pairs)
    m = rng.randint(1, min(10, len(pairs)))
    edges = [Edge(i, pairs[i], 0.5) for i in range(m)]
    return Instance([Vertex(i) for i in range(nv)], edges, 1)


def _random_cap_instance(rng: CounterRng) -> Instance:
    nv = rng.randint(3, 6)
    pairs = [(u, w) for u in range(nv) for w in range(u + 1, nv)]
    rng.shuffle(pairs)
    m = rng.randint(1, min(8, len(pairs)))
    edges = [Edge(i, pairs[i], 0.5) for i in range(m)]
    verts = [Vertex(i, rng.randint(1, 3)) for i in range(nv)]
    return Instance(verts, edges, 1)


def _random_hyper_instance(rng: CounterRng) -> Instance:
    nv = rng.randint(4, 7)
    edges = []
    seen = set()
    for _ in range(rng.randint(1, 8)):
        size = rng.randint(2, 3)
        ids = set()
        while len(ids) < size:
            ids.add(rng.randint(0, nv - 1))
        key = tuple(sorted(ids))
        if key in seen:
            continue
        seen.add(key)
        edges.append(Edge(len(edges), key, 0.5))
    if not edges:
        edges = [Edge(0, (0, 1), 0.5)]
    return Instance([Vertex(i) for i in range(nv)], edges, 1,
                    structure=Hypergraph(3))


def criterion_8_kernels() -> CriterionResult:
    rng = CounterRng(KERNEL_SEED)
    greedy_bad = 0
    for k in range(1000):
        inst = _random_unit_instance(rng) if k % 2 == 0 else _random_cap_instance(rng)
        weights = {e.id: rng.uniform(0.0, 1.0) for e in inst.edges}
        sub = WeightedSubproblem(inst, weights)
        g = greedy_matching(sub).total_weight(weights)
        opt = max_weight_matching(sub).total_weight(weights)
        if g < 0.5 * opt - EXACT_TOL:
            greedy_bad += 1
    hyper_bad = 0
    for _ in range(500):
        inst = _random_hyper_instance(rng)
        weights = {e.id: rng.uniform(0.0, 1.0) for e in inst.edges}
        g = greedy_hypergraph_matching(
            WeightedSubproblem(inst, weights)).total_weight(weights)
        tables = build_tables(inst)
        tables.build_enumeration()
        opt = max(sum(weights[e] for e in range(tables.m) if mask >> e & 1)
                  for mask in tables.feas)
        if g < opt / inst.structure.k - EXACT_TOL:
            hyper_bad += 1
    halving_bad = 0
    for _ in range(1000):
        nv = rng.randint(2, 7)
        m = rng.randint(1, 10)
        edges = []
        for _ in range(m):
            u = rng.randint(0, nv - 2)
            v = rng.randint(u + 1, nv - 1)
            edges.append((u, v, rng.uniform(0.0, 1.0)))
        chosen = degree_halving_subgraph(edges)
        total = sum(w for _, _, w in edges)
        kept = sum(edges[i][2] for i in chosen)
        if kept < total / 3.0 - 1e-12:
            halving_bad += 1
        deg = {}
        deg_s = {}
        for i, (u, v, _) in enumerate(edges):
            for x in (u, v):
                deg[x] = deg.get(x, 0) + 1
                if i in chosen:
                    deg_s[x] = deg_s.get(x, 0) + 1
        if any(deg_s.get(v, 0) > math.ceil(deg[v] / 2) for v in deg):
            halving_bad += 1
    ok = greedy_bad == 0 and hyper_bad == 0 and halving_bad == 0
    return CriterionResult(8, "kernel-properties", ok, {
        "greedy_half_violations": greedy_bad,
        "hypergraph_violations": hyper_bad,
        "degree_halving_violations": halving_bad,
        "seed": KERNEL_SEED})


# ---------------------------------------------------------------------
# criterion 9: byte-identical reproduction across runs


def criterion_9_determinism() -> CriterionResult:
    from . import cli

    def run(argv) -> bytes:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise ValidationError(f"cli exited {code} during determinism check")
        return buf.getvalue().encode()

    sim = ["simulate", "--family", "double-star", "--n", "4", "--eps", "0.1",
           "--policy", "alternating-scan", "--trials", "2000", "--seed", "42"]
    rep = ["reproduce", "--bundle", "offline-vs-online"]
    sim_ok = run(sim) == run(sim)
    rep_ok = run(rep) == run(rep)
    return CriterionResult(9, "determinism", sim_ok and rep_ok, {
        "simulate_identical": sim_ok, "reproduce_identical": rep_ok})


BUNDLES = {
    "lp-certificates": criterion_1_lp_certificates,
    "lemma-exact-unit": criterion_2_unit_lemmas,
    "lemma-exact-generalized": criterion_3_generalized,
    "ratio-bounds": criterion_4_ratio_bounds,
    "separation-commit": criterion_5_separation,
    "upper-bound-gap": criterion_6_upper_bound,
    "offline-vs-online": criterion_7_offline,
    "kernel-properties": criterion_8_kernels,
    "determinism": criterion_9_determinism,
}


def run_all() -> list[CriterionResult]:
    """All nine bundles, sharing the expensive suite data."""
    r1 = criterion_1_lp_certificates()
    r2 = criterion_2_unit_lemmas()
    r3 = criterion_3_generalized()
    r4 = criterion_4_ratio_bounds(r2.data, r3.data)
    r5 = criterion_5_separation(r2.data, r3.data)
    r6 = criterion_6_upper_bound()
    r7 = criterion_7_offline()
    r8 = criterion_8_kernels()
    r9 = criterion_9_determinism()
    return [r1, r2, r3, r4, r5, r6, r7, r8, r9]
