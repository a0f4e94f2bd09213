"""Named experiment bundles, one per acceptance criterion.

Each bundle takes no arguments and returns a :class:`CriterionResult`
whose ``details`` are JSON-serializable and deterministic for fixed
seeds; the test suite and the ``reproduce`` CLI subcommand both run
these, one bundle at a time.  Criteria 2 to 5 read the exact coupling
pass over the four lemma ``SUITES`` from :func:`_suite_summaries`, which
runs it once per suite and process, so a bundle run alone prints the
same line as in ``reproduce --bundle all``.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import lru_cache

from .coupling import (EXACT_TOL, CouplingSummary, coupling_expectations,
                       domination_violations, lemma_rules)
from .factorlp import (build_primal, dual_certificate, solve_lp, u_limit,
                       u_value, verify_dual_feasible, primal_embedding)
from .generators import (RandomProfile, gen_complete_bipartite, gen_double_star, gen_random,
                         gen_separation)
from .matching import (WeightedSubproblem, degree_halving_subgraph, greedy_matching,
                       greedy_hypergraph_matching, max_weight_matching)
from .model import Instance, KnowledgeState, build_tables, enumerate_samples
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
# the suites of criterion 3, each checked against its own domination variant
_GENERALIZED = ("cap-small", "mto-small", "hyper3-small")
# the per-round factor 1/u(t) each LP variant must reach at every t
FACTOR_FLOOR = {"sm": 0.316, "gc": 0.43}
# relative gap allowed between a replayed policy's exact expected reward
# and the DP root value it was derived from
EVALUATION_RTOL = 1e-12


@dataclass
class CriterionResult:
    number: int
    key: str
    ok: bool
    details: dict

    def to_json(self) -> dict:
        """The ``reproduce`` stdout record."""
        return {"criterion": self.number, "key": self.key, "ok": self.ok,
                "details": self.details}

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
            row_ok = bool(feas) and gap <= 1e-6 and factor >= FACTOR_FLOOR[variant]
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
        factors_ok = all(1.0 / u_value(t, variant) >= FACTOR_FLOOR[variant]
                         for t in range(1, 201))
        ok &= tail_ok and increasing and factors_ok
        tail[variant] = {"u200": u200, "limit": lim, "within": tail_ok,
                         "increasing": increasing, "factor_floor_ok": factors_ok}
    return CriterionResult(1, "lp-certificates", ok, {"rows": rows, "tails": tail})


# ---------------------------------------------------------------------
# criteria 2 and 3: exact lemma suites


def _suite_instances(profile: str) -> list[Instance]:
    count, seed, _ = SUITES[profile]
    return [gen_random(profile, sub_seed(seed, i)) for i in range(count)]


@lru_cache(maxsize=len(SUITES))
def _suite_summaries(profile: str) -> tuple[CouplingSummary, ...]:
    """The exact coupling pass over every instance of a ``SUITES`` profile.

    Memoized per process: this is the one place that runs the pass over a
    lemma suite, and criteria 2 to 5 all read it.
    """
    return tuple(coupling_expectations(inst) for inst in _suite_instances(profile))


def _suite_violations(profile: str, variants) -> dict:
    """How many of a suite's checks fail: the domination rows of each
    variant, and the instances failing the charging, partition or commit check."""
    summaries = _suite_summaries(profile)
    return {"domination": {v: sum(domination_violations(s, v) for s in summaries)
                           for v in variants},
            "charging": sum(not s.charging_ok() for s in summaries),
            "partition": sum(not s.partition_ok for s in summaries),
            "commit": sum(not s.commit_ok for s in summaries)}


def criterion_2_unit_lemmas() -> CriterionResult:
    count, seed, _ = SUITES["unit-small"]
    bad = _suite_violations("unit-small", ("sm", "sm_refined", "gc", "gc_refined"))
    ok = (not any(bad["domination"].values()) and bad["charging"] == 0
          and bad["partition"] == 0 and bad["commit"] == 0)
    return CriterionResult(2, "lemma-exact-unit", ok, {
        "instances": count, "seed": seed, "domination_violations": bad["domination"],
        "charging_violations": bad["charging"], "partition_violations": bad["partition"],
        "commit_violations": bad["commit"]})


def criterion_3_generalized() -> CriterionResult:
    details: dict = {}
    ok = True
    for profile in _GENERALIZED:
        count, seed, label = SUITES[profile]
        bad = _suite_violations(profile, (label,))
        ok &= bad["domination"][label] == 0 and bad["charging"] == 0 and bad["partition"] == 0
        details[label] = {"instances": count, "seed": seed,
                          "domination_violations": bad["domination"][label],
                          "charging_violations": bad["charging"],
                          "partition_violations": bad["partition"]}
    return CriterionResult(3, "lemma-exact-generalized", ok, details)


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


def criterion_4_ratio_bounds() -> CriterionResult:
    unit = _suite_summaries("unit-small")
    bad_unit = sum(_ratio_violations(s) for s in unit)
    bad_gen = sum(_ratio_violations(s) for profile in _GENERALIZED
                  for s in _suite_summaries(profile))
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


def criterion_5_separation() -> CriterionResult:
    unit = _suite_summaries("unit-small")
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
    all_summaries = [s for profile in SUITES for s in _suite_summaries(profile)]
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

# one-round instances for the matching kernels; each edge weight is drawn
# separately, so the edges' p play no part
KERNEL_UNIT = RandomProfile("kernel-unit", "general", (4, 8), (1, 10), (1, 1), (1, 1))
KERNEL_CAP = RandomProfile("kernel-cap", "general", (3, 6), (1, 8), (1, 3), (1, 1))
KERNEL_HYPER = RandomProfile("kernel-hyper3", "hypergraph", (4, 7), (1, 8), (1, 1), (1, 1))
_MAX_SEED = (1 << 64) - 1  # each instance seed is the stream's next 64-bit word


def criterion_8_kernels() -> CriterionResult:
    rng = CounterRng(KERNEL_SEED)
    greedy_bad = 0
    for k in range(1000):
        inst = gen_random(KERNEL_UNIT if k % 2 == 0 else KERNEL_CAP, rng.randint(0, _MAX_SEED))
        weights = {e.id: rng.uniform(0.0, 1.0) for e in inst.edges}
        sub = WeightedSubproblem(inst, weights)
        g = greedy_matching(sub).total_weight(weights)
        opt = max_weight_matching(sub).total_weight(weights)
        if g < 0.5 * opt - EXACT_TOL:
            greedy_bad += 1
    hyper_bad = 0
    for _ in range(500):
        inst = gen_random(KERNEL_HYPER, rng.randint(0, _MAX_SEED))
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

    def run(argv) -> bytes | None:
        out = io.StringIO()
        # the inner run's stderr, its "# <bundle> took" lines included, is not ours
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return out.getvalue().encode() if code == 0 else None

    def identical(argv) -> bool:
        first = run(argv)
        return first is not None and run(argv) == first  # exiting non-zero fails the check

    sim_ok = identical(["simulate", "--family", "double-star", "--n", "4", "--eps", "0.1",
                        "--policy", "alternating-scan", "--trials", "2000", "--seed", "42"])
    rep_ok = identical(["reproduce", "--bundle", "offline-vs-online"])
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
