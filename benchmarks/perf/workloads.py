"""The benchmark's workloads: seeded inputs, fixed operations, output checks.

``WORKLOADS[name](seed)`` generates the workload's instances (the set-up
phase) and returns its operations.  Each :class:`Op` calls the public
library functions the CLI calls and returns a small JSON-able summary of
the result; ``check`` returns an error message for a broken invariant,
or None.  Every check holds for any seed.  README.md says why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from rematch import coupling, factorlp, generators, montecarlo, policies, suites
from rematch.generators import RandomProfile
from rematch.model import Edge, Hypergraph, Instance, ManyToOne, Vertex
from rematch.policies import PolicyId
from rematch.rng import CounterRng, sub_seed

REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # exceptions that are a known defect of the program: counted apart
    # from failures so that they stay visible without failing the run
    known: tuple[type[BaseException], ...] = ()


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def relabel(instance: Instance, seed: int) -> Instance:
    """The same instance with vertex ids and edge order permuted by seed."""
    rng = CounterRng(seed)
    vperm = [v.id for v in instance.vertices]
    rng.shuffle(vperm)
    vmap = {v.id: new for v, new in zip(instance.vertices, vperm)}
    order = list(range(instance.num_edges))
    rng.shuffle(order)
    vertices = sorted((Vertex(vmap[v.id], v.capacity) for v in instance.vertices),
                      key=lambda v: v.id)
    edges = [Edge(new, [vmap[u] for u in instance.edges[old].endpoints],
                  instance.edges[old].p) for new, old in enumerate(order)]
    structure = instance.structure
    if isinstance(structure, ManyToOne):
        structure = ManyToOne(vmap[u] for u in structure.left)
    return Instance(vertices, edges, instance.rounds, instance.weights, structure)


# ---------------------------------------------------------------------
# mc-sim: seeded Monte Carlo over six instance/policy pairs

MC_PLAN = (
    # (op name, instance, policy, trials)
    ("ds6-alternating-scan", "ds6", PolicyId.ALTERNATING_SCAN, 2000),
    ("ds6-sm", "ds6", PolicyId.SM, 2000),
    ("k55-greedy-commit", "k55", PolicyId.GREEDY_COMMIT, 100),
    ("k1010-offline-max", "k1010", PolicyId.OFFLINE_MAX, 1500),
    ("ds4-opt", "ds4", PolicyId.OPT, 2000),
    ("ds4-opt-follower", "ds4", PolicyId.OPT_FOLLOWER, 1500),
)


def _simulate(instance: Instance, policy: PolicyId, trials: int, seed: int) -> dict:
    stats = montecarlo.monte_carlo(instance, policy, trials, seed, threads=1)
    return {"mean": stats.mean, "stderr": stats.stderr,
            "per_round_mean": stats.per_round_mean,
            "per_round_stderr": stats.per_round_stderr}


def _mc_check(extra: Callable[[dict], str | None], out: dict) -> str | None:
    # unit round weights: the mean reward is the sum of the per-round means
    if not _close(out["mean"], sum(out["per_round_mean"])):
        return f"mean {out['mean']!r} != sum of per-round means"
    return extra(out)


def _nondecreasing(out: dict) -> str | None:
    # a committing policy keeps every success, so round successes never drop
    rounds = out["per_round_mean"]
    if any(b < a for a, b in zip(rounds, rounds[1:])):
        return "per-round successes of a committing policy decrease"
    return None


MC_CHECKS = {
    "ds6-alternating-scan": lambda o: (
        None if o["mean"] > 1.2 * 36.0 else f"mean {o['mean']} <= 1.2 * 36"),
    "ds6-sm": lambda o: (
        None if o["mean"] == 36.0 and o["stderr"] == 0.0
        else f"sm reward on ds6 is {o['mean']} +- {o['stderr']}, not 36 +- 0"),
    "k55-greedy-commit": _nondecreasing,
    "k1010-offline-max": lambda o: (
        None if o["mean"] >= 1.35 else f"offline mean {o['mean']} < 1.35"),
    # a double star matches at most two edges per round
    "ds4-opt": lambda o: (
        None if max(o["per_round_mean"]) <= 2.0 else "a round exceeds two successes"),
    "ds4-opt-follower": _nondecreasing,
}


def mc_sim(seed: int) -> list[Op]:
    instances = {
        "ds6": generators.gen_double_star(6, 0.1),
        "k55": generators.gen_complete_bipartite(5, 0.3, rounds=4),
        "k1010": generators.gen_complete_bipartite(10, 0.1),
        "ds4": generators.gen_double_star(4, 0.1),
    }
    return [Op(name, partial(_simulate, instances[key], policy, trials, sub_seed(seed, k)),
               partial(_mc_check, MC_CHECKS[name]))
            for k, (name, key, policy, trials) in enumerate(MC_PLAN, 1)]


# ---------------------------------------------------------------------
# exact-verify: the exact path of `rematch verify` plus the LP certificates

# (profile, size, suite seed): the suites of acceptance criteria 2 and 3
SUITES = (("unit-small", suites.UNIT_COUNT, suites.UNIT_SEED),
          ("cap-small", suites.GENERAL_COUNT, suites.CAP_SEED),
          ("mto-small", suites.GENERAL_COUNT, suites.MTO_SEED),
          ("hyper3-small", suites.GENERAL_COUNT, suites.HYPER_SEED))
LP_SOLVE_MAX = factorlp.SOLVE_LIMIT
# dual_certificate overflows a float for every t >= 144 in both variants.
# The sweep brackets that edge and stays sparse above it, so that fixing the
# overflow adds only a few certificate checks to run_s.
OVERFLOW_FROM = 144
DUAL_SWEEP = (16, 32, 64, 128, 143, 144, 150, 200)
FACTOR_FLOOR = {"sm": 0.316, "gc": 0.43}


def default_lemmas(instance: Instance) -> list[str]:
    """The lemma set `rematch verify --lemma all` checks on an instance.

    A copy of the CLI's private helper, so that refactoring the CLI
    cannot break the benchmark.
    """
    if isinstance(instance.structure, Hypergraph):
        return ["charging", "hypergraph"]
    if not instance.unit_capacities():
        if isinstance(instance.structure, ManyToOne):
            return ["charging", "many_to_one"]
        return ["charging", "capacitated"]
    return ["charging", "sm", "sm_refined", "gc", "gc_refined"]


def _lemma(instance: Instance, lemma: str) -> dict:
    t = instance.rounds
    if lemma == "charging":
        report = coupling.verify_charging(instance, t, "exact")
    else:
        report = coupling.verify_domination(instance, t, lemma, "exact")
    return {"verdict": report.verdict, "lhs": report.lhs, "rhs": report.rhs}


def _lemma_check(out: dict) -> str | None:
    return None if out["verdict"] is True else "lemma verdict is false"


def _lp(t: int, variant: str) -> dict:
    primal = factorlp.solve_lp(factorlp.build_primal(t, variant))
    return {"primal": primal, **_dual(t, variant)}


def _dual(t: int, variant: str) -> dict:
    cert = factorlp.dual_certificate(t, variant)
    feasible = factorlp.verify_dual_feasible(cert)
    return {"u": cert.u, "feasible": bool(feasible)}


def _dual_check(variant: str, out: dict) -> str | None:
    if not out["feasible"]:
        return "dual certificate infeasible"
    if 1.0 / out["u"] < FACTOR_FLOOR[variant]:
        return f"factor 1/u = {1.0 / out['u']} below {FACTOR_FLOOR[variant]}"
    if "primal" in out and abs(out["primal"] - out["u"]) > 1e-6:
        return f"primal {out['primal']} differs from dual u {out['u']}"
    return None


def suite_instances(seed: int) -> list[tuple[str, Instance]]:
    """The criteria-2/3 suites, each instance relabelled by the workload seed.

    Fresh draws per seed would change the enumeration work by about 10%
    (the sum of 2^edges x rounds over a suite); relabelling keeps it fixed.
    """
    out = []
    for profile, count, suite_seed in SUITES:
        for i in range(count):
            inst = generators.gen_random(profile, sub_seed(suite_seed, i))
            out.append((f"{profile}-{i}", relabel(inst, sub_seed(seed, len(out)))))
    return out


def exact_verify(seed: int) -> list[Op]:
    ops = [Op(f"{name}-{lemma}", partial(_lemma, inst, lemma), _lemma_check)
           for name, inst in suite_instances(seed) for lemma in default_lemmas(inst)]
    for variant in ("sm", "gc"):
        first = 2 if variant == "sm" else 3
        check = partial(_dual_check, variant)
        ops += [Op(f"lp-{variant}-{t}", partial(_lp, t, variant), check)
                for t in range(first, LP_SOLVE_MAX + 1)]
        ops += [Op(f"dual-{variant}-{t}", partial(_dual, t, variant), check,
                   known=(OverflowError,) if t >= OVERFLOW_FROM else ())
                for t in DUAL_SWEEP]
    return ops


# ---------------------------------------------------------------------
# dp-opt: exact optima by the expectimax DP

# Six vertices are needed for eleven distinct vertex pairs.
CAP11 = RandomProfile("bench-cap11", "general", (6, 6), (11, 11), (1, 3), (3, 3))
# The first draws of CAP11 (seeds 0, 1, ...) with 60-280 feasible selections.
# A single draw's DP costs anywhere from 10 ms to 5 s, so independent draws
# per seed would swamp run_s; the workload seed relabels these fixed draws
# instead, which keeps the DP work fixed and must keep the optima.
CAP11_DRAWS = (1, 2, 3, 4, 5, 6, 7, 8)
# (opt, opt-commit) of each draw as generated, before relabelling
CAP11_OPTIMA = (
    (8.865598828422085, 8.852814501664728),
    (9.194685643972626, 9.190950368160854),
    (8.314978473524084, 8.284077649833792),
    (10.117854288971056, 10.117854288971056),
    (12.302141477837166, 12.302141477837166),
    (8.00590902180165, 8.00515884596361),
    (7.096133704679831, 7.033732781219335),
    (8.955090558524502, 8.934821497023213),
)


def _optima(instance: Instance) -> list[float]:
    return [policies.opt_value(instance, commit=False),
            policies.opt_value(instance, commit=True)]


def _sandwich(out: list[float], expected: tuple[float, float] | None = None) -> str | None:
    opt, commit = out
    if not (opt >= commit - REL_TOL and commit >= 0.5 * opt - REL_TOL):
        return f"opt {opt} >= opt-commit {commit} >= opt/2 fails"
    if expected is not None and not all(map(_close, out, expected)):
        return f"optima {out} of a relabelled instance differ from {expected}"
    return None


def _exhaustive(instance: Instance) -> list[float]:
    return [policies.opt_value(instance, commit=False, prune=False),
            policies.opt_value(instance, commit=False)]


def _same_root(out: list[float]) -> str | None:
    return None if _close(*out, tol=1e-12) else f"exhaustive root {out[0]} != pruned {out[1]}"


def dp_opt(seed: int) -> list[Op]:
    ds5 = generators.gen_double_star(5, 0.1)
    ops = [Op("ds5", partial(_optima, ds5), _sandwich)]
    for i, (draw, expected) in enumerate(zip(CAP11_DRAWS, CAP11_OPTIMA)):
        inst = relabel(generators.gen_random(CAP11, draw), sub_seed(seed, i))
        ops.append(Op(f"cap11-{draw}", partial(_optima, inst),
                      partial(_sandwich, expected=expected)))
    k33 = generators.gen_complete_bipartite(3, 0.5, rounds=3)
    ops.append(Op("k33-exhaustive", partial(_exhaustive, k33), _same_root))
    return ops


WORKLOADS = {"mc-sim": mc_sim, "exact-verify": exact_verify, "dp-opt": dp_opt}
