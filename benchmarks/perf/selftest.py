"""Self-test of the benchmark: tracer bindings, traced counts, metric lists.

Usage (from the repository root): python3 benchmarks/perf/selftest.py

1. BENCHMARK.json names exactly the metrics run.py reports.
2. Installing the tracer leaves no loaded rematch module holding an
   unwrapped traced function, and uninstalling restores every binding.
3. A traced repetition of each workload, at the reference seed, counts
   what the workload definition says it must: a layer whose binding was
   missed would read zero instead.

Exits 1 and lists the mismatches when any check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import run  # noqa: E402


def check_metric_lists() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        theirs = [(m["name"], m["unit"]) for m in spec[key]]
        if theirs != list(ours):
            errors.append(f"BENCHMARK.json {key} differs from run.py: {theirs} != {list(ours)}")
    return errors


def check_bindings() -> list[str]:
    import rematch  # noqa: F401  (loads every module the tracer scans)
    from rematch import coupling, model, montecarlo, policies
    from tracer import TARGETS, Tracer, _rematch_modules

    originals = {}
    for _, module_name, attr in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        originals[(owner, attr)] = vars(owner)[attr]
    plain = {id(v) for v in originals.values()}
    errors = []
    with Tracer() as tracer:
        for mod in _rematch_modules():
            for name, value in vars(mod).items():
                if id(value) in plain:
                    errors.append(f"{mod.__name__}.{name} is not wrapped")
        for owner, attr in originals:
            if vars(owner)[attr] is originals[(owner, attr)]:
                errors.append(f"{owner.__name__}.{attr} is not wrapped")
        bound = set(tracer.bindings())
        for needed in (("rematch.coupling", "draw_sample"), ("rematch.montecarlo", "sample"),
                       ("rematch.montecarlo", "run_sm"), ("rematch.coupling", "run_opt"),
                       ("rematch.coupling", "build_dp"),
                       ("rematch.policies", "max_weight_matching"),
                       ("Trace", "from_selection_masks"), ("Tables", "build_enumeration")):
            if needed not in bound:
                errors.append(f"{needed[0]}.{needed[1]} was not patched")
        if not isinstance(vars(model.Trace)["from_selection_masks"], classmethod):
            errors.append("Trace.from_selection_masks lost its classmethod")
    for (owner, attr), original in originals.items():
        if vars(owner)[attr] is not original:
            errors.append(f"{owner.__name__}.{attr} was not restored")
    for mod, name in ((coupling, "draw_sample"), (montecarlo, "run_sm"),
                      (policies, "max_weight_matching")):
        if hasattr(getattr(mod, name), "__wrapped__"):
            errors.append(f"{mod.__name__}.{name} still wrapped after uninstall")
    return errors


def expected_counts(workload: str, seed: int) -> dict[str, int]:
    """Counts that follow from the workload definition alone."""
    import workloads

    if workload == "mc-sim":
        trials = {name: n for name, _, _, n in workloads.MC_PLAN}
        return {
            "model.sample.calls": sum(trials.values()),
            "montecarlo.monte_carlo.calls": len(trials),
            "policies.run_alternating_scan.calls": trials["ds6-alternating-scan"],
            "policies.run_sm.calls": trials["ds6-sm"],
            "policies.run_greedy_commit.calls": trials["k55-greedy-commit"],
            "policies.offline_max_matching.calls": trials["k1010-offline-max"],
            "policies.run_opt.calls": trials["ds4-opt"] + trials["ds4-opt-follower"],
            "policies.run_opt_follower.calls": trials["ds4-opt-follower"],
            "policies.build_dp.calls": 2,
            "kernels.dp_solve.calls": 2,
            "coupling.coupling_expectations.calls": 0,
            "generators.calls": 4,
        }
    if workload == "exact-verify":
        suite = workloads.suite_instances(seed)
        lps = sum(workloads.LP_SOLVE_MAX + 1 - first for first in (2, 3))
        sweep = len(workloads.DUAL_SWEEP)
        overflow = sum(t >= workloads.OVERFLOW_FROM for t in workloads.DUAL_SWEEP)
        return {
            "coupling.coupling_expectations.calls": len(suite),
            "coupling.verify.calls": sum(len(workloads.default_lemmas(i)) for _, i in suite),
            "model.enumerate.calls": len(suite),
            "model.enumerate.samples": sum(2 ** inst.num_edges for _, inst in suite),
            "kernels.dp_solve.calls": 2 * len(suite),
            "factorlp.solve_lp.calls": lps,
            # per LP a certificate and its check; per swept t and variant a
            # certificate, checked unless building it overflowed
            "factorlp.dual.calls": 2 * lps + 2 * (2 * sweep - overflow),
            "factorlp.dual.failed": 2 * overflow,
            "model.sample.calls": 0,
            "montecarlo.monte_carlo.calls": 0,
            "generators.calls": len(suite),
        }
    dps = 2 * (1 + len(workloads.CAP11_DRAWS) + 1)
    return {"kernels.dp_solve.calls": dps, "policies.build_dp.calls": dps,
            "model.trace.calls": 0, "model.sample.calls": 0,
            "generators.calls": 2 + len(workloads.CAP11_DRAWS)}


def check_counts(seed: int) -> list[str]:
    errors = []
    for workload in ("mc-sim", "exact-verify", "dp-opt"):
        rep = run.rep(workload, seed, "--trace")
        if rep["errors"]:
            errors += [f"{workload}: {e}" for e in rep["errors"]]
        observed = {f"{layer}.calls": s["calls"] for layer, s in rep["layers"].items()}
        observed.update(rep["counts"])
        observed.update({f"{layer}.failed": s["failed"] for layer, s in rep["layers"].items()})
        for name, want in expected_counts(workload, seed).items():
            got = observed.get(name, 0)
            status = "ok" if got == want else "MISMATCH"
            print(f"  {workload:13s} {name:40s} expected {want:>8} traced {got:>8}  {status}")
            if got != want:
                errors.append(f"{workload}: {name} traced {got}, expected {want}")
        reported = set(run.layer_metrics(rep)) | {"bench.trace_overhead_frac"}
        missing = {name for name, _ in run.PER_LAYER} - reported
        if missing:
            errors.append(f"{workload}: per-layer metrics not reported: {sorted(missing)}")
    return errors


def main() -> int:
    seed = json.loads((HERE / "reference.json").read_text())["seed"]
    errors = check_metric_lists() + check_bindings() + check_counts(seed)
    for error in errors:
        print(f"FAILED {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
