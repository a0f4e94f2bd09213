"""rematch benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/perf/run.py --workload mc-sim --seed 1 --seconds 40 --trace 0
    python3 benchmarks/perf/run.py --workload dp-opt --seed 1 --seconds 40 --trace 1 --out r.json

Every repetition of the workload runs rep.py in a fresh single-threaded
process on the library in ``src``, so caches start cold as they do for a
CLI user.  ``--trace 0`` first sets the workload up several times, then
repeats it until ``--seconds`` have passed, and reports

* setup_s: median time to import rematch and generate the instances;
* run_s: median time of the workload's fixed work;
* peak_rss_mb: median peak resident memory of a repetition.

Times are rescaled by the machine speed measured alongside them (see
rep.py); the medians as measured are printed too.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of README.md, plus bench.trace_overhead_frac.  Every
output is checked; a failed check, an exception or, for the default seed,
a digest that differs from reference.json counts as a failed operation.
The last stdout line is the JSON result; ``--out`` also writes the full
record (environment included) for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
REP_TIMEOUT_S = 120
SETUP_RUNS = 5

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
CALL_LAYERS = ("model.trace", "model.sample", "kernels.sm_trace", "kernels.gc_trace",
               "kernels.dp_solve", "matching.max_weight_matching",
               "coupling.coupling_expectations", "factorlp.solve_lp", "factorlp.dual")
SELF_LAYERS = ("model.trace", "model.sample", "model.enumerate", "model.tables",
               "kernels.sm_trace", "kernels.gc_trace", "kernels.dp_solve",
               "policies.build_dp", "policies.run_opt", "policies.run_alternating_scan",
               "policies.run_sm", "policies.run_greedy_commit", "policies.run_opt_follower",
               "policies.offline_max_matching", "matching.max_weight_matching",
               "montecarlo.monte_carlo", "coupling.coupling_expectations",
               "coupling.verify", "factorlp.solve_lp", "factorlp.dual", "generators")
PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in CALL_LAYERS]
    + [(f"{layer}.self_s", "s") for layer in SELF_LAYERS]
    + [("model.enumerate.samples", "count"), ("model.enumerate.useful_frac", "ratio"),
       ("model.tables.feasible", "count"), ("kernels.dp_solve.states", "count"),
       ("factorlp.dual.failed", "count"), ("montecarlo.trials_per_s", "1/s"),
       ("bench.trace_overhead_frac", "ratio")])


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def rep(workload: str, seed: int, *flags: str) -> dict:
    """Run rep.py once in a fresh process and return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["rematch"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported rematch from {out['rematch']}, not from {SRC}")
    return out


def layer_metrics(r: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, times rescaled like run_s."""
    layers, counts, speed = r["layers"], r["counts"], r["speed"]

    def get(layer: str, key: str) -> float:
        value = layers.get(layer, {}).get(key, 0)
        return value * speed if key.endswith("_s") else value

    metrics = {f"{layer}.calls": get(layer, "calls") for layer in CALL_LAYERS}
    metrics.update({f"{layer}.self_s": get(layer, "self_s") for layer in SELF_LAYERS})
    samples = counts.get("model.enumerate.samples", 0)
    mc_s = get("montecarlo.monte_carlo", "total_s")
    metrics.update({
        "model.enumerate.samples": samples,
        "model.enumerate.useful_frac":
            counts.get("model.enumerate.useful", 0) / samples if samples else 0.0,
        "model.tables.feasible": counts.get("model.tables.feasible", 0),
        "kernels.dp_solve.states": counts.get("kernels.dp_solve.states", 0),
        "factorlp.dual.failed": get("factorlp.dual", "failed"),
        "montecarlo.trials_per_s":
            counts.get("montecarlo.monte_carlo.trials", 0) / mc_s if mc_s else 0.0,
    })
    return metrics


def environment(seed: int, backend: str) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"backend": backend, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "git_sha": sha, "nproc": os.cpu_count(), "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rep(workload, seed, "--setup-only")  # compiles bytecode; fails fast without src
    start = time.perf_counter()
    setups = [] if trace else [rep(workload, seed, "--setup-only")["setup_s"]
                               for _ in range(SETUP_RUNS)]
    plain, traced = [], []
    last = 0.0
    while True:
        # at least one repetition of each kind, then as many as fit
        enough = plain and (traced or not trace)
        if enough and time.perf_counter() - start + last > seconds:
            break
        t = time.perf_counter()
        if trace and len(traced) < len(plain):
            traced.append(rep(workload, seed, "--trace"))
        else:
            plain.append(rep(workload, seed))
        last = time.perf_counter() - t
    return {"setups": setups + [r["setup_s"] for r in plain], "plain": plain,
            "traced": traced}


def check_reps(workload: str, seed: int, reps: list[dict]) -> list[str]:
    """Errors across repetitions: failed operations, digests, traced counts."""
    errors = [e for r in reps for e in r["errors"]]
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        errors.append("repetitions with the same seed disagree on the results")
    reference = json.loads((HERE / "reference.json").read_text())
    if seed == reference["seed"]:
        for r in reps:
            if r["digest"] != reference["digests"][workload]:
                errors.append(f"digest {r['digest']} differs from reference.json")
    counts = {json.dumps([r["counts"], {k: v["calls"] for k, v in r["layers"].items()}],
                         sort_keys=True) for r in reps if "layers" in r}
    if len(counts) > 1:
        errors.append("traced repetitions disagree on the per-layer counts")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("mc-sim", "exact-verify", "dp-opt"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here")
    args = parser.parse_args()

    if not (SRC / "rematch" / "__init__.py").is_file():
        print(f"error: no rematch sources under {SRC}", file=sys.stderr)
        return 2
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reps = m["plain"] + m["traced"]
    errors = check_reps(args.workload, args.seed, reps)
    # one more operation per repetition: its result digest
    attempted = sum(r["attempted"] + 1 for r in reps)
    failed = len(errors)
    known = sum(r["known_failed"] for r in reps)
    plain_s = statistics.median(r["run_s"] for r in m["plain"])
    if args.trace:
        traced_s = statistics.median(r["run_s"] for r in m["traced"])
        per_rep = [layer_metrics(r) for r in m["traced"]]
        values = {name: statistics.median(p[name] for p in per_rep) for name in per_rep[0]}
        values["bench.trace_overhead_frac"] = traced_s / plain_s - 1.0
        units = dict(PER_LAYER)
    else:
        values = {"setup_s": statistics.median(m["setups"]), "run_s": plain_s,
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in m["plain"])}
        units = dict(END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    env = environment(args.seed, reps[0]["backend"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(m['plain'])} untraced, {len(m['traced'])} traced")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    for key in ("setup_wall_s", "run_wall_s"):
        wall = statistics.median(r[key] for r in m["plain"])
        print(f"  {key:40s} {wall:>14.6g} s  (as measured, not rescaled)")
    print(f"  {'failed_frac':40s} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} operations failed)")
    print(f"  {'known_failed':40s} {known:>14d} count  (known defect: "
          f"factorlp.dual_certificate OverflowError for t >= 144)")
    for error in errors[:20]:
        print(f"  FAILED {error}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        record = dict(result, workload=args.workload, seconds=args.seconds,
                      trace=args.trace, known_failed=known, env=env, errors=errors,
                      repetitions={key: [r[key] for r in reps]
                                   for key in ("run_s", "run_wall_s", "speed")}
                      | {"setup_s": m["setups"]})
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
