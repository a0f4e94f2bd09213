"""One repetition of one workload, in a fresh process (caches start cold).

Usage: python3 rep.py --workload NAME --seed N [--trace] [--setup-only]

Times the set-up (importing rematch and generating the workload's
instances) and the operations, checks every output, and prints one JSON
line: timings, peak memory, operation counts, failures, a digest of the
results and, with --trace, the per-layer spans summed by layer.
run.py starts this script with ``src`` on PYTHONPATH; it is not meant to
be imported.

Calibration: the speed of the shared machine drifts by up to 2x over
minutes.  Short samples of a fixed pure-Python loop, taken before and after
the set-up and between operations (at most every CAL_EVERY_S), measure the
speed at the time; every time is reported both as measured (``*_wall_s``)
and rescaled to the speed at which one sample takes CAL_REF_S.
"""

import time

CAL_STEPS = 6000
CAL_REF_S = 2.0e-3
CAL_EVERY_S = 0.1


def calibrate(samples: list, count: int = 3) -> None:
    """Time a fixed dict-and-integer loop ``count`` times into ``samples``."""
    for _ in range(count):
        t = time.perf_counter()
        table = {}
        x = 1
        for i in range(CAL_STEPS):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            key = x >> 46
            table[key] = table.get(key, 0) + i
        samples.append(time.perf_counter() - t)


SETUP_CAL: list = []
calibrate(SETUP_CAL)
T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def canonical(value):
    """Floats to 12 significant digits, so the digest ignores last-bit noise."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import rematch
    import workloads
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_wall_s = time.perf_counter() - T0
    run_cal: list = []
    calibrate(run_cal)
    setup_speed = CAL_REF_S / statistics.median(SETUP_CAL + run_cal)
    result = {"workload": args.workload, "seed": args.seed, "rematch": rematch.__file__,
              "setup_s": setup_wall_s * setup_speed, "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    summaries, errors = [], []
    known = 0
    run_wall_s = 0.0
    last_cal = time.perf_counter()
    for op in ops:
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            calibrate(run_cal)
            last_cal = time.perf_counter()
        t = time.perf_counter()
        try:
            out = op.run()
        except op.known as exc:
            known += 1
            out = {"known": type(exc).__name__}
        except Exception as exc:  # a failed operation; the run goes on
            traceback.print_exc(file=sys.stderr)
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            out = {"error": type(exc).__name__}
        else:
            problem = op.check(out)
            if problem:
                errors.append(f"{op.name}: {problem}")
        run_wall_s += time.perf_counter() - t
        summaries.append([op.name, out])
    calibrate(run_cal)
    speed = CAL_REF_S / statistics.median(run_cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_stats()
        result["counts"] = dict(tracer.counts)
    digest = hashlib.sha256(
        json.dumps(canonical(summaries), sort_keys=True).encode()).hexdigest()
    result.update({
        "run_s": run_wall_s * speed, "run_wall_s": run_wall_s, "speed": speed,
        "peak_rss_mb": peak_rss_mb, "attempted": len(ops), "failed": len(errors),
        "known_failed": known, "errors": errors, "digest": digest,
        "backend": rematch.kernels.active_backend()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
