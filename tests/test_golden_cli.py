"""Golden stdout and exit codes of fast CLI invocations.

Every case runs ``rematch`` in-process and must reproduce the stored
stdout byte for byte, together with its exit code.  The files under
``tests/golden/`` were written before the code they guard was last
refactored; regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rematch import cli

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

_DS3 = ["--family", "double-star", "--n", "3", "--eps", "0.1"]
_POLICIES = ("sm", "greedy-commit", "opt", "opt-commit", "opt-follower",
             "alternating-scan", "offline-max")
_PROFILES = ("unit-small", "cap-small", "mto-small", "hyper3-small")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for policy in _POLICIES:
        for fmt in ("json", "csv"):
            cases[f"simulate-{policy}-{fmt}"] = [
                "simulate", *_DS3, "--policy", policy, "--trials", "300",
                "--seed", "11", "--format", fmt]
    for profile in _PROFILES:
        batch = ["verify", "--family", "random", "--profile", profile,
                 "--count", "3", "--gen-seed", "7"]
        cases[f"verify-{profile}-exact"] = batch
    cases["verify-ds3-exact"] = ["verify", *_DS3]
    for flags in ([], ["--commit"], ["--exhaustive"], ["--commit", "--exhaustive"]):
        name = "-".join(["opt"] + [f.removeprefix("--") for f in flags])
        cases[name] = ["opt", *_DS3, *flags]
    ds6 = ["--family", "double-star", "--n", "6", "--eps", "0.1"]
    cases["opt-ds6"] = ["opt", *ds6]
    cases["opt-ds8"] = ["opt", "--family", "double-star", "--n", "8", "--eps", "0.1"]
    cases["opt-ds9"] = ["opt", "--family", "double-star", "--n", "9", "--eps", "0.1"]
    cases["simulate-opt-ds6"] = ["simulate", *ds6, "--policy", "opt", "--trials", "50",
                                 "--seed", "11"]
    # short horizons without edge classes: the last round holds most states
    cap7 = ["--family", "random", "--profile", "cap-small", "--gen-seed", "7"]
    for flags in ([], ["--commit"], ["--exhaustive"]):
        cases["-".join(["opt-cap-small-7"] + [f.removeprefix("--") for f in flags])] = [
            "opt", *cap7, *flags]
    for name in ("weighted-rounds", "weighted-rounds-last-zero", "one-round"):
        cases[f"opt-{name}"] = ["opt", "--instance", str(GOLDEN / f"{name}-instance.json")]
    cases["opt-weighted-rounds-commit"] = [*cases["opt-weighted-rounds"], "--commit"]
    # one round with edge classes: the root is the only scored state
    cases["opt-k33-rounds-1"] = ["opt", "--family", "complete-bipartite", "--n", "3",
                                 "--p", "0.4", "--rounds", "1"]
    # 36 edges: every round is an exact matching, past the kernel's scan;
    # 16 edges at p 0.5: the kernel at the top of its range, with many ties
    cases["simulate-greedy-commit-k66"] = [
        "simulate", "--family", "complete-bipartite", "--n", "6", "--p", "0.3",
        "--rounds", "3", "--policy", "greedy-commit", "--trials", "200", "--seed", "11"]
    cases["simulate-greedy-commit-k44"] = [
        "simulate", "--family", "complete-bipartite", "--n", "4", "--p", "0.5",
        "--rounds", "3", "--policy", "greedy-commit", "--trials", "200", "--seed", "11"]
    # opt tries nothing new in round 2 and explores again in round 3 on
    # some samples, so a replay must not stop at its first idle round
    for policy in ("opt", "opt-follower"):
        cases[f"simulate-{policy}-idle-round"] = [
            "simulate", "--instance", str(GOLDEN / "idle-round-instance.json"),
            "--policy", policy, "--trials", "300", "--seed", "11"]
    for variant in ("sm", "gc"):
        cases[f"lp-{variant}"] = ["lp", "--t", "6", "--variant", variant,
                                  "--solve", "--check-dual"]
    # rejected inputs and resource limits: no stdout, and no traceback
    # two certain edges and non-dyadic round weights: every trial earns the
    # same reward, so every stderr is exactly 0.0
    cases["simulate-constant-reward"] = [
        "simulate", "--instance", str(GOLDEN / "constant-reward-instance.json"),
        "--policy", "sm", "--trials", "1000", "--seed", "11"]
    cases["opt-nan-weight"] = ["opt", "--instance", str(GOLDEN / "nan-weight-instance.json")]
    cases["opt-rounds-1100"] = ["opt", "--family", "complete-bipartite", "--n", "2",
                                "--p", "0.5", "--rounds", "1100"]
    cases["opt-k33-rounds-900"] = ["opt", "--family", "complete-bipartite", "--n", "3",
                                   "--p", "0.5", "--rounds", "900"]
    cases["gen-double-star-1001"] = ["gen", "--family", "double-star", "--n", "1001"]
    cases["lp-t-1000000-check-dual"] = ["lp", "--t", "1000000", "--check-dual"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_golden_cases_are_all_stored():
    assert set(json.loads(EXIT_CODES.read_text())) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = _run(CASES[name])
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in CASES.items():
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.txt").write_bytes(out.encode())
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_golden()
    sys.exit(0)
