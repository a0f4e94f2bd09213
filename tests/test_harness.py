import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rematch import cli, generators, kernels, model
from rematch.errors import LimitExceededError, SolverError, ValidationError
from rematch.generators import (PROFILES, double_star_layout, gen_complete_bipartite,
                                gen_double_star, gen_random, gen_separation)
from rematch.model import (EDGES_LIMIT, INSTANCE_BYTES_LIMIT, ROUNDS_LIMIT, Hypergraph,
                           Instance, ManyToOne)
from rematch.montecarlo import monte_carlo
from rematch.policies import PolicyId
from rematch.rng import sub_seed
from conftest import make_instance
from oracles import monte_carlo_list_reduce


def test_double_star_shape():
    inst = gen_double_star(2, 0.1)
    assert inst.num_edges == 3
    assert [e.p for e in inst.edges] == [1.0, 0.4, 0.4]
    inst6 = gen_double_star(6, 0.1)
    assert inst6.num_edges == 11
    assert inst6.rounds == 36
    assert inst6.edges[0].p == 1.0
    assert all(e.p == 0.4 for e in inst6.edges[1:])
    with pytest.raises(ValidationError):
        gen_double_star(1, 0.1)
    with pytest.raises(ValidationError):
        gen_double_star(4, 0.5)


def test_double_star_layout_survives_json_round_trip():
    inst = gen_double_star(4, 0.2)
    layout = double_star_layout(inst)
    assert layout is not None
    n, hub, left, right = layout
    assert (n, hub) == (4, 0)
    assert len(left) == len(right) == 3
    again = Instance.loads(inst.dumps())
    assert double_star_layout(again) == layout
    assert double_star_layout(gen_separation()) is None


def test_separation_instance():
    inst = gen_separation()
    assert inst.num_edges == 4 and inst.rounds == 2
    assert all(e.p == 0.7 for e in inst.edges)
    assert inst.weights == (1.0, 1.0)


def test_complete_bipartite():
    inst = gen_complete_bipartite(3, 0.25)
    assert inst.num_edges == 9 and inst.rounds == 1
    assert isinstance(inst.structure, ManyToOne)
    assert inst.structure.left == frozenset({0, 1, 2})


def test_generators_check_rounds_before_building(monkeypatch):
    # a horizon past ROUNDS_LIMIT fails before any vertex or edge exists,
    # so a huge n costs no memory
    def unbuilt(*args):
        raise AssertionError("built before the rounds check")

    monkeypatch.setattr(generators, "Vertex", unbuilt)
    monkeypatch.setattr(generators, "Edge", unbuilt)
    with pytest.raises(LimitExceededError):
        gen_double_star(10**8, 0.1)  # T = n^2
    with pytest.raises(LimitExceededError):
        gen_complete_bipartite(10**4, 0.5, ROUNDS_LIMIT + 1)


def test_edge_count_is_checked_before_building(monkeypatch):
    # n^2 edges past EDGES_LIMIT fail before any vertex or edge exists,
    # from the generator, from instance JSON and through the CLI (exit 3)
    def unbuilt(*args):
        raise AssertionError("built before the edge check")

    for module in (generators, model):
        monkeypatch.setattr(module, "Vertex", unbuilt)
        monkeypatch.setattr(module, "Edge", unbuilt)
    side = math.isqrt(EDGES_LIMIT)
    with pytest.raises(LimitExceededError):
        gen_complete_bipartite(side + 1, 0.5)
    data = {"vertices": [{"id": 0}], "edges": [{}] * (EDGES_LIMIT + 1), "rounds": 1}
    with pytest.raises(LimitExceededError):
        Instance.from_json(data)
    assert run_cli(["gen", "--family", "complete-bipartite", "--n", "100000"]) == (3, "")


def test_random_profiles_respect_contracts():
    for name, prof in PROFILES.items():
        for i in range(40):
            inst = gen_random(name, sub_seed(12, i))
            assert inst.num_vertices <= prof.vertices[1]
            assert inst.num_edges <= prof.edges[1]
            assert inst.rounds <= prof.rounds[1]
            if name == "unit-small":
                assert inst.unit_capacities() and inst.num_edges <= 8
            if name == "cap-small":
                assert max(v.capacity for v in inst.vertices) <= 3
            if name == "mto-small":
                assert isinstance(inst.structure, ManyToOne)
            if name == "hyper3-small":
                assert isinstance(inst.structure, Hypergraph)
                assert all(len(e.endpoints) <= 3 for e in inst.edges)
    assert gen_random("unit-small", 7) == gen_random("unit-small", 7)
    assert gen_random("unit-small", 7) != gen_random("unit-small", 8)


def test_monte_carlo_certain_edge():
    inst = make_instance([(0, 1, 1.0)], rounds=2)
    stats = monte_carlo(inst, PolicyId.SM, trials=50, seed=0)
    assert stats.mean == 2.0 and stats.stderr == 0.0
    assert stats.per_round_mean == [1.0, 1.0]


def test_monte_carlo_binomial_stderr():
    inst = make_instance([(0, 1, 0.5)], rounds=1)
    stats = monte_carlo(inst, PolicyId.SM, trials=100000, seed=5)
    assert abs(stats.mean - 0.5) < 0.006


def test_monte_carlo_thread_count_invariance():
    inst = gen_double_star(3, 0.1)
    a = monte_carlo(inst, PolicyId.ALTERNATING_SCAN, 3000, seed=17, threads=1)
    b = monte_carlo(inst, PolicyId.ALTERNATING_SCAN, 3000, seed=17, threads=4)
    assert a.dumps() == b.dumps()


def test_monte_carlo_offline_policy():
    inst = gen_complete_bipartite(4, 0.5)
    stats = monte_carlo(inst, PolicyId.OFFLINE_MAX, 2000, seed=1)
    assert 0.0 < stats.mean <= 4.0


def test_streamed_monte_carlo_matches_list_reduction():
    # every policy (offline_max reports a single per-round entry), on unit
    # and on non-unit round weights
    ds3 = gen_double_star(3, 0.1)
    weighted = Instance(ds3.vertices, ds3.edges, ds3.rounds,
                        [0.3 + 0.1 * r for r in range(ds3.rounds)], ds3.structure)
    for inst in (ds3, weighted):
        for policy in PolicyId:
            streamed = monte_carlo(inst, policy, 400, seed=23)
            assert streamed == monte_carlo_list_reduce(inst, policy, 400, seed=23), policy
    offline = monte_carlo(weighted, PolicyId.OFFLINE_MAX, 400, seed=23)
    assert len(offline.per_round_mean) == 1


def test_monte_carlo_sums_stay_finite_at_huge_weights():
    sep = gen_separation()

    def weighted(w):
        return Instance(sep.vertices, sep.edges, sep.rounds, [w] * sep.rounds, sep.structure)
    stats = monte_carlo(weighted(1e306), PolicyId.SM, 1000, seed=0)
    assert math.isfinite(stats.mean) and math.isfinite(stats.stderr) and stats.stderr > 0
    # scaling by a power of two is exact: weights 2^1017 give the unit-weight
    # mean and stderr times 2^1017, bit for bit
    unit = monte_carlo(sep, PolicyId.SM, 1000, seed=0)
    huge = monte_carlo(weighted(2.0 ** 1017), PolicyId.SM, 1000, seed=0)
    assert (huge.mean, huge.stderr) == (math.ldexp(unit.mean, 1017),
                                        math.ldexp(unit.stderr, 1017))
    assert huge.per_round_mean == unit.per_round_mean


def test_monte_carlo_constant_reward_has_zero_stderr():
    # one certain edge: every trial earns the same non-dyadic reward, so the
    # exact variance is 0 (float sums of squares cancelled to ~1e-8 here)
    for w in (3.3, 0.1, 0.7):
        for rounds in (1, 3, 7):
            inst = Instance([model.Vertex(0), model.Vertex(1)], [model.Edge(0, (0, 1), 1.0)],
                            rounds, [w] * rounds)
            for trials in (3, 10, 1000):
                stats = monte_carlo(inst, PolicyId.SM, trials, seed=5)
                assert stats.stderr == 0.0, (w, rounds, trials)
                assert stats.per_round_stderr == [0.0] * rounds
                assert stats == monte_carlo_list_reduce(inst, PolicyId.SM, trials, seed=5)


def test_dyadic_is_exact():
    values = [3.3, 0.1, 1e306, 5e-324, 0.0, 2.0 ** -60, 7.0]
    ints, K = model.dyadic(values)
    assert [Fraction(n, 2 ** K) for n in ints] == [Fraction(v) for v in values]
    assert model.dyadic([]) == ([], 0)
    assert model.dyadic([1.0, 2.0]) == ([1, 2], 0)


def test_monte_carlo_rejects_zero_trials():
    with pytest.raises(ValidationError):
        monte_carlo(gen_separation(), PolicyId.SM, 0, 0)
    code, out = run_cli(["simulate", "--family", "separation", "--policy", "sm",
                         "--trials", "0"])
    assert (code, out) == (1, "")


def test_monte_carlo_rejects_threads_below_one():
    inst = gen_separation()
    for threads in (0, -3):
        with pytest.raises(ValidationError):
            monte_carlo(inst, PolicyId.SM, 10, seed=3, threads=threads)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_cli_gen_simulate_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    code, _ = run_cli(["gen", "--family", "double-star", "--n", "3", "--eps", "0.1",
                       "-o", str(path)])
    assert code == 0
    loaded = Instance.from_json(json.loads(path.read_text()))
    assert loaded == gen_double_star(3, 0.1)
    code, out = run_cli(["simulate", "--instance", str(path), "--policy", "sm",
                         "--trials", "200", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == 9.0  # hub edge succeeds every round, T = 9
    assert payload["trials"] == 200


def test_cli_simulate_csv():
    code, out = run_cli(["simulate", "--family", "separation", "--policy",
                         "greedy-commit", "--trials", "100", "--seed", "1",
                         "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "round,mean_successes,stderr"
    assert len(lines) == 3


def test_cli_lp():
    code, out = run_cli(["lp", "--t", "5", "--variant", "sm"])
    assert code == 0
    row = json.loads(out)
    assert row["feasible"] is True
    assert row["primal_opt"] == pytest.approx(row["dual_u"], abs=1e-6)
    assert row["factor"] == pytest.approx(1 / row["dual_u"], abs=1e-12)
    # the proven optimum and the closed-form u round to the same float
    for t in (10, 11, 12):
        code, out = run_cli(["lp", "--t", str(t), "--solve", "--check-dual"])
        row = json.loads(out)
        assert (code, row["primal_opt"]) == (0, row["dual_u"]), t


def test_cli_lp_solve_refuses_large_horizon_before_building(monkeypatch, capsys):
    def unbuilt(t, variant="sm"):
        raise AssertionError("the primal was built past the solve limit")

    monkeypatch.setattr(cli.factorlp, "build_primal", unbuilt)
    code, out = run_cli(["lp", "--t", "200", "--solve"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith("resource limit:")


def test_cli_opt():
    code, out = run_cli(["opt", "--family", "separation"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(3.094, abs=1e-9)
    code, out = run_cli(["opt", "--family", "separation", "--commit"])
    assert json.loads(out)["value"] == pytest.approx(2.926, abs=1e-9)


def test_cli_verify_exact():
    code, out = run_cli(["verify", "--family", "separation"])
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["verdict"] for r in reports)
    lemmas = {r["lemma"] for r in reports}
    assert "charging" in lemmas and "domination_sm_refined" in lemmas


def test_cli_verify_profile_batch():
    code, out = run_cli(["verify", "--family", "random", "--profile", "hyper3-small",
                         "--count", "3", "--gen-seed", "5"])
    assert code == 0
    assert all(json.loads(line)["verdict"] for line in out.strip().splitlines())


def test_cli_verify_streams_reports(monkeypatch):
    # instances are drawn one at a time: a failure drawing the second one
    # leaves the first one's reports on stdout
    _, first = run_cli(["verify", "--profile", "unit-small", "--count", "1"])
    draw = generators.gen_random
    seeds = []

    def second_fails(profile, seed):
        seeds.append(seed)
        if len(seeds) == 2:
            raise LimitExceededError("second instance")
        return draw(profile, seed)

    monkeypatch.setattr(cli.generators, "gen_random", second_fails)
    code, out = run_cli(["verify", "--profile", "unit-small", "--count", "300000000"])
    assert (code, out) == (3, first) and first and len(seeds) == 2


def test_cli_verify_hypergraph_with_capacity_above_one(tmp_path):
    # hypergraph selections are vertex-disjoint, so a declared capacity of 2
    # must give the verdicts of the same instance at capacity 1
    verdicts = []
    for cap in (2, 1):
        inst = make_instance([(0, 1, 0.5), (0, 2, 0.6), (0, 1, 2, 0.4)], rounds=2,
                             caps={0: cap}, structure=Hypergraph(3))
        path = tmp_path / f"hyper{cap}.json"
        path.write_text(inst.dumps())
        code, out = run_cli(["verify", "--instance", str(path)])
        assert code in (0, 2)
        verdicts.append([(r["lemma"], r["verdict"])
                         for r in map(json.loads, out.strip().splitlines())])
    assert verdicts[0] == verdicts[1]
    assert [lemma for lemma, _ in verdicts[0]] == ["charging_hypergraph",
                                                   "domination_hypergraph"]


def test_monte_carlo_imports_no_scipy():
    # every policy, including the assignment path of greedy-commit on K_{5,5}
    # (more than 20 edges) and the offline benchmark on K_{10,10}, then the
    # LP and verify subcommands: neither numpy nor scipy is loaded
    script = """
import sys
from rematch.generators import gen_complete_bipartite, gen_double_star, gen_separation
from rematch.montecarlo import monte_carlo
from rematch.policies import PolicyId as P
runs = [(gen_double_star(3, 0.1), P.SM), (gen_double_star(3, 0.1), P.ALTERNATING_SCAN),
        (gen_complete_bipartite(5, 0.3, rounds=4), P.GREEDY_COMMIT),
        (gen_complete_bipartite(10, 0.1), P.OFFLINE_MAX),
        (gen_separation(), P.OPT), (gen_separation(), P.OPT_COMMIT),
        (gen_separation(), P.OPT_FOLLOWER)]
for inst, policy in runs:
    monte_carlo(inst, policy, 20, seed=3)
assert {run[1] for run in runs} == set(P)
# the certified LP optimum and an exact lemma check
import io
from contextlib import redirect_stdout
from rematch import cli
with redirect_stdout(io.StringIO()):
    assert cli.main(["lp", "--t", "6", "--solve", "--check-dual"]) == 0
    assert cli.main(["verify", "--family", "separation"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] in ("numpy", "scipy")))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_exit_codes(monkeypatch, tmp_path, capsys):
    code, _ = run_cli(["bogus"])
    assert code == 1
    code, _ = run_cli(["gen"])  # neither --instance nor --family
    assert code == 1
    # unreadable or malformed instances, unwritable output, options that
    # do not apply
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    bad_id = tmp_path / "bad_id.json"
    bad_id.write_text('{"vertices": [{"id": "x"}], "edges": [], "rounds": 1}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)  # past the parser's recursion limit
    capsys.readouterr()
    for argv in (["opt", "--instance", str(bad)],
                 ["opt", "--instance", str(tmp_path / "missing.json")],
                 ["opt", "--instance", str(bad_id)],
                 ["opt", "--instance", str(deep)],
                 ["verify", "--instance", str(deep)],
                 ["gen", "--family", "separation", "-o", str(tmp_path / "no" / "x.json")],
                 ["verify", "--family", "separation", "--t", "0", "--lemma", "charging"],
                 # the limit overrides and the Monte Carlo verification options are gone
                 ["opt", "--family", "separation", "--dp-limit", "12"],
                 ["verify", "--family", "separation", "--enum-limit", "16"],
                 ["verify", "--family", "separation", "--mode", "exact"],
                 ["verify", "--family", "separation", "--trials", "150"],
                 ["verify", "--family", "separation", "--seed", "5"],
                 ["verify", "--profile", "unit-small", "--count", "0"],
                 ["verify", "--profile", "unit-small", "--count", "-1"],
                 # domination variants that do not apply to the instance
                 ["verify", "--profile", "cap-small", "--lemma", "domination-sm"],
                 ["verify", "--profile", "hyper3-small", "--lemma", "domination-gc-refined"],
                 ["verify", "--profile", "hyper3-small", "--lemma", "domination-capacitated"],
                 ["verify", "--family", "separation", "--lemma", "domination-hypergraph"]):
        code, out = run_cli(argv)
        assert (code, out) == (1, ""), argv
        assert capsys.readouterr().err.startswith("usage error:"), argv
    # t = 1 is in the domain of the solve and the dual alike, in both variants
    for argv in (["lp", "--t", "1"], ["lp", "--t", "1", "--variant", "gc"]):
        code, out = run_cli(argv)
        assert code == 0 and json.loads(out)["feasible"] is True, argv
    # resource limit: dual certificates whose u(t) overflows a float
    for argv in (["lp", "--t", "200", "--check-dual"],
                 ["lp", "--t", "144", "--variant", "gc", "--check-dual"]):
        code, out = run_cli(argv)
        assert (code, out) == (3, ""), argv
        assert capsys.readouterr().err.startswith("resource limit:"), argv
    # resource limit: exact verification on a 25-edge instance
    path = tmp_path / "k55.json"
    run_cli(["gen", "--family", "complete-bipartite", "--n", "5", "--p", "0.1",
             "-o", str(path)])
    code, _ = run_cli(["verify", "--instance", str(path)])
    assert code == 3
    # resource limit: K_3,3 at T = 900 passes the rounds limit, not the
    # DP's total states (900 * 3^9)
    capsys.readouterr()
    code, out = run_cli(["opt", "--family", "complete-bipartite", "--n", "3",
                         "--p", "0.5", "--rounds", "900"])
    assert (code, out) == (3, "")
    assert "states" in capsys.readouterr().err
    # verification failure: force a failing report
    from rematch.coupling import LemmaReport

    def failing(inst, t):
        return LemmaReport("charging", "exact", [{"t": t}], [1.0], [0.0], False)

    monkeypatch.setattr(cli.coupling, "verify_charging", failing)
    code, _ = run_cli(["verify", "--family", "separation", "--lemma", "charging"])
    assert code == 2
    # verification failure: an LP optimum that cannot be certified
    def uncertified(*args):
        raise SolverError("closed-form primal point is infeasible")

    monkeypatch.setattr(cli.factorlp, "solve_lp", uncertified)
    capsys.readouterr()
    code, out = run_cli(["lp", "--t", "6", "--solve"])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("verification failure:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_cli_verify_refuses_ds9_before_solving_a_dp(monkeypatch):
    # ds9 (17 edges) passes the DP's admission; the exact pass checks the
    # sample enumeration limit before it solves either DP
    solved = []
    monkeypatch.setattr(kernels, "dp_solve", lambda *args: solved.append(1))
    code, out = run_cli(["verify", "--family", "double-star", "--n", "9"])
    assert (code, out, solved) == (3, "", [])


_FUZZ_BASES = tuple(inst.dumps() for inst in (
    gen_separation(), gen_double_star(3, 0.1), gen_random("unit-small", 3),
    gen_random("cap-small", 4), gen_random("mto-small", 1), gen_random("hyper3-small", 2)))
_FUZZ_VALUES = (None, True, "x", [], {}, -1, 0, 1, 2.5, -0.5, 1e308, math.nan, math.inf,
                -math.inf, ROUNDS_LIMIT + 1, 10**30)
_NEST = "__nest__"


@st.composite
def _mutated_instances(draw):
    """Instance JSON text: a valid instance with one to three keys dropped,
    values swapped for wrong types or out-of-range numbers, subtrees nested
    up to 10^5 deep, or the rounds pushed past the limits."""
    data = json.loads(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        node = data
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            child = node[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
                break
            node = child
        action = draw(st.sampled_from(("drop", "replace", "nest", "rounds")))
        if action == "drop":
            del node[key]
        elif action == "replace":
            node[key] = draw(st.sampled_from(_FUZZ_VALUES))
        elif action == "nest":
            node[key] = _NEST
        else:
            data["rounds"] = draw(st.sampled_from((0, 901, ROUNDS_LIMIT + 1, 10**30)))
            if draw(st.booleans()):
                data.pop("weights", None)
    depth = draw(st.sampled_from((2, 100, 5_000, 100_000)))
    return json.dumps(data).replace(json.dumps(_NEST), "[" * depth + "]" * depth)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_mutated_instances())
@example(text="[" * 100_000 + "]" * 100_000)
@example(text='{"vertices": ' * 100_000 + "[]" + "}" * 100_000)
def test_cli_exit_codes_hold_for_fuzzed_instances(tmp_path, text):
    path = tmp_path / "fuzzed.json"
    path.write_text(text)
    for command in ("opt", "verify"):
        code, _ = run_cli([command, "--instance", str(path)])
        assert code in (0, 1, 2, 3), (command, text[:200])


# argv values no parser or generator should trip on: non-finite, zero,
# negative, fractional where an int is due, and past every limit
_ODD_NUMBERS = ("nan", "inf", "-inf", "0", "-0.0", "-1", "-7.5", "1.5", "1e308", "1001",
                str(ROUNDS_LIMIT + 1), str(10**30), "x")


def _number(regular):
    return st.one_of(st.none(), regular.map(str), st.sampled_from(_ODD_NUMBERS))


def _flags(draw, **choices) -> list[str]:
    """One "--flag=value" per drawn value; the "=" lets values such as -inf through."""
    argv = []
    for flag, strategy in choices.items():
        value = draw(strategy)
        if value is not None:
            argv.append(f"--{flag.replace('_', '-')}={value}")
    return argv


def _check_exit_contract(capsys, argv):
    capsys.readouterr()
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if code in (1, 3):  # a refused input prints one stderr line and no result
        assert out == "" and len(err.splitlines()) == 1, argv


@st.composite
def _lp_argv(draw):
    argv = ["lp", "--t", str(draw(st.integers(-5, 10**7))),
            "--variant", draw(st.sampled_from(("sm", "gc")))]
    return argv + draw(st.sampled_from(([], ["--solve"], ["--check-dual"],
                                        ["--solve", "--check-dual"])))


@st.composite
def _gen_argv(draw):
    # the sizes that pass the limits stay small (n <= 12, T <= 5), so each
    # example runs in milliseconds; the rest must exit before building
    family = draw(st.sampled_from(("double-star", "separation", "complete-bipartite",
                                   "random")))
    return ["gen", "--family", family] + _flags(
        draw, n=_number(st.integers(-3, 12)), p=_number(st.floats(-2.0, 2.0)),
        eps=_number(st.floats(-1.0, 1.0)), rounds=_number(st.integers(-3, 5)),
        profile=st.one_of(st.none(), st.sampled_from(sorted(PROFILES))),
        gen_seed=_number(st.integers(-(2**70), 2**70)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of(_lp_argv(), _gen_argv()))
@example(argv=["lp", "--t", "143", "--check-dual"])  # the largest float dual
@example(argv=["lp", "--t", "144", "--variant", "gc", "--check-dual"])
@example(argv=["gen", "--family", "complete-bipartite", "--n", "2", "--p", "nan"])
@example(argv=["gen", "--family", "double-star", "--n", "1001"])
def test_cli_exit_codes_hold_for_fuzzed_lp_and_gen_argv(capsys, argv):
    _check_exit_contract(capsys, argv)


@st.composite
def _instance_argv(draw):
    # --n and --trials are always drawn small (n <= 4, K_3,3 at most, 20
    # trials; their defaults are 6 and 10,000), so each example runs in
    # well under 0.1 s
    command = draw(st.sampled_from(("simulate", "verify", "opt")))
    family = draw(st.sampled_from(("double-star", "separation", "complete-bipartite",
                                   "random")))
    small = st.sampled_from(("-1", "0", "1", "2"))
    probability = _number(st.floats(0.0, 1.0))
    sizes = range(-1, 4 if family == "complete-bipartite" else 5)
    choices = {"n": st.sampled_from([str(n) for n in sizes] + ["x"]),
               "eps": probability, "p": probability,
               "profile": st.one_of(st.none(), st.sampled_from(sorted(PROFILES))),
               "gen_seed": st.one_of(st.none(), st.integers(0, 50).map(str))}
    if command == "simulate":
        choices.update(policy=st.sampled_from([pid.value.replace("_", "-") for pid in PolicyId]),
                       trials=st.one_of(small, st.integers(3, 20).map(str)),
                       seed=st.one_of(st.none(), st.integers(0, 9).map(str)))
    elif command == "verify":
        choices.update(count=st.one_of(st.none(), small), t=st.one_of(st.none(), small),
                       lemma=st.one_of(st.none(), st.sampled_from(cli._LEMMA_CHOICES + ("all",))))
    argv = [command, "--family", family] + _flags(draw, **choices)
    if command == "opt":
        argv += draw(st.sampled_from(([], ["--commit"], ["--exhaustive"],
                                      ["--commit", "--exhaustive"])))
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_instance_argv())
@example(argv=["simulate", "--family", "double-star", "--n=4", "--eps=nan",
               "--policy=opt", "--trials=20"])
@example(argv=["verify", "--family", "random", "--profile=hyper3-small", "--count=2",
               "--lemma=domination-hypergraph", "--t=0"])
@example(argv=["opt", "--family", "complete-bipartite", "--n=3", "--p=-inf",
               "--commit", "--exhaustive"])
def test_cli_exit_codes_hold_for_fuzzed_simulate_verify_and_opt_argv(capsys, argv):
    _check_exit_contract(capsys, argv)


def test_cli_refuses_an_instance_file_over_the_byte_limit(tmp_path, monkeypatch, capsys):
    path = tmp_path / "huge.json"
    with open(path, "wb") as fh:
        fh.truncate(INSTANCE_BYTES_LIMIT + 1)  # sparse: nothing is written
    parsed = []
    monkeypatch.setattr(json, "load", lambda *args, **kw: parsed.append(1))
    for command in (["simulate", "--policy", "sm", "--trials", "1"], ["opt"], ["verify"]):
        code, out = run_cli([*command, "--instance", str(path)])
        assert (code, out) == (3, ""), command
        assert capsys.readouterr().err.startswith("resource limit:"), command
    assert parsed == []


def test_cli_refuses_edge_records_past_the_limit_while_parsing(tmp_path, monkeypatch):
    # the fourth edge record exits 3 before the parser reaches the broken
    # tail: the parse holds no more edge records than the limit admits
    monkeypatch.setattr(model, "EDGES_LIMIT", 3)

    def records(n):
        return ", ".join(f'{{"id": {i}, "endpoints": [0, 1], "p": 0.5}}' for i in range(n))
    path = tmp_path / "dense.json"
    path.write_text('{"edges": [' + records(4) + ', {"id": 4, "endpoints": [')
    assert run_cli(["simulate", "--policy", "sm", "--trials", "1",
                    "--instance", str(path)]) == (3, "")
    path.write_text('{"vertices": [{"id": 0}, {"id": 1}], "edges": [' + records(3)
                    + '], "rounds": 1}')
    assert run_cli(["opt", "--instance", str(path)])[0] == 0


def test_cli_refuses_other_records_past_the_limit_while_parsing(tmp_path, monkeypatch):
    # every object without "endpoints" counts against 2 * EDGES_LIMIT + 1, the
    # vertex records of the largest legal matching and the top level: the
    # eighth vertex record exits 3 before the parser reaches the broken tail
    monkeypatch.setattr(model, "EDGES_LIMIT", 3)

    def vertices(n):
        return ", ".join(f'{{"id": {i}}}' for i in range(n))
    path = tmp_path / "vertices.json"
    path.write_text('{"vertices": [' + vertices(8) + ', {"id": ')
    for command in (["simulate", "--policy", "sm", "--trials", "1"], ["opt"], ["verify"]):
        assert run_cli([*command, "--instance", str(path)]) == (3, ""), command
    # six vertices and three edges: seven other objects with the top level
    path.write_text('{"vertices": [' + vertices(6) + '], "edges": ['
                    + ", ".join(f'{{"id": {i}, "endpoints": [{2 * i}, {2 * i + 1}], "p": 0.5}}'
                                for i in range(3)) + '], "rounds": 1}')
    code, out = run_cli(["opt", "--instance", str(path)])
    assert (code, json.loads(out)["value"]) == (0, 1.5)


def test_cli_reproduce_single_bundle():
    code, out = run_cli(["reproduce", "--bundle", "kernel-properties"])
    assert code == 0
    row = json.loads(out)
    assert row["ok"] is True and row["criterion"] == 8


def test_cli_verify_exact_on_200_unit_instances_exits_zero():
    code, out = run_cli(["verify", "--family", "random", "--profile", "unit-small",
                         "--count", "200", "--gen-seed", "101"])
    assert code == 0
    assert all(json.loads(line)["verdict"] for line in out.strip().splitlines())
