import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rematch import cli
from rematch.errors import ValidationError
from rematch.generators import (PROFILES, double_star_layout, gen_complete_bipartite,
                                gen_double_star, gen_random, gen_separation)
from rematch.model import Hypergraph, Instance, ManyToOne
from rematch.montecarlo import monte_carlo
from rematch.policies import PolicyId
from rematch.rng import sub_seed
from conftest import make_instance


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


def test_cli_opt():
    code, out = run_cli(["opt", "--family", "separation"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(3.094, abs=1e-9)
    code, out = run_cli(["opt", "--family", "separation", "--commit"])
    assert json.loads(out)["value"] == pytest.approx(2.926, abs=1e-9)


def test_cli_verify_exact():
    code, out = run_cli(["verify", "--family", "separation", "--mode", "exact"])
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["verdict"] for r in reports)
    lemmas = {r["lemma"] for r in reports}
    assert "charging" in lemmas and "domination_sm_refined" in lemmas


def test_cli_verify_profile_batch():
    code, out = run_cli(["verify", "--family", "random", "--profile", "hyper3-small",
                         "--count", "3", "--gen-seed", "5", "--mode", "exact"])
    assert code == 0
    assert all(json.loads(line)["verdict"] for line in out.strip().splitlines())


@pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
def test_cli_verify_hypergraph_with_capacity_above_one(tmp_path, mode):
    # hypergraph selections are vertex-disjoint, so a declared capacity of 2
    # must give the verdicts of the same instance at capacity 1
    verdicts = []
    for cap in (2, 1):
        inst = make_instance([(0, 1, 0.5), (0, 2, 0.6), (0, 1, 2, 0.4)], rounds=2,
                             caps={0: cap}, structure=Hypergraph(3))
        path = tmp_path / f"hyper{cap}.json"
        path.write_text(inst.dumps())
        code, out = run_cli(["verify", "--instance", str(path), "--mode", mode,
                             "--trials", "300"])
        assert code in (0, 2)
        verdicts.append([(r["lemma"], r["verdict"])
                         for r in map(json.loads, out.strip().splitlines())])
    assert verdicts[0] == verdicts[1]
    assert [lemma for lemma, _ in verdicts[0]] == ["charging_hypergraph",
                                                   "domination_hypergraph"]


def test_monte_carlo_imports_no_scipy():
    # every policy, including the assignment path of greedy-commit on K_{5,5}
    # (more than 20 edges) and the offline benchmark on K_{10,10}
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
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
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
    # unreadable or malformed instances, unwritable output, LP horizons
    # outside the formula's domain
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    bad_id = tmp_path / "bad_id.json"
    bad_id.write_text('{"vertices": [{"id": "x"}], "edges": [], "rounds": 1}')
    capsys.readouterr()
    for argv in (["opt", "--instance", str(bad)],
                 ["opt", "--instance", str(tmp_path / "missing.json")],
                 ["opt", "--instance", str(bad_id)],
                 ["gen", "--family", "separation", "-o", str(tmp_path / "no" / "x.json")],
                 ["lp", "--t", "1", "--variant", "gc"],
                 ["lp", "--t", "1"],
                 ["verify", "--family", "separation", "--lemma", "domination-sm",
                  "--mode", "monte-carlo", "--trials", "0"],
                 ["verify", "--family", "separation", "--lemma", "charging",
                  "--mode", "monte-carlo", "--trials", "0"],
                 ["verify", "--profile", "unit-small", "--count", "0"],
                 ["verify", "--profile", "unit-small", "--count", "-1"],
                 # domination variants that do not apply to the instance
                 ["verify", "--profile", "cap-small", "--lemma", "domination-sm"],
                 ["verify", "--profile", "hyper3-small", "--lemma", "domination-gc-refined"],
                 ["verify", "--profile", "hyper3-small", "--lemma", "domination-capacitated"],
                 ["verify", "--family", "separation", "--lemma", "domination-hypergraph"],
                 ["verify", "--family", "separation", "--lemma", "domination-hypergraph",
                  "--mode", "monte-carlo", "--trials", "10"],
                 ["verify", "--profile", "hyper3-small", "--lemma", "domination-gc",
                  "--mode", "monte-carlo", "--trials", "10"]):
        code, out = run_cli(argv)
        assert (code, out) == (1, ""), argv
        assert capsys.readouterr().err.startswith("usage error:"), argv
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
    code, _ = run_cli(["verify", "--instance", str(path), "--mode", "exact"])
    assert code == 3
    # verification failure: force a failing report
    from rematch.coupling import LemmaReport

    def failing(inst, t, mode, trials=0, seed=0):
        return LemmaReport("charging", "exact", [{"t": t}], [1.0], [0.0], False)

    monkeypatch.setattr(cli.coupling, "verify_charging", failing)
    code, _ = run_cli(["verify", "--family", "separation", "--lemma", "charging",
                       "--mode", "exact"])
    assert code == 2


def test_cli_reproduce_single_bundle():
    code, out = run_cli(["reproduce", "--bundle", "kernel-properties"])
    assert code == 0
    row = json.loads(out)
    assert row["ok"] is True and row["criterion"] == 8


def test_cli_verify_exact_on_200_unit_instances_exits_zero():
    code, out = run_cli(["verify", "--family", "random", "--profile", "unit-small",
                         "--count", "200", "--gen-seed", "101", "--mode", "exact"])
    assert code == 0
    assert all(json.loads(line)["verdict"] for line in out.strip().splitlines())
