"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each test calls its criterion directly and compares the stdout record
``reproduce`` would print for it with its line in
``tests/golden/reproduce-all.txt``, the stdout of ``rematch reproduce
--bundle all``.  Criteria with stated runtime budgets assert them.
Criteria 2 to 5 read the exact pass over the lemma suites from
``suites._suite_summaries``, which runs it once per suite and process;
the last test checks that memo.  Run with
``pytest tests/test_acceptance.py -v -s`` or ``rematch reproduce --bundle all``.
"""

import json
import time
from pathlib import Path

from rematch import cli, suites

GOLDEN = (Path(__file__).parent / "golden" / "reproduce-all.txt").read_text().splitlines()


def _line(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def _report(result, seconds=None):
    extra = f" [{seconds:.1f}s]" if seconds is not None else ""
    print(f"\n{result.line()}{extra}: {result.details}")
    assert result.ok, result.details
    assert _line(result) == GOLDEN[result.number - 1]


def _timed(criterion):
    t0 = time.perf_counter()
    result = criterion()
    return result, time.perf_counter() - t0


def test_golden_holds_the_nine_bundles_in_criterion_order():
    assert [json.loads(line)["key"] for line in GOLDEN] == list(suites.BUNDLES)


def test_criterion_1_lp_certificates():
    result, elapsed = _timed(suites.criterion_1_lp_certificates)
    _report(result, elapsed)
    assert elapsed < 30.0


def test_criterion_2_lemma_exactness():
    result, elapsed = _timed(suites.criterion_2_unit_lemmas)
    _report(result, elapsed)
    assert elapsed < 300.0


def test_criterion_3_generalized_suites():
    _report(suites.criterion_3_generalized())


def test_criterion_4_ratio_bounds():
    _report(suites.criterion_4_ratio_bounds())


def test_criterion_5_separation_and_follower():
    result = suites.criterion_5_separation()
    _report(result)
    assert result.details["evaluation_violations"] == 0


def test_criterion_6_upper_bound_gap():
    result, elapsed = _timed(suites.criterion_6_upper_bound)
    _report(result, elapsed)
    assert elapsed < 60.0


def test_criterion_7_offline_vs_online():
    _report(suites.criterion_7_offline())


def test_criterion_8_kernel_properties():
    _report(suites.criterion_8_kernels())


def test_criterion_9_determinism():
    _report(suites.criterion_9_determinism())


def test_criterion_9_reports_a_failing_inner_run(monkeypatch, capsys):
    # an inner reproduce that exits 2 is a failed check, not a usage error
    def failing():
        return suites.CriterionResult(7, "offline-vs-online", False, {})

    monkeypatch.setitem(suites.BUNDLES, "offline-vs-online", failing)
    assert cli.main(["reproduce", "--bundle", "determinism"]) == 2
    out, err = capsys.readouterr()
    row = json.loads(out.splitlines()[-1])
    assert (row["criterion"], row["ok"]) == (9, False)
    assert row["details"] == {"simulate_identical": True, "reproduce_identical": False}
    assert "usage error" not in err


def test_suite_summaries_run_the_exact_pass_once_per_suite():
    # criterion 5 reads all four suites first; 4, 3 and 2 then hit the memo
    suites._suite_summaries.cache_clear()
    results = [suites.criterion_5_separation(), suites.criterion_4_ratio_bounds(),
               suites.criterion_3_generalized(), suites.criterion_2_unit_lemmas()]
    assert suites._suite_summaries.cache_info().misses == 4
    for result in results:
        assert _line(result) == GOLDEN[result.number - 1]
