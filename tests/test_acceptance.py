"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria with stated runtime budgets assert them; the expensive suite
data from criteria 2 and 3 is shared with criteria 4 and 5 through
module-scoped fixtures.  Run with ``pytest tests/test_acceptance.py -v -s``
or ``rematch reproduce --bundle all``.
"""

import time

import pytest

from rematch import suites


def _report(result, seconds=None):
    extra = f" [{seconds:.1f}s]" if seconds is not None else ""
    print(f"\n{result.line()}{extra}: {result.details}")
    assert result.ok, result.details


@pytest.fixture(scope="module")
def unit_suite():
    t0 = time.perf_counter()
    result = suites.criterion_2_unit_lemmas()
    result.details["seconds"] = round(time.perf_counter() - t0, 2)
    return result


@pytest.fixture(scope="module")
def generalized_suite():
    return suites.criterion_3_generalized()


def test_criterion_1_lp_certificates():
    t0 = time.perf_counter()
    result = suites.criterion_1_lp_certificates()
    elapsed = time.perf_counter() - t0
    print(f"\n{result.line()} [{elapsed:.1f}s]: "
          f"tails={result.details['tails']}")
    assert result.ok
    assert elapsed < 30.0


def test_criterion_2_lemma_exactness(unit_suite):
    _report(unit_suite)
    assert unit_suite.details["seconds"] < 300.0


def test_criterion_3_generalized_suites(generalized_suite):
    _report(generalized_suite)


def test_criterion_4_ratio_bounds(unit_suite, generalized_suite):
    _report(suites.criterion_4_ratio_bounds(unit_suite.data, generalized_suite.data))


def test_criterion_5_separation_and_follower(unit_suite, generalized_suite):
    result = suites.criterion_5_separation(unit_suite.data, generalized_suite.data)
    _report(result)
    assert result.details["evaluation_violations"] == 0


def test_criterion_6_upper_bound_gap():
    t0 = time.perf_counter()
    result = suites.criterion_6_upper_bound()
    elapsed = time.perf_counter() - t0
    _report(result, elapsed)
    assert elapsed < 60.0


def test_criterion_7_offline_vs_online():
    _report(suites.criterion_7_offline())


def test_criterion_8_kernel_properties():
    _report(suites.criterion_8_kernels())


def test_criterion_9_determinism():
    _report(suites.criterion_9_determinism())
