"""Top-level acceptance gate: one test per criterion, full-size profile.

The suite runs once per session; every criterion prints its own pass/fail
line. A criterion that `EXPECTED_FAILURES` declares (criterion 6: its
energy-flatness and rounds-growth clauses are out of reach at desk scale)
is marked expected-fail
with its declared reason and the measured detail when it fails.
"""

import pytest

from sleepysim.acceptance import EXPECTED_FAILURES, run_acceptance

_LINES = []


@pytest.fixture(scope="module")
def suite():
    results = {}
    for r in run_acceptance(profile="full", emit=lambda line: (_LINES.append(line), print(line))):
        results[r.number] = r
    return results


def _check(suite, number):
    r = suite[number]
    if not r.passed and r.expected_failure:
        pytest.xfail(f"{EXPECTED_FAILURES[number]}; measured: {r.detail}")
    assert r.passed, r.line()


def test_criterion_01_exactness_congest(suite):
    _check(suite, 1)


def test_criterion_02_exactness_energy_cssp(suite):
    _check(suite, 2)


def test_criterion_03_exactness_energy_bfs(suite):
    _check(suite, 3)


def test_criterion_04_cutter_contract(suite):
    _check(suite, 4)


def test_criterion_05_congestion_trend(suite):
    _check(suite, 5)


def test_criterion_06_energy_trend(suite):
    _check(suite, 6)


def test_criterion_07_cover_invariants(suite):
    _check(suite, 7)


def test_criterion_08_recursion_accounting(suite):
    _check(suite, 8)


def test_criterion_09_sleep_safety(suite):
    _check(suite, 9)


def test_criterion_10_apsp(suite):
    _check(suite, 10)


def test_criterion_11_congest_compliance(suite):
    _check(suite, 11)


def test_criterion_12_determinism(suite):
    _check(suite, 12)
