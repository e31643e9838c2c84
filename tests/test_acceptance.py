"""End-to-end acceptance checks.

Each test runs one criterion of `criteria.py` at its Tier-1 seed, prints its
PASS/FAIL line (bypassing capture so the verdicts always appear in the
terminal) and then asserts, so the suite result matches the printed lines.
These are the slow, statistical checks; the fast per-module oracles live in
the other test files.
"""

import sys

import pytest

import criteria

pytestmark = pytest.mark.slow


VERDICTS = []


def _verdict(ok, stats, line):
    # Recorded for the end-of-run summary (see conftest.py) because pytest's
    # capture also swallows direct writes to the terminal.
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_projected_eccentricity_table():
    _verdict(*criteria.criterion_1(0))


def test_criterion_2_pca_vs_rp_separation_tables():
    """PCA to 10 dims collapses every pair; RP to 10 dims keeps them apart
    (the gate is explained at `criterion_2`)."""
    _verdict(*criteria.criterion_2(0))


def test_criterion_3_em_comparison_across_dimension():
    _verdict(*criteria.criterion_3(0))


def test_criterion_4_eccentric_unrestricted_comparison():
    _verdict(*criteria.criterion_4(0))


def test_criterion_5_norm_concentration_bound():
    _verdict(*criteria.criterion_5(0))


def test_criterion_6_pca_collapse_arrangement():
    _verdict(*criteria.criterion_6(0))


def test_criterion_7_property_suites():
    _verdict(*criteria.criterion_7(7))


def test_criterion_8_classifier_accuracy_plateau():
    _verdict(*criteria.criterion_8(0))
