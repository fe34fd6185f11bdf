"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Criteria and tolerances live in conslaw.acceptance; these tests only assert
and report.  The module takes about 15 s on a 2-core machine with one BLAS
thread, most of it in the dynamic-rate integrations (criterion 8, 10 to
12 s) and the stability-band map (criterion 5, about 3 s).
"""

import pytest

from conslaw import acceptance


def _check(fn, label):
    result = fn()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {label}: {result.detail}")
    assert result.passed, f"{label}: {result.detail}"


def test_criterion_1_existence_order():
    _check(acceptance.existence_order, "criterion 1 (existence order)")


def test_criterion_2_co_periodic_triple():
    _check(acceptance.co_periodic_triple, "criterion 2 (co-periodic spectrum)")


def test_criterion_3_small_sigma_curvatures():
    _check(acceptance.small_sigma_curvatures, "criterion 3 (small-sigma curvatures)")


def test_criterion_4_amplitude_system_order():
    _check(acceptance.mgl_convergence, "criterion 4 (amplitude-system convergence)")


@pytest.mark.slow
def test_criterion_5_stability_band():
    _check(acceptance.stability_band, "criterion 5 (stability band)")


def test_criterion_6_cubic_machinery():
    _check(acceptance.cubic_machinery, "criterion 6 (cubic machinery)")


def test_criterion_7_symmetry_properties():
    _check(acceptance.symmetry_properties, "criterion 7 (symmetry properties)")


@pytest.mark.slow
def test_criterion_8_dynamic_rates():
    _check(acceptance.dynamic_rates, "criterion 8 (dynamic confirmation)")


@pytest.mark.slow
def test_criterion_9_mass_conservation():
    _check(acceptance.mass_conservation, "criterion 9 (conservation)")
