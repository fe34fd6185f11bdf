"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Criteria and tolerances live in conslaw.acceptance; these tests only assert
and report.  The tests are made from ``acceptance.CRITERIA`` by one factory
and named after each label ("1 existence order" becomes
``test_criterion_1_existence_order``), so every criterion is tested and each
test keeps its own id.  Most of the module's time goes to the dynamic-rate
integrations (criterion 8), then to the stability-band map (criterion 5).
"""

import numpy as np

from conslaw import acceptance
from conslaw import dispersion as dsp


def _criterion_test(label, fn):
    def test():
        result = fn()
        print(f"{'PASS' if result.passed else 'FAIL'}  criterion {label}: {result.detail}")
        assert result.passed, f"criterion {label}: {result.detail}"

    return test


for _label, _fn in acceptance.CRITERIA:
    globals()["test_criterion_" + _label.replace(" ", "_").replace("-", "_")] = _criterion_test(_label, _fn)


def test_stability_band_solves_each_exactly_mirrored_pair_once(monkeypatch):
    # Each roll is stood in for by its parameters, classified by the closed
    # form: only the count of solves is under test.  The map's cells come first,
    # each exactly mirrored pair (omega, +-s) solved at its first cell, then
    # the two flip scans.
    solved = []

    def spy(params, grid):
        solved.append(params)
        return params

    monkeypatch.setattr(acceptance, "solve_roll", spy)
    monkeypatch.setattr(dsp, "classify_numerically", lambda p: dsp.StabilityVerdict(dsp.stability_predicate(p.omega, p.s)))
    assert acceptance.stability_band().passed
    cells = [
        (float(w), float(s))
        for s in np.linspace(-1.5, 1.5, 30)
        for w in np.linspace(-0.45, 0.45, 30)
        if abs(dsp.sideband_product(w, s)) > 0.05
    ]
    pairs = list(dict.fromkeys((w, abs(s)) for w, s in cells))
    scans = np.arange(0.80, 0.90, 0.01).size + np.arange(0.25, 0.34, 0.01).size
    assert (len(cells), len(pairs)) == (892, 592) and len(solved) == len(pairs) + scans
    assert [(p.omega, abs(p.s)) for p in solved[: len(pairs)]] == pairs
