"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Criteria and tolerances live in conslaw.acceptance; these tests only assert
and report.  The tests are made from ``acceptance.CRITERIA`` by one factory
and named after each label ("1 existence order" becomes
``test_criterion_1_existence_order``), so every criterion is tested and each
test keeps its own id.  The module takes about 15 s on a 2-core machine with
one BLAS thread, most of it in the dynamic-rate integrations (criterion 8,
10 to 12 s) and the stability-band map (criterion 5, about 3 s).
"""

from conslaw import acceptance


def _criterion_test(label, fn):
    def test():
        result = fn()
        print(f"{'PASS' if result.passed else 'FAIL'}  criterion {label}: {result.detail}")
        assert result.passed, f"criterion {label}: {result.detail}"

    return test


for _label, _fn in acceptance.CRITERIA:
    globals()["test_criterion_" + _label.replace(" ", "_").replace("-", "_")] = _criterion_test(_label, _fn)
