"""Desk-scale verification suite.

Each criterion is a callable returning a :class:`CriterionResult`; the CLI
``verify`` subcommand and the pytest acceptance module both consume them.
Tolerances are fixed here, not configurable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dispersion as dsp
from . import evolution as ev
from . import mgl
from .bloch import _stacks, critical_sweep
from .fourier import SpectralGrid, l2_norm
from .rolls import RollParameters, asymptotic_roll, solve_roll

__all__ = ["CriterionResult", "CRITERIA"]

#: Parameter sets exercising both signs of omega and a range of s.
PARAM_SETS = ((0.0, 0.0), (0.0, 0.5), (0.25, 1.0), (-0.3, 0.8))
EPS_SWEEP = (0.01, 0.02, 0.04, 0.08)

_GRID = SpectralGrid(16)


@dataclass(frozen=True)
class CriterionResult:
    passed: bool
    detail: str


def _result(checks: list[tuple[bool, str]]) -> CriterionResult:
    """Failed checks' messages, or the number of checks when all pass."""
    failed = [msg for ok, msg in checks if not ok]
    return CriterionResult(not failed, "; ".join(failed) or f"{len(checks)} checks passed")


@functools.lru_cache(maxsize=None)
def _roll(eps: float, omega: float, s: float):
    return solve_roll(RollParameters(eps, omega, s), _GRID)


def existence_order() -> CriterionResult:
    """Roll converges to the two-term expansion at third order in eps."""
    checks = []
    for w, s in PARAM_SETS:
        errs = []
        for e in EPS_SWEEP:
            p = RollParameters(e, w, s)
            errs.append(l2_norm(_roll(e, w, s).profile - asymptotic_roll(p, _GRID)))
        slope = float(np.polyfit(np.log(EPS_SWEEP), np.log(errs), 1)[0])
        checks.append(
            (slope >= 2.7, f"(w={w},s={s}) slope {slope:.2f} < 2.7")
        )
        checks.append(
            (errs[1] < 1e-4, f"(w={w},s={s}) err(0.02) = {errs[1]:.2e} >= 1e-4")
        )
    return _result(checks)


def co_periodic_triple() -> CriterionResult:
    """At sigma=0 the critical triple is {c(eps)+O(eps^3), 0, 0} over a gap of 3."""
    checks = []
    for w, s in PARAM_SETS:
        for e in EPS_SWEEP:
            sweep = critical_sweep(_roll(e, w, s), [0.0])
            cv = sweep.values[0]
            r = cv[0] + 2.0 * (1.0 - 4.0 * w * w) * e * e
            zmax = float(np.max(np.abs(cv[1:])))
            checks.append((abs(r) <= 5.0 * e**3, f"(w={w},s={s},eps={e}) |r|={abs(r):.2e} > 5eps^3"))
            checks.append((zmax < 1e-9, f"(w={w},s={s},eps={e}) zero modes at {zmax:.2e}"))
            checks.append((sweep.gaps[0] > 3.0, f"(w={w},s={s},eps={e}) gap violated"))
    return _result(checks)


def _quadratic_coefficient(sigmas: np.ndarray, y: np.ndarray, scale: float) -> float:
    # Even curves: fit 1, sigma^2, sigma^4 and read the quadratic term; the
    # quartic basis function absorbs the O(sigma^4) dispersion that would
    # otherwise bias the curvature at the window edge.
    t = (sigmas / scale) ** 2
    X = np.column_stack([np.ones(t.size), t, t * t])
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    return float(coef[1] / scale**2)


def small_sigma_curvatures() -> CriterionResult:
    """Fitted sigma^2 coefficients of the critical curves match closed forms."""
    e = 0.01
    tol = max(0.05, 3.0 * e)
    checks = []
    for w, s in PARAM_SETS:
        p = RollParameters(e, w, s)
        roll = _roll(e, w, s)
        sigmas = np.linspace(-0.1 * e, 0.1 * e, 9)
        trip = critical_sweep(roll, sigmas).values.T
        fits = [_quadratic_coefficient(sigmas, trip[j], 0.1 * e) for j in range(3)]
        curv, lam_minus, lam_plus = dsp.small_sigma_expansion(p)
        for got, want, tag in zip(fits, (curv, lam_minus, lam_plus), ("curv", "lam-", "lam+")):
            rel = abs(got - want) / abs(want)
            checks.append((rel <= tol, f"(w={w},s={s}) {tag} rel err {rel:.3f} > {tol}"))
    return _result(checks)


def mgl_convergence() -> CriterionResult:
    """Scaled exact-vs-amplitude-system deviation shrinks at first order in eps."""
    checks = []
    grid_hat = np.linspace(-1.0, 1.0, 11)
    for w, s in ((-0.3, 0.8), (0.25, 1.0)):
        devs = []
        for e in (0.02, 0.04, 0.08):
            rows = mgl.compare_exact_vs_mgl(_roll(e, w, s), grid_hat)
            devs.append(max(r.deviation for r in rows))
        slope = float(np.polyfit(np.log((0.02, 0.04, 0.08)), np.log(devs), 1)[0])
        checks.append(
            (0.8 <= slope <= 1.3, f"(w={w},s={s}) order {slope:.2f} outside [0.8, 1.3]")
        )
    return _result(checks)


def stability_band() -> CriterionResult:
    """Numerical classifier reproduces the closed-form band and its edges."""
    e = 0.02
    grid = SpectralGrid(12)

    cells = [
        RollParameters(e, w, s)
        for s in np.linspace(-1.5, 1.5, 30)
        for w in np.linspace(-0.45, 0.45, 30)
        if abs(dsp.sideband_product(w, s)) > 0.05
    ]
    # Each exactly mirrored pair (omega, +-s), 10 of the 15 pairs of s, is classified once.
    firsts, index = dsp._fold_mirrors(cells)
    verdicts = [dsp.classify_numerically(solve_roll(p, grid)).verdict for p in firsts]
    agree = sum(dsp.stability_predicate(p.omega, p.s) == verdicts[j] for p, j in zip(cells, index))
    frac = agree / len(cells)

    def flip(values: np.ndarray, roll_of) -> tuple[float, float] | None:
        verdicts = [dsp.classify_numerically(roll_of(v)).verdict for v in values]
        for i in range(len(verdicts) - 1):
            if verdicts[i] == dsp.Stability.STABLE and verdicts[i + 1] != dsp.Stability.STABLE:
                return float(values[i]), float(values[i + 1])
        return None

    s_star, w_star = 0.8429313, 0.2886751
    s_flip = flip(np.arange(0.80, 0.90, 0.01), lambda s: solve_roll(RollParameters(e, 0.0, s), grid))
    w_flip = flip(np.arange(0.25, 0.34, 0.01), lambda w: solve_roll(RollParameters(e, w, 0.0), grid))

    checks = [
        (frac >= 0.95, f"agreement {frac:.3f} < 0.95 ({agree}/{len(cells)})"),
        (
            s_flip is not None and s_star - 0.02 <= s_flip[0] and s_flip[1] <= s_star + 0.02,
            f"s* flip {s_flip} not within {s_star} +- 0.02",
        ),
        (
            w_flip is not None and w_star - 0.02 <= w_flip[0] and w_flip[1] <= w_star + 0.02,
            f"omega* flip {w_flip} not within {w_star} +- 0.02",
        ),
    ]
    return _result(checks)


def cubic_machinery() -> CriterionResult:
    """Cardano vs companion roots; closed-form cubic vs expanded determinant."""
    rng = np.random.default_rng(20260810)
    worst_roots = 0.0
    for _ in range(1000):
        a2, a1, a0 = rng.uniform(-10.0, 10.0, 3)
        ours = np.sort_complex(dsp.cardano_roots(a2, a1, a0))
        ref = np.sort_complex(dsp.companion_roots(a2, a1, a0))
        worst_roots = max(worst_roots, float(np.max(np.abs(ours - ref))))

    worst_det = 0.0
    for _ in range(100):
        e = rng.uniform(0.001, 0.1)
        sig = rng.uniform(-0.2, 0.2)
        w = rng.uniform(-0.49, 0.49)
        s = rng.uniform(-3.5, 3.5)  # 27 - 2 s^2 >= 2.5
        p = RollParameters(e, w, s)
        m = dsp.leading_reduced_matrix(p, sig)
        c2, c1, c0 = dsp.cubic_coefficients(p, sig)
        minors = sum(
            np.linalg.det(m[np.ix_([i for i in range(3) if i != j], [i for i in range(3) if i != j])])
            for j in range(3)
        )
        worst_det = max(
            worst_det,
            abs(c2 + np.trace(m).real),
            abs(c1 - minors.real),
            abs(c0 + np.linalg.det(m).real),
        )

    checks = [
        (worst_roots < 1e-10, f"cardano vs companion deviation {worst_roots:.2e} >= 1e-10"),
        (worst_det < 1e-12, f"cubic vs determinant deviation {worst_det:.2e} >= 1e-12"),
    ]
    return _result(checks)


def symmetry_properties() -> CriterionResult:
    """Spectral conjugation under sigma -> -sigma; entry parity of the reduced matrix.

    The conjugation check compares the full spectra of ``H`` assembled at
    ``sigma`` and at ``-sigma``, each from its own Bloch number and each
    solved densely (the Bloch sweeps solve ``-sigma`` as the mirror of
    ``sigma``, so would compare a spectrum with itself).  Their dense-solver
    rounding scales with the O(M^6) matrix norm; the minimal grid keeps that
    floor (2.3e-10, a few ulps of the largest eigenvalue, 3.8e5) below the
    1e-9 tolerance while over-resolving the small roll.
    """
    grid = SpectralGrid(8)
    roll = solve_roll(RollParameters(0.03, 0.25, 1.0), grid)
    sigmas = np.array([0.05, 0.17, 0.31, 0.47])
    w = np.linalg.eigvalsh(_stacks(roll, np.concatenate([sigmas, -sigmas]))[1])
    worst = float(np.max(np.abs(w[sigmas.size :] - w[: sigmas.size])))

    p = RollParameters(0.05, 0.3, 0.9)
    parity_ok = True
    for sig in (0.05, 0.2, 0.4):
        a = dsp.leading_reduced_matrix(p, sig)
        b = dsp.leading_reduced_matrix(p, -sig)
        even = [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]
        odd = [(0, 1), (1, 0)]
        parity_ok &= all(a[i, j] == b[i, j] for i, j in even)
        parity_ok &= all(a[i, j] == -b[i, j] for i, j in odd)
        parity_ok &= all(a[i, j].imag == 0.0 for i, j in even)
        parity_ok &= all(a[i, j].real == 0.0 for i, j in odd)

    checks = [
        (worst < 1e-9, f"conjugation mismatch {worst:.2e} >= 1e-9"),
        (bool(parity_ok), "reduced-matrix parity not exact"),
    ]
    return _result(checks)


#: (omega, s, sigma, n_periods, dt, t_final, tolerance); eps = 0.05 throughout.
#: One case on each side of both band boundaries.
_DYNAMIC_CASES = (
    (0.0, 0.7, 0.25, 4, 0.05, 200.0, 0.05),
    (0.0, 1.5, 1.0 / 24.0, 24, 0.2, None, 0.10),
    (0.2, 0.0, 0.25, 4, 0.05, 200.0, 0.05),
    (0.4, 0.0, 1.0 / 36.0, 36, 0.2, None, 0.10),
)
_DYNAMIC_EPS = 0.05


@functools.lru_cache(maxsize=1)
def _dynamic_runs():
    runs = []
    for w, s, sigma, periods, dt, t_final, tol in _DYNAMIC_CASES:
        roll = solve_roll(RollParameters(_DYNAMIC_EPS, w, s), SpectralGrid(12))
        cfg = ev.EvolutionConfig(
            n_periods=periods, dt=dt, seed_sigma=sigma, t_final=t_final
        )
        runs.append((w, s, tol, ev.evolve(roll, cfg)))
    return tuple(runs)


def dynamic_rates() -> CriterionResult:
    """Measured growth/decay rates match the seeded Bloch eigenvalue."""
    checks = []
    for w, s, tol, res in _dynamic_runs():
        rel = abs(res.measured_rate - res.expected_rate) / abs(res.expected_rate)
        checks.append(
            (
                rel <= tol,
                f"(w={w},s={s},sigma={res.seed_sigma:.4f}) rate {res.measured_rate:.3e} "
                f"vs {res.expected_rate:.3e}, rel {rel:.3f} > {tol}",
            )
        )
    return _result(checks)


def mass_conservation() -> CriterionResult:
    """The conserved mean never drifts during the dynamic runs."""
    checks = [
        (res.mass_drift < 1e-12, f"(w={w},s={s}) mass drift {res.mass_drift:.2e} >= 1e-12")
        for w, s, _, res in _dynamic_runs()
    ]
    return _result(checks)


CRITERIA: tuple[tuple[str, Callable[[], CriterionResult]], ...] = (
    ("1 existence order", existence_order),
    ("2 co-periodic triple", co_periodic_triple),
    ("3 small-sigma curvatures", small_sigma_curvatures),
    ("4 amplitude-system order", mgl_convergence),
    ("5 stability band", stability_band),
    ("6 cubic machinery", cubic_machinery),
    ("7 symmetry properties", symmetry_properties),
    ("8 dynamic rates", dynamic_rates),
    ("9 mass conservation", mass_conservation),
)
