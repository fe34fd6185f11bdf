"""Modified Ginzburg-Landau amplitude system and its dispersion relations.

The coupled amplitude/mean-mode system

    dA/dt = 4 A'' + A - ((27 - 2 s^2)/36) |A|^2 A - 2 s A B
    dB/dt = B'' + (s/2) (|A|^2)''

has the explicit roll ``A = 6 sqrt((1 - 4 w^2)/(27 - 2 s^2)) e^{i w x}``,
``B = 0``.  Its linearized 3x3 dispersion matrix is assembled directly and
compared against the exact Bloch computation under the scaling
``sigma = eps * sigma_hat``, ``lambda = eps^2 * lambda_hat``.

The small-sigma closed forms deliberately duplicate the reduced-dispersion
formulas instead of importing them: their agreement is a cross-module test.
The system's right-hand side is not needed here; ``tests/test_mgl.py`` keeps
it as the oracle that the explicit roll is stationary and that the matrix
is its linearization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import _checked_sigmas, critical_sweep
from .errors import OutOfRange
from .rolls import RollSolution, check_band, check_open_band, check_s

__all__ = [
    "MglParameters",
    "MglDispersion",
    "ComparisonRow",
    "mgl_roll_amplitude",
    "mgl_dispersion_matrix",
    "mgl_small_sigma",
    "compare_exact_vs_mgl",
]


@dataclass(frozen=True)
class MglParameters:
    """Band coordinate and quadratic coefficient of the amplitude system."""

    omega: float
    s: float

    def __post_init__(self) -> None:
        check_band(self.omega, "omega")
        check_s(self.s, "s")


@dataclass(frozen=True)
class MglDispersion:
    """3x3 linearized dispersion matrix at one scaled sideband number."""

    sigma_hat: float
    matrix: np.ndarray
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class ComparisonRow:
    """One scaled comparison point between exact and amplitude-system spectra."""

    sigma_hat: float
    lambda_exact: np.ndarray
    lambda_mgl: np.ndarray
    deviation: float


def mgl_roll_amplitude(omega: float, s: float) -> float:
    """Positive root of the reduced amplitude equation; 0 at ``|omega| = 1/2``."""
    check_band(omega, "omega")
    check_s(s, "s")
    return float(6.0 * np.sqrt((1.0 - 4.0 * omega**2) / (27.0 - 2.0 * s**2)))


def _dispersion_matrices(params: MglParameters, sigma_hats: list[float]) -> np.ndarray:
    """Dispersion matrices ``(n, 3, 3)`` of the linearization about the explicit roll."""
    w, s = params.omega, params.s
    rootA = np.sqrt((1.0 - 4.0 * w**2) / (27.0 - 2.0 * s**2))
    sh = np.array(sigma_hats, dtype=np.float64)
    # Squared as Python floats, by the C library's pow: NumPy's x * x differs
    # from it in the last bit for about one value in a thousand.
    sh2 = np.array([x**2 for x in sigma_hats], dtype=np.float64)
    m = np.zeros((sh.size, 3, 3), dtype=np.complex128)
    m[:, 0, 0] = -4.0 * sh2 - 2.0 * (1.0 - 4.0 * w**2)
    m[:, 0, 1] = 8j * w * sh
    m[:, 0, 2] = -12.0 * s * rootA
    m[:, 1, 0] = -8j * w * sh
    m[:, 1, 1] = -4.0 * sh2
    m[:, 2, 0] = -6.0 * s * rootA * sh2
    m[:, 2, 2] = -sh2
    return m


def _sorted_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of a stack, sorted by real part, from one stacked ``eigvals``."""
    vals = np.linalg.eigvals(m)
    return np.take_along_axis(vals, np.argsort(vals.real, axis=-1), axis=-1)


def mgl_dispersion_matrix(params: MglParameters, sigma_hat: float) -> MglDispersion:
    """Dispersion matrix of the linearization about the explicit roll; :class:`OutOfRange` unless ``sigma_hat`` is finite."""
    sh = float(sigma_hat)
    if not abs(sh) < np.inf:
        raise OutOfRange(f"sigma_hat must be finite, got {sh}", param="sigma_hat")
    m = _dispersion_matrices(params, [sh])
    return MglDispersion(sigma_hat=sh, matrix=m[0], eigenvalues=_sorted_eigenvalues(m)[0])


def mgl_small_sigma(params: MglParameters) -> tuple[float, float, float]:
    """Small-sideband coefficients of the three dispersion curves.

    Same closed forms as the exact reduced expansion; kept as an independent
    implementation so the agreement is a genuine cross-check.
    """
    w, s = params.omega, params.s
    check_open_band(w, "omega")
    band = 1.0 - 4.0 * w**2
    u = 36.0 * s**2 / (27.0 - 2.0 * s**2)
    wt = 32.0 * w**2 / band
    curvature = -u - 4.0 * (1.0 + 4.0 * w**2) / band
    T = -5.0 + u + wt
    Pi = 4.0 - 4.0 * u - wt
    sq = np.sqrt(np.complex128(T**2 - 4.0 * Pi))
    return (float(curvature), complex((T - sq) / 2.0).real, complex((T + sq) / 2.0).real)


def compare_exact_vs_mgl(roll: RollSolution, sigma_hat_grid, delta: float = 1.0) -> list[ComparisonRow]:
    """Critical Bloch eigenvalues at ``sigma = eps sigma_hat`` scaled by
    ``1/eps^2`` against the amplitude-system eigenvalues at ``sigma_hat``.

    The exact triples are the ``values`` of ``bloch.critical_sweep``,
    ascending: lifted, Davidson-corrected and certified (``sigma_hat = 0``
    on the even and odd blocks of its matrix).  The amplitude-system
    eigenvalues are sorted by real part, from one stacked ``eigvals`` of the
    matrices of :func:`mgl_dispersion_matrix`.  Paired in that order, two
    real triples are at their least total distance (monotone rearrangement).
    """
    eps = roll.params.eps
    if not eps > 0.0:
        raise OutOfRange("comparison requires eps > 0", param="eps")
    mglp = MglParameters(roll.params.omega, roll.params.s)
    sigma_hats = [float(sh) for sh in sigma_hat_grid]
    sigmas = _checked_sigmas(eps * np.array(sigma_hats), "sigma_hat")
    exact = critical_sweep(roll, sigmas, delta).values / eps**2
    mgl_triples = _sorted_eigenvalues(_dispersion_matrices(mglp, sigma_hats))
    deviation = np.abs(exact - mgl_triples).max(axis=1)
    return [
        ComparisonRow(sigma_hat=sh, lambda_exact=e, lambda_mgl=m, deviation=float(d))
        for sh, e, m, d in zip(sigma_hats, exact, mgl_triples, deviation)
    ]

