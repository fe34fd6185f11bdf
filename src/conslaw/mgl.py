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

from .bloch import _checked_sigmas, critical_triples
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


def mgl_dispersion_matrix(params: MglParameters, sigma_hat: float) -> MglDispersion:
    """Dispersion matrix of the linearization about the explicit roll."""
    w, s = params.omega, params.s
    rootA = np.sqrt((1.0 - 4.0 * w**2) / (27.0 - 2.0 * s**2))
    sh = float(sigma_hat)
    m = np.array(
        [
            [-4.0 * sh**2 - 2.0 * (1.0 - 4.0 * w**2), 8j * w * sh, -12.0 * s * rootA],
            [-8j * w * sh, -4.0 * sh**2, 0.0],
            [-6.0 * s * rootA * sh**2, 0.0, -(sh**2)],
        ],
        dtype=np.complex128,
    )
    vals = np.linalg.eigvals(m)
    vals = vals[np.argsort(vals.real)]
    return MglDispersion(sigma_hat=sh, matrix=m, eigenvalues=vals)


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

    Triples on both sides are sorted by real part before pairing, which for
    real spectra is the minimal-distance matching.
    """
    eps = roll.params.eps
    if not eps > 0.0:
        raise OutOfRange("comparison requires eps > 0", param="eps")
    mglp = MglParameters(roll.params.omega, roll.params.s)
    sigma_hats = [float(sh) for sh in sigma_hat_grid]
    sigmas = _checked_sigmas(eps * np.array(sigma_hats), "sigma_hat")
    # Complex on purpose: ``/ eps**2`` then takes numpy's complex division,
    # whose rounding differs from real division in the last digit, and the
    # golden compare output pins those digits.
    triples = critical_triples(roll, sigmas, delta=delta).astype(np.complex128)
    rows: list[ComparisonRow] = []
    for sh, vals in zip(sigma_hats, triples):
        exact = vals / eps**2
        mgl_vals = mgl_dispersion_matrix(mglp, sh).eigenvalues
        deviation = float(np.max(np.abs(exact - mgl_vals)))
        rows.append(
            ComparisonRow(
                sigma_hat=sh,
                lambda_exact=exact,
                lambda_mgl=mgl_vals,
                deviation=deviation,
            )
        )
    return rows

