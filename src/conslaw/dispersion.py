"""Reduced 3x3 dispersion relations and closed-form stability predicates.

The leading reduced matrix, its characteristic cubic, the Cardano
factorization, the small-sigma eigenvalue expansions, and the sideband
product criterion all live here.  No computation needs the roots of the
cubic: the Cardano factorization and the companion-matrix roots are two
independent routes to them, kept so that acceptance criterion 6 can
cross-check one against the other.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .bloch import critical_triples
from .errors import InvariantViolation
from .rolls import RollParameters, RollSolution, check_open_band, check_s

__all__ = [
    "Stability",
    "StabilityVerdict",
    "growth_prefactor",
    "leading_reduced_matrix",
    "cubic_coefficients",
    "cardano_roots",
    "companion_roots",
    "p_symbols",
    "small_sigma_expansion",
    "sideband_product",
    "stability_predicate",
    "band_edge_omega",
    "classify_numerically",
]

#: |Pi| below this is classified as Boundary.
_BOUNDARY_BAND = 1e-9


class Stability(str, enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: Stability
    witness_sigma: float | None = None
    witness_lambda: float | None = None


def growth_prefactor(eps: float, omega: float) -> float:
    """Co-periodic eigenvalue coefficient ``c = -2 (1 - 4 omega^2) eps^2``."""
    return -2.0 * (1.0 - 4.0 * omega**2) * eps**2


def _band_ratio(omega: float, s: float) -> float:
    return (1.0 - 4.0 * omega**2) / (27.0 - 2.0 * s**2)


def leading_reduced_matrix(params: RollParameters, sigma: float) -> np.ndarray:
    """Lambda-independent leading 3x3 matrix of the reduced spectral problem.

    Its eigenvalues solve ``det(m - lambda I) = 0``.
    """
    eps, w, s = params.eps, params.omega, params.s
    c = growth_prefactor(eps, w)
    rootA = np.sqrt(_band_ratio(w, s))
    return np.array(
        [
            [-4.0 * sigma**2 + c, 8j * w * sigma * eps, -12.0 * s * rootA * eps],
            [-8j * w * sigma * eps, -4.0 * sigma**2, 0.0],
            [-6.0 * s * rootA * sigma**2 * eps, 0.0, -(sigma**2)],
        ],
        dtype=np.complex128,
    )


def p_symbols(params: RollParameters) -> tuple[float, float, float, float, float]:
    """Leading coefficients of the cubic in powers of sigma.

    Returns ``(P04, P12, P14, P20, P22)`` with ``a0 = P04 s^4 + 16 s^6``,
    ``a1 = P12 s^2 + P14 s^4`` and ``a2 = P20 + P22 s^2``.
    """
    eps, w, s = params.eps, params.omega, params.s
    c = growth_prefactor(eps, w)
    A = _band_ratio(w, s)
    P04 = -4.0 * c - 64.0 * w**2 * eps**2 - 288.0 * s**2 * A * eps**2
    P12 = -5.0 * c - 72.0 * s**2 * A * eps**2 - 64.0 * w**2 * eps**2
    P14 = 24.0
    P20 = -c
    P22 = 9.0
    return (float(P04), float(P12), float(P14), float(P20), float(P22))


def cubic_coefficients(params: RollParameters, sigma: float) -> tuple[float, float, float]:
    """Characteristic cubic ``lambda^3 + a2 lambda^2 + a1 lambda + a0`` of the
    leading reduced matrix (leading orders), as ``(a2, a1, a0)``.

    Built from :func:`p_symbols`; it coincides with the expanded determinant
    of :func:`leading_reduced_matrix` up to rounding.
    """
    P04, P12, P14, P20, P22 = p_symbols(params)
    s2 = sigma**2
    return (
        float(P20 + P22 * s2),
        float(P12 * s2 + P14 * s2**2),
        float(P04 * s2**2 + 16.0 * s2**3),
    )


def _real_cbrt(x: float) -> float:
    return float(np.copysign(np.abs(x) ** (1.0 / 3.0), x))


def cardano_roots(a2: float, a1: float, a0: float) -> np.ndarray:
    """Roots of a real monic cubic by the explicit depressed-cubic factorization.

    With ``mu = lambda + a2/3`` the cubic becomes ``mu^3 + 3Q mu - 2R = 0``,
    factored as ``(mu - B)(mu^2 + B mu + D + Q)`` where ``B`` and ``D`` are
    sums of cube roots of ``R +- sqrt(Q^3 + R^2)``; real cube roots when the
    discriminant combination is nonnegative, conjugate complex cube roots
    otherwise.
    """
    Q = (3.0 * a1 - a2**2) / 9.0
    R = (9.0 * a2 * a1 - 27.0 * a0 - 2.0 * a2**3) / 54.0
    disc = Q**3 + R**2
    if disc >= 0.0:
        sq = np.sqrt(disc)
        u = _real_cbrt(R + sq)
        v = _real_cbrt(R - sq)
        B = u + v
        D = u**2 + v**2
    else:
        p = (R + 1j * np.sqrt(-disc)) ** (1.0 / 3.0)
        B = float(2.0 * p.real)
        D = float(2.0 * (p**2).real)
    lam1 = -a2 / 3.0 + B
    inner = np.complex128(B**2 - 4.0 * (D + Q))
    sq2 = np.sqrt(inner)
    lam2 = (-2.0 * a2 / 3.0 - B + sq2) / 2.0
    lam3 = (-2.0 * a2 / 3.0 - B - sq2) / 2.0
    return np.array([lam1, lam2, lam3], dtype=np.complex128)


def companion_roots(a2: float, a1: float, a0: float) -> np.ndarray:
    """Companion-matrix roots of the same cubic (the oracle for :func:`cardano_roots`)."""
    return np.roots([1.0, a2, a1, a0]).astype(np.complex128)


def _sideband_terms(omega: float, s: float) -> tuple[float, float]:
    """Trace ``T`` and product ``Pi`` of the sideband curvatures, inside the open band."""
    check_open_band(omega, "omega")
    check_s(s, "s")
    u = 36.0 * s**2 / (27.0 - 2.0 * s**2)
    wterm = 32.0 * omega**2 / (1.0 - 4.0 * omega**2)
    T = -5.0 + u + wterm
    Pi = 4.0 - 4.0 * u - wterm
    return T, Pi


def sideband_product(omega: float, s: float) -> float:
    """Product ``Pi = 4 - 144 s^2/(27 - 2 s^2) - 32 omega^2/(1 - 4 omega^2)``.

    The sign of ``Pi`` (the product of the two sideband curvatures) decides
    diffusive stability.
    """
    return _sideband_terms(omega, s)[1]


def small_sigma_expansion(params: RollParameters) -> tuple[float, float, float]:
    """Closed-form sigma^2 coefficients of the three critical curves.

    Returns ``(lambda1 curvature, lambda_minus, lambda_plus)`` where the
    curvature is ``-36 s^2/(27 - 2 s^2) - 4 (1 + 4 omega^2)/(1 - 4 omega^2)``
    and ``lambda_+-`` are the roots of ``x^2 - T x + Pi``.
    """
    w, s = params.omega, params.s
    T, Pi = _sideband_terms(w, s)
    curvature = -36.0 * s**2 / (27.0 - 2.0 * s**2) - 4.0 * (1.0 + 4.0 * w**2) / (1.0 - 4.0 * w**2)
    disc = np.complex128(T**2 - 4.0 * Pi)
    sq = np.sqrt(disc)
    lam_plus = (T + sq) / 2.0
    lam_minus = (T - sq) / 2.0
    return (float(curvature), complex(lam_minus).real, complex(lam_plus).real)


def stability_predicate(omega: float, s: float) -> Stability:
    """Closed-form verdict from the sign of the sideband product.

    Stable iff ``Pi > 0`` (then the trace ``T < 0`` follows), unstable iff
    ``Pi < 0``, boundary within ``1e-9`` of zero.  Equivalent to membership
    of ``omega^2`` below ``(27 - 38 s^2) / (12 (27 - 14 s^2))`` while
    ``27 - 38 s^2 > 0``, and to instability for every ``omega`` beyond.
    """
    T, Pi = _sideband_terms(omega, s)
    if abs(Pi) < _BOUNDARY_BAND:
        return Stability.BOUNDARY
    if Pi > 0.0:
        if not T < 0.0:
            raise InvariantViolation(f"trace {T!r} must be negative inside the stable band (Pi = {Pi!r})")
        return Stability.STABLE
    return Stability.UNSTABLE


def band_edge_omega(s: float) -> float:
    """Half-width of the stable band in omega at fixed ``s`` (0 when empty)."""
    check_s(s, "s")
    num = 27.0 - 38.0 * s**2
    if num <= 0.0:
        return 0.0
    return float(min(0.5, np.sqrt(num / (12.0 * (27.0 - 14.0 * s**2)))))


@functools.lru_cache
def _default_sigma_grid(eps: float) -> np.ndarray:
    """The classifier's Bloch numbers at ``eps``, built once per ``eps`` and read-only."""
    # Geometric spacing resolves the dangerous window sigma = O(eps), which
    # shrinks to zero at the band boundary.
    small = eps * np.geomspace(0.01, 2.0, 28)
    coarse = np.linspace(0.05, 0.45, 9)
    grid = np.unique(np.concatenate([small, coarse[coarse > small[-1]]]))
    grid.flags.writeable = False
    return grid


def classify_numerically(roll: RollSolution, delta: float = 1.0) -> StabilityVerdict:
    """Verdict from the computed critical curves over a sigma sweep.

    Unstable when any critical curve rises above ``1e-10``; stable when all
    stay below and the fitted sigma^2 coefficients of the two neutral curves
    are negative (diffusive decay); boundary otherwise.

    The triples come from ``bloch.critical_triples``: the critical modes
    lifted onto the rest (the first-order Lyapunov-Schmidt reduction) and
    refined by Davidson corrections, with the triple and the gap certified
    by a Cholesky factorization rather than read off a full eigensolve; a
    Bloch number whose certificate fails keeps its lifted triple once it is
    checked against ``eigvalsh``.
    The sweep has no ``sigma = 0`` for ``eps > 0``: there the conservation
    law and translation fix two zeros beside an amplitude mode near
    ``-2 (1 - 4 omega^2) eps^2 < 0``, so instability enters only at
    ``sigma != 0``.
    """
    eps = roll.params.eps
    sigmas = _default_sigma_grid(eps)
    # All critical eigenvalues are real (the operator is similar to a real
    # symmetric matrix), so per-sigma ascending order is the curve
    # assignment: between real triples it has the least total distance.
    curves = critical_triples(roll, sigmas, delta).T

    worst = np.unravel_index(np.argmax(curves), curves.shape)
    if curves[worst] > 1e-10:
        return StabilityVerdict(
            verdict=Stability.UNSTABLE,
            witness_sigma=float(sigmas[worst[1]]),
            witness_lambda=float(curves[worst]),
        )

    fit_mask = (sigmas > 0.0) & (sigmas <= 0.75 * eps)
    if np.count_nonzero(fit_mask) < 3:
        fit_mask = (sigmas > 0.0) & (sigmas <= np.sort(sigmas[sigmas > 0.0])[2])
    X = np.column_stack([np.ones(np.count_nonzero(fit_mask)), sigmas[fit_mask] ** 2])
    coefs = [np.linalg.lstsq(X, curves[j, fit_mask], rcond=None)[0][1] for j in (1, 2)]
    if all(cj <= -1e-6 * eps**2 for cj in coefs):
        return StabilityVerdict(Stability.STABLE)
    return StabilityVerdict(Stability.BOUNDARY)
