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

from .bloch import _SIGMA_ZERO_TOL, _checked_sigmas, _ritz_margin, _settled_members, critical_sweep
from .errors import GapViolation, InvariantViolation
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

    Its eigenvalues solve ``det(m - lambda I) = 0``.  Raises
    :class:`OutOfRange` unless ``sigma`` lies in ``[-1/2, 1/2]``.
    """
    _checked_sigmas(sigma, "sigma")
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
    of :func:`leading_reduced_matrix` up to rounding.  Raises
    :class:`OutOfRange` unless ``sigma`` lies in ``[-1/2, 1/2]``.
    """
    _checked_sigmas(sigma, "sigma")
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


def _predicted_peak(params: RollParameters, sigmas: np.ndarray) -> tuple[int, float] | None:
    """The member of a Bloch grid where the largest root of the leading reduced cubic peaks, and that root; ``None``
    where the root is positive at no member.

    The leading reduced matrix is similar to a real symmetric one (its
    off-diagonal products are ``64 omega^2 sigma^2 eps^2`` and
    ``72 s^2 A sigma^2 eps^2``, both nonnegative), so the cubic's roots are
    real, and it has a positive root exactly where one of its coefficients
    is negative.  Of ``a2 = P20 + P22 s2``, ``a1 = s2 (P12 + P14 s2)`` and
    ``a0 = s2^2 (P04 + 16 s2)`` (:func:`p_symbols`, ``s2 = sigma^2``) each
    factor grows with ``s2``, so that is decided at the grid's first, least
    member alone, before any array is formed (it is positive but at
    ``eps = 0``, where every ``P`` but ``P14`` and ``P22`` vanishes and no
    root is positive).  Otherwise the largest roots
    come from the trigonometric form of the depressed cubic, over the whole
    grid at once; neither :func:`cardano_roots` nor :func:`companion_roots`,
    criterion 6's cross-checked pair, is called.  A prediction only: the
    classifier proves what it skips.
    """
    P04, P12, P14, P20, P22 = p_symbols(params)
    s2 = float(sigmas[0]) ** 2
    if min(P20 + P22 * s2, P12 + P14 * s2, P04 + 16.0 * s2) >= 0.0:
        return None
    s2 = sigmas * sigmas
    a2, a1, a0 = P20 + P22 * s2, s2 * (P12 + P14 * s2), s2 * s2 * (P04 + 16.0 * s2)
    # lambda = t - a2 / 3 with t^3 - 3 r^2 t + q = 0; t = 2 r cos(theta), where
    # cos(3 theta) = -q / (2 r^3), is largest at the least theta.
    r = np.sqrt(np.maximum(a2 * a2 / 9.0 - a1 / 3.0, 0.0))
    q = a2 * (2.0 * a2 * a2 - 9.0 * a1) / 27.0 + a0
    cos3 = np.divide(-q, 2.0 * r**3, out=np.zeros_like(q), where=r > 0.0)
    top = 2.0 * r * np.cos(np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0) - a2 / 3.0
    j = int(np.argmax(top))
    return j, float(top[j])


def classify_numerically(roll: RollSolution, delta: float = 1.0) -> StabilityVerdict:
    """Verdict from the computed critical curves over a sigma sweep.

    Unstable when a solved critical curve rises above ``1e-10``.  Otherwise
    stable when every member off ``sigma = 0`` is shown to decay at
    ``decay = -1e-6 eps^2 sigma^2`` at least, and boundary where some member
    is shown neither to grow nor to decay at that rate.

    The triples are the ``values`` of ``bloch.critical_sweep``: the
    critical modes lifted onto the rest (the first-order Lyapunov-Schmidt
    reduction) and refined by Davidson corrections, with the triple and the
    gap of every Bloch number certified by the Cholesky factorization of a
    9 x 9 Schur-complement bound rather than read off a full eigensolve.
    The sweep has no ``sigma = 0`` for ``eps > 0``: there the conservation
    law and translation fix two zeros beside an amplitude mode near
    ``-2 (1 - 4 omega^2) eps^2 < 0``, so instability enters only at
    ``sigma != 0``.

    Only the members that can change the verdict are solved, each with the
    bits a sweep of the whole grid gives it (a stacked sweep gives each
    member the bits of a sweep of it alone).  ``bloch._settled_members``
    proves from ``S``'s diagonal and Toeplitz part alone, by inertia, that a
    member's ``H`` has ``lambda_1 < level`` and ``lambda_4 < -delta``;
    ``bloch._ritz_margin`` bounds by ``m(L)`` how far the computed top Ritz
    value of a member settled at level ``L`` can exceed ``L``, and ``m``
    grows with ``|L|``.  One pass:

    - Where the leading reduced cubic predicts growth (:func:`_predicted_peak`)
      and its peak ``c`` clears ``1e-10 + m(c)``, the member of that peak is
      solved first.  Where its top value ``b`` exceeds ``1e-10 + m(b)`` the
      cell is unstable, and the grid is settled at ``level = b - m(b)``.
      Everywhere else (no member solved first, a :class:`GapViolation` from
      its sweep, or ``b`` within ``1e-10 + m(b)``) the level is ``decay``,
      one value per member.
    - The grid is settled once, and the members it leaves that are not
      solved yet are swept, in one sweep.  The witness is the first maximum
      over the unsettled members and the one already solved, in grid order.
    - With no solved value above ``1e-10``, the cell is stable where each
      member off zero is settled at ``decay`` or solved below it.

    So a stable verdict carries, at each grid member off zero, the settle
    test's floating-point certificate of ``lambda_1 < decay`` or a computed
    top value below ``decay``; between members it is sampled.  On the
    ``b - m(b)`` path the witness is the whole-grid sweep's by proof: a
    member settled at ``L = b - m(b)``, ``0 < L < b``, has a computed top
    value below ``L + m(L) <= b``, so cannot be the maximum.  At ``decay``
    nothing bounds a settled member's computed value below the witness,
    which may lie below ``m``; there the verdict and witness are checked
    against the whole-grid sweep's bits, not proved.

    A gap error is that of a sweep of the whole grid, the first member in
    grid order that fails: a settled member passes, unless its
    ``lambda_4`` lies within the ``2 r4`` by which the sweep's check
    ``rho_4 + r4 < -delta`` is the stricter.
    """
    eps = roll.params.eps
    sigmas = _default_sigma_grid(eps)
    decay = -1e-6 * eps**2 * sigmas**2
    # All critical eigenvalues are real (the operator is similar to a real
    # symmetric matrix), so per-sigma ascending order is the curve
    # assignment: between real triples it has the least total distance.
    curves = np.full((3, sigmas.size), np.nan)
    solved = np.zeros(sigmas.size, dtype=bool)

    def solve(members: np.ndarray) -> None:
        """Sweep the ``members`` (a mask over the grid) not solved yet into ``curves``, in one sweep."""
        new = (members & ~solved).nonzero()[0]
        if new.size:
            curves[:, new] = critical_sweep(roll, sigmas[new], delta).values.T
            solved[new] = True

    # The products of a small roll's T underflow at M = 32, as the sweep's do.
    with np.errstate(under="ignore"):
        peak = _predicted_peak(roll.params, sigmas)
        margin = None if peak is None else _ritz_margin(roll, sigmas)
        level = decay
        if peak is not None and peak[1] - margin(peak[1]) > 1e-10:
            try:
                solve(np.arange(sigmas.size) == peak[0])
                b = curves[2, peak[0]]
                if b - margin(b) > 1e-10:
                    level = b - margin(b)
            except GapViolation:
                pass
        settled = _settled_members(roll, sigmas, delta, level)
    watch = ~settled | solved
    solve(watch)
    if watch.any():
        sub = curves[:, watch]
        worst = np.unravel_index(np.argmax(sub), sub.shape)
        if sub[worst] > 1e-10:
            return StabilityVerdict(Stability.UNSTABLE, float(sigmas[watch][worst[1]]), float(sub[worst]))
    if np.all(settled | (curves[2] < decay) | (np.abs(sigmas) < _SIGMA_ZERO_TOL)):
        return StabilityVerdict(Stability.STABLE)
    return StabilityVerdict(Stability.BOUNDARY)


def _fold_mirrors(cells: list[RollParameters]) -> tuple[list[RollParameters], list[int]]:
    """The first cell of each exactly mirrored pair ``(omega, +-s)``, in order, and the index of each cell's among them.

    The roll at ``-s`` is the roll at ``s`` mirrored, and its verdict and
    witness are the same bits, so one classification serves the pair.  A
    pair whose ``s`` are not exact negatives stays two cells.
    """
    slot: dict[tuple[float, float], int] = {}
    index = [slot.setdefault((p.omega, abs(p.s)), len(slot)) for p in cells]
    # Slots are numbered in the order of their first cells.
    return [cells[i] for i in np.unique(index, return_index=True)[1]], index
