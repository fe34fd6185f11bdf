"""Bifurcating roll solutions by Newton-Galerkin iteration.

The stationary problem is solved in the constant-flux form

    -k^2 [-(1 + k^2 d^2)^2 u + eps^2 u - s u^2 - u^3] = q,   <1, u> = 0,

restricted to even (pure cosine) profiles.  Working on the cosine subspace
with a fixed zero mean removes the translation and conservation null
directions, so plain Newton from the two-term small-amplitude predictor
converges quadratically.  The constant ``q`` is the Lagrange multiplier of
the zero-mean constraint; the cosine modes ``m >= 1`` never see it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, OutOfRange, TrivialCollapse
from .fourier import PeriodicField, SpectralGrid
from .model import swift_hohenberg

__all__ = [
    "RollParameters",
    "RollSolution",
    "asymptotic_roll",
    "solve_roll",
    "zero_roll",
    "amplitude_alpha",
    "measured_alpha",
]

_OMEGA_EDGE_TOL = 1e-14
_MAX_ITERS = 30


def check_s(s: float, param: str) -> None:
    """Raise :class:`OutOfRange` unless ``27 - 2 s^2 > 0``, where the closed forms exist."""
    if not 27.0 - 2.0 * s**2 > 0.0:
        raise OutOfRange(f"need 27 - 2 s^2 > 0, got s = {s}", param=param)


def check_band(omega: float, param: str) -> None:
    """Raise :class:`OutOfRange` unless ``|omega| <= 1/2``, the closed band of rolls."""
    if not abs(omega) <= 0.5:
        raise OutOfRange(f"omega must lie in [-1/2, 1/2], got {omega}", param=param)


def check_open_band(omega: float, param: str) -> None:
    """Raise :class:`OutOfRange` unless ``|omega| < 1/2 - 1e-14``, where ``1 - 4 omega^2`` is safely nonzero."""
    if not abs(omega) < 0.5 - _OMEGA_EDGE_TOL:
        raise OutOfRange(f"sideband formulas require |omega| < 1/2 - {_OMEGA_EDGE_TOL:g}, got {omega}", param=param)


@dataclass(frozen=True)
class RollParameters:
    """Bifurcation parameter ``eps``, band coordinate ``omega``, quadratic ``s``.

    Requires ``0 <= eps``, ``|omega| <= 1/2``, ``27 - 2 s^2 > 0`` and
    ``1 + 2 omega eps > 0``; the roll wavenumber ``k = sqrt(1 + 2 omega eps)``
    is derived.
    """

    eps: float
    omega: float
    s: float

    def __post_init__(self) -> None:
        if not self.eps >= 0.0:
            raise OutOfRange(f"eps must be >= 0, got {self.eps}", param="eps")
        check_band(self.omega, "omega")
        check_s(self.s, "s")
        if not 1.0 + 2.0 * self.omega * self.eps > 0.0:
            raise OutOfRange(
                f"wavenumber k = sqrt(1 + 2 omega eps) must be positive, got eps = {self.eps}, "
                f"omega = {self.omega}",
                param="eps",
            )

    @property
    def k(self) -> float:
        """Roll wavenumber ``sqrt(1 + 2 omega eps)``."""
        return float(np.sqrt(1.0 + 2.0 * self.omega * self.eps))

    @property
    def at_band_edge(self) -> bool:
        """True at ``omega = +-1/2`` where the branch degenerates to zero."""
        return abs(abs(self.omega) - 0.5) <= _OMEGA_EDGE_TOL


@dataclass(frozen=True)
class RollSolution:
    """Converged roll profile with solver diagnostics.

    ``profile`` is even with zero mean and positive value at ``xi = 0``
    (identically zero on the trivial branch); ``q`` is the constant of the
    flux form, recorded rather than assumed zero.
    """

    params: RollParameters
    profile: PeriodicField
    q: float
    residual_norm: float
    newton_iters: int


def _expansion_cosines(params: RollParameters) -> np.ndarray:
    """Cosine coefficients of the two-term small-amplitude expansion."""
    eps, w, s = params.eps, params.omega, params.s
    denom = 27.0 - 2.0 * s**2
    band = 1.0 - 4.0 * w**2
    a = np.zeros(3)
    a[1] = 6.0 * np.sqrt(band / denom) * eps - 32.0 * w * s**2 * np.sqrt(band / denom**3) * eps**2
    a[2] = -2.0 * s * band / denom * eps**2
    return a


def asymptotic_roll(params: RollParameters, grid: SpectralGrid) -> PeriodicField:
    """Two-term expansion of the roll: O(eps) in cos(xi), O(eps^2) in cos(2 xi)."""
    if params.at_band_edge:
        return PeriodicField(grid, [])
    return PeriodicField(grid, _expansion_cosines(params))


def amplitude_alpha(params: RollParameters) -> float:
    """Closed-form amplitude of the cos(xi) component through second order."""
    return float(_expansion_cosines(params)[1])


def measured_alpha(roll: RollSolution) -> float:
    """Exact cos(xi) coordinate ``<cos, profile>`` of a computed roll."""
    return float(roll.profile.cosines[1])


def zero_roll(params: RollParameters, grid: SpectralGrid) -> RollSolution:
    """The equilibrium branch as a RollSolution (used at the band endpoints)."""
    return RollSolution(
        params=params,
        profile=PeriodicField(grid, []),
        q=0.0,
        residual_norm=0.0,
        newton_iters=0,
    )


def _cosine_spectrum(values: np.ndarray, n_max: int) -> np.ndarray:
    """Cosine coefficients ``a_0 .. a_{n_max}`` of real samples on a uniform grid."""
    n = values.size
    spec = np.fft.rfft(values)
    a = 2.0 * spec[: n_max + 1].real / n
    a[0] *= 0.5
    return a


def _residual_and_multiplier(a: np.ndarray, params: RollParameters, grid: SpectralGrid):
    """Spectral residual of the flux form on modes 1..M, plus the multiplier q.

    ``a`` holds cosine coefficients for modes 1..M (zero mean is structural).
    """
    M = grid.n_modes
    k2 = params.k**2
    vals = PeriodicField(grid, np.concatenate([[0.0], a])).values()
    g = _cosine_spectrum(-params.s * vals**2 - vals**3, M)
    m = np.arange(1, M + 1, dtype=np.float64)
    lin = params.eps**2 + swift_hohenberg(k2 * m**2)
    F = -k2 * (lin * a + g[1:])
    q = -k2 * g[0]
    return F, q, vals


def _jacobian(a: np.ndarray, vals: np.ndarray, params: RollParameters, grid: SpectralGrid) -> np.ndarray:
    """Exact Jacobian of the mode-1..M residual in the cosine basis.

    Multiplication by ``h = -2 s u - 3 u^2`` couples cosine modes through
    ``(h cos(n xi))_m = h_{m+n}/2 + h_{|m-n|}/2 + h_0 delta_{mn}/2`` with the
    ``|m-n| = 0`` slot reading ``h_0``.
    """
    M = grid.n_modes
    k2 = params.k**2
    h = _cosine_spectrum(-2.0 * params.s * vals - 3.0 * vals**2, 2 * M)
    m = np.arange(1, M + 1)
    plus = h[np.add.outer(m, m)]
    minus = h[np.abs(np.subtract.outer(m, m))]
    J_nl = 0.5 * (plus + minus) + 0.5 * h[0] * np.eye(M)
    lin = params.eps**2 + swift_hohenberg(k2 * m.astype(np.float64) ** 2)
    return -k2 * (np.diag(lin) + J_nl)


def _newton(a: np.ndarray, params: RollParameters, grid: SpectralGrid, tol: float):
    residual = np.inf
    for it in range(_MAX_ITERS):
        F, q, vals = _residual_and_multiplier(a, params, grid)
        residual = float(np.max(np.abs(F)))
        if not np.isfinite(residual):
            raise NoConvergence(it, residual)
        if residual < tol:
            return a, q, residual, it
        J = _jacobian(a, vals, params, grid)
        a = a + np.linalg.solve(J, -F)
    raise NoConvergence(_MAX_ITERS, residual)


def check_solvable(params: RollParameters, tol: float = 1e-12) -> None:
    """Raise :class:`OutOfRange` for inputs :func:`solve_roll` rejects."""
    if not params.eps <= 0.2:
        raise OutOfRange(f"solve_roll requires eps <= 0.2, got {params.eps}", param="eps")
    if not tol >= 1e-13:
        raise OutOfRange(f"tol must be >= 1e-13, got {tol}", param="tol")


def solve_roll(params: RollParameters, grid: SpectralGrid, tol: float = 1e-12) -> RollSolution:
    """Newton iteration from the asymptotic predictor.

    Parameters
    ----------
    params:
        Roll parameters with ``eps <= 0.2`` (small-amplitude regime).
    grid:
        Cosine-Galerkin resolution.
    tol:
        Max-norm tolerance on the spectral residual, at least 1e-13.

    Raises
    ------
    NoConvergence
        Newton stalled even after a continuation restart in eps.
    TrivialCollapse
        The iteration fell into the zero solution away from ``omega = +-1/2``.
    """
    check_solvable(params, tol)
    # a converged RollSolution always certifies residual_norm < 1e-10,
    # whatever looser tolerance was requested
    tol = min(tol, 1e-10)
    if params.at_band_edge or params.eps == 0.0:
        return zero_roll(params, grid)

    # modes 1..M of the two-term expansion, zero-padded by the field
    a0 = PeriodicField(grid, _expansion_cosines(params)).cosines[1:]
    try:
        a, q, residual, iters = _newton(a0, params, grid, tol)
    except NoConvergence:
        a, q, residual, iters = _continuation_restart(params, grid, tol)

    # Phase convention: positive at xi = 0; the shift xi -> xi + pi flips the
    # sign of every odd cosine mode.
    if np.sum(a) < 0.0:
        a = a * (-1.0) ** np.arange(1, grid.n_modes + 1)
        F, q, _ = _residual_and_multiplier(a, params, grid)
        residual = float(np.max(np.abs(F)))

    alpha_pred = abs(amplitude_alpha(params))
    if alpha_pred > 1e-8 and float(np.max(np.abs(a))) < 1e-2 * alpha_pred:
        raise TrivialCollapse(
            f"Newton collapsed to the zero profile at eps={params.eps}, omega={params.omega}"
        )

    profile = PeriodicField(grid, np.concatenate([[0.0], a]))
    return RollSolution(params=params, profile=profile, q=float(q), residual_norm=residual, newton_iters=iters)


def _continuation_restart(params: RollParameters, grid: SpectralGrid, tol: float):
    """Secant continuation in eps when the direct predictor fails."""
    anchors = []
    for frac in (0.5, 0.75):
        sub = RollParameters(frac * params.eps, params.omega, params.s)
        a0 = anchors[-1] if anchors else PeriodicField(grid, _expansion_cosines(sub)).cosines[1:]
        a, _, _, _ = _newton(a0, sub, grid, tol)
        anchors.append(a)
    secant = anchors[1] + (anchors[1] - anchors[0])
    return _newton(secant, params, grid, tol)
