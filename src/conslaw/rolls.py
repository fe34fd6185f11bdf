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
from .model import reaction, reaction_derivative, swift_hohenberg

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
#: Max-norm tolerance on the spectral residual of a converged roll.
_TOL = 1e-12


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


def _residual_and_multiplier(a: np.ndarray, params: RollParameters, grid: SpectralGrid):
    """Spectral residual of the flux form on modes 1..M, the multiplier q, and the centered coefficients.

    ``a`` holds cosine coefficients for modes 1..M (zero mean is structural).
    """
    M = grid.n_modes
    k2 = params.k**2
    c = PeriodicField(grid, np.concatenate([[0.0], a])).coeffs
    g = reaction(c, params.s)[3 * M : 4 * M + 1]
    m = np.arange(1, M + 1, dtype=np.float64)
    lin = params.eps**2 + swift_hohenberg(k2 * m**2)
    F = -k2 * (lin * a + 2.0 * g[1:])
    q = -k2 * g[0]
    return F, q, c


def _jacobian(c: np.ndarray, params: RollParameters) -> np.ndarray:
    """Exact Jacobian of the mode-1..M residual in the cosine basis, at centered coefficients ``c``.

    ``df = eps^2 - 2 s u - 3 u^2`` times ``cos(n xi)`` has cosine coefficients
    ``df_{m-n} + df_{m+n}``; with the Swift-Hohenberg diagonal this is the
    even part of the ``sigma = 0`` Bloch factor ``S``.
    """
    M = c.size // 2
    k2 = params.k**2
    df = reaction_derivative(c, params.s, params.eps)
    m = np.arange(1, M + 1)
    J = df[2 * M + np.subtract.outer(m, m)] + df[2 * M + np.add.outer(m, m)]
    J[m - 1, m - 1] += swift_hohenberg(k2 * m.astype(np.float64) ** 2)
    return -k2 * J


def _newton(a: np.ndarray, params: RollParameters, grid: SpectralGrid):
    residual = np.inf
    for it in range(_MAX_ITERS):
        F, q, c = _residual_and_multiplier(a, params, grid)
        residual = float(np.max(np.abs(F)))
        if not np.isfinite(residual):
            raise NoConvergence(it, residual)
        if residual < _TOL:
            return a, q, residual, it
        J = _jacobian(c, params)
        a = a + np.linalg.solve(J, -F)
    raise NoConvergence(_MAX_ITERS, residual)


def check_solvable(params: RollParameters) -> None:
    """Raise :class:`OutOfRange` for inputs :func:`solve_roll` rejects."""
    if not params.eps <= 0.2:
        raise OutOfRange(f"solve_roll requires eps <= 0.2, got {params.eps}", param="eps")


def solve_roll(params: RollParameters, grid: SpectralGrid) -> RollSolution:
    """Newton iteration from the asymptotic predictor to a max-norm residual below 1e-12.

    Parameters
    ----------
    params:
        Roll parameters with ``eps <= 0.2`` (small-amplitude regime).
    grid:
        Cosine-Galerkin resolution.

    Raises
    ------
    NoConvergence
        Newton stalled even after a continuation restart in eps.
    TrivialCollapse
        The iteration fell into the zero solution away from ``omega = +-1/2``.
    """
    check_solvable(params)
    if params.at_band_edge or params.eps == 0.0:
        return zero_roll(params, grid)

    # modes 1..M of the two-term expansion, zero-padded by the field
    a0 = PeriodicField(grid, _expansion_cosines(params)).cosines[1:]
    try:
        a, q, residual, iters = _newton(a0, params, grid)
    except NoConvergence:
        a, q, residual, iters = _continuation_restart(params, grid)

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


def _continuation_restart(params: RollParameters, grid: SpectralGrid):
    """Secant continuation in eps when the direct predictor fails."""
    anchors = []
    for frac in (0.5, 0.75):
        sub = RollParameters(frac * params.eps, params.omega, params.s)
        a0 = anchors[-1] if anchors else PeriodicField(grid, _expansion_cosines(sub)).cosines[1:]
        a, _, _, _ = _newton(a0, sub, grid)
        anchors.append(a)
    secant = anchors[1] + (anchors[1] - anchors[0])
    return _newton(secant, params, grid)
