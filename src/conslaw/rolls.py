"""Bifurcating roll solutions by Newton-Galerkin iteration.

The stationary problem is solved in the constant-flux form

    -k^2 [-(1 + k^2 d^2)^2 u + eps^2 u - s u^2 - u^3] = q,   <1, u> = 0,

restricted to even (pure cosine) profiles.  Working on the cosine subspace
with a fixed zero mean removes the translation and conservation null
directions, so plain Newton from the two-term small-amplitude predictor
converges quadratically.  The constant ``q`` is the Lagrange multiplier of
the zero-mean constraint; the cosine modes ``m >= 1`` never see it.

A Newton iterate evaluates the nonlinearity once: the centered
coefficients come straight from the cosines, and their square serves the
residual's reaction (its modes ``0 .. M`` only) and the Jacobian's
derivative.  The Jacobian's index arrays are built once per ``M``
(:func:`_layout`) and the symbol once per Newton run (:func:`_symbol`).
Each operation and its operands are those of the residual that built a
``PeriodicField`` and the reaction's modes ``-3M .. 3M`` on every iterate,
so the rolls keep their bits (``tests/data/rolls_pinned.npz``).  A solve
with one Newton step (``eps = 0.02``, ``omega = 0.1``, ``s = 0.5``) takes
52.7 us at ``M = 12`` and 66.4 us at ``M = 32`` (least of six alternated
runs of the README's ``python -m timeit``, one thread of a shared 2-core
host).  Underflow in the cubes of a small roll is ignored within
:func:`solve_roll`, so a caller's raising error state gets the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoConvergence, OutOfRange, TrivialCollapse
from .fourier import PeriodicField, SpectralGrid
from .model import reaction, reaction_derivative, square, swift_hohenberg

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
#: The zero mean between the two halves of the centered coefficients.
_ZERO = np.zeros(1)
_ZERO.flags.writeable = False


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
        return math.sqrt(1.0 + 2.0 * self.omega * self.eps)

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
    a[1] = 6.0 * math.sqrt(band / denom) * eps - 32.0 * w * s**2 * math.sqrt(band / denom**3) * eps**2
    a[2] = -2.0 * s * band / denom * eps**2
    return a


def _predictor(params: RollParameters, M: int) -> np.ndarray:
    """Modes 1..M of the two-term expansion, Newton's starting point."""
    a0 = np.zeros(M)
    a0[:2] = _expansion_cosines(params)[1:]
    return a0


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


@lru_cache
def _layout(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only, once per ``M``: the squares ``m^2`` of the modes ``m = 1 .. M``, and the indices ``(M, M)``
    of ``df_{m-n}`` and ``df_{m+n}`` in :func:`conslaw.model.reaction_derivative`."""
    m = np.arange(1, M + 1)
    layout = m.astype(np.float64) ** 2, 2 * M + np.subtract.outer(m, m), 2 * M + np.add.outer(m, m)
    for x in layout:
        x.flags.writeable = False
    return layout


def _symbol(params: RollParameters, M: int) -> tuple[float, np.ndarray, np.ndarray]:
    """``k^2``, and on modes 1..M ``sh(k^2 m^2)`` and the residual's diagonal ``eps^2 + sh(k^2 m^2)``: once per solve."""
    k2 = params.k**2
    sh = swift_hohenberg(k2 * _layout(M)[0])
    return k2, sh, params.eps**2 + sh


def _residual_and_multiplier(a: np.ndarray, params: RollParameters, symbol):
    """Spectral residual of the flux form on modes 1..M, the multiplier q, the centered coefficients and their square.

    ``a`` holds cosine coefficients for modes 1..M (zero mean is structural);
    ``symbol`` is :func:`_symbol` of ``params``.
    """
    k2, _, lin = symbol
    half = 0.5 * a
    c = np.concatenate((half[::-1], _ZERO, half))
    u2 = square(c)
    g = reaction(c, params.s, u2)
    F = -k2 * (lin * a + 2.0 * g[1:])
    q = -k2 * g[0]
    return F, q, c, u2


def _jacobian(c: np.ndarray, u2: np.ndarray, params: RollParameters, symbol) -> np.ndarray:
    """Exact Jacobian of the mode-1..M residual in the cosine basis, at centered coefficients ``c`` with square ``u2``.

    ``df = eps^2 - 2 s u - 3 u^2`` times ``cos(n xi)`` has cosine coefficients
    ``df_{m-n} + df_{m+n}``; with the Swift-Hohenberg diagonal this is the
    even part of the ``sigma = 0`` Bloch factor ``S``.
    """
    k2, sh, _ = symbol
    M = c.size // 2
    _, minus, plus = _layout(M)
    df = reaction_derivative(c, params.s, params.eps, u2)
    J = df[minus] + df[plus]
    J.ravel()[:: M + 1] += sh
    J *= -k2
    return J


def _newton(a: np.ndarray, params: RollParameters, grid: SpectralGrid):
    symbol = _symbol(params, grid.n_modes)
    residual = np.inf
    for it in range(_MAX_ITERS):
        F, q, c, u2 = _residual_and_multiplier(a, params, symbol)
        residual = float(np.abs(F).max())
        if not math.isfinite(residual):
            raise NoConvergence(it, residual)
        if residual < _TOL:
            return a, q, residual, it
        a = a + np.linalg.solve(_jacobian(c, u2, params, symbol), -F)
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
    a0 = _predictor(params, grid.n_modes)
    # Cubes of a small roll, and their products in the solve, underflow.
    with np.errstate(under="ignore"):
        try:
            a, q, residual, iters = _newton(a0, params, grid)
        except NoConvergence:
            a, q, residual, iters = _continuation_restart(params, grid)

        # Phase convention: positive at xi = 0; the shift xi -> xi + pi flips the
        # sign of every odd cosine mode.  That multiplies mode m of the residual
        # by (-1)^m and leaves q, exactly, so both are Newton's.
        if a.sum() < 0.0:
            a = a * (-1.0) ** np.arange(1, grid.n_modes + 1)

    alpha_pred = abs(float(a0[0]))
    if alpha_pred > 1e-8 and float(np.abs(a).max()) < 1e-2 * alpha_pred:
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
        a0 = anchors[-1] if anchors else _predictor(sub, grid.n_modes)
        a, _, _, _ = _newton(a0, sub, grid)
        anchors.append(a)
    secant = anchors[1] + (anchors[1] - anchors[0])
    return _newton(secant, params, grid)
