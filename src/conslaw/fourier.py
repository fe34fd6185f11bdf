"""Truncated cosine series of even real 2π-periodic functions.

Every field the package builds (a roll, its small-amplitude expansion, the
integrator's subspace) is even, so a field is stored as its cosine
coefficients ``a_0 .. a_M`` and is even by type.  The centered
coefficients ``c_m``, ``|m| <= M``, which are real, are derived from them.

The norm is induced by ``<u, v> = (1/pi) * integral_0^{2pi} u v dxi``, the
normalization under which ``<cos, cos> = 1`` and ``<1, 1> = 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange

__all__ = ["SpectralGrid", "PeriodicField", "l2_norm"]


@dataclass(frozen=True)
class SpectralGrid:
    """Resolution of the truncated Fourier basis.

    Parameters
    ----------
    n_modes:
        Highest retained mode ``M``; at least 8 so the first three harmonics
        of a small roll are resolved with margin.
    """

    n_modes: int

    def __post_init__(self) -> None:
        if not (self.n_modes >= 8 and float(self.n_modes).is_integer()):
            raise OutOfRange(f"n_modes must be an integer >= 8, got {self.n_modes}", param="n_modes")
        object.__setattr__(self, "n_modes", int(self.n_modes))

    @property
    def modes(self) -> np.ndarray:
        """Integer mode numbers ``-M .. M`` in storage order."""
        return np.arange(-self.n_modes, self.n_modes + 1)


@dataclass(frozen=True, eq=False)
class PeriodicField:
    """Even real 2π-periodic function ``a_0 + sum_m a_m cos(m xi)``.

    ``cosines[m]`` is ``a_m`` for ``m = 0 .. M``; shorter input is padded
    with zeros and the stored array is read-only float64.  Fields compare and
    hash by identity; compare values with ``np.array_equal(u.cosines, v.cosines)``.
    """

    grid: SpectralGrid
    cosines: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.cosines, dtype=np.float64)
        if a.ndim != 1 or a.size > self.grid.n_modes + 1:
            raise OutOfRange(
                f"expected at most {self.grid.n_modes + 1} cosine coefficients, got shape {a.shape}", param="cosines"
            )
        padded = np.zeros(self.grid.n_modes + 1)
        padded[: a.size] = a
        padded.flags.writeable = False
        object.__setattr__(self, "cosines", padded)

    @property
    def coeffs(self) -> np.ndarray:
        """Centered coefficients ``c_m``, ``m = -M .. M``: ``c_0 = a_0``, ``c_{+-m} = a_m / 2``."""
        half = 0.5 * self.cosines[1:]
        return np.concatenate([half[::-1], self.cosines[:1], half])

    def to_triples(self) -> list[tuple[int, float, float]]:
        """Serialize as ``(m, Re c_m, Im c_m)`` triples for ``m = -M .. M``."""
        return [(int(m), float(c), 0.0) for m, c in zip(self.grid.modes, self.coeffs)]

    def __sub__(self, other: "PeriodicField") -> "PeriodicField":
        if self.grid != other.grid:
            raise OutOfRange("fields live on different grids", param="grid")
        return PeriodicField(self.grid, self.cosines - other.cosines)


def l2_norm(u: PeriodicField) -> float:
    """Norm induced by ``<u, v> = (1/pi) * integral_0^{2pi} u v dxi``, exact from coefficients."""
    c = u.coeffs
    return float(np.sqrt(2.0 * np.sum(c * c)))
