"""Truncated Fourier series of real 2π-periodic functions.

A field is stored as its full complex spectrum ``c_m`` for ``|m| <= M`` with
the reality constraint ``c_{-m} = conj(c_m)`` enforced at construction.
:attr:`SpectralGrid.n_points` has at least ``4M + 1`` collocation points, so
a product of up to three fields sampled there and truncated back to
``|m| <= M`` is alias-free (the model nonlinearity is cubic).

The norm is induced by ``<u, v> = (1/pi) * integral_0^{2pi} u v dxi``, the
normalization under which ``<cos, cos> = <sin, sin> = 1`` and ``<1, 1> = 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .errors import OutOfRange

__all__ = ["SpectralGrid", "PeriodicField", "l2_norm"]

#: Tolerance accepted for reality/evenness defects in input coefficients.
_SYMMETRY_TOL = 1e-9


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
        if int(self.n_modes) != self.n_modes or self.n_modes < 8:
            raise OutOfRange(f"n_modes must be an integer >= 8, got {self.n_modes}")
        object.__setattr__(self, "n_modes", int(self.n_modes))

    @property
    def n_points(self) -> int:
        """Collocation count, >= 4*n_modes + 1 for exact cubic products."""
        return next_fast_len(4 * self.n_modes + 1)

    @property
    def modes(self) -> np.ndarray:
        """Integer mode numbers ``-M .. M`` in storage order."""
        return np.arange(-self.n_modes, self.n_modes + 1)


@dataclass(frozen=True)
class PeriodicField:
    """Real 2π-periodic function as centered Fourier coefficients.

    ``coeffs[i]`` is ``c_m`` with ``m = i - M``.  Construction symmetrizes the
    spectrum so that ``c_{-m} == conj(c_m)`` holds exactly; setting ``even``
    additionally forces a pure cosine series (all coefficients real).
    Instances are immutable.
    """

    grid: SpectralGrid
    coeffs: np.ndarray
    even: bool = field(default=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (2 * self.grid.n_modes + 1,):
            raise ValueError(
                f"expected {2 * self.grid.n_modes + 1} coefficients, got shape {c.shape}"
            )
        scale = max(1.0, float(np.max(np.abs(c)))) if c.size else 1.0
        sym = 0.5 * (c + np.conj(c[::-1]))
        if np.max(np.abs(c - sym)) > _SYMMETRY_TOL * scale:
            raise ValueError("coefficients violate the reality constraint c_{-m} = conj(c_m)")
        if self.even:
            if np.max(np.abs(sym.imag)) > _SYMMETRY_TOL * scale:
                raise ValueError("even field must have a pure cosine spectrum")
            sym = sym.real.astype(np.complex128)
        sym.flags.writeable = False
        object.__setattr__(self, "coeffs", sym)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, grid: SpectralGrid, even: bool = False) -> "PeriodicField":
        return cls(grid, np.zeros(2 * grid.n_modes + 1, dtype=np.complex128), even=even)

    @classmethod
    def from_cosines(cls, grid: SpectralGrid, cosine_coeffs: np.ndarray) -> "PeriodicField":
        """Build an even field from ``a_0 + sum_m a_m cos(m xi)`` coefficients."""
        a = np.asarray(cosine_coeffs, dtype=np.float64)
        if a.ndim != 1 or a.size > grid.n_modes + 1:
            raise ValueError("cosine coefficient array longer than the grid allows")
        c = np.zeros(2 * grid.n_modes + 1, dtype=np.complex128)
        mid = grid.n_modes
        c[mid] = a[0]
        for m in range(1, a.size):
            c[mid + m] = 0.5 * a[m]
            c[mid - m] = 0.5 * a[m]
        return cls(grid, c, even=True)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def coefficient(self, m: int) -> complex:
        """Complex coefficient ``c_m``."""
        if abs(m) > self.grid.n_modes:
            return 0.0 + 0.0j
        return complex(self.coeffs[self.grid.n_modes + m])

    def cosine_coefficients(self) -> np.ndarray:
        """Coefficients ``a_m`` of ``a_0 + sum a_m cos(m xi)`` (sine part dropped)."""
        mid = self.grid.n_modes
        a = 2.0 * self.coeffs[mid:].real
        a[0] = self.coeffs[mid].real
        return a

    def values(self) -> np.ndarray:
        """Evaluate on the ``grid.n_points`` uniform nodes ``xi_j = 2 pi j / n_points``."""
        n = self.grid.n_points
        spec = np.zeros(n, dtype=np.complex128)
        m = self.grid.n_modes
        spec[: m + 1] = self.coeffs[m:]
        spec[-m:] = self.coeffs[:m]
        return np.fft.ifft(spec).real * n

    def to_triples(self) -> list[tuple[int, float, float]]:
        """Serialize as ``(m, Re c_m, Im c_m)`` triples for ``m = -M .. M``."""
        return [
            (int(m), float(c.real), float(c.imag))
            for m, c in zip(self.grid.modes, self.coeffs)
        ]

    def __sub__(self, other: "PeriodicField") -> "PeriodicField":
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        return PeriodicField(self.grid, self.coeffs - other.coeffs, even=self.even and other.even)


def l2_norm(u: PeriodicField) -> float:
    """Norm induced by ``<u, v> = (1/pi) * integral_0^{2pi} u v dxi``, exact from coefficients."""
    return float(np.sqrt(max(float(2.0 * np.sum(u.coeffs * np.conj(u.coeffs)).real), 0.0)))
