"""The model's linear symbol and nonlinearity, shared by the roll solver and
the Bloch assembly (the integrator shares the symbol).

The model is ``u_t = -d^2 [-(1 + d^2)^2 u + eps^2 u - s u^2 - u^3]``.  On a
Fourier mode of wavenumber ``kappa`` the Swift-Hohenberg part
``-(1 + d^2)^2`` multiplies by ``-(1 - kappa^2)^2``, so the linearization
about zero has the symbol ``kappa^2 (eps^2 - (1 - kappa^2)^2)``.  Callers
pass ``kt2 = kappa^2`` (``k^2 n^2`` in the stretched frame) and form
``eps**2 + swift_hohenberg(kt2)`` themselves; ``a + (-x)`` rounds exactly as
``a - x``, so this matches the symbol written out in full bit for bit.

The nonlinearity ``-s u^2 - u^3`` (:func:`reaction`, read by the roll
residual) and its linearization ``eps^2 - 2 s u - 3 u^2``
(:func:`reaction_derivative`, read by the Newton Jacobian and the Bloch
matrix) act on centered coefficients by exact convolution, so no transform
or aliasing enters.  The integrator is the one other evaluation: its
hundreds of modes would make an ``O(K^2)`` convolution per stage dearer
than two DCTs, so :func:`conslaw.evolution._cubic_flux` samples
``u * u * (s + u)`` on its own grid.
"""

from __future__ import annotations

import numpy as np

__all__ = ["swift_hohenberg", "reaction", "reaction_derivative"]


def swift_hohenberg(kt2: np.ndarray) -> np.ndarray:
    """Symbol ``-(1 - kt2)^2`` of ``-(1 + d^2)^2`` at squared wavenumbers ``kt2``."""
    return -((1.0 - kt2) ** 2)


def reaction(c: np.ndarray, s: float) -> np.ndarray:
    """Centered coefficients of ``-s u^2 - u^3``, modes ``-3M .. 3M``, for ``u`` with coefficients ``c``."""
    M = c.size // 2
    u2 = np.convolve(c, c)
    return -s * np.concatenate([np.zeros(M), u2, np.zeros(M)]) - np.convolve(u2, c)


def reaction_derivative(c: np.ndarray, s: float, eps: float) -> np.ndarray:
    """Centered coefficients of ``eps^2 - 2 s u - 3 u^2``, modes ``-2M .. 2M``."""
    M = c.size // 2
    df = -2.0 * s * np.concatenate([np.zeros(M), c, np.zeros(M)]) - 3.0 * np.convolve(c, c)
    df[2 * M] += eps**2
    return df
