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
or aliasing enters.  Both read ``u^2`` (:func:`square`), which a Newton
iterate forms once for the two.  The integrator is the one other
evaluation: its hundreds of modes would make an ``O(K^2)`` convolution per
stage dearer than two DCTs, so :func:`conslaw.evolution._cubic_flux`
samples ``u * u * (s + u)`` on its own grid.
"""

from __future__ import annotations

import numpy as np

__all__ = ["swift_hohenberg", "square", "reaction", "reaction_derivative"]


def swift_hohenberg(kt2: np.ndarray) -> np.ndarray:
    """Symbol ``-(1 - kt2)^2`` of ``-(1 + d^2)^2`` at squared wavenumbers ``kt2``."""
    return -((1.0 - kt2) ** 2)


def square(c: np.ndarray) -> np.ndarray:
    """Centered coefficients of ``u^2``, modes ``-2M .. 2M``, for ``u`` with coefficients ``c``.

    Every field is even, so ``c`` equals its reverse bit for bit, and
    ``np.correlate`` with it gives the bits of ``np.convolve``, which
    correlates with a reversed copy; :func:`reaction` relies on this too.
    """
    return np.correlate(c, c, "full")


def reaction(c: np.ndarray, s: float, u2: np.ndarray) -> np.ndarray:
    """Coefficients of ``-s u^2 - u^3`` on modes ``0 .. M``, the ones a Galerkin residual on ``c``'s modes reads.

    ``u2`` is :func:`square` of ``c``.  Only the full overlaps of ``u^2``
    with ``c`` are formed, each the same dot product as in the whole
    convolution, so these modes carry its bits.
    """
    M = c.size // 2
    return -s * u2[2 * M : 3 * M + 1] - np.correlate(u2[M:], c, "valid")


def reaction_derivative(c: np.ndarray, s: float, eps: float, u2: np.ndarray) -> np.ndarray:
    """Centered coefficients of ``eps^2 - 2 s u - 3 u^2``, modes ``-2M .. 2M``.

    ``u2`` is :func:`square` of ``c``, which a Newton iterate forms once for
    this and :func:`reaction`.
    """
    M = c.size // 2
    df = np.zeros(u2.size)
    df[M : 3 * M + 1] = c
    df *= -2.0 * s
    df -= 3.0 * u2
    df[2 * M] += eps**2
    return df
