"""The model's linear symbol, shared by the roll solver, the Bloch assembly
and the integrator.

The model is ``u_t = -d^2 [-(1 + d^2)^2 u + eps^2 u - s u^2 - u^3]``.  On a
Fourier mode of wavenumber ``kappa`` the Swift-Hohenberg part
``-(1 + d^2)^2`` multiplies by ``-(1 - kappa^2)^2``, so the linearization
about zero has the symbol ``kappa^2 (eps^2 - (1 - kappa^2)^2)``.  Callers
pass ``kt2 = kappa^2`` (``k^2 n^2`` in the stretched frame) and form
``eps**2 + swift_hohenberg(kt2)`` themselves; ``a + (-x)`` rounds exactly as
``a - x``, so this matches the symbol written out in full bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["swift_hohenberg"]


def swift_hohenberg(kt2: np.ndarray) -> np.ndarray:
    """Symbol ``-(1 - kt2)^2`` of ``-(1 + d^2)^2`` at squared wavenumbers ``kt2``."""
    return -((1.0 - kt2) ** 2)
