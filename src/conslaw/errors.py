"""Exception types shared across the package.

``OutOfRange`` signals a violated precondition (bad parameters); everything
else reports a numerical failure discovered mid-computation.  An
``OutOfRange`` raised by a parameter check carries the parameter's name as
the library spells it (``param="eps"``, ``"n_modes"``, ``"seed_sigma"``, ...),
so a front end can name its own option for it; the name survives pickling,
as it must for errors raised in worker processes.
"""

from __future__ import annotations


class ConslawError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(ConslawError, ValueError):
    """A parameter violates a documented precondition."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


class NoConvergence(ConslawError):
    """Newton iteration failed to reach the requested tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"Newton failed after {iterations} iterations (residual {residual:.3e}); "
            "reduce eps or refine the grid"
        )


class TrivialCollapse(ConslawError):
    """Newton converged to the zero profile away from the band endpoints."""


class GapViolation(ConslawError):
    """The spectral gap below the critical triple is smaller than required."""

    def __init__(self, gap: float, required: float):
        self.gap = gap
        self.required = required
        super().__init__(
            f"spectral gap {gap:.6g} does not exceed the required {required:.6g}; "
            "parameters are outside the small-amplitude regime"
        )


class DegenerateBand(ConslawError):
    """Closed-form sideband expansions are singular at the band endpoints."""


class InvariantViolation(ConslawError):
    """An identity that holds analytically failed in floating point."""


class BlowUp(ConslawError):
    """Time integration left the linear regime catastrophically."""

    def __init__(self, time: float, norm: float):
        self.time = time
        self.norm = norm
        super().__init__(f"perturbation norm {norm:.3e} exceeded the blow-up bound at t = {time:.6g}")


class StepReject(ConslawError):
    """Requested time step violates the integrator's stability bound."""
