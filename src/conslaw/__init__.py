"""Spectral numerics for rolls, Bloch spectra, and amplitude-equation
dispersion in a pattern-forming model with a conservation law."""

from .errors import (
    BlowUp,
    ConslawError,
    GapViolation,
    InvariantViolation,
    NoConvergence,
    OutOfRange,
    StepReject,
    TrivialCollapse,
)
from .fourier import PeriodicField, SpectralGrid, l2_norm
from .rolls import (
    RollParameters,
    RollSolution,
    amplitude_alpha,
    asymptotic_roll,
    measured_alpha,
    solve_roll,
    zero_roll,
)
from .bloch import (
    BlochSpectrum,
    critical_curve_array,
    critical_curves,
    critical_modes,
    critical_triples,
)

__version__ = "0.1.0"
