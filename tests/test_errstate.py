"""Library entry points under a caller's NumPy error state.

Underflow is expected inside the solvers (the cubes of small rolls, the
products of a Bloch sweep at M = 32, the exponentials of stiff modes), and
each entry point ignores it in a scope of its own.  So a caller that raises
on every floating-point error gets the bits of the default state, and only
the package's typed errors.
"""

import dataclasses

import numpy as np
import pytest

from conslaw import bloch
from conslaw import dispersion as dsp
from conslaw import evolution as ev
from conslaw.fourier import SpectralGrid
from conslaw.rolls import RollParameters, solve_roll

ROLL_M32 = (RollParameters(0.04, 0.1, 0.5), SpectralGrid(32))
ROLL_M12 = (RollParameters(0.05, 0.1, 0.5), SpectralGrid(12))


def _fields(record):
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def _roll(params, grid):
    roll = solve_roll(params, grid)
    return roll.profile.cosines, roll.q, roll.residual_norm, roll.newton_iters


CALLS = {
    # the roll's u^2 and u^3 underflow at eps = 1e-3
    "solve_roll": lambda: _roll(RollParameters(1e-3, 0.1, 0.5), SpectralGrid(32)),
    # H @ Q underflows at M = 32, at any Bloch number
    "critical_sweep": lambda: _fields(bloch.critical_sweep(solve_roll(*ROLL_M32), [0.0, 0.1, -0.2, 0.5])),
    "critical_modes": lambda: bloch.critical_modes(solve_roll(*ROLL_M32), 0.1),
    "critical_modes_zero": lambda: bloch.critical_modes(solve_roll(*ROLL_M32), 0.0),
    # the settled-member test's T_lh T_hl underflows for a small roll at M = 32
    "classify_numerically": lambda: dataclasses.astuple(
        dsp.classify_numerically(solve_roll(RollParameters(1e-3, 0.4, 0.0), SpectralGrid(32)))
    )[1:],
    # exp(dt * lin) underflows on the stiff modes
    "evolve": lambda: _fields(
        ev.evolve(solve_roll(*ROLL_M12), ev.EvolutionConfig(n_periods=8, dt=0.05, seed_sigma=1 / 8, t_final=2.0))
    ),
}


@pytest.mark.parametrize("name", CALLS)
def test_raising_error_state_gives_the_default_bits(name):
    want = CALLS[name]()
    with np.errstate(all="raise"):
        got = CALLS[name]()
    assert [np.asarray(a).tobytes() for a in got] == [np.asarray(a).tobytes() for a in want]
