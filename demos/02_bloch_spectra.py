#!/usr/bin/env python3
"""Bloch spectra about a roll: the critical triple and the spectral gap.

Solves the Bloch spectrum across the Brillouin zone and prints the three
critical eigenvalue curves together with the certified gap to the rest of
the spectrum.  At sigma = 0 the conservation law and translation invariance
pin two exact zeros; the third eigenvalue sits at -2 (1 - 4 omega^2) eps^2.
"""

import numpy as np

from conslaw import (
    RollParameters,
    SpectralGrid,
    critical_sweep,
    solve_roll,
)

grid = SpectralGrid(16)
eps, omega, s = 0.05, 0.1, 0.8
roll = solve_roll(RollParameters(eps, omega, s), grid)

zero = critical_sweep(roll, [0.0])
gap0 = zero.gaps[0]
print(f"Co-periodic spectrum at eps={eps}, omega={omega}, s={s}:")
print("  critical triple:", zero.values[0])
print("  closed-form lambda_1: ", -2.0 * (1.0 - 4.0 * omega**2) * eps**2)
print(f"  spectral gap: {gap0:.3f} (rest of spectrum below -{gap0:.3f})")
print()

sigmas = np.concatenate([eps * np.linspace(0.0, 2.0, 9), [0.2, 0.3, 0.4]])
print(f"{'sigma':>9} {'lambda_1':>12} {'lambda_2':>12} {'lambda_3':>12} {'gap':>8}")
sweep = critical_sweep(roll, sigmas)
for sigma, (l1, l2, l3), gap in zip(sweep.sigmas, sweep.values, sweep.gaps):
    print(f"{sigma:9.4f} {l1:12.4e} {l2:12.4e} {l3:12.4e} {gap:8.3f}")
print()
print("All three curves stay nonpositive: this roll is diffusively stable.")
print("The two curves through zero bend down quadratically (sideband damping);")
print("sweeping omega or s across the band boundary flips the upper one positive.")
