#!/usr/bin/env python3
"""Exact dispersion vs the coupled amplitude/mean-mode approximation.

Under the scaling sigma = eps sigma_hat, lambda = eps^2 lambda_hat the
critical Bloch eigenvalues converge, at first order in eps, to the
eigenvalues of the 3x3 dispersion matrix of the modified Ginzburg-Landau
system linearized about its explicit roll, whose amplitude times eps is the
computed roll's cos(xi) coordinate at leading order.
"""

import numpy as np

from conslaw import RollParameters, SpectralGrid, measured_alpha, solve_roll
from conslaw.mgl import (
    MglParameters,
    compare_exact_vs_mgl,
    mgl_dispersion_matrix,
    mgl_roll_amplitude,
    mgl_small_sigma,
)

grid = SpectralGrid(16)
omega, s = -0.3, 0.8

print(f"Scaled dispersion at omega={omega}, s={s}, eps=0.04:")
roll = solve_roll(RollParameters(0.04, omega, s), grid)
rows = compare_exact_vs_mgl(roll, np.linspace(-1.0, 1.0, 9))
print(f"{'sigma_hat':>10} {'exact (scaled)':>34} {'amplitude system':>34} {'dev':>8}")
for row in rows:
    ex = " ".join(f"{v.real:10.4f}" for v in row.lambda_exact)
    ap = " ".join(f"{v.real:10.4f}" for v in row.lambda_mgl)
    print(f"{row.sigma_hat:10.2f} {ex:>34} {ap:>34} {row.deviation:8.4f}")

print()
print("First-order shrinkage of the worst deviation:")
for eps in (0.02, 0.04, 0.08):
    roll = solve_roll(RollParameters(eps, omega, s), grid)
    dev = max(r.deviation for r in compare_exact_vs_mgl(roll, np.linspace(-1, 1, 9)))
    print(f"  eps={eps:5.2f}  max deviation {dev:8.4f}  deviation/eps {dev/eps:8.3f}")

print()
amplitude = mgl_roll_amplitude(omega, s)
print(f"Explicit amplitude-system roll A = {amplitude:.6f}; eps * A against the")
print("computed roll's cos(xi) coordinate:")
for eps in (0.02, 0.04, 0.08):
    alpha = measured_alpha(solve_roll(RollParameters(eps, omega, s), grid))
    print(f"  eps={eps:5.2f}  eps*A {eps * amplitude:.6f}  measured {alpha:.6f}  "
          f"difference/eps^2 {(alpha - eps * amplitude) / eps**2:8.3f}")

print()
curv, lam_minus, lam_plus = mgl_small_sigma(MglParameters(omega, s))
print("Small-sideband coefficients from the amplitude system:")
print(f"  lambda_1 curvature: {curv:+.6f}")
print(f"  lambda_-: {lam_minus:+.6f}   lambda_+: {lam_plus:+.6f}")
print("lambda_+ > 0 here: this (omega, s) lies outside the stable band, and the")
print("amplitude system predicts the same sideband instability as the full model.")
d0 = mgl_dispersion_matrix(MglParameters(omega, s), 0.0)
print("Dispersion matrix eigenvalues at sigma_hat = 0:", np.sort(d0.eigenvalues.real))
