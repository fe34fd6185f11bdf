#!/usr/bin/env python3
"""The stability band in the (omega, s) plane: predicate vs full numerics.

The closed-form criterion is the sign of the sideband product
Pi = 4 - 144 s^2/(27 - 2 s^2) - 32 omega^2/(1 - 4 omega^2); the numerical
classifier scans Bloch spectra of the computed roll.  This demo prints an
ASCII map made with the predicate, spot-checks it against the classifier,
and locates the band edges.
"""

import numpy as np

from conslaw import RollParameters, SpectralGrid, solve_roll
from conslaw.dispersion import (
    Stability,
    band_edge_omega,
    classify_numerically,
    sideband_product,
    stability_predicate,
)

print("Predicate map ('#' stable, '.' unstable), omega horizontal, s vertical:")
omegas = np.linspace(-0.45, 0.45, 37)
for s in np.linspace(1.4, -1.4, 15):
    row = "".join(
        "#" if stability_predicate(w, s) is Stability.STABLE else "." for w in omegas
    )
    print(f"  s={s:5.2f}  {row}")

print()
print("Band half-width in omega:", f"s=0: {band_edge_omega(0.0):.7f}",
      f"s=0.5: {band_edge_omega(0.5):.7f}", f"s=0.9: {band_edge_omega(0.9):.7f}")
print("Edge in s at omega=0:", np.sqrt(27.0 / 38.0))
print()

print("Spot checks against the numerical classifier at eps = 0.02:")
grid = SpectralGrid(12)
for w, s in [(0.0, 0.0), (0.2, 0.5), (0.0, 1.0), (0.35, 0.0), (-0.25, 0.82)]:
    pred = stability_predicate(w, s)
    roll = solve_roll(RollParameters(0.02, w, s), grid)
    verdict = classify_numerically(roll)
    pi = sideband_product(w, s)
    witness = ""
    if verdict.witness_sigma is not None:
        witness = f"  witness sigma={verdict.witness_sigma:.4f} lambda={verdict.witness_lambda:.2e}"
    print(f"  (omega={w:5.2f}, s={s:5.2f})  Pi={pi:7.3f}  predicate={pred.value:8s} "
          f"numeric={verdict.verdict.value:8s}{witness}")
