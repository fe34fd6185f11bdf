"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Each operation calls the program through module attributes
(``dispersion.classify_numerically``, not a name bound at import), so the
tracer's wrappers see every call.  Inputs come only from the generator passed
in; the program never sees the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.fft import next_fast_len

from conslaw import bloch, dispersion, evolution, mgl, rolls
from conslaw.fourier import SpectralGrid

#: Criterion-5 domain of the stability map, shared by band_map and dispersion_sweep.
S_RANGE = (-1.5, 1.5)
OMEGA_RANGE = (-0.45, 0.45)
#: Cells with |Pi| at or below this are redrawn, as criterion 5 excludes them.
PI_EXCLUDED = 0.05
#: A converged roll certifies this residual.
ROLL_RESIDUAL_MAX = 1e-10


@dataclass(frozen=True)
class Workload:
    """One workload: how to draw an op's input, run it, check it and count it.

    ``draw(rng, i)`` gives the input of op ``i``; ``run`` calls the program;
    ``check`` returns the failed checks (empty when the outputs are correct);
    ``counters`` gives the op's layer counters, where a name ending in
    ``_max`` is aggregated by maximum and every other by mean.  Inputs are
    drawn in rounds of ``round_size``, which keeps a stratified mix
    balanced, and each round runs ``repeats`` times over; an input's op
    time is the mean of its runs.  On a shared host, short ops are often
    hit by bursts of contention; a second run a round later mostly is not,
    and halves the effect on the mean.
    ``warmup`` is the set-up op's input; ``kernel`` names the calibration
    kernel closest to the workload's instruction mix.
    """

    name: str
    draw: Callable[[np.random.Generator, int], tuple]
    run: Callable[[tuple], dict]
    check: Callable[[tuple, dict], list[str]]
    counters: Callable[[tuple, dict], dict[str, float]]
    warmup: tuple
    kernel: str
    repeats: int = 1
    round_size: int = 1


def _pi(omega: float, s: float) -> float:
    """Sideband product, written out here as an independent oracle."""
    return 4.0 - 144.0 * s**2 / (27.0 - 2.0 * s**2) - 32.0 * omega**2 / (1.0 - 4.0 * omega**2)


def _draw_cell(rng: np.random.Generator) -> tuple[float, float]:
    while True:
        omega = float(rng.uniform(*OMEGA_RANGE))
        s = float(rng.uniform(*S_RANGE))
        if abs(_pi(omega, s)) > PI_EXCLUDED:
            return omega, s


def _roll_counters(roll) -> dict[str, float]:
    return {"rolls.newton_iters": roll.newton_iters, "rolls.residual_max": roll.residual_norm}


def _roll_check(roll) -> list[str]:
    if not roll.residual_norm < ROLL_RESIDUAL_MAX:
        return [f"roll residual {roll.residual_norm:.3e} >= {ROLL_RESIDUAL_MAX}"]
    return []


# ----------------------------------------------------------------------
# band_map: one cell of `conslaw map --mode both` at eps = 0.02, M = 12
# ----------------------------------------------------------------------

BAND_EPS = 0.02
BAND_GRID = SpectralGrid(12)


def _band_draw(rng: np.random.Generator, i: int) -> tuple:
    return _draw_cell(rng)


def _band_run(cell: tuple) -> dict:
    omega, s = cell
    pi = dispersion.sideband_product(omega, s)
    predicate = dispersion.stability_predicate(omega, s)
    roll = rolls.solve_roll(rolls.RollParameters(BAND_EPS, omega, s), BAND_GRID)
    numeric = dispersion.classify_numerically(roll)
    return {"pi": pi, "predicate": predicate, "roll": roll, "numeric": numeric}


def _band_check(cell: tuple, out: dict) -> list[str]:
    omega, s = cell
    problems = _roll_check(out["roll"])
    want = _pi(omega, s)
    if not abs(out["pi"] - want) <= 1e-12 * max(1.0, abs(want)):
        problems.append(f"Pi {out['pi']!r} differs from the closed form {want!r}")
    if out["numeric"].verdict != out["predicate"]:
        problems.append(
            f"numeric verdict {out['numeric'].verdict.value} != predicate {out['predicate'].value}"
        )
    return problems


BAND_MAP = Workload(
    name="band_map",
    draw=_band_draw,
    run=_band_run,
    check=_band_check,
    counters=lambda cell, out: _roll_counters(out["roll"]),
    warmup=(0.1, 0.5),
    kernel="dense",
    repeats=2,
    round_size=8,
)


# ----------------------------------------------------------------------
# dispersion_sweep: `spectrum` over the whole zone plus `compare`, at M = 32
# ----------------------------------------------------------------------

SWEEP_GRID = SpectralGrid(32)
SWEEP_EPS_RANGE = (0.01, 0.08)
#: Symmetric sweep of the whole Brillouin zone; index 20 is sigma = 0.
SWEEP_SIGMAS = np.linspace(-0.5, 0.5, 41)
SWEEP_ZERO = 20
SIGMA_HATS = np.linspace(-1.0, 1.0, 11)
DELTA = 1.0
#: Compare deviation must stay below this multiple of eps (O(eps)); seeded
#: draws over the whole domain stay below 46 eps.
DEVIATION_PER_EPS = 100.0


def _sweep_draw(rng: np.random.Generator, i: int) -> tuple:
    eps = float(rng.uniform(*SWEEP_EPS_RANGE))
    omega, s = _draw_cell(rng)
    return eps, omega, s


def _sweep_run(params: tuple) -> dict:
    roll = rolls.solve_roll(rolls.RollParameters(*params), SWEEP_GRID)
    spectra = bloch.critical_curves(roll, SWEEP_SIGMAS, delta=DELTA)
    rows = mgl.compare_exact_vs_mgl(roll, SIGMA_HATS, delta=DELTA)
    return {"roll": roll, "spectra": spectra, "rows": rows}


def _sweep_check(params: tuple, out: dict) -> list[str]:
    eps, omega, _ = params
    problems = _roll_check(out["roll"])
    spectra = out["spectra"]
    if len(spectra) != SWEEP_SIGMAS.size:
        return problems + [f"{len(spectra)} spectra for {SWEEP_SIGMAS.size} sigmas"]
    gap = min(spec.gap for spec in spectra)
    if not gap > DELTA:
        problems.append(f"gap {gap:.6g} not certified above {DELTA}")
    # Criterion 2 at sigma = 0: {c(eps) + O(eps^3), 0, 0} over a gap of 3.
    zero = spectra[SWEEP_ZERO]
    triple = np.sort(zero.critical_values().real)
    remainder = triple[0] + 2.0 * (1.0 - 4.0 * omega**2) * eps**2
    zeros = float(np.max(np.abs(triple[1:])))
    rest = float(np.max(np.delete(zero.eigenvalues.real, list(zero.critical))))
    if not abs(remainder) <= 5.0 * eps**3:
        problems.append(f"sigma=0 remainder {abs(remainder):.3e} > 5 eps^3")
    if not zeros < 1e-9:
        problems.append(f"sigma=0 zero modes at {zeros:.3e}")
    if not rest < -3.0:
        problems.append(f"sigma=0 rest of spectrum reaches {rest:.3f} >= -3")
    rows = out["rows"]
    deviation = max(row.deviation for row in rows)
    if len(rows) != SIGMA_HATS.size or not deviation <= DEVIATION_PER_EPS * eps:
        problems.append(f"compare deviation {deviation:.3e} > {DEVIATION_PER_EPS} eps over {len(rows)} rows")
    return problems


DISPERSION_SWEEP = Workload(
    name="dispersion_sweep",
    draw=_sweep_draw,
    run=_sweep_run,
    check=_sweep_check,
    counters=lambda params, out: _roll_counters(out["roll"]),
    warmup=(0.04, 0.1, 0.5),
    kernel="dense",
    repeats=2,
    round_size=8,
)


# ----------------------------------------------------------------------
# rate_runs: Bloch-seeded evolutions at eps = 0.05, M = 12, t_final = 200
# ----------------------------------------------------------------------

RATE_EPS = 0.05
RATE_GRID = SpectralGrid(12)
RATE_T_FINAL = 200.0
#: Domain lengths in roll periods, one of each per round.
RATE_PERIODS = (8, 12, 16, 24, 36)
#: (|omega| range, |s| range), one box on each side of both band boundaries:
#: stable/unstable across s* = 0.843 near omega = 0, and across
#: omega* = 0.289 near s = 0.
RATE_REGIONS = (
    ((0.0, 0.08), (0.5, 0.75)),
    ((0.0, 0.08), (1.0, 1.5)),
    ((0.15, 0.24), (0.0, 0.2)),
    ((0.34, 0.42), (0.0, 0.2)),
)
#: sigma = j / n_periods with j / n_periods <= 1/8.  Strongly damped Bloch
#: numbers (sigma = 1/4 decays by e^-11 over the horizon) fall to the level
#: of the neutral modes the quadratic term excites, and their fitted rate
#: then misses by several percent.
RATE_SIGMA_MAX = 0.125
#: Criterion-8 step sizes and rate tolerances: short domains, long domains.
RATE_SHORT_PERIODS = 12


def _rate_dt(n_periods: int) -> float:
    return 0.05 if n_periods <= RATE_SHORT_PERIODS else 0.2


def _rate_tolerance(n_periods: int) -> float:
    return 0.05 if n_periods <= RATE_SHORT_PERIODS else 0.10


def _rate_draw(rng: np.random.Generator, i: int) -> tuple:
    n_periods = RATE_PERIODS[i % len(RATE_PERIODS)]
    omega_box, s_box = RATE_REGIONS[int(rng.integers(len(RATE_REGIONS)))]
    omega = float(rng.uniform(*omega_box) * rng.choice((-1.0, 1.0)))
    s = float(rng.uniform(*s_box) * rng.choice((-1.0, 1.0)))
    j = int(rng.integers(1, int(RATE_SIGMA_MAX * n_periods) + 1))
    return omega, s, n_periods, j, RATE_T_FINAL


def _rate_run(case: tuple) -> dict:
    omega, s, n_periods, j, t_final = case
    roll = rolls.solve_roll(rolls.RollParameters(RATE_EPS, omega, s), RATE_GRID)
    config = evolution.EvolutionConfig(
        n_periods=n_periods, dt=_rate_dt(n_periods), seed_sigma=j / n_periods, t_final=t_final
    )
    return {"roll": roll, "result": evolution.evolve(roll, config)}


def _rate_error(out: dict) -> float:
    res = out["result"]
    return abs(res.measured_rate - res.expected_rate) / abs(res.expected_rate)


def _rate_check(case: tuple, out: dict) -> list[str]:
    n_periods = case[2]
    problems = _roll_check(out["roll"])
    rel = _rate_error(out)
    if not rel <= _rate_tolerance(n_periods):
        problems.append(f"rate off by {rel:.3e} > {_rate_tolerance(n_periods)}")
    drift = out["result"].mass_drift
    if not drift < 1e-12:
        problems.append(f"mass drift {drift:.3e} >= 1e-12")
    return problems


def _rate_counters(case: tuple, out: dict) -> dict[str, float]:
    n_periods, t_final = case[2], case[4]
    steps = max(1, round(t_final / _rate_dt(n_periods)))
    # Retained modes |n| <= K collocated on next_fast_len(4K + 1) points, as in evolve.
    n_points = next_fast_len(4 * n_periods * (RATE_GRID.n_modes + 1) + 1)
    return {
        **_roll_counters(out["roll"]),
        "evolution.steps": steps,
        # Four stages per step, each one inverse and one forward transform.
        "evolution.fft_points": 8 * steps * n_points,
        "evolution.rate_rel_err_max": _rate_error(out),
        "evolution.mass_drift_max": out["result"].mass_drift,
    }


RATE_RUNS = Workload(
    name="rate_runs",
    draw=_rate_draw,
    run=_rate_run,
    check=_rate_check,
    counters=_rate_counters,
    # A short run on the smallest domain: every code path, little of the time.
    warmup=(0.0, 0.6, RATE_PERIODS[0], 1, 10.0),
    kernel="spectral",
    round_size=len(RATE_PERIODS),
)


WORKLOADS = {w.name: w for w in (BAND_MAP, DISPERSION_SWEEP, RATE_RUNS)}
