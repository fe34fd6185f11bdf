"""conslaw benchmark: one workload, its outputs checked, every metric printed.

    python3 bench/run.py --workload band_map --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the program from its ``src``.
Every op is timed in a child interpreter whose environment pins the BLAS
thread count to 1; this process only spawns, waits and aggregates.  Times
are scaled to a reference host speed by a calibration kernel timed between
ops (``calibration.py``); raw wall times stay in the run record.

- ``--trace 0`` prints the end-to-end metrics.  Set-up is measured
  ``SETUP_REPEATS`` times in fresh interpreters and reported as the median.
- ``--trace 1`` prints the per-layer metrics.  Each input runs untraced and
  traced; layer self times come from the spans of the traced runs, and the
  tracing overhead is the traced op median minus the untraced one.

The load is a closed loop with one client in one process: there is no queue,
so no op ever waits and no wait time is reported.  The last stdout line is
the result: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it records the environment.  Full records, with per-op timings and
every failed check, and the spans of a traced run go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh interpreters timed for set-up in an end-to-end run (the run's own included).
SETUP_REPEATS = 5
#: The whole benchmark ends within this, children included.
DEADLINE_S = 170.0
#: Pinned only in the children's environment.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

#: Functions whose calls and self time per op are reported.
TIMED = (
    "bloch.assemble_bloch",
    "bloch.bloch_spectrum",
    "bloch.critical_curves",
    "bloch.critical_modes",
    "dispersion.classify_numerically",
    "rolls.solve_roll",
    "mgl.compare_exact_vs_mgl",
    "evolution.evolve",
)
#: Every wrapped public function, each with an error count.
WRAPPED = {
    "rolls": ("asymptotic_roll", "solve_roll", "zero_roll", "amplitude_A", "amplitude_alpha", "measured_alpha"),
    "bloch": (
        "constant_symbol", "assemble_bloch", "bloch_spectrum", "critical_modes",
        "critical_curves", "critical_curve_array",
    ),
    "dispersion": (
        "growth_prefactor", "leading_reduced_matrix", "cubic_coefficients", "cardano_roots",
        "companion_roots", "p_symbols", "small_sigma_expansion", "sideband_product",
        "stability_predicate", "band_edge_omega", "classify_numerically",
    ),
    "mgl": ("mgl_roll_amplitude", "mgl_dispersion_matrix", "mgl_small_sigma", "compare_exact_vs_mgl", "mgl_rhs"),
    "evolution": ("evolve", "mass", "mass_of_values"),
}
#: Layer counters read from each op's outputs.
COUNTERS = {
    "bloch.matrix_dim": "count",
    "rolls.newton_iters": "count/op",
    "rolls.residual_max": "1",
    "evolution.steps": "count/op",
    "evolution.fft_points": "count/op",
    "evolution.rate_rel_err_max": "1",
    "evolution.mass_drift_max": "1",
}
TRACE_METRICS = {
    "evolution.step_us": "us",
    "op.untraced_s_p50": "s",
    "op.traced_s_p50": "s",
    "trace.overhead_s": "s",
    "trace.layer_self_s": "s/op",
    "trace.harness_self_s": "s/op",
    "trace.coverage": "fraction",
    "trace.spans_per_op": "count/op",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
    units.update(COUNTERS)
    units.update(TRACE_METRICS)
    for module, functions in WRAPPED.items():
        for fn in functions:
            units[f"{module}.{fn}.errors"] = "count"
    return units


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), without numpy."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(record: dict, setups: list[float]) -> dict[str, float]:
    ops = record["op_s"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(record["run_s"]) / sum(record["run_s"]),
        "op_s_p50": _percentile(ops, 50),
        "op_s_p90": _percentile(ops, 90),
        "ok_frac": 1.0 - record["failed"] / record["attempted"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record: dict) -> dict[str, float]:
    spans = record["spans"]
    n_ops = record["traced_ops"]
    empty = {"calls": 0, "errors": 0, "self_s": 0.0}
    values: dict[str, float] = {}
    for name in TIMED:
        entry = spans.get(name, empty)
        values[f"{name}.calls"] = entry["calls"] / n_ops
        values[f"{name}.self_s"] = entry["self_s"] / n_ops
    for module, functions in WRAPPED.items():
        for fn in functions:
            values[f"{module}.{fn}.errors"] = spans.get(f"{module}.{fn}", empty)["errors"]
    counters = record["counters"]
    for name in COUNTERS:
        values[name] = record["observed"].get(name, counters.get(name, 0.0))
    steps = values["evolution.steps"]
    values["evolution.step_us"] = 1e6 * values["evolution.evolve.self_s"] / steps if steps else 0.0
    untraced = _percentile(record["op_s"], 50)
    traced = _percentile(record["op_s_traced"], 50)
    layer_self = sum(e["self_s"] for name, e in spans.items() if name != "op") / n_ops
    harness_self = spans["op"]["self_s"] / n_ops
    values.update({
        "op.untraced_s_p50": untraced,
        "op.traced_s_p50": traced,
        "trace.overhead_s": traced - untraced,
        "trace.layer_self_s": layer_self,
        "trace.harness_self_s": harness_self,
        "trace.coverage": layer_self / (layer_self + harness_self),
        "trace.spans_per_op": sum(e["calls"] for e in spans.values()) / n_ops,
    })
    return values


def _commit() -> str:
    """HEAD of the checkout, if it is a git repository (never of a parent directory)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON record."""
    env = dict(os.environ, **PINNED_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.monotonic()
    done = subprocess.run(
        [*cmd, "--t0", repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}: {' '.join(cmd)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="band_map, dispersion_sweep or rate_runs")
    parser.add_argument("--seed", type=int, required=True, help="seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "conslaw" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'conslaw'}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [
            _spawn([*common, "--mode", "setup"], deadline)["setup_s"]
            for _ in range(0 if args.trace else SETUP_REPEATS - 1)
        ]
        run_args = [*common, "--mode", "run", "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans", str(OUT / f"{tag}-spans.jsonl")]
        record = _spawn(run_args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(record["setup_s"])

    if args.trace:
        values, units = per_layer(record), per_layer_units()
    else:
        values, units = end_to_end(record, setups), END_TO_END
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    env = {
        **record.pop("env"),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process; no queue, so no wait time",
        "ops": record["ops"],
        "fail_frac": record["failed"] / record["attempted"],
        "setup_samples_s": setups,
        "speed": record["speed"],
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "record": record}, fh, indent=1)
    for failure in record["failures"][:10]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
