"""One benchmark process: set up, then (in run mode) run the closed loop.

Started by ``run.py`` in a fresh interpreter with the BLAS thread count
pinned in its environment.  It prints one JSON object on stdout:

- ``--mode setup``: the set-up time only;
- ``--mode run``: per-op timings, check failures, layer counters and, with
  ``--trace 1``, the per-layer span totals of the traced ops.

Set-up is timed from ``--t0``, the parent's ``time.monotonic()`` just before
it started this process (a system-wide clock on Linux), to the end of
``import conslaw.cli`` plus one warm-up op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from calibration import Calibration
from layers import OP_SPAN, Tracer, span_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Thread variables recorded with every result (and pinned by run.py).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    """Import conslaw from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import conslaw.cli  # noqa: F401  (set-up covers the CLI's imports)

    origin = Path(conslaw.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"conslaw imported from {origin}, not from {SRC}")


def environment() -> dict:
    def blas_version(module) -> str:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(np),
        "scipy_blas": blas_version(scipy),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_loop(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: each op starts when the previous one ends.

    Inputs are drawn in rounds of ``workload.round_size`` and the loop ends
    on the first whole round after ``seconds``.  Each round is run
    ``workload.repeats`` times over, so repeats of one input are a round
    apart, and an input's op time is the mean of its runs; every run counts
    in ``run_s`` and ``attempted``.  With a tracer, each round instead runs
    twice, untraced and traced, in alternating order; the untraced runs
    give the overhead base.  A run that
    raises a ``ConslawError`` or fails a check counts as failed; the loop
    goes on.  Times are reported at the reference speed (``calibration.py``).
    """
    from conslaw.errors import ConslawError

    rng = np.random.default_rng(seed)
    calibration = Calibration(workload.kernel)
    calibration.sample()
    runs: list[tuple[int, bool, float, float]] = []  # (op id, traced, start, end)
    failures: list[str] = []
    counters: list[dict] = []
    failed = 0

    def execute(x, op_id: int, trace: bool) -> None:
        nonlocal failed
        t0 = time.perf_counter()
        try:
            if trace:
                with tracer.op(op_id):
                    out = workload.run(x)
            else:
                out = workload.run(x)
        except ConslawError as exc:
            runs.append((op_id, trace, t0, time.perf_counter()))
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            runs.append((op_id, trace, t0, time.perf_counter()))
            problems = workload.check(x, out)
            counters.append(workload.counters(x, out))
        if problems:
            failed += 1
            failures.append(f"op {op_id} {x}: " + "; ".join(problems))
        if calibration.due():
            calibration.sample()

    loop_start = time.perf_counter()
    i = 0
    while time.perf_counter() - loop_start < seconds:
        inputs = [workload.draw(rng, i + k) for k in range(workload.round_size)]
        if tracer is None:
            passes = (False,) * workload.repeats
        else:
            passes = (False, True) if (i // workload.round_size) % 2 == 0 else (True, False)
        for trace in passes:
            for k, x in enumerate(inputs):
                execute(x, i + k, trace)
        i += workload.round_size
    calibration.sample()

    scales = [calibration.scale(start, end) for _, _, start, end in runs]
    scaled = [(op_id, traced, (end - start) * f) for (op_id, traced, start, end), f in zip(runs, scales)]

    def per_input(traced: bool) -> list[float]:
        times: dict[int, list[float]] = {}
        for op_id, was_traced, t in scaled:
            if was_traced == traced:
                times.setdefault(op_id, []).append(t)
        return [statistics.fmean(ts) for ts in times.values()]

    aggregated: dict[str, float] = {}
    for name in sorted({k for c in counters for k in c}):
        values = [c[name] for c in counters if name in c]
        aggregated[name] = float(max(values) if name.endswith("_max") else sum(values) / len(values))
    record = {
        "ops": i,
        "attempted": len(runs),
        "failed": failed,
        "failures": failures,
        "op_s": per_input(False),
        "run_s": [t for _, traced, t in scaled if not traced],
        "run_s_wall": [end - start for _, _, start, end in runs],
        "calibration_s": calibration.samples,
        "speed": calibration.speed(),
        "counters": aggregated,
    }
    if tracer is not None:
        scale = {op_id: f for (op_id, traced, _, _), f in zip(runs, scales) if traced}
        record["op_s_traced"] = per_input(True)
        record["spans"] = span_totals(tracer.spans, scale)
        record["traced_ops"] = record["spans"][OP_SPAN]["calls"]
        record["observed"] = dict(tracer.observed)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--spans", type=str, default=None, help="file for the traced spans")
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workload.run(workload.warmup)
    setup_wall = time.monotonic() - args.t0
    calibration = Calibration(workload.kernel)
    for _ in range(3):
        calibration.sample()
    setup = {"setup_s": setup_wall * calibration.speed(), "setup_wall_s": setup_wall}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    tracer = Tracer() if args.trace else None
    record = run_loop(workload, args.seed, args.seconds, tracer)
    record.update(setup)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = environment()
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
