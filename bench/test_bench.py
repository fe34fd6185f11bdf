"""Tests of the benchmark itself: python3 -m pytest bench -q (about 10 s)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
from conslaw import dispersion, rolls  # noqa: E402
from conslaw.errors import NoConvergence  # noqa: E402
from worker import run_loop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_round_of_each_workload_passes_its_checks(name):
    workload = WORKLOADS[name]
    record = run_loop(workload, seed=7, seconds=1e-3)
    assert record["attempted"] == workload.round_size * workload.repeats
    assert record["failed"] == 0, record["failures"]
    assert len(record["op_s"]) == workload.round_size
    metrics = run.end_to_end({**record, "peak_rss_mb": 1.0}, [0.5])
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert metrics["ok_frac"] == 1.0


def test_inputs_follow_the_seed():
    for workload in WORKLOADS.values():
        draws = [[workload.draw(np.random.default_rng(seed), i) for i in range(6)] for seed in (3, 3, 4)]
        assert draws[0] == draws[1] != draws[2]


def test_workload_names_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_printed_metrics_match_benchmark_json():
    for trace, section, units in ((0, "end_to_end", run.END_TO_END), (1, "per_layer", run.per_layer_units())):
        done = _bench("--workload", "band_map", "--seed", "5", "--seconds", "0.3", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert printed == declared == units


def test_flipped_verdict_counts_as_failed(monkeypatch):
    original = dispersion.stability_predicate
    flip = {dispersion.Stability.STABLE: dispersion.Stability.UNSTABLE,
            dispersion.Stability.UNSTABLE: dispersion.Stability.STABLE}
    monkeypatch.setattr(dispersion, "stability_predicate", lambda w, s: flip[original(w, s)])
    record = run_loop(WORKLOADS["band_map"], seed=1, seconds=1e-3)
    assert record["attempted"] == record["failed"] > 0
    assert "numeric verdict" in record["failures"][0]
    assert run.end_to_end({**record, "peak_rss_mb": 1.0}, [0.5])["ok_frac"] == 0.0


def test_program_error_counts_as_failed_and_the_loop_goes_on(monkeypatch):
    calls = []

    def failing_solve(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise NoConvergence(30, 1.0)
        return solve(*args, **kwargs)

    solve = rolls.solve_roll
    monkeypatch.setattr(rolls, "solve_roll", failing_solve)
    record = run_loop(WORKLOADS["band_map"], seed=1, seconds=0.2)
    assert record["attempted"] >= 2 and record["failed"] == 1
    assert record["failures"][0].startswith("op 0 ") and "NoConvergence" in record["failures"][0]


def test_tracer_wraps_every_binding_and_self_times_add_up():
    import conslaw.cli
    from conslaw import bloch, evolution

    tracer = layers.Tracer()
    bound = {(module.__name__, attr) for module, attr, _, _ in tracer._bindings}
    for binding in (
        ("conslaw.evolution", "assemble_bloch"),
        ("conslaw.evolution", "critical_modes"),
        ("conslaw.cli", "solve_roll"),
        ("conslaw.cli", "critical_curves"),
        ("conslaw.bloch", "critical_curves"),
    ):
        assert binding in bound
    originals = (bloch.critical_curves, evolution.assemble_bloch, conslaw.cli.solve_roll)

    workload = WORKLOADS["band_map"]
    record = run_loop(workload, seed=2, seconds=1e-3, tracer=tracer)
    assert (bloch.critical_curves, evolution.assemble_bloch, conslaw.cli.solve_roll) == originals
    n_ops = workload.round_size
    assert record["failed"] == 0 and len(record["op_s_traced"]) == len(record["op_s"]) == n_ops

    totals = layers.span_totals(tracer.spans)
    assert totals["bloch.assemble_bloch"]["calls"] == totals["bloch.bloch_spectrum"]["calls"] == 38 * n_ops
    assert totals["dispersion.classify_numerically"]["calls"] == n_ops
    roots = [s for s in tracer.spans if s[3] == layers.OP_SPAN]
    assert sorted(s[2] for s in roots) == list(range(n_ops))
    assert sum(e["self_s"] for e in totals.values()) == pytest.approx(sum(s[5] - s[4] for s in roots), rel=1e-9)
    parents = {s[0]: s[3] for s in tracer.spans}
    assert {parents[s[1]] for s in tracer.spans if s[3] == "bloch.bloch_spectrum"} == {"bloch.critical_curves"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "band_map", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
