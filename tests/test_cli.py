import json
import os
import pickle
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import conslaw
from conslaw import acceptance, cli
from conslaw.cli import main
from conslaw.errors import OutOfRange

from pinned import DATA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "solve", "--eps", "0.05", "--omega", "0", "--s", "0.5", "--modes", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 1.0
        assert payload["residual_norm"] < 1e-10
        assert any(m == 1 and re > 0 for m, re, _ in payload["coefficients"])

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "roll.json"
        code, out, _ = run(
            capsys, "solve", "--eps", "0.02", "--omega", "0", "--s", "0",
            "--modes", "12", "--output", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["eps"] == 0.02


ROLL = ("--eps", "0.05", "--omega", "0", "--s", "0")
EVOLVE = ("evolve", *ROLL, "--modes", "10", "--sigma", "0.25", "--periods", "4", "--t-final", "5")


def forbidden_pool(*args, **kwargs):
    raise AssertionError("a pool started for a rejected invocation")


class TestValidation:
    @pytest.mark.parametrize(
        "argv,needle",
        [
            (("solve", "--eps", "0.5", "--omega", "0", "--s", "0"), "--eps"),
            (("solve", "--eps", "0.05", "--omega", "0.7", "--s", "0"), "--omega"),
            (("solve", "--eps", "0.05", "--omega", "0", "--s", "4"), "--s"),
            (("spectrum", *ROLL, "--sigma-max", "0.8"), "--sigma-max"),
            (("solve", "--eps", "0.05", "--omega", "0"), "--s"),
            # checked before any cell is solved, so no pool worker sees it
            (("map", "--eps", "0.02", "--steps", "2", "--modes", "6", "--jobs", "2"), "--modes"),
            (("map", "--eps", "0.02", "--steps", "2", "--mode", "predicate", "--jobs", "-1"), "--jobs"),
            # each range the library checks, reported under the flag that feeds it
            (("solve", *ROLL, "--tol", "1e-12"), "--tol"),  # the dropped tolerance flag
            (("spectrum", *ROLL, "--modes", "7"), "--modes"),
            (("spectrum", *ROLL, "--delta", "0"), "--delta"),
            (("spectrum", *ROLL, "--sigma-steps", "0"), "--sigma-steps"),
            (("compare", "--eps", "0.04", "--omega", "0.25", "--s", "1", "--sigma-hat-max", "40"), "--sigma-hat-max"),
            (("compare", *ROLL, "--sigma-hat-max", "0"), "--sigma-hat-max"),
            ((*EVOLVE, "--t-final", "-1"), "--t-final"),
            ((*EVOLVE, "--dt", "0"), "--dt"),
            ((*EVOLVE, "--amp", "0"), "--amp"),
            ((*EVOLVE, "--periods", "0"), "--periods"),
            ((*EVOLVE, "--sigma", "0.8"), "--sigma"),
            (("map", "--eps", "0.02", "--steps", "2", "--delta", "0", "--jobs", "2"), "--delta"),
            (("map", "--eps", "0.02", "--steps", "2", "--omega-min", "-0.5", "--jobs", "2"), "--omega-min"),
            (("map", "--eps", "0.02", "--steps", "2", "--s-max", "4", "--jobs", "2"), "--s-max"),
            (("map", "--eps", "0.5", "--steps", "2", "--jobs", "2"), "--eps"),
            (("map", "--eps", "0", "--steps", "2", "--jobs", "2"), "--eps"),
            (("map", "--eps", "0.02", "--steps", "1", "--jobs", "2"), "--steps"),
            (("map", "--eps", "0.02", "--steps", "2", "--mode", "all"), "--mode"),
            # argparse's own type and choice checks
            ((*EVOLVE, "--dt", "abc"), "--dt"),
            (("spectrum", *ROLL, "--modes", "12", "--format", "xml"), "--format"),
            (("map", "--eps", "0.02", "--steps", "1.5", "--jobs", "2"), "--steps"),
            # flags a subcommand never reads are not accepted
            (("solve", *ROLL, "--delta", "1"), "--delta"),
            (("solve", *ROLL, "--format", "csv"), "--format"),
            (("solve", *ROLL, "--jobs", "1"), "--jobs"),
            (("spectrum", *ROLL, "--jobs", "1"), "--jobs"),
            (("compare", *ROLL, "--delta", "1"), "--delta"),
            (("compare", *ROLL, "--jobs", "1"), "--jobs"),
            ((*EVOLVE, "--delta", "1"), "--delta"),
            ((*EVOLVE, "--jobs", "1"), "--jobs"),
            (("verify", "--modes", "12"), "--modes"),
            (("verify", "--delta", "1"), "--delta"),
            (("verify", "--format", "csv"), "--format"),
            (("verify", "--jobs", "1"), "--jobs"),
            # within the band-edge tolerance of |omega| = 1/2, where the
            # sideband expansion is singular
            (
                ("map", "--eps", "0.02", "--steps", "2", "--mode", "predicate",
                 "--omega-min", "-0.4", "--omega-max", "0.4999999999999999"),
                "--omega-min/--omega-max",
            ),
            # one step leaves a single sample in the second-half rate fit
            (
                ("evolve", "--eps", "0.05", "--omega", "0.1", "--s", "0.5", "--sigma", "0.25",
                 "--periods", "4", "--dt", "0.1", "--t-final", "0.1", "--modes", "12"),
                "--t-final",
            ),
            # NaN fails every check, which states the condition that must hold
            (("spectrum", *ROLL, "--modes", "12", "--sigma-min", "nan"), "--sigma-min"),
            (("solve", "--eps", "nan", "--omega", "0", "--s", "0"), "--eps"),
            ((*EVOLVE, "--sigma", "nan"), "--sigma"),
            ((*EVOLVE, "--dt", "nan"), "--dt"),
            (("map", "--eps", "0.02", "--steps", "2", "--mode", "predicate", "--s-min", "nan"), "--s-min"),
            (("spectrum", *ROLL, "--modes", "12", "--delta", "nan"), "--delta"),
            ((*EVOLVE, "--t-final", "inf"), "--t-final"),
            # a seed amplitude whose norm overflows
            ((*EVOLVE, "--amp", "inf"), "--amp"),
            ((*EVOLVE, "--amp", "1e300"), "--amp"),
            # a required gap must be finite, as t_final must
            (("spectrum", *ROLL, "--modes", "12", "--delta", "inf"), "--delta"),
            (("map", "--eps", "0.02", "--steps", "2", "--delta", "inf", "--jobs", "2"), "--delta"),
            ((*EVOLVE, "--dt", "inf"), "--dt"),
        ],
    )
    def test_rejects_bad_flags(self, capsys, monkeypatch, argv, needle):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", forbidden_pool)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert needle in err

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_config_flag_rejected(self, capsys, tmp_path, command):
        valid = {
            "solve": ("solve", *ROLL, "--modes", "12"),
            "spectrum": ("spectrum", *ROLL, "--modes", "12", "--sigma-steps", "1"),
            "map": ("map", "--eps", "0.02", "--steps", "2", "--mode", "predicate"),
            "compare": ("compare", *ROLL, "--modes", "12", "--steps", "2"),
            "evolve": EVOLVE,
            "verify": ("verify",),
        }[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        code, out, err = run(capsys, *valid, "--config", str(cfg))
        assert code == 2 and out == ""
        assert "--config" in err

    def test_environment_leaves_output_unchanged(self, capsys, monkeypatch):
        argv = ("solve", "--eps", "0.02", "--omega", "0", "--s", "0")
        code, plain, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(plain)["coefficients"]) == 65  # default M = 32
        monkeypatch.setenv("CONSLAW_MODES", "12")
        monkeypatch.setenv("CONSLAW_EPS", "0.03")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == plain

    def test_out_of_range_pickles_with_its_parameter(self):
        exc = pickle.loads(pickle.dumps(OutOfRange("n_modes must be >= 8", param="n_modes")))
        assert exc.param == "n_modes" and str(exc) == "n_modes must be >= 8"

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "roll.json"
        code, out, err = run(capsys, "solve", *ROLL, "--modes", "12", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(target) in err


def criterion(passed, detail):
    return lambda: acceptance.CriterionResult(passed, detail)


class TestEntryPoints:
    def test_python_dash_m_runs_the_cli(self, capsys, monkeypatch):
        argv = ["solve", "--eps", "0.1", "--omega", "0.2", "--s", "0.8", "--modes", "16"]
        monkeypatch.setattr(sys, "argv", ["conslaw", *argv])
        with pytest.raises(SystemExit) as info:
            runpy.run_module("conslaw", run_name="__main__")
        assert info.value.code == 0
        assert capsys.readouterr().out == (DATA / "solve_m16.json").read_text()

    def test_import_leaves_scipy_fft_out(self):
        # Only evolve and verify integrate in time, and only they import scipy.fft.
        src = str(Path(conslaw.__file__).parents[1])
        code = "import sys, conslaw.cli; sys.exit('scipy.fft' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}).returncode == 0


class TestVerify:
    def test_failing_criterion_fails_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(
            acceptance, "CRITERIA",
            (("1 passes", criterion(True, "2 checks passed")), ("2 fails", criterion(False, "x = 3 > 2"))),
        )
        code, out, _ = run(capsys, "verify")
        assert code == 3
        assert out == "PASS  1 passes  2 checks passed\nFAIL  2 fails   x = 3 > 2\nFAIL  1/2 criteria\n"

    def test_passing_criteria_pass_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "CRITERIA", (("1 a", criterion(True, "ok")), ("2 b", criterion(True, "ok"))))
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out.splitlines()[-1] == "PASS  2/2 criteria"


class TestSpectrum:
    def test_csv_shape_and_determinism(self, capsys):
        argv = (
            "spectrum", "--eps", "0.02", "--omega", "0", "--s", "0.5",
            "--sigma-min", "0", "--sigma-max", "0.2", "--sigma-steps", "3", "--modes", "12",
        )
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        lines = out1.strip().splitlines()
        assert lines[0].startswith("sigma,re_lambda1")
        assert len(lines) == 4
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2  # byte-identical reruns

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--eps", "0.02", "--omega", "0", "--s", "0",
            "--sigma-min", "0", "--sigma-max", "0.1", "--sigma-steps", "2",
            "--modes", "12", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2 and "gap" in rows[0]

    def test_negative_exponent_in_the_equals_form(self, capsys):
        # The +-1e-10 members fail the rank-4 certificate and pass the rank-3 one.
        code, out, _ = run(
            capsys, "spectrum", "--eps", "0.05", "--omega", "0.1", "--s", "0.8", "--modes", "12",
            "--sigma-min=-1e-10", "--sigma-max=1e-10", "--sigma-steps", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("sigma,re_lambda1")
        assert [line.split(",")[0] for line in lines[1:]] == ["-1e-10", "0", "1e-10"]

    @pytest.mark.parametrize("value", ["-1e-10", "-2.5E+2", "-.5e-1", "-3", "-0.25"])
    def test_negative_number_after_a_space(self, capsys, value):
        # argparse's own negative-number pattern has no exponent, and would
        # read "-1e-10" after a space as a flag.
        outs = []
        for flag in (["--sigma-min", value], [f"--sigma-min={value}"]):
            code, out, err = run(
                capsys, "spectrum", "--eps", "0.05", "--omega", "0.1", "--s", "0.8", "--modes", "12",
                *flag, "--sigma-max=1e-10", "--sigma-steps", "3",
            )
            outs.append((code, out, err))
        assert outs[0] == outs[1]
        assert outs[0][0] == (0 if float(value) >= -0.5 else 2)

    def test_gap_violation_is_a_numerical_failure(self, capsys):
        code, out, err = run(capsys, "spectrum", *ROLL, "--modes", "12", "--sigma-steps", "1", "--delta", "50")
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: spectral gap ")


class TestMap:
    def test_huge_delta_fails_with_one_line(self, capsys):
        # The certificate does not depend on delta, so nothing overflows: the
        # gap check fails the cell, with no NumPy warning on the way.
        argv = ("map", "--eps", "0.02", "--steps", "2", "--modes", "8", "--jobs", "1", "--delta", "1e308")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and caught == []
        assert err.startswith("numerical failure: spectral gap ") and err.count("\n") == 1

    def test_verdict_columns_agree_on_clear_cells(self, capsys):
        code, out, _ = run(
            capsys, "map", "--eps", "0.02", "--steps", "3", "--modes", "12",
            "--s-min", "-1.4", "--s-max", "1.4", "--omega-min", "-0.4", "--omega-max", "0.4",
            "--jobs", "1",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 9
        for row in rows:
            assert row[2] == row[3]  # predicate vs numeric

    @pytest.mark.parametrize(
        "jobs,cpus,workers",
        [("4096", 2, 4), ("3", 2, 3), ("0", 2, 2), ("0", None, None), ("1", 8, None)],
    )
    def test_pool_never_outnumbers_the_cells(self, capsys, monkeypatch, jobs, cpus, workers):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        # Four cells and four tasks: s from -1.4 to 1.5 has no exactly
        # mirrored pair to fold.
        argv = ("map", "--eps", "0.02", "--steps", "2", "--modes", "8", "--s-min", "-1.4")
        code, out, _ = run(capsys, *argv, "--jobs", jobs)
        assert code == 0
        # No pool at all when one worker would do.
        assert sizes == ([] if workers is None else [workers])
        assert out == run(capsys, *argv, "--jobs", "1")[1]

    @pytest.mark.parametrize("s_range, solves", [(("-1.5", "1.5"), 8), (("-1.4", "1.5"), 16)], ids=["mirrored", "apart"])
    def test_each_exactly_mirrored_pair_is_solved_once(self, capsys, monkeypatch, s_range, solves):
        # linspace(-1.5, 1.5, 4) mirrors both pairs of s exactly; with
        # -1.4 .. 1.5 no cell has its mirror, and every cell is solved.
        solved, solve = [], cli.solve_roll

        def spy(params, grid):
            solved.append((params.omega, params.s))
            return solve(params, grid)

        monkeypatch.setattr(cli, "solve_roll", spy)
        argv = ("map", "--eps", "0.02", "--steps", "4", "--modes", "8", "--s-min", s_range[0], "--s-max", s_range[1])
        code, out, _ = run(capsys, *argv, "--jobs", "1")
        assert code == 0 and len(solved) == solves
        assert len({(omega, abs(s)) for omega, s in solved}) == solves
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 16 and {(float(r[1]), float(r[0])) for r in rows} >= set(solved)

    def test_predicate_only_is_fast_path(self, capsys):
        code, out, _ = run(capsys, "map", "--eps", "0.02", "--steps", "2", "--mode", "predicate")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert code == 0 and all(row[3] == "" for row in rows)


class TestCompareAndEvolve:
    def test_compare_csv(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--eps", "0.04", "--omega", "0.25", "--s", "1",
            "--modes", "12", "--steps", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "sigma_hat"
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ("--eps", "0.02", "--omega", "0", "--s", "0", "--sigma", "0.25", "--periods", "4",
                 "--dt", "0.1", "--t-final", "10", "--modes", "10"),
                id="quarter",
            ),
            pytest.param(
                # the zone edge: the seed repeats on 2 of the 4 periods
                ("--eps", "0.05", "--omega", "0.1", "--s", "0.5", "--modes", "12", "--sigma", "0.5",
                 "--periods", "4", "--t-final", "5"),
                id="zone_edge",
            ),
        ],
    )
    def test_evolve_mass_column_constant(self, capsys, argv):
        code, out, err = run(capsys, "evolve", *argv)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        masses = {row[2] for row in rows}
        assert len(masses) == 1
        assert "measured_rate=" in err

    def test_evolve_reports_sigma_rounding(self, capsys):
        code, _, err = run(
            capsys, "evolve", "--eps", "0.02", "--omega", "0", "--s", "0",
            "--sigma", "0.26", "--periods", "4", "--dt", "0.1", "--t-final", "5",
            "--modes", "10",
        )
        assert code == 0
        assert "rounded" in err


class TestGoldenBytes:
    """Every subcommand's stdout at fixed arguments, byte for byte against its fixture."""

    @pytest.mark.parametrize(
        "fixture,argv",
        [
            (
                # M = 32 through sigma = 0, with curve crossings on the positive side
                "spectrum_m32.csv",
                ("spectrum", "--eps", "0.04", "--omega", "0.1", "--s", "0.5", "--sigma-min", "-0.3",
                 "--sigma-max", "0.3", "--sigma-steps", "13", "--modes", "32"),
            ),
            (
                "map_both_steps4_m12.csv",
                ("map", "--eps", "0.02", "--mode", "both", "--steps", "4", "--modes", "12", "--jobs", "1"),
            ),
            (
                "compare_m32.csv",
                ("compare", "--eps", "0.04", "--omega", "0.25", "--s", "1", "--modes", "32", "--steps", "11"),
            ),
            (
                # the only output that serializes a field: the roll of the
                # convolved residual, centered coefficients with 0.0 imaginary parts
                "solve_m16.json",
                ("solve", "--eps", "0.1", "--omega", "0.2", "--s", "0.8", "--modes", "16"),
            ),
            (
                # the whole zone at M = 32, as JSON: sigma = 0 on its parity blocks
                "spectrum_zone_m32.json",
                ("spectrum", "--eps", "0.04", "--omega", "0.1", "--s", "0.5", "--sigma-min", "-0.5",
                 "--sigma-max", "0.5", "--sigma-steps", "41", "--modes", "32", "--format", "json"),
            ),
            (
                # sigma = 0 and +-1e-10 at M = 12, as JSON: +-1e-10 certified by the rank-3 pass
                "spectrum_zero_m12.json",
                ("spectrum", "--eps", "0.05", "--omega", "0.1", "--s", "0.8", "--modes", "12",
                 "--sigma-min=-1e-10", "--sigma-max", "1e-10", "--sigma-steps", "3", "--format", "json"),
            ),
            (
                "evolve_m12.csv",
                ("evolve", "--eps", "0.05", "--omega", "0", "--s", "1.2", "--sigma", "0.125",
                 "--periods", "8", "--dt", "0.05", "--t-final", "50", "--modes", "12"),
            ),
            (
                # negative, decaying Bloch number on another domain
                "evolve_p12_m12.csv",
                ("evolve", "--eps", "0.05", "--omega", "0.1", "--s", "0.5", "--sigma", "-0.25",
                 "--periods", "12", "--dt", "0.1", "--t-final", "60", "--modes", "12"),
            ),
            (
                # sigma = 0 repeats on one period of the eight (g = 8)
                "evolve_p8_s0_m12.csv",
                ("evolve", "--eps", "0.05", "--omega", "0.1", "--s", "0.5", "--sigma", "0",
                 "--periods", "8", "--dt", "0.1", "--t-final", "20", "--modes", "12"),
            ),
            (
                # sigma = 1/4 repeats on four periods of the sixteen (g = 4)
                "evolve_p16_m12.csv",
                ("evolve", "--eps", "0.05", "--omega", "0.1", "--s", "0.5", "--sigma", "0.25",
                 "--periods", "16", "--dt", "0.2", "--t-final", "60", "--modes", "12"),
            ),
            (
                # each criterion's verdict and check count; after test_acceptance.py,
                # criteria 8 and 9 read its cached runs
                "verify.txt",
                ("verify",),
            ),
            (
                # the default M = 32, where the classifier mostly settles its grid at level zero
                "map_both_steps4_m32.csv",
                ("map", "--eps", "0.02", "--mode", "both", "--steps", "4", "--jobs", "1"),
            ),
        ],
    )
    def test_stdout_matches_fixture(self, capsys, fixture, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (DATA / fixture).read_text()
