import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from conslaw import cli
from conslaw.cli import main
from conslaw.errors import OutOfRange


DATA = Path(__file__).parent / "data"


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


class TestMap:
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

    def test_evolve_mass_column_constant(self, capsys):
        code, out, err = run(
            capsys, "evolve", "--eps", "0.02", "--omega", "0", "--s", "0",
            "--sigma", "0.25", "--periods", "4", "--dt", "0.1", "--t-final", "10",
            "--modes", "10",
        )
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
    """Stdout bytes at fixed arguments, as written before the batched Bloch sweep."""

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
                # the only output that serializes a field, written by the
                # complex-spectrum PeriodicField
                "solve_m16.json",
                ("solve", "--eps", "0.1", "--omega", "0.2", "--s", "0.8", "--modes", "16"),
            ),
        ],
    )
    def test_stdout_matches_fixture(self, capsys, fixture, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (DATA / fixture).read_text()


class TestGoldenEvolve:
    """``evolve`` output as written by the complex-spectrum integrator."""

    @pytest.mark.parametrize(
        "fixture,argv",
        [
            (
                "evolve_m12.csv",
                ("--eps", "0.05", "--omega", "0", "--s", "1.2", "--sigma", "0.125",
                 "--periods", "8", "--dt", "0.05", "--t-final", "50", "--modes", "12"),
            ),
            (
                # negative, decaying Bloch number on another domain
                "evolve_p12_m12.csv",
                ("--eps", "0.05", "--omega", "0.1", "--s", "0.5", "--sigma", "-0.25",
                 "--periods", "12", "--dt", "0.1", "--t-final", "60", "--modes", "12"),
            ),
        ],
    )
    def test_stdout_matches_fixture(self, capsys, fixture, argv):
        code, out, _ = run(capsys, "evolve", *argv)
        assert code == 0
        got = [line.split(",") for line in out.splitlines()]
        want = [line.split(",") for line in (DATA / fixture).read_text().splitlines()]
        assert got[0] == want[0] == ["t", "perturbation_norm", "mass"]
        assert len(got) == len(want)
        assert [(r[0], r[2]) for r in got] == [(r[0], r[2]) for r in want]
        norms_got = np.array([float(r[1]) for r in got[1:]])
        norms_want = np.array([float(r[1]) for r in want[1:]])
        np.testing.assert_allclose(norms_got, norms_want, rtol=1e-10, atol=0.0)
