import json
from pathlib import Path

import numpy as np
import pytest

from conslaw.cli import main


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


class TestValidation:
    @pytest.mark.parametrize(
        "argv,needle",
        [
            (("solve", "--eps", "0.5", "--omega", "0", "--s", "0"), "--eps"),
            (("solve", "--eps", "0.05", "--omega", "0.7", "--s", "0"), "--omega"),
            (("solve", "--eps", "0.05", "--omega", "0", "--s", "4"), "--s"),
            (("spectrum", "--eps", "0.05", "--omega", "0", "--s", "0", "--sigma-max", "0.8"), "--sigma-max"),
            (("solve", "--eps", "0.05", "--omega", "0"), "--s"),
            # checked before any cell is solved, so no pool worker sees it
            (("map", "--eps", "0.02", "--steps", "2", "--modes", "6", "--jobs", "2"), "--modes"),
            (("map", "--eps", "0.02", "--steps", "2", "--mode", "predicate", "--jobs", "-1"), "--jobs"),
        ],
    )
    def test_rejects_bad_flags(self, capsys, argv, needle):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert needle in err

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


class TestOverrides:
    def test_env_fills_missing_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("CONSLAW_MODES", "12")
        code, out, _ = run(capsys, "solve", "--eps", "0.02", "--omega", "0", "--s", "0")
        assert code == 0
        assert len(json.loads(out)["coefficients"]) == 25

    def test_config_file_and_flag_precedence(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modes": 12, "eps": 0.02, "omega": 0.0, "s": 0.0}))
        code, out, _ = run(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["eps"] == 0.02
        # explicit flag wins over the config value
        code, out, _ = run(capsys, "solve", "--config", str(cfg), "--eps", "0.04")
        assert json.loads(out)["eps"] == 0.04
        # env wins over config but loses to flags
        monkeypatch.setenv("CONSLAW_EPS", "0.03")
        code, out, _ = run(capsys, "solve", "--config", str(cfg))
        assert json.loads(out)["eps"] == 0.03

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run(capsys, "solve", "--config", str(cfg))[0] == 2


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
