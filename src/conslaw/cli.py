"""Command-line front end.

Subcommands: ``solve``, ``spectrum``, ``map``, ``compare``, ``evolve``,
``verify``.  Option values resolve as flags > ``CONSLAW_<NAME>`` environment
variables > ``--config`` JSON file > built-in defaults, and every parameter
is validated before any computation starts.  Exit codes: 0 success, 2
validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import acceptance
from . import dispersion as dsp
from . import evolution as ev
from . import mgl
from .bloch import critical_curve_array, critical_curves
from .errors import ConslawError, OutOfRange
from .fourier import SpectralGrid
from .rolls import RollParameters, solve_roll

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3

_DEFAULTS = {
    "modes": 32,
    "delta": 1.0,
    "tol": 1e-12,
    "format": "csv",
    "jobs": 0,  # 0 = all cores
    "sigma_min": 0.0,
    "sigma_max": 0.45,
    "sigma_steps": 19,
    "sigma_hat_max": 1.0,
    "steps": 11,
    "mode": "both",
    "s_min": -1.5,
    "s_max": 1.5,
    "omega_min": -0.45,
    "omega_max": 0.45,
    "periods": 4,
    "dt": 0.1,
    "t_final": None,
    "amp": 1e-6,
}


def _fmt(x) -> str:
    """Deterministic, locale-independent float formatting."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def _resolve(args: argparse.Namespace, key: str, cast, config: dict):
    """flags > CONSLAW_* env > config file > defaults."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    env = os.environ.get(f"CONSLAW_{key.upper()}")
    if env is not None:
        try:
            return cast(env)
        except ValueError as exc:
            raise OutOfRange(f"environment CONSLAW_{key.upper()}: {exc}") from exc
    if key in config:
        return cast(config[key])
    return _DEFAULTS.get(key)


class _Options:
    """Resolved option values for one invocation."""

    def __init__(self, args: argparse.Namespace):
        config = {}
        if getattr(args, "config", None):
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise OutOfRange("--config: file must contain a JSON object")
        self._args = args
        self._config = config

    def get(self, key: str, cast=float):
        return _resolve(self._args, key, cast, self._config)


def _validated_params(opt: _Options) -> RollParameters:
    eps = opt.get("eps")
    omega = opt.get("omega")
    s = opt.get("s")
    for name, val in (("--eps", eps), ("--omega", omega), ("--s", s)):
        if val is None:
            raise OutOfRange(f"{name} is required")
    if eps < 0.0 or eps > 0.2:
        raise OutOfRange(f"--eps must lie in [0, 0.2], got {eps}")
    if abs(omega) > 0.5:
        raise OutOfRange(f"--omega must lie in [-1/2, 1/2], got {omega}")
    if 27.0 - 2.0 * s * s <= 0.0:
        raise OutOfRange(f"--s must satisfy 27 - 2 s^2 > 0, got {s}")
    return RollParameters(eps, omega, s)


def _validated_grid(opt: _Options) -> SpectralGrid:
    modes = opt.get("modes", int)
    if modes < 8:
        raise OutOfRange(f"--modes must be >= 8, got {modes}")
    return SpectralGrid(modes)


def _emit(opt: _Options, header: list[str], rows: list[list], out_path):
    fmt = opt.get("format", str)
    if fmt not in ("csv", "json"):
        raise OutOfRange(f"--format must be csv or json, got {fmt}")
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        records = [dict(zip(header, row)) for row in rows]
        text = json.dumps(records, indent=2) + "\n"
    _write(text, out_path)


def _write(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_solve(opt: _Options) -> int:
    params = _validated_params(opt)
    grid = _validated_grid(opt)
    tol = opt.get("tol")
    if tol < 1e-13:
        raise OutOfRange(f"--tol must be >= 1e-13, got {tol}")
    roll = solve_roll(params, grid, tol=tol)
    payload = {
        "eps": params.eps,
        "omega": params.omega,
        "s": params.s,
        "k": params.k,
        "q": roll.q,
        "residual_norm": roll.residual_norm,
        "newton_iters": roll.newton_iters,
        "coefficients": roll.profile.to_triples(),
    }
    _write(json.dumps(payload, indent=2) + "\n", opt.get("output", str))
    return _EXIT_OK


def _cmd_spectrum(opt: _Options) -> int:
    params = _validated_params(opt)
    grid = _validated_grid(opt)
    lo, hi = opt.get("sigma_min"), opt.get("sigma_max")
    steps = opt.get("sigma_steps", int)
    delta = opt.get("delta")
    for name, val in (("--sigma-min", lo), ("--sigma-max", hi)):
        if not -0.5 <= val <= 0.5:
            raise OutOfRange(f"{name} must lie in [-1/2, 1/2], got {val}")
    if steps < 1:
        raise OutOfRange(f"--sigma-steps must be >= 1, got {steps}")
    if delta <= 0:
        raise OutOfRange(f"--delta must be positive, got {delta}")
    roll = solve_roll(params, grid)
    sigmas = np.linspace(lo, hi, steps)
    spectra = critical_curves(roll, sigmas, delta=delta)
    curves = critical_curve_array(spectra)
    header = ["sigma", "re_lambda1", "im_lambda1", "re_lambda2", "im_lambda2", "re_lambda3", "im_lambda3", "gap"]
    rows = []
    for i, spec in enumerate(spectra):
        row = [spec.sigma]
        for j in range(3):
            row += [curves[j, i].real, curves[j, i].imag]
        row.append(spec.gap)
        rows.append(row)
    _emit(opt, header, rows, opt.get("output", str))
    return _EXIT_OK


def _map_cell(task):
    (eps, w, s, mode, grid, delta) = task
    pi = dsp.sideband_product(w, s)
    pred = dsp.stability_predicate(w, s).value if mode in ("predicate", "both") else ""
    num, wit_sigma, wit_lambda = "", None, None
    if mode in ("numeric", "both"):
        roll = solve_roll(RollParameters(eps, w, s), grid)
        verdict = dsp.classify_numerically(roll, delta=delta)
        num = verdict.verdict.value
        wit_sigma = verdict.witness_sigma
        wit_lambda = verdict.witness_lambda.real if verdict.witness_lambda is not None else None
    return [s, w, pred, num, pi, wit_sigma, wit_lambda]


def _cmd_map(opt: _Options) -> int:
    eps = opt.get("eps")
    if eps is None or not 0.0 < eps <= 0.2:
        raise OutOfRange(f"--eps must lie in (0, 0.2], got {eps}")
    s_min, s_max = opt.get("s_min"), opt.get("s_max")
    w_min, w_max = opt.get("omega_min"), opt.get("omega_max")
    steps = opt.get("steps", int)
    mode = opt.get("mode", str)
    grid = _validated_grid(opt)
    delta = opt.get("delta")
    jobs = opt.get("jobs", int)
    if jobs < 0:
        raise OutOfRange(f"--jobs must be >= 0, got {jobs}")
    if mode not in ("predicate", "numeric", "both"):
        raise OutOfRange(f"--mode must be predicate, numeric, or both, got {mode}")
    if steps < 2:
        raise OutOfRange(f"--steps must be >= 2, got {steps}")
    for name, val in (("--s-min", s_min), ("--s-max", s_max)):
        if val is None or 27.0 - 2.0 * val * val <= 0.0:
            raise OutOfRange(f"{name} must satisfy 27 - 2 s^2 > 0, got {val}")
    for name, val in (("--omega-min", w_min), ("--omega-max", w_max)):
        if val is None or abs(val) >= 0.5:
            raise OutOfRange(f"{name} must lie strictly inside (-1/2, 1/2), got {val}")

    tasks = [
        (eps, float(w), float(s), mode, grid, delta)
        for s in np.linspace(s_min, s_max, steps)
        for w in np.linspace(w_min, w_max, steps)
    ]
    if jobs == 1 or mode == "predicate":
        rows = [_map_cell(t) for t in tasks]
    else:
        workers = jobs if jobs > 0 else os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_map_cell, tasks, chunksize=8))
    header = ["s", "omega", "predicate_verdict", "numeric_verdict", "Pi", "witness_sigma", "witness_relambda"]
    _emit(opt, header, rows, opt.get("output", str))
    return _EXIT_OK


def _cmd_compare(opt: _Options) -> int:
    params = _validated_params(opt)
    grid = _validated_grid(opt)
    sh_max = opt.get("sigma_hat_max")
    steps = opt.get("steps", int)
    if steps < 2:
        raise OutOfRange(f"--steps must be >= 2, got {steps}")
    if sh_max <= 0 or params.eps * sh_max > 0.5:
        raise OutOfRange(
            f"--sigma-hat-max must be positive with eps*sigma_hat_max <= 1/2, got {sh_max}"
        )
    roll = solve_roll(params, grid)
    rows_out = []
    for row in mgl.compare_exact_vs_mgl(roll, np.linspace(-sh_max, sh_max, steps)):
        rows_out.append(
            [row.sigma_hat]
            + [v.real for v in row.lambda_exact]
            + [v.real for v in row.lambda_mgl]
            + [row.deviation]
        )
    header = [
        "sigma_hat",
        "re_exact_1", "re_exact_2", "re_exact_3",
        "re_mgl_1", "re_mgl_2", "re_mgl_3",
        "max_deviation",
    ]
    _emit(opt, header, rows_out, opt.get("output", str))
    return _EXIT_OK


def _cmd_evolve(opt: _Options) -> int:
    params = _validated_params(opt)
    grid = _validated_grid(opt)
    sigma = opt.get("sigma")
    periods = opt.get("periods", int)
    dt = opt.get("dt")
    t_final = opt.get("t_final")
    amp = opt.get("amp")
    if sigma is None or not -0.5 <= sigma <= 0.5:
        raise OutOfRange(f"--sigma must lie in [-1/2, 1/2], got {sigma}")
    if periods < 1:
        raise OutOfRange(f"--periods must be >= 1, got {periods}")
    if dt is not None and dt <= 0:
        raise OutOfRange(f"--dt must be positive, got {dt}")
    if amp <= 0:
        raise OutOfRange(f"--amp must be positive, got {amp}")
    # Round sigma to the nearest realizable j/periods and report it.
    j = round(sigma * periods)
    realized = j / periods
    if abs(realized - sigma) > 1e-12:
        sys.stderr.write(f"note: sigma rounded to {realized} = {j}/{periods}\n")
    roll = solve_roll(params, grid)
    cfg = ev.EvolutionConfig(
        n_periods=periods,
        dt=dt,
        seed_sigma=realized,
        t_final=t_final,
        perturbation_amplitude=amp,
    )
    res = ev.evolve(roll, cfg)
    header = ["t", "perturbation_norm", "mass"]
    rows = [[t, n, m] for t, n, m in zip(res.times, res.norms, res.masses)]
    _emit(opt, header, rows, opt.get("output", str))
    sys.stderr.write(
        f"measured_rate={_fmt(res.measured_rate)} expected_rate={_fmt(res.expected_rate)}\n"
    )
    return _EXIT_OK


def _cmd_verify(opt: _Options) -> int:
    results = acceptance.run_all()
    width = max(len(name) for name, _ in acceptance.CRITERIA)
    lines = []
    for (name, _), res in zip(acceptance.CRITERIA, results):
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {name:<{width}}  {res.detail}")
    ok = all(r.passed for r in results)
    lines.append(f"{'PASS' if ok else 'FAIL'}  {sum(r.passed for r in results)}/{len(results)} criteria")
    _write("\n".join(lines) + "\n", opt.get("output", str))
    return _EXIT_OK if ok else _EXIT_NUMERICAL


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--modes", type=int, default=None, help="Fourier modes M (default 32)")
    p.add_argument("--delta", type=float, default=None, help="required spectral gap (default 1.0)")
    p.add_argument("--output", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--format", type=str, default=None, choices=("csv", "json"))
    p.add_argument("--config", type=str, default=None, help="JSON config file merged under flags")
    p.add_argument("--jobs", type=int, default=None, help="worker processes for sweeps (0 = all cores)")


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--s", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conslaw",
        description="Rolls, Bloch spectra, and amplitude-equation dispersion "
        "for a pattern-forming model with a conservation law.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute one roll, emit JSON")
    _add_params(p)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("spectrum", help="critical Bloch curves over a sigma range")
    _add_params(p)
    p.add_argument("--sigma-min", dest="sigma_min", type=float, default=None)
    p.add_argument("--sigma-max", dest="sigma_max", type=float, default=None)
    p.add_argument("--sigma-steps", dest="sigma_steps", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("map", help="stability verdicts over an (omega, s) grid")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--s-min", dest="s_min", type=float, default=None)
    p.add_argument("--s-max", dest="s_max", type=float, default=None)
    p.add_argument("--omega-min", dest="omega_min", type=float, default=None)
    p.add_argument("--omega-max", dest="omega_max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--mode", type=str, default=None, choices=("predicate", "numeric", "both"))
    _add_common(p)

    p = sub.add_parser("compare", help="exact vs amplitude-system dispersion")
    _add_params(p)
    p.add_argument("--sigma-hat-max", dest="sigma_hat_max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("evolve", help="time-integrate a Bloch-seeded perturbation")
    _add_params(p)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--periods", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-final", dest="t_final", type=float, default=None)
    p.add_argument("--amp", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("verify", help="run the acceptance suite")
    _add_common(p)

    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "spectrum": _cmd_spectrum,
    "map": _cmd_map,
    "compare": _cmd_compare,
    "evolve": _cmd_evolve,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        opt = _Options(args)
        return _COMMANDS[args.command](opt)
    except (OutOfRange, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_USAGE
    except ConslawError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
