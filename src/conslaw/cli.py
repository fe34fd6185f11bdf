"""Command-line front end.

Subcommands: ``solve``, ``spectrum``, ``map``, ``compare``, ``evolve``,
``verify``.  Each subcommand declares its options once, in ``_COMMANDS``, and
the parser is generated from that table.  Option values come from flags and
built-in defaults only; argparse casts them and checks choices and required
flags, and :func:`main` checks the few bounds that no library object makes.
Parameter ranges are the library's: its :class:`OutOfRange` names the
parameter, and :func:`main` reports the flag that feeds it.  Exit codes: 0
success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import acceptance
from . import dispersion as dsp
from . import evolution as ev
from . import mgl
from .bloch import check_delta, critical_curve_array, critical_curves
from .errors import ConslawError, OutOfRange
from .fourier import SpectralGrid
from .rolls import RollParameters, check_solvable, solve_roll

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3

_BOUNDS = {">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class _Opt:
    """One option, the flag ``--name``, handed to argparse as declared.

    ``param`` names the library parameter the option feeds when it is spelt
    differently; ``bound`` is ``(">=" or ">", limit)`` for the checks that
    no library object makes.
    """

    name: str
    type: type = float
    default: object = None
    required: bool = False
    choices: tuple = ()
    bound: tuple | None = None
    param: str | None = None
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _fmt(x) -> str:
    """Deterministic, locale-independent float formatting."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def _emit(o: argparse.Namespace, header: list[str], rows: list[list]) -> None:
    if o.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        records = [dict(zip(header, row)) for row in rows]
        text = json.dumps(records, indent=2) + "\n"
    _write(text, o.output)


def _write(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _roll(o: argparse.Namespace):
    return solve_roll(RollParameters(o.eps, o.omega, o.s), SpectralGrid(o.modes))


def _cmd_solve(o: argparse.Namespace) -> int:
    roll = _roll(o)
    params = roll.params
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
    _write(json.dumps(payload, indent=2) + "\n", o.output)
    return _EXIT_OK


def _cmd_spectrum(o: argparse.Namespace) -> int:
    roll = _roll(o)
    spectra = critical_curves(roll, np.linspace(o.sigma_min, o.sigma_max, o.sigma_steps), delta=o.delta)
    curves = critical_curve_array(spectra)
    header = ["sigma", "re_lambda1", "im_lambda1", "re_lambda2", "im_lambda2", "re_lambda3", "im_lambda3", "gap"]
    rows = []
    for i, spec in enumerate(spectra):
        row = [spec.sigma]
        for j in range(3):
            row += [curves[j, i], 0.0]  # real spectra; the im columns keep the format
        row.append(spec.gap)
        rows.append(row)
    _emit(o, header, rows)
    return _EXIT_OK


def _numeric_cell(task):
    params, grid, delta = task
    verdict = dsp.classify_numerically(solve_roll(params, grid), delta=delta)
    return verdict.verdict.value, verdict.witness_sigma, verdict.witness_lambda


def _cmd_map(o: argparse.Namespace) -> int:
    grid = SpectralGrid(o.modes)
    cells = [
        RollParameters(o.eps, float(w), float(s))
        for s in np.linspace(o.s_min, o.s_max, o.steps)
        for w in np.linspace(o.omega_min, o.omega_max, o.steps)
    ]
    # Every cell is checked here, before a worker starts: eps (shared by all
    # cells) against solve_roll, and omega against the closed forms, which
    # unlike RollParameters reject |omega| = 1/2.
    check_solvable(cells[0])
    closed = [
        (dsp.stability_predicate(p.omega, p.s).value, dsp.sideband_product(p.omega, p.s)) for p in cells
    ]
    numeric = [("", None, None)] * len(cells)
    if o.mode != "predicate":
        check_delta(o.delta)
        tasks = [(p, grid, o.delta) for p in cells]
        # The pool forks all its workers up front, so never more than there are cells.
        workers = min(len(tasks), o.jobs or os.cpu_count() or 1)
        if workers == 1:
            numeric = [_numeric_cell(t) for t in tasks]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                numeric = list(pool.map(_numeric_cell, tasks, chunksize=8))
    rows = [
        [p.s, p.omega, pred if o.mode != "numeric" else "", verdict, pi, wit_sigma, wit_lambda]
        for p, (pred, pi), (verdict, wit_sigma, wit_lambda) in zip(cells, closed, numeric)
    ]
    header = ["s", "omega", "predicate_verdict", "numeric_verdict", "Pi", "witness_sigma", "witness_relambda"]
    _emit(o, header, rows)
    return _EXIT_OK


def _cmd_compare(o: argparse.Namespace) -> int:
    roll = _roll(o)
    rows_out = []
    for row in mgl.compare_exact_vs_mgl(roll, np.linspace(-o.sigma_hat_max, o.sigma_hat_max, o.steps)):
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
    _emit(o, header, rows_out)
    return _EXIT_OK


def _cmd_evolve(o: argparse.Namespace) -> int:
    # Round sigma to the nearest realizable j/periods and report it; with
    # periods = 0 or a sigma that is not finite, the config gets sigma as
    # given and rejects it.
    j = o.sigma * o.periods
    realized = round(j) / o.periods if o.periods and np.isfinite(j) else o.sigma
    if abs(realized - o.sigma) > 1e-12:
        sys.stderr.write(f"note: sigma rounded to {realized} = {round(j)}/{o.periods}\n")
    cfg = ev.EvolutionConfig(
        n_periods=o.periods,
        dt=o.dt,
        seed_sigma=realized,
        t_final=o.t_final,
        perturbation_amplitude=o.amp,
    )
    res = ev.evolve(_roll(o), cfg)
    header = ["t", "perturbation_norm", "mass"]
    rows = [[t, n, m] for t, n, m in zip(res.times, res.norms, res.masses)]
    _emit(o, header, rows)
    sys.stderr.write(
        f"measured_rate={_fmt(res.measured_rate)} expected_rate={_fmt(res.expected_rate)}\n"
    )
    return _EXIT_OK


def _cmd_verify(o: argparse.Namespace) -> int:
    results = acceptance.run_all()
    width = max(len(name) for name, _ in acceptance.CRITERIA)
    lines = []
    for (name, _), res in zip(acceptance.CRITERIA, results):
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {name:<{width}}  {res.detail}")
    ok = all(r.passed for r in results)
    lines.append(f"{'PASS' if ok else 'FAIL'}  {sum(r.passed for r in results)}/{len(results)} criteria")
    _write("\n".join(lines) + "\n", o.output)
    return _EXIT_OK if ok else _EXIT_NUMERICAL


# ----------------------------------------------------------------------
# option tables and argument parsing
# ----------------------------------------------------------------------

_MODES = _Opt("modes", int, 32, param="n_modes", help="Fourier modes M")
_ROLL = (*(_Opt(name, required=True) for name in ("eps", "omega", "s")), _MODES)
_DELTA = _Opt("delta", float, 1.0, help="required spectral gap")
_STEPS = _Opt("steps", int, 11, bound=(">=", 2))
_OUTPUT = _Opt("output", str, help="output path (default stdout)")
_TABULAR = (_OUTPUT, _Opt("format", str, "csv", choices=("csv", "json")))

_COMMANDS = {
    "solve": (_cmd_solve, "compute one roll, emit JSON", (*_ROLL, _OUTPUT)),
    "spectrum": (_cmd_spectrum, "critical Bloch curves over a sigma range", (
        *_ROLL,
        _Opt("sigma_min", float, 0.0, param="sigma"),
        _Opt("sigma_max", float, 0.45, param="sigma"),
        _Opt("sigma_steps", int, 19, bound=(">=", 1)),
        _DELTA,
        *_TABULAR,
    )),
    "map": (_cmd_map, "stability verdicts over an (omega, s) grid", (
        _Opt("eps", required=True, bound=(">", 0.0)),
        _Opt("s_min", float, -1.5, param="s"),
        _Opt("s_max", float, 1.5, param="s"),
        _Opt("omega_min", float, -0.45, param="omega"),
        _Opt("omega_max", float, 0.45, param="omega"),
        _STEPS,
        _Opt("mode", str, "both", choices=("predicate", "numeric", "both")),
        _MODES,
        _DELTA,
        _Opt("jobs", int, 0, bound=(">=", 0), help="worker processes (0 = all cores)"),
        *_TABULAR,
    )),
    "compare": (_cmd_compare, "exact vs amplitude-system dispersion", (
        *_ROLL, _Opt("sigma_hat_max", float, 1.0, bound=(">", 0.0), param="sigma_hat"), _STEPS, *_TABULAR,
    )),
    "evolve": (_cmd_evolve, "time-integrate a Bloch-seeded perturbation", (
        *_ROLL,
        _Opt("sigma", required=True, param="seed_sigma"),
        _Opt("periods", int, 4, param="n_periods"),
        _Opt("dt", float, 0.1),
        _Opt("t_final", help="default 10 / |rate|, at most 1e4"),
        _Opt("amp", float, 1e-6, param="perturbation_amplitude"),
        *_TABULAR,
    )),
    "verify": (_cmd_verify, "run the acceptance suite", (_OUTPUT,)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conslaw",
        description="Rolls, Bloch spectra, and amplitude-equation dispersion "
        "for a pattern-forming model with a conservation law.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for opt in options:
            detail = "required" if opt.required else "" if opt.default is None else f"default {opt.default}"
            p.add_argument(opt.flag, dest=opt.name, type=opt.type, default=opt.default, required=opt.required,
                           choices=opt.choices or None,
                           help=f"{opt.help} ({detail})".strip() if detail else opt.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else 0
    run, _, options = _COMMANDS[args.command]
    try:
        for opt in options:
            value = getattr(args, opt.name)
            if opt.bound and not _BOUNDS[opt.bound[0]](value, opt.bound[1]):
                raise OutOfRange(f"{opt.flag} must be {opt.bound[0]} {opt.bound[1]}, got {value}")
        return run(args)
    except OutOfRange as exc:
        flags = "/".join(opt.flag for opt in options if (opt.param or opt.name) == exc.param)
        sys.stderr.write(f"error: {flags + ': ' if flags else ''}{exc}\n")
        return _EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_USAGE
    except ConslawError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
