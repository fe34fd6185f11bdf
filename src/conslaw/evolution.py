"""Stiff pseudospectral time integration of the full model on multi-period domains.

The dynamics ``u_t = -d_x^2 [-(1 + d_x^2)^2 u + eps^2 u - s u^2 - u^3]`` is
integrated in the stretched frame ``xi = k x`` on ``[0, 2 pi M]`` for ``M``
roll periods, where the retained wavenumbers ``theta = n / M`` realize Bloch
numbers ``sigma = j / M`` exactly.  The linear symbol grows like ``theta^6``,
so the linear part is treated exactly by an exponential integrator (ETDRK4,
Cox & Matthews 2002) with the phi-coefficients evaluated by the contour
quadrature of Kassam & Trefethen (2005).  The conserved mode carries a
hard-zero symbol and is bit-exactly constant along trajectories.

The roll and the seed ``Re(e^{i sigma xi} V)`` (real ``V``) are even in
``xi`` and the model is reflection-symmetric, so only the cosine subspace is
integrated: the state holds the real coefficients ``y_n`` of
``u = y_0 + 2 sum_n y_n cos(n xi / M)``, ``n <= K``.  The cubic is evaluated
at ``L >= 2K + 1`` midpoints of the half domain, reached by DCT-III and left
by DCT-II, which is alias-free for modes up to ``3K``.

The model is also translation invariant, and a seed at ``sigma = j / M``
repeats every ``M / g`` periods, ``g = gcd(M, j)`` (``g = M`` at
``sigma = 0``), as the roll does.  So does the field for all time, and every
cosine mode whose index is not a multiple of ``g`` stays exactly zero.
:func:`evolve` therefore integrates ``M / g`` periods with seed index
``j / g``: the same ``sigma`` and, for every live mode, the same ``theta``,
so only rounding moves.  This pairs with the even-subspace reduction, one
reflection and one translation of the same field.  :class:`StepReject` is
still decided on the symbol of all ``M`` periods.  The multiplier
``-k^2 theta^2 / (2L)`` of the outer second derivative is folded into the
stepper's four phi-coefficients, so the nonlinearity returns the bare
DCT-II, and the contour quadrature runs only on the modes ``1..K`` where
the multiplier is nonzero.  A step is eight DCTs of length ``L`` and 30
passes over arrays of that length, 18 in the step and 3 in each of its four
flux calls.  At the rate checks' lengths the calls cost more than the
arithmetic, so the stepper and the flux bind their ufuncs and the kernel
once, pass outputs positionally and take no Python-float operand (``2 n2``
is ``n2 + n2``, exactly): 16.5 us a step at ``L = 27`` (one period at 12
modes), 19.1 at 108, 24.7 at 216 and 54.8 at 960 (least of eight
alternated runs of the README's ``python -m timeit``, one thread of a
shared 2-core host).  Stacking independent stage operations into
``(2, L)`` broadcasts keeps the bits but runs slower: a broadcast leaves
NumPy's fast path for operands of one shape, and costs more than the two
1-D calls it replaces (0.96 against 0.80 us at ``L = 216``, 2.0 against
1.2 us at 960).

The DCTs call scipy's pocketfft kernel (``scipy.fft._pocketfft.pypocketfft``)
directly, imported once and bound by each flux, with the arguments
``scipy.fftpack.dct`` passes it for a real, contiguous 1-D float64 array
(unnormalized, one thread), except that the output goes into a buffer of the
caller's.  At the rate checks' sizes the wrapper chain (array coercion, copy
and normalization checks, worker lookup) costs as much as the transform; the
README gives the times.  The kernel sits in a private scipy module; the
binding was verified on scipy 1.17.1, and
``tests/test_evolution.py::TestKernel`` requires it to equal
``scipy.fftpack.dct`` bit for bit, so a scipy that moves or changes it fails
there first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.fft._pocketfft.pypocketfft import dct

from .bloch import _checked_sigmas, critical_modes
from .errors import BlowUp, OutOfRange, StepReject
from .model import swift_hohenberg
from .rolls import RollSolution

__all__ = ["EvolutionConfig", "EvolutionResult", "evolve"]

_T_FINAL_CAP = 1e4
_BLOWUP_FACTOR = 1e6
#: A critical mode is seeded only if its seed keeps this fraction of the
#: eigenvector's norm; below it the seed is the roundoff of an odd mode.
_SEED_RMS_TOL = 1e-8


@dataclass(frozen=True)
class EvolutionConfig:
    """Run settings for one Bloch-seeded evolution.

    ``seed_sigma * n_periods`` must be an integer so the perturbation fits
    the domain, and ``|seed_sigma| <= 1/2``; ``t_final = None`` selects
    ``10 / |expected rate|`` capped at ``1e4`` time units.  The amplitude of
    the perturbation, relative to a unit-rms eigenfunction, lies in
    ``(0, 1)``: a unit-rms seed already outweighs any roll that
    :func:`~conslaw.rolls.solve_roll` accepts.
    """

    n_periods: int
    dt: float
    seed_sigma: float
    t_final: float | None = None
    perturbation_amplitude: float = 1e-6

    def __post_init__(self) -> None:
        if not (self.n_periods >= 1 and float(self.n_periods).is_integer()):
            raise OutOfRange(f"n_periods must be a positive integer, got {self.n_periods}", param="n_periods")
        object.__setattr__(self, "n_periods", int(self.n_periods))
        if not 0.0 < self.dt < np.inf:
            raise OutOfRange(f"dt must be positive and finite, got {self.dt}", param="dt")
        if self.t_final is not None and not 0.0 < self.t_final < np.inf:
            raise OutOfRange(f"t_final must be positive and finite, got {self.t_final}", param="t_final")
        if not 0.0 < self.perturbation_amplitude < 1.0:
            raise OutOfRange(
                f"perturbation_amplitude must lie in (0, 1), got {self.perturbation_amplitude}",
                param="perturbation_amplitude",
            )
        j = self.seed_sigma * self.n_periods
        if not abs(j - np.round(j)) <= 1e-9:
            raise OutOfRange(
                f"seed_sigma = {self.seed_sigma} is not a multiple of 1/{self.n_periods}", param="seed_sigma"
            )
        _checked_sigmas(self.seed_index / self.n_periods, "seed_sigma")

    @property
    def seed_index(self) -> int:
        return int(round(self.seed_sigma * self.n_periods))


@dataclass(frozen=True)
class EvolutionResult:
    """Sampled perturbation norms, conserved mass, and the fitted growth rate.

    ``expected_rate`` is the seeded Bloch eigenvalue, the rate the fit is
    checked against.
    """

    times: np.ndarray
    norms: np.ndarray
    masses: np.ndarray
    seed_sigma: float
    expected_rate: float
    measured_rate: float

    @property
    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.masses - self.masses[0])))


class _Etdrk4:
    """Diagonal-exponential ETDRK4 stepper for one real spectrum.

    ``mult`` is the diagonal multiplier of the nonlinearity, folded into the
    four phi-coefficients: ``nonlin`` returns the flux without it.  The
    contour quadrature runs only where ``mult`` is nonzero, and every other
    coefficient is exactly zero.  The stage arrays are allocated once and
    refilled in place, so a step allocates nothing; each sum is formed in
    the order of the textbook step, term by term.
    """

    def __init__(self, lin: np.ndarray, dt: float, mult: np.ndarray):
        self.e_full = np.exp(dt * lin)
        self.e_half = np.exp(0.5 * dt * lin)
        # 32-node contour quadrature on the upper half circle; exact mean-value
        # evaluation of the entire phi-functions for real symbols.
        live = np.flatnonzero(mult)
        roots = np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)
        lr = dt * lin[live, None] + roots[None, :]
        elr, lr2, lr3 = np.exp(lr), lr**2, lr**3
        folded = np.zeros((4, lin.size))
        folded[:, live] = mult[live] * np.array([
            dt * ((np.exp(lr / 2.0) - 1.0) / lr).mean(1).real,
            dt * ((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr2)) / lr3).mean(1).real,
            2.0 * (dt * ((2.0 + lr + elr * (lr - 2.0)) / lr3).mean(1).real),
            dt * ((-4.0 - 3.0 * lr - lr2 + elr * (4.0 - lr)) / lr3).mean(1).real,
        ])
        self.f0, self.f1, self.f2x2, self.f3 = folded
        # e_half * v, the stages a, b, c, their nonlinearities n0-n3, scratch
        stages = tuple(np.empty_like(lin) for _ in range(9))
        # What a step reads, bound once: its ufuncs take their outputs positionally.
        self._bound = (np.multiply, np.add, np.subtract, self.e_half, self.e_full, *folded, *stages)

    def step(self, v: np.ndarray, nonlin) -> None:
        """Advance ``v`` by one step in place; ``nonlin(spec, out)`` fills ``out``."""
        mul, add, sub, e_half, e_full, f0, f1, f2x2, f3, ev, a, b, c, n0, n1, n2, n3, tmp = self._bound
        mul(e_half, v, ev)
        nonlin(v, n0)
        mul(f0, n0, a)
        add(a, ev, a)
        nonlin(a, n1)
        mul(f0, n1, b)
        add(b, ev, b)
        nonlin(b, n2)
        add(n2, n2, tmp)  # 2 n2, exactly
        sub(tmp, n0, tmp)
        mul(tmp, f0, tmp)
        mul(e_half, a, c)
        add(c, tmp, c)
        nonlin(c, n3)
        mul(v, e_full, v)
        mul(f1, n0, tmp)
        add(v, tmp, v)
        add(n1, n2, tmp)
        mul(tmp, f2x2, tmp)
        add(v, tmp, v)
        mul(f3, n3, tmp)
        add(v, tmp, v)


def _cubic_flux(s: float, n_points: int):
    """``nonlin(y, out)``: ``out = dct2(s u^2 + u^3)`` with ``u = dct3(y)``.

    ``y`` holds cosine coefficients and ``u`` its samples at the ``n_points``
    midpoints of the half domain.  The multiplier of the outer second
    derivative lives in :class:`_Etdrk4`'s coefficients.  The samples live
    in a buffer of their own, ``s`` is a prefilled array and the cubic is
    formed and transformed in ``out``, so a call allocates nothing.
    """
    u = np.empty(n_points)
    s = np.full(n_points, s)
    add, mul, kernel = np.add, np.multiply, dct

    def nonlin(y: np.ndarray, out: np.ndarray) -> None:
        # (input, type, axes, inorm = 0: unnormalized, out, nthreads)
        kernel(y, 3, (0,), 0, u, 1)
        # u * u * (s + u), not s*u**2 + u**3: libm pow takes a slow path for
        # negative bases, ~150 ns a point against ~2 ns for the products.
        add(s, u, out)
        mul(out, u, out)
        mul(out, u, out)
        kernel(out, 2, (0,), 0, out, 1)

    return nonlin


def _rms(y: np.ndarray) -> float:
    """Root mean square over the domain of the even field with coefficients ``y``."""
    return math.sqrt(y[0] ** 2 + 2.0 * np.dot(y[1:], y[1:]))


def _even_seed(eigvec: np.ndarray, n_periods: int, j: int, n_points: int) -> np.ndarray:
    """Cosine coefficients of ``Re(e^{i sigma xi} V)`` with ``sigma = j / n_periods``.

    ``Re(e^{i sigma xi} V) = sum_m V_m cos(n xi / n_periods)`` with
    ``n = m n_periods + j``; each cosine splits evenly between the modes
    ``+-n``, except ``n = 0``.  At ``sigma = 0`` and ``|sigma| = 1/2`` two
    ``m`` share one ``|n|``, so the odd part of ``V`` cancels.
    """
    M = eigvec.size // 2
    n = np.arange(-M, M + 1) * n_periods + j
    y = np.zeros(n_points)
    np.add.at(y, np.abs(n), np.where(n == 0, 1.0, 0.5) * eigvec)
    return y


def evolve(roll: RollSolution, config: EvolutionConfig) -> EvolutionResult:
    """Integrate roll + Bloch-eigenfunction perturbation and track its norm.

    The perturbation seeds the most critical eigenvalue (largest real part of
    the critical triple) at ``seed_sigma``, realized as the real field
    ``Re(e^{i sigma xi} V)``, with the given amplitude relative to a unit-rms
    eigenfunction.  Only modes whose field keeps a ``1e-8`` fraction of the
    eigenvector's norm compete: at ``sigma = 0`` and ``|sigma| = 1/2`` the
    field of an odd eigenvector (the translation mode) is pure roundoff.
    Returns sampled ``||u(t) - roll||`` (rms over the domain), the conserved
    mass, and the log-norm slope fitted over the second half of the run.

    Raises :class:`OutOfRange` when no critical mode has an even field or the
    run is shorter than two steps, :class:`BlowUp` when the norm exceeds
    ``1e6`` times its initial value and :class:`StepReject` when ``dt`` cannot
    resolve the fastest linear growth rate.
    """
    params = roll.params
    Mmodes = roll.profile.grid.n_modes
    k2 = params.k**2

    # Seed eigenpair at the realizable Bloch number.
    j = config.seed_index
    sigma = j / config.n_periods
    vals, vecs = critical_modes(roll, sigma)

    # The roll and the seed repeat every n_periods / g periods, so only the
    # modes at multiples of g are ever nonzero: they are integrated as the
    # modes n <= K of that shorter domain, at the same theta.  Collocation at
    # L >= 2K+1 midpoints (exact cubics).
    g = math.gcd(config.n_periods, j)
    Mper = config.n_periods // g
    K = Mper * (Mmodes + 1)
    n_points = next_fast_len(2 * K + 1, real=True)

    seeds = [_even_seed(v, Mper, j // g, n_points) for v in vecs.T]
    rms = np.array([_rms(y) for y in seeds])
    live = np.flatnonzero(rms > _SEED_RMS_TOL * np.linalg.norm(vecs, axis=0))
    if live.size == 0:
        raise OutOfRange(f"no critical mode at sigma = {sigma} has an even part on the domain")
    lead = int(live[np.argmax(vals[live])])
    lam = float(vals[lead])
    y_pert = seeds[lead] * (config.perturbation_amplitude / rms[lead])

    # The symbol on every mode of the requested domain, which decides
    # StepReject; its multiples of g are the shorter domain's.
    kt2 = k2 * (np.arange(g * K + 1) / config.n_periods) ** 2
    lin_all = kt2 * (params.eps**2 + swift_hohenberg(kt2))
    lin_all[0] = 0.0
    growth = float(np.max(lin_all))
    if growth > 0.0 and config.dt * growth > 1.0:
        raise StepReject(
            f"dt = {config.dt} cannot resolve the fastest linear growth rate {growth:.3e}"
        )
    lin, mult = np.zeros((2, n_points))
    lin[: K + 1] = lin_all[::g]
    # -k^2 theta^2 of the outer second derivative, with DCT-II's 1 / (2L)
    mult[1 : K + 1] = -kt2[g::g] / (2 * n_points)

    # Roll extended over the domain: modes at multiples of Mper.
    y_roll = np.zeros(n_points)
    y_roll[: (Mmodes + 1) * Mper : Mper] = roll.profile.coeffs[Mmodes:]

    t_final = config.t_final
    if t_final is None:
        rate = abs(lam)
        t_final = min(_T_FINAL_CAP, 10.0 / rate) if rate > 0.0 else _T_FINAL_CAP
    n_steps = int(round(t_final / config.dt))
    if n_steps < 2:
        # the rate is fitted over the second half of the run, which needs two samples
        raise OutOfRange(f"t_final = {t_final} is under two steps of dt = {config.dt}", param="t_final")

    nonlin = _cubic_flux(params.s, n_points)

    # exp(dt * lin) on the stiff modes, and the stages that decay through them, underflow.
    with np.errstate(under="ignore"):
        advance = _Etdrk4(lin, config.dt, mult).step
        state = y_roll + y_pert
        sample_every = max(1, n_steps // 400)

        diff = state - y_roll  # refilled at every sample
        times = [0.0]
        norms = [_rms(diff)]
        masses = [float(state[0])]
        norm0 = norms[0]
        for step in range(1, n_steps + 1):
            advance(state, nonlin)
            if step % sample_every == 0 or step == n_steps:
                t = step * config.dt
                np.subtract(state, y_roll, diff)
                nv = _rms(diff)
                if not math.isfinite(nv) or nv > _BLOWUP_FACTOR * norm0:
                    raise BlowUp(t, nv)
                times.append(t)
                norms.append(nv)
                masses.append(float(state[0]))

    times_arr = np.asarray(times)
    norms_arr = np.asarray(norms)
    half = times_arr >= 0.5 * times_arr[-1]
    slope = float(np.polyfit(times_arr[half], np.log(np.maximum(norms_arr[half], 1e-300)), 1)[0])

    return EvolutionResult(
        times=times_arr,
        norms=norms_arr,
        masses=np.asarray(masses),
        seed_sigma=sigma,
        expected_rate=lam,
        measured_rate=slope,
    )
