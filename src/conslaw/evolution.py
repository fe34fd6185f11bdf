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

The DCTs call scipy's pocketfft kernel (``scipy.fft._pocketfft.pypocketfft``)
directly, bound once at import, with the arguments ``scipy.fftpack.dct``
passes it for a real, contiguous 1-D float64 array (unnormalized, one
thread), except that the output goes into a buffer of the caller's.  A step
makes eight transforms, and at the rate checks' sizes the wrapper chain
(array coercion, copy and normalization checks, worker lookup) costs as much
as the arithmetic.  Per DCT-III call, wrapper against kernel, on one thread
of a shared 2-core host: 6.6 against 3.6 us at ``L = 216``, 9.6 against
3.7 us at 320, 11.4 against 5.8 us at 432, 13.2 against 7.5 us at 625 and
15.2 against 9.3 us at 960.  The kernel sits in a private scipy module; the
binding was verified on scipy 1.17.1, and
``tests/test_evolution.py::TestKernel`` requires it to equal
``scipy.fftpack.dct`` bit for bit, so a scipy that moves or changes it fails
there first.
"""

from __future__ import annotations

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
        if not self.dt > 0.0:
            raise OutOfRange(f"dt must be positive, got {self.dt}", param="dt")
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
    """Diagonal-exponential ETDRK4 stepper for one spectrum of ``lin``'s dtype.

    The stage arrays are allocated once and refilled by ``out=`` ufuncs, so a
    step allocates nothing; each sum is formed in the order of the textbook
    step, term by term.
    """

    def __init__(self, lin: np.ndarray, dt: float):
        self.e_full = np.exp(dt * lin)
        self.e_half = np.exp(0.5 * dt * lin)
        # 32-node contour quadrature on the upper half circle; exact mean-value
        # evaluation of the entire phi-functions for real symbols.
        roots = np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)
        lr = dt * lin[:, None] + roots[None, :]
        elr = np.exp(lr)
        self.f0 = dt * ((np.exp(lr / 2.0) - 1.0) / lr).mean(1).real
        self.f1 = dt * ((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3).mean(1).real
        self.f2x2 = 2.0 * (dt * ((2.0 + lr + elr * (lr - 2.0)) / lr**3).mean(1).real)
        self.f3 = dt * ((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3).mean(1).real
        # e_half * v, the stages a, b, c, their nonlinearities n0-n3, scratch
        self._ev, self._a, self._b, self._c, self._n0, self._n1, self._n2, self._n3, self._tmp = (
            np.empty_like(lin) for _ in range(9)
        )

    def step(self, v: np.ndarray, nonlin) -> None:
        """Advance ``v`` by one step in place; ``nonlin(spec, out)`` fills ``out``."""
        ev, a, b, c, tmp = self._ev, self._a, self._b, self._c, self._tmp
        n0, n1, n2, n3 = self._n0, self._n1, self._n2, self._n3
        np.multiply(self.e_half, v, out=ev)
        nonlin(v, n0)
        np.multiply(self.f0, n0, out=a)
        a += ev
        nonlin(a, n1)
        np.multiply(self.f0, n1, out=b)
        b += ev
        nonlin(b, n2)
        np.multiply(2.0, n2, out=tmp)
        tmp -= n0
        tmp *= self.f0
        np.multiply(self.e_half, a, out=c)
        c += tmp
        nonlin(c, n3)
        v *= self.e_full
        np.multiply(self.f1, n0, out=tmp)
        v += tmp
        np.add(n1, n2, out=tmp)
        tmp *= self.f2x2
        v += tmp
        np.multiply(self.f3, n3, out=tmp)
        v += tmp


def _cubic_flux(mult: np.ndarray, s: float):
    """``nonlin(y, out)``: ``out = mult * dct2(s u^2 + u^3)`` with ``u = dct3(y)``.

    ``y`` holds cosine coefficients and ``u`` its samples at the midpoints of
    the half domain.  ``mult`` is the masked ``-k^2 theta^2`` multiplier of
    the outer second derivative with DCT-II's ``1 / (2L)`` folded in.  The
    samples and the cubic live in two buffers of their own, so a call
    allocates nothing.
    """
    u = np.empty(mult.size)
    cube = np.empty(mult.size)

    def nonlin(y: np.ndarray, out: np.ndarray) -> None:
        # (input, type, axes, inorm = 0: unnormalized, out, nthreads)
        dct(y, 3, (0,), 0, u, 1)
        # u * u * (s + u), not s*u**2 + u**3: libm pow takes a slow path for
        # negative bases, ~150 ns a point against ~2 ns for the products.
        np.add(s, u, out=cube)
        np.multiply(cube, u, out=cube)
        np.multiply(cube, u, out=cube)
        dct(cube, 2, (0,), 0, cube, 1)
        np.multiply(mult, cube, out=out)

    return nonlin


def _rms(y: np.ndarray) -> float:
    """Root mean square over the domain of the even field with coefficients ``y``."""
    return float(np.sqrt(y[0] ** 2 + 2.0 * np.dot(y[1:], y[1:])))


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
    Mper = config.n_periods
    Mmodes = roll.profile.grid.n_modes
    k2 = params.k**2

    # Seed eigenpair at the realizable Bloch number.
    sigma = config.seed_index / Mper
    vals, vecs = critical_modes(roll, sigma)

    # Retained big-lattice cosine modes n <= K, collocation at L >= 2K+1
    # midpoints (exact cubics).
    K = Mper * (Mmodes + 1)
    n_points = next_fast_len(2 * K + 1, real=True)

    seeds = [_even_seed(v, Mper, config.seed_index, n_points) for v in vecs.T]
    rms = np.array([_rms(y) for y in seeds])
    live = np.flatnonzero(rms > _SEED_RMS_TOL * np.linalg.norm(vecs, axis=0))
    if live.size == 0:
        raise OutOfRange(f"no critical mode at sigma = {sigma} has an even part on the domain")
    lead = int(live[np.argmax(vals[live])])
    lam = float(vals[lead])
    y_pert = seeds[lead] * (config.perturbation_amplitude / rms[lead])

    n_idx = np.arange(n_points)
    kt2 = k2 * (n_idx / Mper) ** 2
    lin = kt2 * (params.eps**2 + swift_hohenberg(kt2))
    keep = n_idx <= K
    lin = np.where(keep, lin, 0.0)
    lin[0] = 0.0

    growth = float(np.max(lin))
    if growth > 0.0 and config.dt * growth > 1.0:
        raise StepReject(
            f"dt = {config.dt} cannot resolve the fastest linear growth rate {growth:.3e}"
        )

    # Roll extended over the domain: modes at multiples of n_periods.
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

    nonlin = _cubic_flux(np.where(keep, -kt2 / (2 * n_points), 0.0), params.s)

    stepper = _Etdrk4(lin, config.dt)
    state = y_roll + y_pert
    sample_every = max(1, n_steps // 400)

    times = [0.0]
    norms = [_rms(state - y_roll)]
    masses = [float(state[0])]
    norm0 = norms[0]
    for step in range(1, n_steps + 1):
        stepper.step(state, nonlin)
        if step % sample_every == 0 or step == n_steps:
            t = step * config.dt
            nv = _rms(state - y_roll)
            if not np.isfinite(nv) or nv > _BLOWUP_FACTOR * norm0:
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
