import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

import conslaw.evolution as ev
from conslaw.bloch import critical_modes
from conslaw.errors import BlowUp, OutOfRange, StepReject
from conslaw.fourier import SpectralGrid
from conslaw.rolls import RollParameters, solve_roll, zero_roll

GRID = SpectralGrid(12)


class TestConfig:
    def test_sigma_must_fit_domain(self):
        with pytest.raises(OutOfRange):
            ev.EvolutionConfig(n_periods=4, dt=0.1, seed_sigma=0.3)

    def test_sigma_must_lie_in_the_zone(self):
        with pytest.raises(OutOfRange, match="outside") as info:
            ev.EvolutionConfig(n_periods=4, dt=0.1, seed_sigma=-0.75)
        assert info.value.param == "seed_sigma"

    def test_positive_steps(self):
        with pytest.raises(OutOfRange):
            ev.EvolutionConfig(n_periods=4, dt=-0.1, seed_sigma=0.25)

    def test_seed_index(self):
        cfg = ev.EvolutionConfig(n_periods=8, dt=0.1, seed_sigma=0.375)
        assert cfg.seed_index == 3


class TestMass:
    def test_zero_mean_roll(self):
        # a zero-mean roll seeded off sigma = 0 carries no mass at all
        roll = solve_roll(RollParameters(0.05, 0.0, 0.8), GRID)
        assert roll.profile.cosines[0] == 0.0
        cfg = ev.EvolutionConfig(n_periods=4, dt=0.1, seed_sigma=0.25, t_final=1.0)
        assert np.all(ev.evolve(roll, cfg).masses == 0.0)


class TestEvolve:
    def test_threshold_state_modes_decay_or_freeze(self):
        # eps = 0: integer-lattice modes 0, +-1 are neutral, the rest decay
        roll = zero_roll(RollParameters(0.0, 0.0, 0.0), SpectralGrid(8))
        cfg = ev.EvolutionConfig(n_periods=1, dt=0.05, seed_sigma=0.0, t_final=5.0,
                                 perturbation_amplitude=1e-6)
        res = ev.evolve(roll, cfg)
        # seeded on a neutral mode: the norm must stay flat
        assert abs(res.measured_rate) < 1e-10
        assert res.norms[-1] == pytest.approx(res.norms[0], rel=1e-9)

    def test_stable_rate_matches_spectrum(self):
        roll = solve_roll(RollParameters(0.02, 0.0, 0.0), GRID)
        cfg = ev.EvolutionConfig(n_periods=4, dt=0.05, seed_sigma=0.25, t_final=150.0)
        res = ev.evolve(roll, cfg)
        assert res.expected_rate < 0.0
        assert abs(res.measured_rate - res.expected_rate) <= 0.05 * abs(res.expected_rate)

    def test_unstable_rate_matches_spectrum(self):
        roll = solve_roll(RollParameters(0.08, 0.0, 1.5), GRID)
        cfg = ev.EvolutionConfig(n_periods=16, dt=0.2, seed_sigma=1.0 / 16.0, t_final=1200.0)
        res = ev.evolve(roll, cfg)
        assert res.expected_rate > 0.0
        assert abs(res.measured_rate - res.expected_rate) <= 0.10 * res.expected_rate

    def test_mass_exactly_conserved(self):
        roll = solve_roll(RollParameters(0.05, 0.2, 1.0), GRID)
        cfg = ev.EvolutionConfig(n_periods=4, dt=0.1, seed_sigma=0.25, t_final=30.0)
        res = ev.evolve(roll, cfg)
        assert res.mass_drift < 1e-12

    def test_linear_regime_fidelity(self):
        roll = solve_roll(RollParameters(0.02, 0.0, 0.5), GRID)
        rates = []
        for amp in (1e-7, 1e-6, 1e-5):
            cfg = ev.EvolutionConfig(
                n_periods=4, dt=0.1, seed_sigma=0.25, t_final=80.0, perturbation_amplitude=amp
            )
            rates.append(ev.evolve(roll, cfg).measured_rate)
        spread = (max(rates) - min(rates)) / abs(np.mean(rates))
        assert spread < 0.01

    def test_step_halving_changes_rate_marginally(self):
        roll = solve_roll(RollParameters(0.02, 0.0, 0.5), GRID)
        rates = []
        for dt in (0.2, 0.1):
            cfg = ev.EvolutionConfig(n_periods=4, dt=dt, seed_sigma=0.25, t_final=80.0)
            rates.append(ev.evolve(roll, cfg).measured_rate)
        assert abs(rates[1] - rates[0]) <= 1e-3 * abs(rates[1])

    def test_default_duration_rule(self):
        roll = solve_roll(RollParameters(0.02, 0.0, 0.0), GRID)
        cfg = ev.EvolutionConfig(n_periods=4, dt=0.1, seed_sigma=0.25)
        res = ev.evolve(roll, cfg)
        assert res.times[-1] == pytest.approx(10.0 / abs(res.expected_rate), rel=0.02)

    def test_step_reject_on_unresolvable_growth(self):
        roll = solve_roll(RollParameters(0.08, 0.0, 0.5), GRID)
        cfg = ev.EvolutionConfig(n_periods=4, dt=500.0, seed_sigma=0.25, t_final=1000.0)
        with pytest.raises(StepReject):
            ev.evolve(roll, cfg)

    @pytest.mark.parametrize("t_final", [0.1, 0.14, None])
    def test_single_step_run_rejected(self, monkeypatch, t_final):
        # one step leaves a single sample in the second-half rate fit; with
        # t_final = None a rate of -100 gives 10 / |rate| = dt
        def fast_modes(roll, sigma):
            vals, vecs = critical_modes(roll, sigma)
            return np.full_like(vals, -100.0), vecs

        monkeypatch.setattr(ev, "critical_modes", fast_modes)
        roll = solve_roll(RollParameters(0.05, 0.1, 0.5), GRID)
        cfg = ev.EvolutionConfig(n_periods=4, dt=0.1, seed_sigma=0.25, t_final=t_final)
        with pytest.raises(OutOfRange) as info:
            ev.evolve(roll, cfg)
        assert info.value.param == "t_final"

    def test_blow_up_detection(self, monkeypatch):
        monkeypatch.setattr(ev, "_BLOWUP_FACTOR", 1.01)
        roll = solve_roll(RollParameters(0.08, 0.0, 1.5), GRID)
        cfg = ev.EvolutionConfig(n_periods=16, dt=0.2, seed_sigma=1.0 / 16.0, t_final=600.0)
        with pytest.raises(BlowUp):
            ev.evolve(roll, cfg)


class TestStepper:
    """The in-place cosine-layout stepper against a textbook, out-of-place
    ETDRK4 step in the full rfft layout."""

    def test_two_steps_match_out_of_place_oracle(self):
        k2, eps, s, n_periods, n_modes, dt = 1.1, 0.1, 1.2, 4, 6, 0.1
        K = n_periods * (n_modes + 1)

        def symbols(n_idx):
            theta2 = (n_idx / n_periods) ** 2
            keep = n_idx <= K
            lin = np.where(keep, k2 * theta2 * (eps**2 - (1.0 - k2 * theta2) ** 2), 0.0)
            return theta2, keep, lin

        # oracle: full rfft spectrum on 4K+1 points
        n_points = next_fast_len(4 * K + 1)
        theta2, keep, lin = symbols(np.arange(n_points // 2 + 1))
        oracle = ev._Etdrk4(lin, dt)
        f2 = oracle.f2x2 / 2.0

        def oracle_nonlin(spec):
            u = np.fft.irfft(spec, n_points)
            w = np.fft.rfft(s * u**2 + u**3)
            out = -k2 * theta2 * w
            out[~keep] = 0.0
            return out

        def oracle_step(v):
            n0 = oracle_nonlin(v)
            a = oracle.e_half * v + oracle.f0 * n0
            n1 = oracle_nonlin(a)
            b = oracle.e_half * v + oracle.f0 * n1
            n2 = oracle_nonlin(b)
            c = oracle.e_half * a + oracle.f0 * (2.0 * n2 - n0)
            n3 = oracle_nonlin(c)
            return oracle.e_full * v + oracle.f1 * n0 + 2.0 * f2 * (n1 + n2) + oracle.f3 * n3

        # an even field: real rfft coefficients
        rng = np.random.default_rng(3)
        v0 = np.zeros(n_points // 2 + 1, dtype=np.complex128)
        v0[1 : K + 1] = rng.standard_normal(K) * n_points / K
        u0 = np.fft.irfft(v0, n_points)
        assert u0.min() < -0.1 and u0.max() > 0.1  # mixed signs, O(1) cubic
        expected = oracle_step(oracle_step(v0))[: K + 1] / n_points

        # cosine layout: y_n = U_n / N on 2K+1 midpoints
        n_cos = next_fast_len(2 * K + 1, real=True)
        theta2, keep, lin = symbols(np.arange(n_cos))
        stepper = ev._Etdrk4(lin, dt)
        nonlin = ev._cubic_flux(np.where(keep, -k2 * theta2 / (2 * n_cos), 0.0), s)
        got = np.zeros(n_cos)
        got[: K + 1] = v0[: K + 1].real / n_points
        stepper.step(got, nonlin)
        stepper.step(got, nonlin)
        assert got.dtype == stepper._a.dtype == np.float64
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got[: K + 1] - expected)) <= 1e-13 * scale
        assert np.max(np.abs(expected[1:] - v0[1 : K + 1] / n_points)) > 1e-3 * scale  # moved
        assert np.all(got[~keep] == 0.0)


class TestSeed:
    def test_sigma_zero_seed_keeps_full_mean(self):
        # at sigma = 0 the seed Re(V) keeps its full mean V_0
        roll = solve_roll(RollParameters(0.05, 0.2, 1.0), GRID)
        vals, vecs = critical_modes(roll, 0.0)
        lead = int(np.argmax(vals))
        v = vecs[:, lead]
        xi = 2.0 * np.pi * np.arange(GRID.n_points) / GRID.n_points
        u = np.cos(np.outer(xi, GRID.modes)) @ v
        assert abs(np.mean(u)) > 0.01 * np.sqrt(np.mean(u**2))  # a mass-carrying mode
        cfg = ev.EvolutionConfig(n_periods=4, dt=0.1, seed_sigma=0.0, t_final=1.0)
        res = ev.evolve(roll, cfg)
        want = cfg.perturbation_amplitude * np.mean(u) / np.sqrt(np.mean(u**2))
        assert res.masses[0] == pytest.approx(want, rel=1e-12)

    def test_sigma_zero_skips_odd_translation_mode(self):
        # Here the translation eigenvalue (~3e-18) leads the sigma = 0 triple,
        # but its eigenvector is odd, so Re(V) is roundoff (~5e-21).  Scaled
        # up to the seed amplitude, that roundoff decayed at -4.8e-3.
        roll = solve_roll(RollParameters(0.05, 0.1, -0.7), GRID)
        vals, vecs = critical_modes(roll, 0.0)
        odd = int(np.argmax(vals))
        assert vals[odd] > 0.0
        assert np.linalg.norm(vecs[:, odd] + vecs[::-1, odd]) < 1e-12
        cfg = ev.EvolutionConfig(n_periods=4, dt=0.1, seed_sigma=0.0, t_final=50.0)
        res = ev.evolve(roll, cfg)
        assert res.seed_eigenvalue == 0.0  # the conserved mode leads the even ones
        assert abs(res.measured_rate) < 1e-6

    @pytest.mark.parametrize("n_periods,j", [(4, 0), (4, 2), (4, -2)])
    def test_no_even_critical_mode_rejected(self, monkeypatch, n_periods, j):
        # make every critical vector odd under the fold that the seed applies
        def odd_modes(roll, sigma):
            vals, v = critical_modes(roll, sigma)
            w = np.zeros_like(v)
            if j == 0:  # sigma = 0: m <-> -m
                w = v - v[::-1]
            elif j > 0:  # sigma = 1/2: m <-> -1-m; m = M has no partner
                w[:-1] = v[:-1] - v[-2::-1]
            else:  # sigma = -1/2: m <-> 1-m; m = -M has no partner
                w[1:] = v[1:] - v[:0:-1]
            return vals, w

        monkeypatch.setattr(ev, "critical_modes", odd_modes)
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)
        cfg = ev.EvolutionConfig(n_periods=n_periods, dt=0.1, seed_sigma=j / n_periods, t_final=1.0)
        with pytest.raises(OutOfRange, match="even part"):
            ev.evolve(roll, cfg)


class TestMassProperty:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        omega=st.floats(-0.45, 0.45),
        s=st.floats(-1.5, 1.5),
        n_periods=st.sampled_from([4, 8]),
        data=st.data(),
    )
    def test_mass_drift_is_exactly_zero(self, omega, s, n_periods, data):
        # j = 0 seeds the neutral mean mode, so the conserved mass is nonzero
        j = data.draw(st.integers(-n_periods // 2, n_periods // 2), label="j")
        roll = solve_roll(RollParameters(0.05, omega, s), GRID)
        cfg = ev.EvolutionConfig(
            n_periods=n_periods, dt=0.1, seed_sigma=j / n_periods, t_final=5.0
        )
        res = ev.evolve(roll, cfg)
        assert res.times.size == 51
        assert res.mass_drift == 0.0
        assert np.all(np.isfinite(res.norms))
