import numpy as np
import pytest

from conslaw import rolls
from conslaw.errors import OutOfRange
from conslaw.fourier import SpectralGrid, l2_norm
from conslaw.rolls import (
    RollParameters,
    amplitude_alpha,
    asymptotic_roll,
    measured_alpha,
    solve_roll,
    zero_roll,
)
from conslaw.rolls import _jacobian, _residual_and_multiplier

GRID = SpectralGrid(16)
EPS_SWEEP = (0.01, 0.02, 0.04, 0.08)


class TestParameters:
    def test_wavenumber(self):
        assert RollParameters(0.05, 0.25, 0.0).k == pytest.approx(np.sqrt(1.025))

    @pytest.mark.parametrize(
        "eps,omega,s",
        [(-0.1, 0.0, 0.0), (0.1, 0.6, 0.0), (0.1, 0.0, 3.8), (0.1, 0.5 + 1e-14, 0.0)],
    )
    def test_invalid_parameters(self, eps, omega, s):
        with pytest.raises(OutOfRange):
            RollParameters(eps, omega, s)

    def test_band_edge_detection(self):
        assert RollParameters(0.05, 0.5, 1.0).at_band_edge
        assert not RollParameters(0.05, 0.49, 1.0).at_band_edge


class TestClosedForms:
    def test_asymptotic_basic(self):
        u = asymptotic_roll(RollParameters(0.05, 0.0, 0.0), GRID)
        a = u.cosines
        assert a[1] == pytest.approx(6.0 / np.sqrt(27.0) * 0.05)  # 0.0577350...
        assert np.max(np.abs(np.delete(a, 1))) == 0.0

    def test_asymptotic_band_edge_is_zero(self):
        assert l2_norm(asymptotic_roll(RollParameters(0.05, 0.5, 1.0), GRID)) == 0.0

    def test_asymptotic_second_harmonic(self):
        a = asymptotic_roll(RollParameters(0.05, 0.0, 1.0), GRID).cosines
        assert a[1] == pytest.approx(0.06)
        assert a[2] == pytest.approx(-2.0e-4)

    def test_amplitude_alpha(self):
        assert amplitude_alpha(RollParameters(0.1, 0.0, 0.0)) == pytest.approx(6.0 / np.sqrt(27.0) * 0.1)
        assert amplitude_alpha(RollParameters(0.1, 0.5, 2.0)) == 0.0
        assert amplitude_alpha(RollParameters(0.1, 0.25, 1.0)) == pytest.approx(0.1033688, abs=1e-7)


class TestSolveRoll:
    def test_preconditions(self):
        with pytest.raises(OutOfRange):
            solve_roll(RollParameters(0.3, 0.0, 0.0), GRID)

    def test_band_edge_returns_equilibrium(self):
        roll = solve_roll(RollParameters(0.05, 0.5, 0.0), GRID)
        assert np.all(roll.profile.coeffs == 0.0)
        assert roll.q == 0.0

    def test_converged_diagnostics(self):
        roll = solve_roll(RollParameters(0.05, 0.25, 1.0), GRID)
        assert roll.residual_norm < 1e-10
        assert roll.params.k == pytest.approx(np.sqrt(1.025))

    def test_continuation_restart_recovers_the_roll(self, monkeypatch):
        # near the edge of the domain the direct predictor stalls, and only the
        # secant continuation in eps reaches the roll
        restart, calls = rolls._continuation_restart, []

        def spy(*args):
            calls.append(args)
            return restart(*args)

        monkeypatch.setattr(rolls, "_continuation_restart", spy)
        params = RollParameters(0.15445027383466858, 0.4081507589604108, 3.2651846456007703)
        roll = solve_roll(params, SpectralGrid(8))
        assert len(calls) == 1
        assert roll.residual_norm < 1e-10

    def test_profile_even_and_mean_free(self):
        roll = solve_roll(RollParameters(0.08, -0.3, 0.8), GRID)
        c = roll.profile.coeffs
        assert c.dtype == np.float64 and np.array_equal(c, c[::-1])  # pure cosine
        assert abs(roll.profile.cosines[0]) < 1e-13

    def test_positive_at_origin(self):
        roll = solve_roll(RollParameters(0.05, 0.25, 1.0), GRID)
        assert roll.profile.values()[0] > 0.0

    def test_expansion_order(self):
        # remainder of the two-term expansion is O(eps^3)
        errs = []
        for e in EPS_SWEEP:
            p = RollParameters(e, 0.0, 0.5)
            err = l2_norm(solve_roll(p, GRID).profile - asymptotic_roll(p, GRID))
            errs.append(err)
        slope = np.polyfit(np.log(EPS_SWEEP), np.log(errs), 1)[0]
        assert slope >= 2.7

    def test_second_harmonic_matches_expansion(self):
        e, w, s = 0.02, 0.25, 1.0
        roll = solve_roll(RollParameters(e, w, s), GRID)
        a2 = roll.profile.cosines[2]
        closed = -2.0 * s * (1.0 - 4.0 * w**2) / (27.0 - 2.0 * s**2) * e**2
        assert abs(a2 - closed) < 5.0 * e**3

    def test_grid_robustness(self):
        p = RollParameters(0.1, 0.2, 0.8)
        coarse = solve_roll(p, SpectralGrid(12)).profile.cosines
        fine = solve_roll(p, SpectralGrid(24)).profile.cosines
        assert np.max(np.abs(fine[: coarse.size] - coarse)) < 1e-11

    def test_multiplier_scales_quadratically(self):
        qs = [abs(solve_roll(RollParameters(e, 0.1, 0.5), GRID).q) for e in (0.02, 0.04)]
        assert qs[1] / qs[0] == pytest.approx(4.0, rel=0.25)

    def test_multiplier_vanishes_without_quadratic_term(self):
        # s = 0 keeps the profile on odd harmonics, whose cube has zero mean
        roll = solve_roll(RollParameters(0.08, 0.2, 0.0), GRID)
        assert abs(roll.q) < 1e-14
        assert np.max(np.abs(roll.profile.cosines[2::2])) < 1e-14

    def test_measured_alpha_tracks_closed_form(self):
        p = RollParameters(0.02, 0.0, 0.0)
        roll = solve_roll(p, GRID)
        assert abs(measured_alpha(roll) - amplitude_alpha(p)) < 2.0 * 0.02**2
        assert measured_alpha(solve_roll(RollParameters(0.05, 0.25, 1.0), GRID)) > 0.0
        assert measured_alpha(zero_roll(p, GRID)) == 0.0

    def test_alpha_remainder_is_third_order(self):
        # the two-term amplitude formula leaves a cubic remainder in the
        # cos(xi) coordinate, not merely quadratic
        def gap(e):
            p = RollParameters(e, 0.25, 1.0)
            return abs(measured_alpha(solve_roll(p, GRID)) - amplitude_alpha(p))

        assert gap(0.04) / gap(0.02) > 5.0  # ~8 for a cubic remainder


class TestNewtonInternals:
    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        grid = SpectralGrid(8)
        params = RollParameters(0.1, 0.2, 0.9)
        a = 0.05 * rng.normal(size=grid.n_modes) / (1.0 + np.arange(grid.n_modes)) ** 2
        _, _, vals = _residual_and_multiplier(a, params, grid)
        J = _jacobian(a, vals, params, grid)
        h = 1e-6
        for n in range(grid.n_modes):
            ap, am = a.copy(), a.copy()
            ap[n] += h
            am[n] -= h
            Fp, _, _ = _residual_and_multiplier(ap, params, grid)
            Fm, _, _ = _residual_and_multiplier(am, params, grid)
            col = (Fp - Fm) / (2.0 * h)
            assert np.max(np.abs(col - J[:, n])) < 1e-6
