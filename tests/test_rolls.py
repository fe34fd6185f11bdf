import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslaw import bloch, rolls
from conslaw.errors import NoConvergence, OutOfRange, TrivialCollapse
from conslaw.fourier import SpectralGrid, l2_norm
from conslaw.model import square
from conslaw.rolls import (
    RollParameters,
    amplitude_alpha,
    asymptotic_roll,
    measured_alpha,
    solve_roll,
    zero_roll,
)
from conslaw.rolls import _jacobian, _residual_and_multiplier, _symbol

from pinned import assert_pinned

GRID = SpectralGrid(16)
EPS_SWEEP = (0.01, 0.02, 0.04, 0.08)


class TestParameters:
    def test_wavenumber(self):
        assert RollParameters(0.05, 0.25, 0.0).k == pytest.approx(np.sqrt(1.025))

    @pytest.mark.parametrize(
        "eps,omega,s",
        [(-0.1, 0.0, 0.0), (0.1, 0.6, 0.0), (0.1, 0.0, 3.8), (0.1, 0.5 + 1e-14, 0.0), (np.inf, 0.1, 0.0)],
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
        # u(0) = a_0 + sum a_m cos(0)
        assert np.sum(roll.profile.cosines) > 0.0

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
        symbol = _symbol(params, grid.n_modes)
        a = 0.05 * rng.normal(size=grid.n_modes) / (1.0 + np.arange(grid.n_modes)) ** 2
        _, _, c, u2 = _residual_and_multiplier(a, params, symbol)
        J = _jacobian(c, u2, params, symbol)
        h = 1e-6
        for n in range(grid.n_modes):
            ap, am = a.copy(), a.copy()
            ap[n] += h
            am[n] -= h
            Fp = _residual_and_multiplier(ap, params, symbol)[0]
            Fm = _residual_and_multiplier(am, params, symbol)[0]
            col = (Fp - Fm) / (2.0 * h)
            assert np.max(np.abs(col - J[:, n])) < 1e-6

    @pytest.mark.parametrize("params", [RollParameters(0.1, 0.2, 0.9), RollParameters(0.05, -0.4, -1.3)])
    def test_jacobian_is_the_even_part_of_the_bloch_factor(self, params):
        # The Newton Jacobian and the Bloch matrix linearize one reaction:
        # on cosine modes 1..M, J is -k^2 times the sigma = 0 factor S0
        # applied to cos(n xi), i.e. S0[m, n] + S0[m, -n].
        roll = solve_roll(params, GRID)
        M = GRID.n_modes
        c = roll.profile.coeffs
        S0 = bloch._symmetric_factors(bloch._operator(roll), np.array([0.0]))[1][0]
        m = np.arange(1, M + 1)
        even = S0[np.ix_(M + m, M + m)] + S0[np.ix_(M + m, M - m)]
        J = _jacobian(c, square(c), params, _symbol(params, M))
        assert np.max(np.abs(J - (-params.k**2) * even)) <= 4.0 * np.spacing(np.max(np.abs(S0))) * params.k**2

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_modes=st.integers(8, 32),
        scale=st.floats(1e-4, 1.0),
        eps=st.floats(0.0, 0.2),
        omega=st.floats(-0.5, 0.5),
        s=st.floats(-3.6, 3.6),
    )
    def test_phase_flip_signs_the_residual_and_keeps_the_multiplier(self, seed, n_modes, scale, eps, omega, s):
        # solve_roll keeps Newton's residual norm and q after flipping the odd
        # cosines (xi -> xi + pi): each product in the square and the reaction
        # on output mode m picks up the same sign (-1)^m, so mode m of the
        # residual is multiplied by it, exactly (up to the sign of a zero), and
        # q, on mode 0, keeps its bits.
        params = RollParameters(eps, omega, s)
        symbol = _symbol(params, n_modes)
        sign = (-1.0) ** np.arange(1, n_modes + 1)
        a = scale * np.random.default_rng(seed).normal(size=n_modes)
        F, q, _, _ = _residual_and_multiplier(a, params, symbol)
        F_flip, q_flip, _, _ = _residual_and_multiplier(a * sign, params, symbol)
        assert np.array_equal(F_flip, sign * F)
        assert np.abs(F_flip).max().tobytes() == np.abs(F).max().tobytes()
        assert q_flip.tobytes() == q.tobytes()


#: Cells where Newton converges to the roll shifted by pi (``np.sum(a) < 0``), which is flipped back.
FLIP_CELLS = [(8, 0.05, 0.45, 3.6), (12, 0.2, 0.3, -3.6), (32, 0.1, 0.49, -3.3)]
#: The cell where the direct predictor stalls and only the secant continuation in eps reaches the roll.
RESTART_CELL = (8, 0.15445027383466858, 0.4081507589604108, 3.2651846456007703)


def _pinned_cells():
    """(M, eps, omega, s) of :class:`TestPinnedRolls`: eight seeded draws per
    ``M``, then the cells the draws miss."""
    rng = np.random.default_rng(34)
    cells = []
    for M in (8, 12, 16, 32):
        eps = np.exp(rng.uniform(np.log(1e-3), np.log(0.2), 8)).tolist()
        omegas, ss = rng.uniform(-0.5, 0.5, 8).tolist(), rng.uniform(-2.5, 2.5, 8).tolist()
        cells += [(M, e, w, s) for e, w, s in zip(eps, omegas, ss)]
    return cells + [
        (32, 1e-3, 0.1, 0.5),  # u^2 and u^3 underflow in the residual
        (32, 0.2, 0.0, -1.0),
        (12, 1e-3, 0.499, 0.0),  # the predictor already converged: no iteration
        (16, 0.05, 0.5, 1.0),  # band edges: the zero roll
        (8, 0.05, -0.5, -1.0),
        *FLIP_CELLS,
        RESTART_CELL,
    ]


class TestPinnedRolls:
    """``solve_roll`` bit for bit against ``data/rolls_pinned.npz``, written by
    the residual that built a ``PeriodicField`` on every iterate:
    ``np.savez_compressed`` of the cells' ``cosines`` (concatenated in cell
    order), ``q``, ``residual_norm`` and ``newton_iters``."""

    fields = ("cosines", "q", "residual_norm", "newton_iters")

    def test_every_field_matches_the_pinned_rolls(self, monkeypatch):
        restart, restarted = rolls._continuation_restart, []

        def spy(params, grid):
            restarted.append((grid.n_modes, params.eps, params.omega, params.s))
            return restart(params, grid)

        monkeypatch.setattr(rolls, "_continuation_restart", spy)
        got = {field: [] for field in self.fields}
        for M, eps, omega, s in _pinned_cells():
            roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(M))
            got["cosines"].append(roll.profile.cosines)
            got["q"].append(roll.q)
            got["residual_norm"].append(roll.residual_norm)
            got["newton_iters"].append(roll.newton_iters)
        assert restarted == [RESTART_CELL]
        assert set(got["newton_iters"]) >= {0, 1, 2, 3}
        got["cosines"] = np.concatenate(got["cosines"])
        assert_pinned("rolls_pinned.npz", got)

    def test_the_flip_cells_converge_to_the_shifted_roll(self, monkeypatch):
        newton, sums = rolls._newton, []

        def spy(*args):
            out = newton(*args)
            sums.append(float(np.sum(out[0])))
            return out

        monkeypatch.setattr(rolls, "_newton", spy)
        for M, eps, omega, s in FLIP_CELLS:
            sums.clear()
            roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(M))
            assert sums[-1] < 0.0 < np.sum(roll.profile.cosines)

    def test_collapse_to_the_zero_profile_is_reported(self):
        with pytest.raises(TrivialCollapse):
            solve_roll(RollParameters(0.2, 0.4, 3.0), SpectralGrid(12))

    def test_non_finite_residual_stops_newton_at_once(self):
        # Cosines of 1e200 overflow the square; the residual is NaN at iterate 0.
        params, grid = RollParameters(0.05, 0.1, 0.5), SpectralGrid(12)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NoConvergence) as info:
            rolls._newton(np.full(grid.n_modes, 1e200), params, grid)
        assert info.value.iterations == 0 and np.isnan(info.value.residual)

    def test_stall_after_the_restart_is_reported(self, monkeypatch):
        monkeypatch.setattr(rolls, "_MAX_ITERS", 1)
        with pytest.raises(NoConvergence):
            solve_roll(RollParameters(0.1, 0.2, 0.9), SpectralGrid(12))
