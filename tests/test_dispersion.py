import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conslaw import dispersion as dsp
from conslaw.bloch import critical_modes
from conslaw.errors import InvariantViolation, OutOfRange
from conslaw.fourier import SpectralGrid
from conslaw.rolls import RollParameters, solve_roll


def char_poly_oracle(m: np.ndarray) -> tuple[float, float, float]:
    """Coefficients of lambda^3 + a2 l^2 + a1 l + a0 from traces and minors."""
    a2 = -np.trace(m)
    minors = sum(
        np.linalg.det(m[np.ix_([i for i in range(3) if i != j], [i for i in range(3) if i != j])])
        for j in range(3)
    )
    a0 = -np.linalg.det(m)
    return a2.real, minors.real, a0.real


def depressed(a2: float, a1: float, a0: float) -> tuple[float, float]:
    """``Q`` and ``R`` of ``mu^3 + 3Q mu - 2R``, the cubic shifted by ``mu = lambda + a2/3``."""
    return (3.0 * a1 - a2**2) / 9.0, (9.0 * a2 * a1 - 27.0 * a0 - 2.0 * a2**3) / 54.0


class TestReducedMatrix:
    def test_origin_eigenvalues(self):
        p = RollParameters(0.05, 0.1, 0.8)
        m = dsp.leading_reduced_matrix(p, 0.0)
        vals = np.sort(np.linalg.eigvals(m).real)
        c = dsp.growth_prefactor(0.05, 0.1)
        assert vals[0] == pytest.approx(c)
        assert np.max(np.abs(vals[1:])) < 1e-15

    def test_mean_mode_decouples_without_quadratic_term(self):
        m = dsp.leading_reduced_matrix(RollParameters(0.05, 0.2, 0.0), 0.1)
        assert m[2, 0] == 0.0 and m[0, 2] == 0.0
        assert m[2, 2] == pytest.approx(-0.01)

    def test_entry_parity_and_reality(self):
        p = RollParameters(0.05, 0.3, 0.9)
        a = dsp.leading_reduced_matrix(p, 0.2)
        b = dsp.leading_reduced_matrix(p, -0.2)
        for i, j in [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]:
            assert a[i, j] == b[i, j]
            assert a[i, j].imag == 0.0
        for i, j in [(0, 1), (1, 0)]:
            assert a[i, j] == -b[i, j]
            assert a[i, j].real == 0.0


class TestCubicCoefficients:
    def test_matches_determinant_on_random_draws(self):
        rng = np.random.default_rng(123)
        n = 0
        while n < 100:
            s = rng.uniform(-3.5, 3.5)
            if 27.0 - 2.0 * s * s <= 0.0:
                continue
            n += 1
            p = RollParameters(rng.uniform(0.001, 0.1), rng.uniform(-0.49, 0.49), s)
            sig = rng.uniform(-0.2, 0.2)
            ours = dsp.cubic_coefficients(p, sig)
            oracle = char_poly_oracle(dsp.leading_reduced_matrix(p, sig))
            assert np.max(np.abs(np.subtract(ours, oracle))) < 1e-12

    def test_origin_degenerates(self):
        p = RollParameters(0.05, 0.1, 0.8)
        a2, a1, a0 = dsp.cubic_coefficients(p, 0.0)
        assert a1 == 0.0 and a0 == 0.0
        assert a2 == pytest.approx(-dsp.growth_prefactor(0.05, 0.1))

    def test_threshold_values(self):
        a2, a1, a0 = dsp.cubic_coefficients(RollParameters(0.0, 0.2, 0.7), 0.1)
        assert a2 == pytest.approx(0.09)
        assert a1 == pytest.approx(2.4e-3)
        assert a0 == pytest.approx(1.6e-5)


class TestCardano:
    def test_known_factorization(self):
        roots = np.sort(dsp.cardano_roots(6.0, 11.0, 6.0).real)
        assert roots == pytest.approx([-3.0, -2.0, -1.0])

    def test_degenerate_pair(self):
        c = -0.005
        roots = np.sort(dsp.cardano_roots(-c, 0.0, 0.0).real)
        assert roots == pytest.approx(np.sort([c, 0.0, 0.0]), abs=1e-12)

    def test_casus_irreducibilis_real_roots(self):
        # (x+2)(x)(x-2) = x^3 - 4x: Q^3 + R^2 < 0, all roots real
        Q, R = depressed(0.0, -4.0, 0.0)
        assert Q**3 + R**2 < 0.0
        roots = dsp.cardano_roots(0.0, -4.0, 0.0)
        assert np.max(np.abs(roots.imag)) < 1e-12
        assert np.sort(roots.real) == pytest.approx([-2.0, 0.0, 2.0])

    def test_against_companion_matrix(self):
        rng = np.random.default_rng(20260810)
        worst = 0.0
        for _ in range(1000):
            a2, a1, a0 = rng.uniform(-10.0, 10.0, 3)
            ours = np.sort_complex(dsp.cardano_roots(a2, a1, a0))
            ref = np.sort_complex(dsp.companion_roots(a2, a1, a0))
            worst = max(worst, float(np.max(np.abs(ours - ref))))
        assert worst < 1e-10

    def test_vieta_identities(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            a2, a1, a0 = rng.uniform(-5.0, 5.0, 3)
            r = dsp.cardano_roots(a2, a1, a0)
            assert np.sum(r) == pytest.approx(-a2, abs=1e-10)
            assert np.prod(r) == pytest.approx(-a0, abs=1e-10)

    def test_quartic_coefficient_of_discriminant(self):
        # Q^3 + R^2 = [-P20^2 P12^2 / 108 + P20^3 P04 / 27] sigma^4 + h.o.t.
        p = RollParameters(0.05, 0.2, 0.9)
        P04, P12, _, P20, _ = dsp.p_symbols(p)
        bracket = -(P20**2) * P12**2 / 108.0 + P20**3 * P04 / 27.0

        def disc_over_sigma4(sig):
            Q, R = depressed(*dsp.cubic_coefficients(p, sig))
            return (Q**3 + R**2) / sig**4

        # Richardson in sigma^2 removes the sigma^6 contribution
        c1, c2 = disc_over_sigma4(1e-3), disc_over_sigma4(0.5e-3)
        extrap = (4.0 * c2 - c1) / 3.0
        assert extrap == pytest.approx(bracket, rel=1e-3)


class TestPSymbols:
    def test_consistency_with_cubic(self):
        p = RollParameters(0.07, -0.2, 1.1)
        P04, P12, P14, P20, P22 = dsp.p_symbols(p)
        for sig in (0.05, 0.13):
            a2, a1, a0 = dsp.cubic_coefficients(p, sig)
            assert a1 == pytest.approx(P12 * sig**2 + P14 * sig**4, abs=1e-12)
            assert a2 == pytest.approx(P20 + P22 * sig**2, abs=1e-12)
            assert a0 == pytest.approx(P04 * sig**4 + 16.0 * sig**6, abs=1e-12)

    def test_band_edge(self):
        _, _, _, P20, _ = dsp.p_symbols(RollParameters(0.05, 0.5, 1.0))
        assert P20 == 0.0

    def test_threshold(self):
        assert dsp.p_symbols(RollParameters(0.0, 0.3, 1.0)) == (0.0, 0.0, 24.0, 0.0, 9.0)


class TestSmallSigmaExpansion:
    def test_reference_point(self):
        curv, lam_minus, lam_plus = dsp.small_sigma_expansion(RollParameters(0.05, 0.0, 0.0))
        assert (curv, lam_minus, lam_plus) == pytest.approx((-4.0, -4.0, -1.0))

    def test_worked_values(self):
        curv, lam_minus, lam_plus = dsp.small_sigma_expansion(RollParameters(0.05, 0.0, 0.5))
        assert curv == pytest.approx(-4.3396226, abs=1e-6)
        assert lam_minus == pytest.approx(-4.0, abs=1e-6)
        assert lam_plus == pytest.approx(-0.6603774, abs=1e-6)

    def test_marginal_root_at_band_edge(self):
        s_star = np.sqrt(27.0 / 38.0)
        _, _, lam_plus = dsp.small_sigma_expansion(RollParameters(0.05, 0.0, s_star))
        assert abs(lam_plus) < 1e-12

    def test_degenerate_band(self):
        with pytest.raises(OutOfRange):
            dsp.small_sigma_expansion(RollParameters(0.05, 0.5, 0.0))


class TestPredicate:
    def test_examples(self):
        assert dsp.stability_predicate(0.0, 0.0) is dsp.Stability.STABLE
        assert dsp.stability_predicate(0.4, 0.0) is dsp.Stability.UNSTABLE
        assert dsp.stability_predicate(0.0, 1.2) is dsp.Stability.UNSTABLE

    def test_band_edges(self):
        assert dsp.sideband_product(0.0, np.sqrt(27.0 / 38.0)) == pytest.approx(0.0, abs=1e-12)
        assert dsp.sideband_product(np.sqrt(1.0 / 12.0), 0.0) == pytest.approx(0.0, abs=1e-12)
        assert dsp.band_edge_omega(0.0) == pytest.approx(0.2886751, abs=1e-7)
        assert dsp.band_edge_omega(1.0) == 0.0  # 27 - 38 s^2 < 0: empty band

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            dsp.stability_predicate(0.5, 0.0)
        with pytest.raises(OutOfRange):
            dsp.stability_predicate(0.0, 3.7)

    @pytest.mark.parametrize("trace", [0.0, 0.5])
    def test_nonnegative_trace_in_stable_band_raises(self, monkeypatch, trace):
        monkeypatch.setattr(dsp, "_sideband_terms", lambda omega, s: (trace, 1.0))
        with pytest.raises(InvariantViolation):
            dsp.stability_predicate(0.0, 0.0)

    def test_band_identity(self):
        # sign(Pi) agrees with the closed-form band membership
        rng = np.random.default_rng(55)
        n = 0
        while n < 200:
            w = rng.uniform(-0.49, 0.49)
            s = rng.uniform(-3.6, 3.6)
            if 27.0 - 2.0 * s * s <= 0.0:
                continue
            n += 1
            pi = dsp.sideband_product(w, s)
            num = 27.0 - 38.0 * s**2
            if num > 0.0:
                inside = w**2 < num / (12.0 * (27.0 - 14.0 * s**2))
                assert (pi > 0.0) == inside
            else:
                assert pi < 0.0


class TestNumericalClassifier:
    @pytest.mark.parametrize(
        "omega,s,want",
        [(0.0, 0.0, dsp.Stability.STABLE), (0.4, 0.0, dsp.Stability.UNSTABLE), (0.0, 1.2, dsp.Stability.UNSTABLE)],
    )
    def test_examples(self, omega, s, want):
        roll = solve_roll(RollParameters(0.02, omega, s), SpectralGrid(12))
        verdict = dsp.classify_numerically(roll)
        assert verdict.verdict is want
        if want is dsp.Stability.UNSTABLE:
            assert verdict.witness_lambda > 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        omega=st.floats(-0.49, 0.49, exclude_min=True, exclude_max=True),
        s=st.floats(-1.6, 1.6, exclude_min=True, exclude_max=True),
        eps=st.floats(0.005, 0.02),
        n_modes=st.sampled_from([8, 12]),
    )
    def test_verdict_is_the_closed_form_band(self, omega, s, eps, n_modes):
        # The paper's theorem as a property: off the band edges, the Bloch
        # spectrum is stable exactly where the closed-form predicate says so.
        assume(abs(dsp.sideband_product(omega, s)) >= 0.05)
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        assert dsp.classify_numerically(roll).verdict is dsp.stability_predicate(omega, s)

    def test_exact_vs_reduced_order(self):
        # reduced-matrix eigenvalues track the Bloch criticals within
        # O(eps^3 + eps^2 sigma + sigma^3)
        grid = SpectralGrid(14)
        for e, sig in [(0.02, 0.01), (0.04, 0.02), (0.04, 0.08)]:
            p = RollParameters(e, 0.2, 0.8)
            roll = solve_roll(p, grid)
            exact, _ = critical_modes(roll, sig)
            reduced = np.linalg.eigvals(dsp.leading_reduced_matrix(p, sig))
            dev = np.max(np.abs(np.sort(exact) - np.sort(reduced.real)))
            assert dev < 20.0 * (e**3 + e**2 * sig + sig**3)

    def test_large_sideband_control(self):
        # for sigma >> eps the criticals are governed by -sigma^2, -4 sigma^2
        grid = SpectralGrid(14)
        roll = solve_roll(RollParameters(0.005, 0.0, 0.5), grid)
        for sig in (0.03, 0.05):
            vals, _ = critical_modes(roll, sig)
            got = np.sort(vals)
            want = np.sort([-4.0 * sig**2, -4.0 * sig**2, -(sig**2)])
            assert np.max(np.abs(got - want) / np.abs(want)) < 0.2

    def test_sigma_grid_is_built_once_per_eps_and_read_only(self):
        grid = dsp._default_sigma_grid(0.02)
        assert dsp._default_sigma_grid(0.02) is grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 1.0
        assert np.array_equal(grid, dsp._default_sigma_grid.__wrapped__(0.02))
        assert dsp._default_sigma_grid(0.01) is not grid
