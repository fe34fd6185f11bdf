import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslaw import bloch
from conslaw.bloch import critical_curve_array, critical_curves, critical_modes, critical_triples
from conslaw.errors import GapViolation, OutOfRange
from conslaw.fourier import SpectralGrid
from conslaw.model import swift_hohenberg
from conslaw.rolls import RollParameters, solve_roll, zero_roll

GRID = SpectralGrid(16)


def constant_symbol(m, sigma):
    """Eigenvalue ``t * sh(t)``, ``t = (m + sigma)^2``, of the zero-amplitude operator at k = 1."""
    t = (m + sigma) ** 2
    return t * swift_hohenberg(t)


def bloch_matrix(roll, sigma):
    """Dense Bloch matrix ``diag(p) S`` at one Bloch number, from the solver's own factors."""
    df = bloch._reaction_coefficients(roll)
    p, S = bloch._symmetric_factors(df, roll.params.k**2, np.array([sigma]))
    return p[0][:, None] * S[0]


def spectrum(roll, sigma, **kwargs):
    """Spectrum at one Bloch number: a sweep of one."""
    return critical_curves(roll, [sigma], **kwargs)[0]


class TestConstantSymbol:
    def test_critical_mode(self):
        assert constant_symbol(1, 0.0) == 0.0

    def test_conserved_mode_near_zero(self):
        assert constant_symbol(0, 0.1) == pytest.approx(-0.01 * 0.99**2)

    def test_second_harmonic(self):
        assert constant_symbol(2, 0.0) == pytest.approx(-36.0)

    def test_quarter_zone(self):
        assert constant_symbol(0, 0.25) == pytest.approx(-0.0549316, abs=1e-7)


class TestAssembly:
    def test_sigma_range_enforced(self):
        roll = zero_roll(RollParameters(0.0, 0.0, 0.0), GRID)
        with pytest.raises(OutOfRange):
            critical_modes(roll, 0.6)

    def test_zero_roll_reduces_to_diagonal_symbol(self):
        roll = zero_roll(RollParameters(0.0, 0.0, 0.0), GRID)
        B = bloch_matrix(roll, 0.3)
        off = B - np.diag(np.diag(B))
        assert np.max(np.abs(off)) == 0.0
        expect = [constant_symbol(m, 0.3) for m in GRID.modes]
        assert np.max(np.abs(np.diag(B) - expect)) < 1e-12

    def test_conserved_row_is_zero_at_sigma_zero(self):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)
        B = bloch_matrix(roll, 0.0)
        assert np.max(np.abs(B[GRID.n_modes, :])) == 0.0

    def test_translation_mode_in_kernel(self):
        # d/dxi of the stationary profile is annihilated at sigma = 0
        roll = solve_roll(RollParameters(0.08, 0.2, 1.0), GRID)
        v = 1j * GRID.modes * roll.profile.coeffs
        assert np.max(np.abs(bloch_matrix(roll, 0.0) @ v)) < 1e-9

    def test_df_field_content(self):
        # the reaction coefficients (modes -2M..2M) against df(u) pointwise
        roll = solve_roll(RollParameters(0.05, 0.0, 1.0), GRID)
        M = GRID.n_modes
        df = bloch._reaction_coefficients(roll)
        xi = 2.0 * np.pi * np.arange(4 * M + 1) / (4 * M + 1)
        vals = (np.exp(1j * np.outer(xi, np.arange(-2 * M, 2 * M + 1))) @ df).real
        u = (np.exp(1j * np.outer(xi, GRID.modes)) @ roll.profile.coeffs).real
        expect = roll.params.eps**2 - 2.0 * roll.params.s * u - 3.0 * u**2
        assert np.max(np.abs(vals - expect)) < 1e-13


class TestSpectrum:
    def test_threshold_state_triple(self):
        roll = zero_roll(RollParameters(0.0, 0.0, 0.0), GRID)
        spec = spectrum(roll, 0.0)
        crit = np.sort(np.abs(spec.critical_values()))
        assert np.max(crit) < 1e-12
        others = np.delete(spec.eigenvalues, list(spec.critical))
        assert others.max() == pytest.approx(-36.0, abs=1e-9)

    def test_co_periodic_triple_small_eps(self):
        roll = solve_roll(RollParameters(0.05, 0.0, 0.5), GRID)
        cv = np.sort(spectrum(roll, 0.0).critical_values())
        assert abs(cv[0] + 2.0 * 0.05**2) < 5.0 * 0.05**3
        assert np.max(np.abs(cv[1:])) < 1e-9

    def test_zero_amplitude_off_center(self):
        roll = zero_roll(RollParameters(0.0, 0.0, 0.0), GRID)
        nearest = np.max(spectrum(roll, 0.25).critical_values())
        assert nearest == pytest.approx(-0.0549316, abs=1e-7)

    def test_spectrum_real_at_sigma_zero(self):
        # Spectra are real by construction (symmetric similarity), so check
        # that similarity itself: a general eigensolve of the unsymmetrized
        # diag(p) S, off zero, must find the same real spectrum.
        roll = solve_roll(RollParameters(0.05, 0.25, 1.0), GRID)
        B = bloch_matrix(roll, 0.2)
        general = np.linalg.eigvals(B)
        tol = 1e-12 * np.linalg.norm(B, 2)
        assert np.max(np.abs(general.imag)) < tol
        want = np.sort(spectrum(roll, 0.2).eigenvalues)
        assert np.max(np.abs(np.sort(general.real) - want)) < tol

    def test_gap_certificate(self):
        for sigma in (0.0, 0.05, 0.1):
            roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)
            spec = spectrum(roll, sigma)
            others = np.delete(spec.eigenvalues, list(spec.critical))
            assert others.max() < -3.0

    def test_gap_violation_reported(self):
        roll = solve_roll(RollParameters(0.05, 0.0, 0.5), GRID)
        with pytest.raises(GapViolation):
            spectrum(roll, 0.0, delta=50.0)

    def test_truncation_convergence(self):
        p = RollParameters(0.05, 0.25, 1.0)
        vals = []
        for modes in (12, 24):
            roll = solve_roll(p, SpectralGrid(modes))
            v, _ = critical_modes(roll, 0.1)
            vals.append(np.sort(v))
        assert np.max(np.abs(vals[0] - vals[1])) < 1e-10

    def test_conjugation_symmetry(self):
        grid = SpectralGrid(8)
        roll = solve_roll(RollParameters(0.03, 0.25, 1.0), grid)
        for sigma in (0.1, 0.31):
            plus, minus = (np.sort(spec.eigenvalues) for spec in critical_curves(roll, [sigma, -sigma]))
            assert np.max(np.abs(minus - plus)) < 1e-9

    def test_critical_eigenvectors_are_eigenvectors(self):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)
        B = bloch_matrix(roll, 0.2)
        vals, vecs = critical_modes(roll, 0.2)
        for j in range(3):
            resid = B @ vecs[:, j] - vals[j] * vecs[:, j]
            assert np.max(np.abs(resid)) < 1e-8

    def test_conserved_mode_vector_is_even(self):
        # S is singular at sigma = 0, so a plain solve of S v = e_0 leaves an
        # odd part of a few percent here; only the even part is kept
        M = 12
        roll = solve_roll(RollParameters(0.05, 0.1, -0.7), SpectralGrid(M))
        _, vecs = critical_modes(roll, 0.0)
        v = vecs[:, np.argmax(np.abs(vecs[M]))]  # the mode with a mean
        assert np.linalg.norm(v - v[::-1]) <= 1e-14 * np.linalg.norm(v)


class TestCurves:
    def test_zero_roll_branches_match_symbol(self):
        roll = zero_roll(RollParameters(0.0, 0.0, 0.0), GRID)
        sigmas = np.linspace(0.0, 0.3, 7)
        curves = critical_curve_array(critical_curves(roll, sigmas))
        for i, sig in enumerate(sigmas):
            expect = np.sort([constant_symbol(m, sig) for m in (-1, 0, 1)])
            assert np.max(np.abs(np.sort(curves[:, i]) - expect)) < 1e-12

    def test_two_exact_zeros_at_origin(self):
        roll = solve_roll(RollParameters(0.04, 0.1, 0.6), GRID)
        spec = critical_curves(roll, [0.0, 0.02])[0]
        cv = np.sort(np.abs(spec.critical_values()))
        assert cv[1] < 1e-9  # conservation + translation modes

    def test_matched_curves_are_continuous(self):
        roll = solve_roll(RollParameters(0.05, 0.2, 0.8), GRID)
        sigmas = np.linspace(0.05, 0.3, 26)
        curves = critical_curve_array(critical_curves(roll, sigmas))
        jumps = np.max(np.abs(np.diff(curves, axis=1)))
        assert jumps < 0.1


class TestBatchedSweep:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        eps=st.floats(0.01, 0.08),
        omega=st.floats(-0.4, 0.4),
        s=st.floats(-1.4, 1.4),
        sigmas=st.lists(st.floats(0.0, 0.5, exclude_min=True), min_size=1, max_size=5),
    )
    def test_sweep_equals_single_sigma_loop(self, eps, omega, s, sigmas):
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(8))
        sweep = np.array(sigmas + [0.0] + [-x for x in sigmas])
        triples = critical_triples(roll, sweep)
        loop = np.array([critical_modes(roll, x)[0] for x in sweep])
        assert np.array_equal(triples, loop)
        assert np.all(np.diff(triples, axis=1) >= 0.0)

        spectra = critical_curves(roll, sweep)
        singles = [spectrum(roll, x) for x in sweep]
        assert np.array_equal([sp.gap for sp in spectra], [sp.gap for sp in singles])
        for curve, single in zip(spectra, singles):
            assert np.array_equal(curve.eigenvalues, single.eigenvalues)
            assert np.array_equal(np.sort(curve.critical_values()), single.critical_values())

        n = len(sigmas)
        for plus, minus in zip(spectra[:n], spectra[n + 1 :]):
            assert np.max(np.abs(np.sort(plus.eigenvalues) - np.sort(minus.eigenvalues))) < 1e-9

    def test_gap_violation_reports_first_sigma_in_sweep_order(self):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)
        # Both 0.3 and 0.45 violate; 0.45 has the smaller gap but comes later.
        sweep = [0.1, 0.3, 0.0, 0.45]
        gaps = [spectrum(roll, x).gap for x in sweep]
        delta = 0.5 * (gaps[0] + gaps[1])
        assert gaps[3] < gaps[1] <= delta < min(gaps[0], gaps[2])
        for fn in (critical_triples, critical_curves):
            with pytest.raises(GapViolation) as info:
                fn(roll, sweep, delta=delta)
            assert info.value.gap == gaps[1]

    def test_out_of_range_sigma_rejected_before_any_solve(self, monkeypatch):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)

        def no_assembly(*args):
            raise AssertionError("assembled before the range check")

        monkeypatch.setattr(bloch, "_symmetric_factors", no_assembly)
        for fn in (critical_triples, critical_curves):
            with pytest.raises(OutOfRange, match="got 0.6$"):
                fn(roll, [0.1, 0.6, -0.7])

    def test_singular_member_alone_takes_the_fallback(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 5, 5))
        A[1, 2] = 0.0  # a zero row: exactly singular
        B = rng.standard_normal((3, 5, 2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A, B)
        X = bloch._solve(A, B, lambda a, b: np.full_like(b, 7.0))
        for i in (0, 2):
            assert np.array_equal(X[i], np.linalg.solve(A[i], B[i]))
        assert np.all(X[1] == 7.0)
