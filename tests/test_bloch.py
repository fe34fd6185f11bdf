from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslaw import bloch
from conslaw import dispersion as dsp
from conslaw.bloch import critical_curve_array, critical_curves, critical_modes, critical_triples
from conslaw.dispersion import _default_sigma_grid, classify_numerically, growth_prefactor
from conslaw.errors import GapViolation, OutOfRange
from conslaw.fourier import SpectralGrid
from conslaw.model import reaction_derivative, swift_hohenberg
from conslaw.rolls import RollParameters, solve_roll, zero_roll

GRID = SpectralGrid(16)


def constant_symbol(m, sigma):
    """Eigenvalue ``t * sh(t)``, ``t = (m + sigma)^2``, of the zero-amplitude operator at k = 1."""
    t = (m + sigma) ** 2
    return t * swift_hohenberg(t)


def bloch_matrix(roll, sigma):
    """Dense Bloch matrix ``diag(p) S`` at one Bloch number, from the solver's own factors."""
    p, S = symmetric_factors(roll, sigma)
    return p[0][:, None] * S[0]


def symmetric_factors(roll, sigma):
    """The solver's factors ``p`` and ``S`` at one Bloch number."""
    df = reaction_derivative(roll.profile.coeffs, roll.params.s, roll.params.eps)
    return bloch._symmetric_factors(df, roll.params.k**2, np.array([sigma]))


def oracle_triples(roll, sigmas):
    """The three eigenvalues nearest zero of each ``H``, ascending, from 40-digit ``mpmath.eigsy``."""
    triples = []
    with mpmath.workdps(40):
        for _, _, H, _ in bloch._stacks(roll, np.asarray(sigmas)):
            for h in H:
                w = sorted((float(x) for x in mpmath.eigsy(mpmath.matrix(h.tolist()), eigvals_only=True)), key=abs)
                triples.append(sorted(w[:3]))
    return np.array(triples)


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

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        eps=st.floats(0.005, 0.1),
        omega=st.floats(-0.45, 0.45),
        s=st.floats(-1.5, 1.5),
        n_modes=st.sampled_from([8, 12, 16]),
    )
    def test_translation_mode_in_kernel(self, eps, omega, s, n_modes):
        # d/dxi of the stationary profile, v_m = m c_m up to the factor i, is
        # annihilated by the sigma = 0 factor S0 to roundoff
        grid = SpectralGrid(n_modes)
        roll = solve_roll(RollParameters(eps, omega, s), grid)
        S0 = symmetric_factors(roll, 0.0)[1][0]
        v = grid.modes * roll.profile.coeffs
        assert np.max(np.abs(S0 @ v)) <= 1e-12 * np.max(np.abs(S0)) * np.max(np.abs(v))

    def test_df_field_content(self):
        # the reaction coefficients (modes -2M..2M) against df(u) pointwise
        roll = solve_roll(RollParameters(0.05, 0.0, 1.0), GRID)
        M = GRID.n_modes
        df = reaction_derivative(roll.profile.coeffs, roll.params.s, roll.params.eps)
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
        # S0 is exactly singular here, so the conserved vector comes from the shifted solve.
        conserved = critical_modes(roll, 0.0)[1][:, 0]
        assert np.array_equal(conserved, -np.eye(conserved.size)[conserved.size // 2])

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

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        eps=st.floats(0.005, 0.1),
        omega=st.floats(-0.45, 0.45),
        s=st.floats(-1.5, 1.5),
        n_modes=st.sampled_from([8, 12, 16]),
        sigma=st.floats(0.0, 0.5),
    )
    def test_conjugation_symmetry(self, eps, omega, s, n_modes, sigma):
        # sigma -> -sigma is complex conjugation, so the two triples agree
        # within the two enclosures (to roundoff where the eigensolve runs)
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        (plus, minus), radius = bloch._fixed_block_triples(roll, [sigma, -sigma], 1.0)
        # an eigensolve member counts half of the 1e-12 of two such members
        assert np.max(np.abs(plus - minus)) <= np.sum(np.nan_to_num(radius, nan=0.5e-12))

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

    def test_empty_sweep_gives_empty_curves(self):
        roll = solve_roll(RollParameters(0.05, 0.2, 0.8), GRID)
        curves = critical_curve_array(critical_curves(roll, []))
        assert curves.shape == (3, 0) and curves.dtype == np.float64

    @pytest.mark.parametrize("nudge", [(0, 0), (0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)])
    def test_exact_tie_keeps_the_ascending_order(self, nudge):
        # Every new value lies below every old one, so all six assignments
        # cost 1.8 in real arithmetic; their rounded sums differ by an ulp or
        # two, and a 1-ulp nudge of one value reorders them.
        new = np.array([-0.9, -0.8, -0.7])
        i, ulps = nudge
        new[i] += ulps * np.spacing(new[i])
        vals = np.array([[-0.3, -0.2, -0.1], new])
        spectra = bloch._spectra([0.1, 0.2], vals, np.full((2, 2), -50.0), [50.0, 50.0])
        # Eigenvalues are stored descending, so the ascending triple sits at 2, 1, 0.
        assert [spec.critical for spec in spectra] == [(2, 1, 0), (2, 1, 0)]

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
        loop = np.array([critical_triples(roll, [x])[0] for x in sweep])
        assert np.array_equal(triples, loop)
        assert np.all(np.diff(triples, axis=1) >= 0.0)
        # Certified members lie within their radius of the eigensolve path;
        # the fallback members are critical_curves' own values, which at
        # sigma = 0 are the eigensolve path's.
        radius = bloch._fixed_block_triples(roll, sweep, 1.0)[1]
        modes = np.array([critical_modes(roll, x)[0] for x in sweep])
        spectra = critical_curves(roll, sweep)
        certified = np.isfinite(radius)
        assert not certified[len(sigmas)]
        assert np.all(np.abs(triples - modes)[certified] <= radius[certified, None])
        curves = np.sort([sp.critical_values() for sp in spectra], axis=1)
        assert np.array_equal(triples[~certified], curves[~certified])
        assert np.array_equal(triples[len(sigmas)], modes[len(sigmas)])

        singles = [spectrum(roll, x) for x in sweep]
        assert np.array_equal([sp.gap for sp in spectra], [sp.gap for sp in singles])
        for curve, single in zip(spectra, singles):
            assert np.array_equal(curve.eigenvalues, single.eigenvalues)
            assert np.array_equal(np.sort(curve.critical_values()), single.critical_values())

        n = len(sigmas)
        for plus, minus in zip(spectra[:n], spectra[n + 1 :]):
            assert np.max(np.abs(np.sort(plus.eigenvalues) - np.sort(minus.eigenvalues))) < 1e-9

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        eps=st.floats(0.01, 0.08),
        omega=st.floats(-0.45, 0.45),
        s=st.floats(-1.4, 1.4),
        n_modes=st.sampled_from([8, 12, 32]),
    )
    def test_spectrum_triples_match_the_eigensolve_path(self, eps, omega, s, n_modes):
        # critical_curves corrects the lifted start block where _solve_sweep
        # refines two inverse-iteration steps from eigh's vectors.  At
        # |sigma| = 1e-12, where (k sigma)^2 is far below eps max|w|, it takes
        # the eigensolve path itself.
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        small = np.array([1e-12, 1e-6, 1e-5, 1e-4])
        sweep = np.concatenate([-small, small, np.linspace(-0.5, 0.5, 41)])
        got = np.sort([spec.critical_values() for spec in critical_curves(roll, sweep)], axis=1)
        move = np.max(np.abs(got - bloch._solve_sweep(roll, sweep)[1]), axis=1)
        inner = np.abs(sweep) < 0.5
        # Where the two paths part by 1e-13, the 40-digit oracle decides: near
        # the zone edge it is the eigensolve path that is off (by 1.2e-13 at
        # sigma = -0.475, M = 32, where critical_curves is 2e-16 off).
        apart = inner & (move >= 1e-13)
        if apart.any():
            assert np.all(np.abs(got[apart] - oracle_triples(roll, sweep[apart])) < 1e-13)
        assert np.all(move[np.abs(sweep) == 1e-12] == 0.0)
        # At |sigma| = 1/2 the third value is one of a pair split by as little
        # as 1e-7, and the eigensolve path may resolve to its other member
        # (by up to about 9e-7 at M = 32): within the lifted triple's match
        # tolerance r + 16 eps max|w|.
        ((_, _, H, _),) = bloch._stacks(roll, sweep[~inner])
        u = np.finfo(float).eps * np.abs(np.linalg.eigvalsh(H)).max(axis=1)
        tol = bloch._lifted_ritz(H)[2] + bloch._MATCH_ULPS * u
        assert np.all(move[~inner] <= tol)

    def test_gap_violation_reports_first_sigma_in_sweep_order(self):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)
        # Both 0.3 and 0.45 violate; 0.45 has the smaller gap but comes later.
        sweep = [0.1, 0.3, 0.0, 0.45]
        gaps = [spectrum(roll, x).gap for x in sweep]
        delta = 0.5 * (gaps[0] + gaps[1])
        assert gaps[3] < gaps[1] <= delta < min(gaps[0], gaps[2])
        for fn in (critical_triples, critical_curves, bloch._fixed_block_triples):
            with pytest.raises(GapViolation) as info:
                fn(roll, sweep, delta=delta)
            assert info.value.gap == gaps[1]

    def test_out_of_range_sigma_rejected_before_any_solve(self, monkeypatch):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)

        def no_assembly(*args):
            raise AssertionError("assembled before the range check")

        monkeypatch.setattr(bloch, "_symmetric_factors", no_assembly)
        for fn in (critical_triples, critical_curves, partial(bloch._fixed_block_triples, delta=1.0)):
            with pytest.raises(OutOfRange, match="Bloch number 0.6 lies"):
                fn(roll, [0.1, 0.6, -0.7])

    def test_singular_member_alone_takes_the_fallback(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 5, 5))
        A[1, 2] = 0.0  # a zero row: exactly singular
        B = rng.standard_normal((3, 5, 2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A, B)
        X, failed = bloch._per_member(np.linalg.solve, A, B)
        assert failed == [1] and np.all(np.isnan(X[1]))
        shifted = bloch._solve(A, B)
        for i in (0, 2):
            assert np.array_equal(X[i], np.linalg.solve(A[i], B[i]))
            assert np.array_equal(shifted[i], X[i])
        assert np.array_equal(shifted[1], np.linalg.solve(A[1] + 1e-10 * np.eye(5), B[1]))

    def test_non_finite_cholesky_factor_fails_the_certificate(self):
        # NumPy's stacked Cholesky returns NaN factors for NaN input instead of raising.
        L, failed = bloch._per_member(np.linalg.cholesky, np.full((2, 3, 3), np.nan))
        assert failed == [] and np.all(np.isnan(np.diagonal(L, axis1=1, axis2=2)))
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)
        for delta in (1e308, 1e300):
            # At 1e308 the certificate's shift 2 (max rho - tau) would overflow, so
            # the certificate fails without forming it, and without a warning.
            with pytest.raises(GapViolation) as info:
                bloch._fixed_block_triples(roll, [0.1, 0.3], delta)
            assert info.value.gap == spectrum(roll, 0.1).gap


class TestZeroBatch:
    """A sweep through sigma = 0 splits into a deflated batch and the rest."""

    params = RollParameters(0.05, 0.1, 0.8)
    sweep = [0.1, 0.0, 0.2, -0.0, 5e-14, -0.3]

    def test_one_eigensolve_and_one_rayleigh_ritz_step_per_batch(self, monkeypatch):
        roll = solve_roll(self.params, SpectralGrid(12))
        calls = []

        def spy(name, f):
            def wrapped(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return f(a, *args, **kwargs)

            return wrapped

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(bloch.np.linalg, name, spy(name, getattr(np.linalg, name)))
        critical_curves(roll, self.sweep)
        # The three zero members, deflated to N - 1 with two critical values,
        # go through eigh; the three others get one eigvalsh and two 5 x 5
        # Rayleigh-Ritz steps, on their lifted start block and after its
        # Davidson corrections, with no N x N eigh.
        assert calls == [
            ("eigh", (3, 24, 24)),
            ("eigh", (3, 2, 2)),
            ("eigvalsh", (3, 25, 25)),
            ("eigh", (3, 5, 5)),
            ("eigh", (3, 5, 5)),
        ]

    def test_no_linear_solve_off_sigma_zero(self, monkeypatch):
        roll = solve_roll(self.params, SpectralGrid(12))
        sweep = [x for x in self.sweep if abs(x) >= bloch._SIGMA_ZERO_TOL] + [0.5, -0.5]

        def no_solve(*args):
            raise AssertionError("np.linalg.solve called off sigma = 0")

        monkeypatch.setattr(bloch.np.linalg, "solve", no_solve)
        assert np.all(np.isfinite(bloch._fixed_block_triples(roll, sweep, 1.0)[1]))
        critical_triples(roll, sweep)
        critical_curves(roll, sweep)

    @pytest.mark.parametrize(
        "triples",
        [
            lambda roll, sigmas: (bloch._solve_sweep(roll, sigmas)[1], None),
            partial(bloch._fixed_block_triples, delta=1.0),
        ],
        ids=["eigensolve", "fixed_block"],
    )
    def test_zero_members_solve_as_zero_alone(self, triples):
        roll = solve_roll(self.params, SpectralGrid(12))
        vals, radius = triples(roll, self.sweep)
        alone = triples(roll, [0.0])[0][0]
        for i in (1, 3):
            assert np.array_equal(vals[i], alone)
        # Within _SIGMA_ZERO_TOL of zero: deflated, so the conserved zero is exact.
        assert 0.0 in vals[4]
        if radius is not None:
            # The certified path leaves the zero batch to the eigensolve.
            zero = np.array([False, True, False, True, True, False])
            assert np.all(np.isnan(radius[zero])) and np.all(np.isfinite(radius[~zero]))
            assert np.array_equal(vals[zero], bloch._solve_sweep(roll, self.sweep)[1][zero])


class TestFixedBlockTriples:
    """The classifier's triples: fixed-block inverse iteration and a Cholesky gap certificate."""

    cells = dict(
        eps=st.floats(0.01, 0.08),
        omega=st.floats(-0.45, 0.45, exclude_min=True, exclude_max=True),
        s=st.floats(-1.4, 1.4, exclude_min=True, exclude_max=True),
        n_modes=st.sampled_from([8, 12]),
    )

    @staticmethod
    def sweep(eps):
        return np.concatenate([_default_sigma_grid(eps), [0.5, -0.5]])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(**cells)
    def test_triples_lie_within_their_enclosures(self, eps, omega, s, n_modes):
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        sweep = self.sweep(eps)
        vals, radius = bloch._fixed_block_triples(roll, sweep, 1.0)
        want = bloch._solve_sweep(roll, sweep)[1]
        # At sigma = +-1/2 the third and fourth eigenvalues nearly coincide and
        # the eigensolve path is the less accurate side (by up to about 2e-12
        # at M = 12), so the reference there is the 40-digit oracle.
        want[-2:] = oracle_triples(roll, sweep[-2:])
        certified = np.isfinite(radius)
        assert np.all(np.abs(vals - want)[certified] <= radius[certified, None])
        assert np.all(np.abs(vals - want)[certified] < 1e-13)
        # Uncertified members are critical_curves' own values.
        curves = np.sort([spec.critical_values() for spec in critical_curves(roll, sweep)], axis=1)
        assert np.array_equal(vals[~certified], curves[~certified])

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(**{**cells, "n_modes": st.sampled_from([8, 12, 32])})
    def test_small_sigmas_are_certified_tightly(self, eps, omega, s, n_modes):
        # Near sigma = 0 two eigenvalues of order (k sigma)^2 meet the
        # translation mode.  One inverse-iteration step missed the eigensolve
        # path there by up to 5.8e-4 (sigma = 1e-6, M = 32), inside a radius of 760.
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        small = np.array([1e-6, 1e-5, 1e-4])
        sweep = np.concatenate([-small, small])
        vals, radius = bloch._fixed_block_triples(roll, sweep, 1.0)
        move = np.abs(vals - bloch._solve_sweep(roll, sweep)[1])
        assert np.all(np.isfinite(radius))
        assert np.all(move <= radius[:, None])
        assert np.all(move < 1e-13)

    def test_zero_residual_over_zero_denominator_is_no_correction(self):
        # A diagonal H, as of the zero-amplitude roll, whose rest diagonal
        # repeats a critical value: the correction there is 0 / 0.
        d = np.array([-300.0, -0.5, -5.0, -1.0, -0.5, -0.25, -3.0, -200.0, -100.0])
        H = np.diag(d)[None]
        rho, Y, r = bloch._lifted_ritz(H)
        assert np.array_equal(rho[0], [-1.0, -0.5, -0.25]) and r[0] == 0.0
        assert np.array_equal(np.abs(Y[0]), np.eye(9)[:, [3, 4, 5]])

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(**cells, delta=st.floats(0.5, 40.0))
    def test_certificate_passes_exactly_when_the_eigh_gap_does(self, eps, omega, s, n_modes, delta):
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        sweep = self.sweep(eps)
        # The gaps of critical_curves, which its fallback raises with; all exceed 1e-300.
        gaps = [spec.gap for spec in critical_curves(roll, sweep, delta=1e-300)]
        for sigma, gap in zip(sweep, gaps):
            try:
                certified = np.isfinite(bloch._fixed_block_triples(roll, [sigma], delta)[1][0])
            except GapViolation as info:
                assert info.gap == gap
                certified = False
            if abs(sigma) < 0.5:
                assert certified == (gap > delta)
            else:
                # At the zone edge the third and fourth eigenvalues nearly
                # coincide; the certificate may fall back but never overclaims.
                assert gap > delta or not certified

    def test_classifier_runs_no_full_eigensolve(self, monkeypatch):
        roll = solve_roll(RollParameters(0.02, 0.1, 0.5), SpectralGrid(12))
        eigh = np.linalg.eigh
        shapes = []

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a)[1:])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(bloch.np.linalg, "eigh", spy)
        classify_numerically(roll)
        # Only the two Rayleigh-Ritz steps of the lifted start block: the grid
        # has no sigma = 0, so there is a single batch.
        assert shapes == [(5, 5), (5, 5)]

    @pytest.mark.parametrize("eps", [0.01, 0.02])
    def test_both_solve_paths_reach_the_same_verdicts(self, eps, monkeypatch):
        # A seeded 60-cell subset of the criterion-5 domain (the 30 x 30
        # (omega, s) grid with |Pi| > 0.05, M = 12), classified once from the
        # certified triples and once from the eigensolve path's.
        domain = [
            (omega, s)
            for s in np.linspace(-1.5, 1.5, 30)
            for omega in np.linspace(-0.45, 0.45, 30)
            if abs(dsp.sideband_product(omega, s)) > 0.05
        ]
        rng = np.random.default_rng(16)
        rolls = [
            solve_roll(RollParameters(eps, *domain[i]), SpectralGrid(12))
            for i in rng.choice(len(domain), 60, replace=False)
        ]
        certified = [classify_numerically(roll) for roll in rolls]
        with monkeypatch.context() as m:
            m.setattr(dsp, "critical_triples", lambda roll, sigmas, delta: bloch._solve_sweep(roll, sigmas)[1])
            eigensolved = [classify_numerically(roll) for roll in rolls]
        assert {got.verdict for got in certified} == {dsp.Stability.STABLE, dsp.Stability.UNSTABLE}
        for roll, got, want in zip(rolls, certified, eigensolved):
            assert got.verdict is want.verdict
            assert got.witness_sigma == want.witness_sigma
            if got.witness_sigma is not None:
                radius = bloch._fixed_block_triples(roll, [got.witness_sigma], 1.0)[1][0]
                assert abs(got.witness_lambda - want.witness_lambda) < radius

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(**cells)
    def test_sigma_zero_holds_no_instability(self, eps, omega, s, n_modes):
        # Why the classifier's grid may leave sigma = 0 out: the conserved
        # zero is exact, the translation value vanishes and the amplitude
        # mode decays at about c = -2 (1 - 4 omega^2) eps^2.
        assert np.all(_default_sigma_grid(eps) > 0.0)
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        triple = np.sort(critical_triples(roll, [0.0])[0])
        assert 0.0 in triple
        assert abs(triple[1]) <= 1e-9
        assert triple[0] <= growth_prefactor(eps, omega) / 2.0
