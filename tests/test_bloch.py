import dataclasses
import gc
import itertools
import sys
import threading
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslaw import acceptance, bloch, mgl
from conslaw import dispersion as dsp
from conslaw.bloch import BlochSweep, critical_curves, critical_modes, critical_sweep
from conslaw.dispersion import _default_sigma_grid, classify_numerically, growth_prefactor
from conslaw.errors import GapViolation, InvariantViolation, OutOfRange
from conslaw.fourier import SpectralGrid
from conslaw.model import reaction_derivative, swift_hohenberg
from conslaw.rolls import RollParameters, solve_roll, zero_roll

from eigensolve_reference import certificate_inputs, full_certificate, reference_triples
from pinned import assert_pinned, cholesky_calls, linalg_calls

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
    return bloch._symmetric_factors(bloch._operator(roll), np.array([sigma]))


def oracle_eigenvalues(roll, sigmas):
    """Each ``H``'s eigenvalues, descending, from 40-digit ``mpmath.eigsy``."""
    spectra = []
    with mpmath.workdps(40):
        for h in bloch._stacks(roll, np.asarray(sigmas, dtype=float))[1]:
            w = mpmath.eigsy(mpmath.matrix(h.tolist()), eigvals_only=True)
            spectra.append(sorted((float(x) for x in w), reverse=True))
    return np.array(spectra)


def oracle_below(roll, sigmas, levels):
    """Whether each ``H`` has ``lambda_1 < level``: a 40-digit ``mpmath.cholesky`` of ``level I - H`` completes."""
    below = []
    with mpmath.workdps(40):
        for h, level in zip(bloch._stacks(roll, np.asarray(sigmas, dtype=float))[1], levels):
            try:
                mpmath.cholesky(mpmath.mpf(level) * mpmath.eye(h.shape[0]) - mpmath.matrix(h.tolist()))
                below.append(True)
            except ValueError:
                below.append(False)
    return np.array(below)


def oracle_triples(roll, sigmas):
    """The three eigenvalues nearest zero of each ``H``, ascending, from :func:`oracle_eigenvalues`."""
    w = oracle_eigenvalues(roll, sigmas)
    return np.sort(np.take_along_axis(w, np.argsort(np.abs(w), axis=1, kind="stable")[:, :3], axis=1), axis=1)


def certify(roll, sigmas, delta=1.0):
    """Triples and their radii of :func:`critical_sweep`."""
    sweep = critical_sweep(roll, sigmas, delta)
    return sweep.values, sweep.radius


def sweep_arrays(sweep):
    """The arrays a sweep record holds, by field name in field order."""
    return {f.name: getattr(sweep, f.name) for f in dataclasses.fields(sweep)}


def eigvalsh_rest(roll, sigmas):
    """Each member's dense rest ``(n, N - 3)``, ascending: one ``eigvalsh`` of ``H`` built at ``|sigma|``, less
    the three values nearest zero."""
    w = np.linalg.eigvalsh(bloch._stacks(roll, np.abs(np.asarray(sigmas, dtype=float)).reshape(-1))[1])
    return np.sort(np.take_along_axis(w, np.argsort(np.abs(w), axis=1), axis=1)[:, 3:], axis=1)


def rank3_members(monkeypatch):
    """The member count of each rank-3 pass (``Y`` of three columns) of ``bloch._block_certificate`` from here on."""
    calls, certificate = [], bloch._block_certificate

    def spy(sq, H, outer, Y, *args):
        if Y.shape[2] == 3:
            calls.append(Y.shape[0])
        return certificate(sq, H, outer, Y, *args)

    monkeypatch.setattr(bloch, "_block_certificate", spy)
    return calls


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
        crit = np.sort(np.abs(critical_sweep(roll, [0.0]).values[0]))
        assert np.max(crit) < 1e-12
        others = eigvalsh_rest(roll, [0.0])[0]
        assert others.max() == pytest.approx(-36.0, abs=1e-9)
        # S0 is exactly singular here, so the conserved vector comes from the shifted solve.
        conserved = critical_modes(roll, 0.0)[1][:, 0]
        assert np.array_equal(conserved, -np.eye(conserved.size)[conserved.size // 2])
        # H is diagonal here, so the other two Ritz vectors may be e_-1 and e_1,
        # a degenerate pair: they split into the cosine and the sine mode.
        vecs = critical_modes(roll, 0.0)[1]
        assert np.allclose(vecs.T @ vecs, np.eye(3), rtol=0.0, atol=1e-15)

    def test_co_periodic_triple_small_eps(self):
        roll = solve_roll(RollParameters(0.05, 0.0, 0.5), GRID)
        cv = critical_sweep(roll, [0.0]).values[0]
        assert abs(cv[0] + 2.0 * 0.05**2) < 5.0 * 0.05**3
        assert np.max(np.abs(cv[1:])) < 1e-9

    def test_zero_amplitude_off_center(self):
        roll = zero_roll(RollParameters(0.0, 0.0, 0.0), GRID)
        nearest = np.max(critical_sweep(roll, [0.25]).values[0])
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
        # The certified triple beside the dense rest.
        want = np.sort(np.concatenate([critical_sweep(roll, [0.2]).values[0], eigvalsh_rest(roll, [0.2])[0]]))
        assert np.max(np.abs(np.sort(general.real) - want)) < tol

    def test_gap_certificate(self):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)
        sigmas = [0.0, 0.05, 0.1]
        assert np.all(critical_sweep(roll, sigmas).gaps > 3.0)
        others = eigvalsh_rest(roll, sigmas)
        assert np.all(others.max(axis=1) < -3.0)

    def test_sigma_zero_gap_is_minus_the_largest_rest_value(self):
        # Criterion 2 checks gap > 3 for "the rest lies below -3".  Each
        # sigma = 0 member is certified on its parity blocks, and its gap lies
        # within its radius of -max of the eigvalsh rest that its eigenvalues
        # hold beside the triple, to that eigvalsh's rounding N eps max|w|.
        for w, s in acceptance.PARAM_SETS:
            for e in acceptance.EPS_SWEEP:
                roll = acceptance._roll(e, w, s)
                sweep, spec = critical_sweep(roll, [0.0]), critical_curves(roll, [0.0])[0]
                assert spec.gap == sweep.gaps[0]
                u = spec.eigenvalues.size * np.finfo(float).eps * np.abs(spec.eigenvalues).max()
                rest = np.delete(spec.eigenvalues, list(spec.critical))
                assert abs(spec.gap + rest.max()) <= sweep.gap_radius[0] + u

    def test_gap_violation_reported(self):
        roll = solve_roll(RollParameters(0.05, 0.0, 0.5), GRID)
        with pytest.raises(GapViolation):
            critical_sweep(roll, [0.0], delta=50.0)

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
        # within the two enclosures
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        (plus, minus), radius = certify(roll, [sigma, -sigma], 1.0)
        assert np.max(np.abs(plus - minus)) <= np.sum(radius)

    @pytest.mark.parametrize("sigma", [0.0, 0.2, 0.5])
    def test_critical_eigenvectors_are_eigenvectors(self, sigma):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)
        B = bloch_matrix(roll, sigma)
        vals, vecs = critical_modes(roll, sigma)
        assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0.0, atol=1e-15)
        for j in range(3):
            resid = B @ vecs[:, j] - vals[j] * vecs[:, j]
            assert np.max(np.abs(resid)) < 1e-8

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        eps=st.floats(0.005, 0.1),
        omega=st.floats(-0.45, 0.45),
        s=st.floats(-1.5, 1.5),
        n_modes=st.sampled_from([8, 12, 16]),
    )
    def test_translation_vector_is_the_kernel_mode(self, eps, omega, s, n_modes):
        # At sigma = 0 the conserved and translation values may both be zero.
        # e_0 is set, and beside it are the top Ritz vectors of the even and
        # the odd block, unfolded, so the translation column is odd and has no
        # conserved part: it is the kernel mode m c_m,
        # to 1e-10 (m c_m is a kernel vector only to the roll's residual; the
        # median distance is 2e-15).
        grid = SpectralGrid(n_modes)
        roll = solve_roll(RollParameters(eps, omega, s), grid)
        vals, vecs = critical_modes(roll, 0.0)
        kernel = grid.modes * roll.profile.coeffs
        kernel /= np.linalg.norm(kernel)
        odd = np.linalg.norm(vecs + vecs[::-1], axis=0) < 1.0
        assert np.count_nonzero(odd) == 1
        v = vecs[:, odd][:, 0]
        assert np.linalg.norm(v - np.sign(v @ kernel) * kernel) < 1e-10
        assert np.linalg.norm(v + v[::-1]) < 1e-12

    def test_conserved_mode_vector_is_even(self):
        # S is singular at sigma = 0 (its kernel, m c_m, is odd), so the vector
        # is solved on the even (cosine) unknowns and is even by construction.
        M = 12
        roll = solve_roll(RollParameters(0.05, 0.1, -0.7), SpectralGrid(M))
        _, vecs = critical_modes(roll, 0.0)
        v = vecs[:, np.argmax(np.abs(vecs[M]))]  # the mode with a mean
        assert np.linalg.norm(v - v[::-1]) <= 1e-14 * np.linalg.norm(v)

    @pytest.mark.parametrize(
        "eps, omega, s, n_modes",
        [(4.29e-204, 0.0, 1.0, 8), (1e-310, 0.0, 1.0, 8), (1e-140, 0.1, -0.7, 12), (3e-160, 0.1, -0.7, 12), (1e-310, -0.3, 0.4, 32)],
    )
    def test_conserved_mode_vector_is_a_unit_vector_at_tiny_eps(self, eps, omega, s, n_modes):
        # The solve of S0 v = e_0 grows like 1 / eps: at 4.29e-204 its norm
        # overflowed, at 1e-310 its entries did.  Its direction lies within
        # about eps of the even cosine mode of m = +-1, which it is below
        # eps = 1e-150; at 1e-140 the solve still gives it.
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = critical_modes(roll, 0.0)
            v = bloch._conserved_vector(roll)
        assert 0.0 in vals and np.abs(vals).max() < 1e-250
        assert np.all(np.abs(np.linalg.norm(vecs, axis=0) - 1.0) <= 1e-15)
        assert np.any(np.all(vecs == v[:, None], axis=0))
        M = n_modes
        assert np.allclose(np.abs(v[[M - 1, M + 1]]), np.sqrt(0.5), rtol=0.0, atol=1e-15) and v[M - 1] == v[M + 1]
        assert np.abs(np.delete(v, [M - 1, M + 1])).max() <= 1e-15


class TestCurves:
    def test_zero_roll_branches_match_symbol(self):
        roll = zero_roll(RollParameters(0.0, 0.0, 0.0), GRID)
        sigmas = np.linspace(0.0, 0.3, 7)
        curves = critical_sweep(roll, sigmas).values.T
        for i, sig in enumerate(sigmas):
            expect = np.sort([constant_symbol(m, sig) for m in (-1, 0, 1)])
            assert np.max(np.abs(np.sort(curves[:, i]) - expect)) < 1e-12

    def test_two_exact_zeros_at_origin(self):
        roll = solve_roll(RollParameters(0.04, 0.1, 0.6), GRID)
        cv = np.sort(np.abs(critical_sweep(roll, [0.0, 0.02]).values[0]))
        assert cv[1] < 1e-9  # conservation + translation modes

    def test_empty_sweep_gives_empty_curves(self):
        roll = solve_roll(RollParameters(0.05, 0.2, 0.8), GRID)
        curves = critical_sweep(roll, []).values.T
        assert curves.shape == (3, 0) and curves.dtype == np.float64

    @pytest.mark.parametrize("nudge", [(0, 0), (0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)])
    def test_exact_tie_keeps_the_ascending_order(self, nudge, monkeypatch):
        # Every new value lies below every old one, so all six assignments
        # cost 1.8 in real arithmetic; their rounded sums differ by an ulp or
        # two, and a 1-ulp nudge of one value reorders them.  The curves
        # stay in ascending order whatever the rounding.
        new = np.array([-0.9, -0.8, -0.7])
        i, ulps = nudge
        new[i] += ulps * np.spacing(new[i])
        vals = np.array([[-0.3, -0.2, -0.1], new])
        # The rest is read from the eigvalsh of the member's rebuilt H: here
        # three zeros, taken as the values nearest zero, and a rest of -50, -50.
        H = np.diag([-50.0, -50.0, 0.0, 0.0, 0.0])[None]
        monkeypatch.setattr(bloch, "_stacks", lambda roll, sigmas: (None, H))
        spectra = [bloch.BlochSpectrum(sigma, 50.0, triple, None) for sigma, triple in zip([0.1, 0.2], vals)]
        # Eigenvalues are stored descending, so the ascending triple sits at 2, 1, 0.
        assert [spec.critical for spec in spectra] == [(2, 1, 0), (2, 1, 0)]
        assert np.array_equal([spec.critical_values() for spec in spectra], vals)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=6, max_size=6))
    def test_ascending_assignment_has_the_least_cost(self, values):
        # Monotone rearrangement: between two real triples the ascending
        # assignment has the least L1 cost, exactly.  In floating point its
        # cost exceeds the least computed cost by at most about 6 u of it,
        # inside 8 ulp, so a search over the six would keep the ascending one.
        old, new = np.sort(values[:3]), np.sort(values[3:])
        perms = np.array(list(itertools.permutations(range(3))))
        exact = [sum(abs(Fraction(a) - Fraction(b)) for a, b in zip(new[p].tolist(), old.tolist())) for p in perms]
        assert exact[0] == min(exact)
        cost = np.abs(new[perms] - old).sum(axis=1)
        assert cost[0] <= cost.min() + 8 * np.spacing(cost.min())

    def test_critical_values_cannot_alter_the_spectrum(self):
        spec = critical_curves(solve_roll(RollParameters(0.05, 0.2, 0.8), GRID), [0.1])[0]
        want = spec.critical_values().copy()
        spec.critical_values()[:] = 1.0
        assert np.array_equal(spec.critical_values(), want)
        assert np.array_equal(spec.eigenvalues[list(spec.critical)], want)

    def test_matched_curves_are_continuous(self):
        roll = solve_roll(RollParameters(0.05, 0.2, 0.8), GRID)
        sigmas = np.linspace(0.05, 0.3, 26)
        curves = critical_sweep(roll, sigmas).values.T
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
        batch = critical_sweep(roll, sweep)
        triples = batch.values
        singles = [critical_sweep(roll, [x]) for x in sweep]
        loop = np.array([single.values[0] for single in singles])
        assert np.array_equal(triples, loop)
        assert np.all(np.diff(triples, axis=1) >= 0.0)
        assert np.array_equal(batch.gaps, [single.gaps[0] for single in singles])
        # Every member lies within its radius of the reference; sigma = 0 is
        # certified on its parity blocks.  critical_modes runs the same
        # engine, so its triples are these on every member.
        radius = certify(roll, sweep, 1.0)[1]
        move = np.abs(triples - reference_triples(roll, sweep))
        assert np.all(move <= radius[:, None])
        modes = np.array([critical_modes(roll, x)[0] for x in sweep])
        assert np.array_equal(triples, modes)

        # The whole spectra at sigma and -sigma: each triple beside its dense rest.
        n = len(sigmas)
        full = np.sort(np.concatenate([triples, eigvalsh_rest(roll, sweep)], axis=1), axis=1)
        assert np.max(np.abs(full[:n] - full[n + 1 :])) < 1e-9

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        eps=st.floats(0.01, 0.08),
        omega=st.floats(-0.45, 0.45),
        s=st.floats(-1.4, 1.4),
        n_modes=st.sampled_from([8, 12, 32]),
    )
    def test_spectrum_triples_match_the_eigensolve_path(self, eps, omega, s, n_modes):
        # critical_sweep corrects the lifted start block where the reference
        # refines two inverse-iteration steps from eigh's vectors.
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        small = np.array([1e-12, 1e-6, 1e-5, 1e-4])
        sweep = np.concatenate([-small, small, np.linspace(-0.5, 0.5, 41)])
        got, radius = certify(roll, sweep)
        move = np.max(np.abs(got - reference_triples(roll, sweep)), axis=1)
        inner, zero = np.abs(sweep) < 0.5, sweep == 0.0
        # Off zero, where the two part by 1e-13, the 40-digit oracle decides:
        # near the zone edge it is the reference that is off (by 1.2e-13 at
        # sigma = -0.475, M = 32, where critical_sweep is 2e-16 off).  This
        # holds the uncertified members (1e-12, where the certificate fails)
        # to 1e-13.  H at -sigma is H at sigma under m -> -m, exactly
        # (asserted at 1/2 in TestFixedBlockTriples), so one oracle serves
        # both.
        apart = inner & ~zero & (move >= 1e-13)
        if apart.any():
            mags, pair = np.unique(np.abs(sweep[apart]), return_inverse=True)
            assert np.all(np.abs(got[apart] - oracle_triples(roll, mags)[pair]) < 1e-13)
        # At sigma = 0, solved on its even and odd blocks, and at
        # |sigma| = 1e-12, where (k sigma)^2 is far below eps max|w|, a
        # certified member lies within its radius of the reference.
        assert np.isfinite(radius[zero]).all()
        near = (zero | (np.abs(sweep) == 1e-12)) & np.isfinite(radius)
        assert np.all(move[near] <= radius[near])
        # At |sigma| = 1/2 the third value is one of a pair split by as little
        # as 1e-7, and the reference may resolve to its other member (by up
        # to about 9e-7 at M = 32): within the lifted four-pair radius r4 plus
        # 16 eps max|w|.
        H = bloch._stacks(roll, sweep[~inner])[1]
        u = np.finfo(float).eps * np.abs(np.linalg.eigvalsh(H)).max(axis=1)
        tol = bloch._lifted_ritz(H, bloch._rows(H.shape[1], bloch._START_MODES))[3] + 16 * u
        assert np.all(move[~inner] <= tol)

    def test_gap_violation_reports_first_sigma_in_sweep_order(self):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)
        # Both 0.3 and 0.45 violate; 0.45 has the smaller gap but comes later.
        sweep = [0.1, 0.3, 0.0, 0.45]
        gaps = [critical_sweep(roll, [x]).gaps[0] for x in sweep]
        delta = 0.5 * (gaps[0] + gaps[1])
        assert gaps[3] < gaps[1] <= delta < min(gaps[0], gaps[2])
        for fn in (critical_sweep, critical_curves):
            with pytest.raises(GapViolation) as info:
                fn(roll, sweep, delta=delta)
            assert info.value.gap == gaps[1]

    def test_out_of_range_sigma_rejected_before_any_solve(self, monkeypatch):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)

        def no_assembly(*args):
            raise AssertionError("assembled before the range check")

        monkeypatch.setattr(bloch, "_toeplitz", no_assembly)
        monkeypatch.setattr(bloch, "_symmetric_factors", no_assembly)
        for fn in (critical_sweep, critical_curves):
            with pytest.raises(OutOfRange, match="Bloch number 0.6 lies"):
                fn(roll, [0.1, 0.6, -0.7])

    def test_singular_member_alone_is_nan(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((3, 5, 5))
        A = G @ G.swapaxes(1, 2) + np.eye(5)
        A[1, 2, 2] = -1.0  # not positive definite
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(A)
        L = bloch._cholesky(A)
        assert np.all(np.isnan(L[1]))
        for i in (0, 2):
            assert np.array_equal(L[i], np.linalg.cholesky(A[i]))

    def test_non_finite_cholesky_factor_fails_the_certificate(self):
        # NumPy's stacked Cholesky returns NaN factors for NaN input instead of raising.
        L = bloch._cholesky(np.full((2, 3, 3), np.nan))
        assert np.all(np.isnan(np.diagonal(L, axis1=1, axis2=2)))
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), GRID)
        for delta in (1e308, 1e300):
            # The certificate does not depend on delta, so a huge one fails the
            # gap check with the certified gap, and without a warning.
            with pytest.raises(GapViolation) as info:
                certify(roll, [0.1, 0.3], delta)
            assert info.value.gap == critical_sweep(roll, [0.1]).gaps[0]


class TestMirror:
    """H at -sigma is H at sigma reversed in m, so a sweep solves each |sigma| once."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        eps=st.floats(0.01, 0.08),
        omega=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
        s=st.floats(-1.4, 1.4),
        sigma=st.floats(0.0, 0.5, exclude_min=True),
        n_modes=st.sampled_from([8, 12, 32]),
    )
    def test_stacks_at_minus_sigma_are_reversed(self, eps, omega, s, sigma, n_modes):
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        sq, H = bloch._stacks(roll, np.array([sigma]))
        sq_minus, H_minus = bloch._stacks(roll, np.array([-sigma]))
        assert H_minus.tobytes() == H[:, ::-1, ::-1].tobytes()
        assert sq_minus.tobytes() == sq[:, ::-1].tobytes()

    #: Distinct |sigma|: 0.3, 0, 0.5 and 0.2 (TestCholeskyKernel counts one
    #: stacked Cholesky of these four).
    sweep = [0.3, -0.3, 0.3, 0.0, -0.0, 5e-14, 0.5, -0.5, -0.2]

    #: The Bloch numbers of data/modes_m12.npz, in its order.
    modes_sigmas = [0.0, 1e-10, -1e-10, 0.125, -0.125, 0.2, -0.2, 0.5, -0.5]

    @pytest.mark.parametrize("sigma", modes_sigmas)
    def test_critical_modes_match_the_pinned_modes(self, sigma):
        # data/modes_m12.npz holds np.savez_compressed of critical_modes' values
        # and vectors at both signs of sigma, keyed "sigmas", "case.values" and
        # "case.vectors", as written when the sweep handed its own sqrt(p) and
        # H to the correction.  The member the correction rebuilds at -sigma is
        # the sweep's mirrored, bit for bit (test_stacks_at_minus_sigma_are_reversed).
        cases = {"m12": ((0.05, 0.1, 0.8), 12), "m32": ((0.04, 0.1, 0.5), 32)}
        got = {"sigmas": sigma}
        for name, (params, n_modes) in cases.items():
            got[f"{name}.values"], got[f"{name}.vectors"] = critical_modes(
                solve_roll(RollParameters(*params), SpectralGrid(n_modes)), sigma
            )
        assert_pinned("modes_m12.npz", got, row=self.modes_sigmas.index(sigma))

    def test_negative_members_are_their_twins_mirrored(self):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(12))
        sweep = self.sweep
        out = bloch._lifted_sweep(roll, sweep)
        vecs = out.vectors
        # What a member at -sigma shares with its twin, besides its mirrored vectors.
        shared = ("values", "radius", "gaps", "gap_radius")
        for i, j, mirrored in [(0, 1, True), (0, 2, False), (3, 4, False), (3, 5, False), (6, 7, True)]:
            for name in shared:
                a = getattr(out, name)
                assert a[j].tobytes() == a[i].tobytes()
            assert vecs[j].tobytes() == (vecs[i][::-1] if mirrored else vecs[i]).tobytes()
        alone = bloch._lifted_sweep(roll, [0.2])
        for name in shared:
            assert getattr(out, name)[8].tobytes() == getattr(alone, name)[0].tobytes()
        assert vecs[8].tobytes() == alone.vectors[0][::-1].tobytes()
        # A dense rest is built at |sigma|, so a twin's whole spectrum is its own, bit for bit.
        full = np.concatenate([out.values, eigvalsh_rest(roll, sweep)], axis=1)
        for i, j in [(0, 1), (6, 7)]:
            assert full[j].tobytes() == full[i].tobytes()


class TestWorkspace:
    """A sweep's two matrix stacks live in a per-thread workspace reused across sweeps."""

    @staticmethod
    def drop_workspace():
        vars(bloch._workspace).clear()

    def sweeps(self):
        """``(roll, sigmas)``: whole zone and a critical_modes sweep at M = 32, then at M = 12
        the classifier grid and the +-1e-10 sweep whose certificate fails."""
        zone = solve_roll(RollParameters(0.04, 0.1, 0.5), SpectralGrid(32))
        cell = solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(12))
        return [
            (zone, np.linspace(-0.5, 0.5, 41)),
            (zone, [0.25]),
            (cell, _default_sigma_grid(0.05)),
            (cell, [-1e-10, 0.0, 1e-10]),
        ]

    def test_reuse_gives_fresh_buffer_bits(self):
        sweeps = self.sweeps()
        self.drop_workspace()
        reused = []
        for _ in range(2):
            for roll, sigmas in sweeps:
                out = sweep_arrays(bloch._lifted_sweep(roll, sigmas))
                work = bloch._workspace.stacks
                assert not any(np.shares_memory(a, work) for a in out.values())
                reused.append(out)
        for i, (roll, sigmas) in enumerate(sweeps * 2):
            self.drop_workspace()
            fresh = sweep_arrays(bloch._lifted_sweep(roll, sigmas))
            assert fresh.keys() == reused[i].keys()
            for name, a in reused[i].items():
                assert a.tobytes() == fresh[name].tobytes()

    def test_reallocated_only_when_n_outgrows_it_or_N_changes(self):
        (zone, sweep), (_, one), (cell, grid), _ = self.sweeps()
        self.drop_workspace()
        bloch._lifted_sweep(zone, sweep)
        work = bloch._workspace.stacks
        # The 35 distinct |sigma| but zero, which the roll's record holds.
        assert work.shape == (2, 34, 65, 65)
        bloch._lifted_sweep(zone, one)
        assert bloch._workspace.stacks is work
        bloch._lifted_sweep(cell, grid)
        assert bloch._workspace.stacks.shape == (2, len(grid), 25, 25)

    def test_a_repeated_sweep_allocates_less_than_one_stack(self):
        # NumPy reports its data buffers to tracemalloc.  Built afresh, the
        # sweep allocates two (34, 65, 65) stacks, S and H, of the members off
        # zero.
        roll = solve_roll(RollParameters(0.04, 0.1, 0.5), SpectralGrid(32))
        sweep = np.linspace(-0.5, 0.5, 41)
        assert np.unique(np.abs(sweep)).size == 35
        want = critical_sweep(roll, sweep).values
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            got = critical_sweep(roll, sweep).values
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < 34 * 65 * 65 * np.dtype(np.float64).itemsize

    @pytest.mark.parametrize("n_modes", [(12, 32), (32, 32)])
    def test_two_threads_give_the_serial_bits(self, n_modes):
        # At one N, threads sharing a workspace would overwrite each other's stacks.
        cases = [
            (solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(n_modes[0])), np.linspace(-0.5, 0.5, 21)),
            (solve_roll(RollParameters(0.04, 0.1, 0.5), SpectralGrid(n_modes[1])), np.linspace(-0.5, 0.5, 41)),
        ]
        serial = [critical_sweep(roll, sweep).values.tobytes() for roll, sweep in cases]
        repeats = 10
        results = [[], []]
        start = threading.Barrier(2, timeout=60)

        def run(i):
            roll, sweep = cases[i]
            start.wait()
            for _ in range(repeats):
                results[i].append(critical_sweep(roll, sweep).values.tobytes())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[want] * repeats for want in serial]


class TestOperatorRecord:
    """What depends on the roll alone, ``T``, its masked ``|T|`` and the solved ``sigma = 0`` member, is built once
    per roll (``bloch._operator``), read-only, and dropped with the roll."""

    params = RollParameters(0.04, 0.1, 0.5)

    def test_one_parity_solve_per_roll(self, monkeypatch):
        # A dispersion op (the zone and the comparison, both through zero) and
        # the modes at sigma = 0, on a roll that nothing has swept.
        roll = solve_roll(self.params, SpectralGrid(12))
        parity, calls = bloch._parity_member, []

        def spy(sq, H, T):
            calls.append(H.shape)
            return parity(sq, H, T)

        monkeypatch.setattr(bloch, "_parity_member", spy)
        critical_curves(roll, np.linspace(-0.5, 0.5, 41))
        mgl.compare_exact_vs_mgl(roll, np.linspace(-1.0, 1.0, 11))
        critical_modes(roll, 0.0)
        assert calls == [(25, 25)]
        # The same roll solved again has a record of its own.
        critical_sweep(solve_roll(self.params, SpectralGrid(12)), [0.0])
        assert calls == [(25, 25)] * 2

    @staticmethod
    def outcome(roll, sweep):
        """Every field of the sweep, and the modes at ``sigma = 0``, as bytes; or the error the sweep raised."""
        try:
            got = sweep_arrays(critical_sweep(roll, sweep, 1e-300))
        except InvariantViolation as error:
            return str(error)
        got["modes.values"], got["modes.vectors"] = critical_modes(roll, 0.0)
        return {name: np.asarray(a).tobytes() for name, a in got.items()}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        eps=st.just(0.0) | st.floats(0.005, 0.08),
        omega=st.floats(-0.45, 0.45),
        s=st.floats(-1.4, 1.4),
        n_modes=st.sampled_from([8, 12, 16, 32]),
        sigmas=st.lists(st.floats(-0.5, 0.5), max_size=6),
        before=st.lists(st.floats(-0.5, 0.5), max_size=4),
    )
    def test_a_warm_record_gives_the_cold_bits(self, eps, omega, s, n_modes, sigmas, before):
        # Cold: a roll nothing has swept.  Warm: the same roll solved again,
        # swept through zero, settled and its modes taken before.
        params, grid = RollParameters(eps, omega, s), SpectralGrid(n_modes)
        sweep = sigmas[: len(sigmas) // 2] + [0.0] + sigmas[len(sigmas) // 2 :]
        cold = self.outcome(solve_roll(params, grid), sweep)
        roll = solve_roll(params, grid)
        try:
            critical_sweep(roll, before + [0.0], 1e-300)
        except InvariantViolation:
            pass
        bloch._settled_members(roll, np.array(before + sigmas), 1.0)
        critical_modes(roll, 0.0)
        assert bloch._operator(roll).zero is not None
        assert self.outcome(roll, sweep) == cold

    def test_rolls_solved_apart_never_share_a_record(self):
        a, b = (solve_roll(self.params, SpectralGrid(12)) for _ in range(2))
        assert np.array_equal(a.profile.cosines, b.profile.cosines) and a != b
        critical_sweep(a, [0.0, 0.1])
        assert bloch._operator(a) is bloch._operator(a) and bloch._operator(b) is not bloch._operator(a)
        assert bloch._operator(b).zero is None
        # A copy of the record's fields, its profile among them, is the same roll.
        assert bloch._operator(dataclasses.replace(a)) is bloch._operator(a)

    def test_the_record_goes_with_its_roll(self):
        roll = solve_roll(self.params, SpectralGrid(12))
        critical_sweep(roll, [0.0, 0.1])
        record = weakref.ref(bloch._operator(roll))
        assert record().zero is not None
        del roll
        gc.collect()
        assert record() is None

    def test_threads_sharing_a_cold_roll_give_the_serial_bits(self):
        # Four threads on two cores, each sweeping rolls that nothing has
        # swept through zero at once: the first sweep of each builds the
        # record and solves its zero member while the others may be doing
        # the same.
        sweep, repeats = [0.25, 0.0, -0.1], 6
        want = self.outcome(solve_roll(self.params, SpectralGrid(12)), sweep)
        rolls = [solve_roll(self.params, SpectralGrid(12)) for _ in range(repeats)]
        results = [[] for _ in range(4)]
        start = threading.Barrier(4, timeout=60)

        def run(i):
            for roll in rolls:
                start.wait()
                results[i].append(self.outcome(roll, sweep))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[want] * repeats] * 4

    @pytest.mark.parametrize("sigmas", [[0.0], [0.1, 0.0, -0.2]], ids=["zero_alone", "through_zero"])
    def test_the_record_is_read_only(self, sigmas):
        roll = solve_roll(self.params, SpectralGrid(12))
        want = sweep_arrays(critical_sweep(roll, sigmas))
        op = bloch._operator(roll)
        held = (op.T, op.outer, *op.zero)
        assert not any(a.flags.writeable for a in held)
        with pytest.raises(ValueError, match="read-only"):
            op.T[0, 0] = 1.0
        # Writing into what a sweep returns leaves the next sweep's bits alone.
        got = sweep_arrays(critical_sweep(roll, sigmas))
        assert not any(np.shares_memory(a, b) for a in got.values() for b in held)
        for a in got.values():
            a[...] = 1
        again = sweep_arrays(critical_sweep(roll, sigmas))
        assert {k: a.tobytes() for k, a in again.items()} == {k: a.tobytes() for k, a in want.items()}


class TestCholeskyKernel:
    """``bloch._cholesky`` binds NumPy's private stacked kernel; a NumPy release
    that moves it or changes what it returns fails here first."""

    @pytest.mark.parametrize("N", [5, 25, 65])
    def test_kernel_matches_numpy_cholesky(self, N):
        rng = np.random.default_rng(N)
        G = rng.standard_normal((4, N, N))
        A = G @ G.swapaxes(1, 2) + N * np.eye(N)
        assert A.flags.c_contiguous
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = bloch._cholesky(A)
            assert L.tobytes() == np.linalg.cholesky(A).tobytes()
            transposed = A.swapaxes(1, 2)
            assert not transposed.flags.c_contiguous
            assert bloch._cholesky(transposed).tobytes() == np.linalg.cholesky(transposed).tobytes()
            A[2] -=2 * np.max(np.linalg.eigvalsh(A[2])) * np.eye(N)  # negative definite
            L = bloch._cholesky(A)
            assert np.all(np.isnan(L[2]))
            for i in (0, 1, 3):
                assert L[i].tobytes() == np.linalg.cholesky(A[i]).tobytes()
            A[1, 0, 0] = np.nan
            L = bloch._cholesky(A)
        assert not np.isfinite(np.diagonal(L[1])).all()
        assert np.all(np.isnan(L[2]))
        for i in (0, 3):
            assert L[i].tobytes() == np.linalg.cholesky(A[i]).tobytes()

    @pytest.mark.parametrize(
        "sweep, distinct, rank3",
        [
            ([1e-12, 1e-10, 0.1, 0.2, 0.3], 5, 2),
            ([-1e-10, 0.0, 1e-10], 2, 1),
            ([0.1, 0.0, 0.2, -0.0, 5e-14, -0.3], 4, 0),
            (TestMirror.sweep, 4, 0),
        ],
        ids=["tiny", "around_zero", "zero_batch", "mirrors"],
    )
    def test_one_stacked_call_per_sweep(self, sweep, distinct, rank3, monkeypatch):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(12))

        def no_retry(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky called")

        calls = cholesky_calls(monkeypatch)
        monkeypatch.setattr(bloch.np.linalg, "cholesky", no_retry)
        critical_sweep(roll, sweep)
        # One 9 x 9 block (|m| <= 4) per distinct |sigma| off zero, never an
        # N x N matrix; then, if the sweep holds sigma = 0 (0.0, -0.0 and 5e-14
        # are all zero), the 4 x 4 blocks (modes 1 .. 4) of its even and odd
        # parts; then, if any member at 0 < |sigma| <= 1e-10 fails the rank-4
        # certificate, one 9 x 9 block per such member for the rank-3 pass.
        zero = int(np.any(np.abs(sweep) < bloch._SIGMA_ZERO_TOL))
        assert calls == [(distinct - zero, 9, 9)] + [(2, 4, 4)] * zero + [(rank3, 9, 9)] * (rank3 > 0)

    def test_failed_members_keep_their_triples(self):
        # Members at 0 < |sigma| <= 1e-10 fail the rank-4 certificate (a NaN
        # factor) and are certified by the rank-3 one; the triples are those
        # of a member-by-member retry, bitwise.
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(12))
        sweep = [1e-12, 1e-10, 0.1, 0.2, 0.3]
        want = np.array([
            [-0.004848112705288966, 1.0241015894990267e-19, 4.741025776541743e-15],
            [-0.004848112705277599, 1.6232635950634593e-21, 2.573462279453897e-15],
            [-0.06387599659040728, -0.029446061761252945, -0.008649004519513025],
            [-0.3042827922807751, -0.08332753572813242, -0.03566105309897913],
            [-0.8575110366304612, -0.12897932772910994, -0.07316581744367288],
        ])
        assert critical_sweep(roll, sweep).values.tobytes() == want.tobytes()
        assert np.all(np.isfinite(certify(roll, sweep)[1]))


class TestBlockCertificate:
    """The inertia certificate factors the 9 x 9 block of |m| <= 4 after a
    Gershgorin bound on the rest, and certifies what a Cholesky of the whole
    matrix does."""

    @staticmethod
    def grids(eps):
        """The whole zone, a geometric approach to zero and the classifier's grid, without sigma = 0."""
        sigmas = np.concatenate([np.linspace(-0.5, 0.5, 41), np.geomspace(1e-9, 0.5, 40), _default_sigma_grid(eps)])
        mags = np.unique(np.abs(sigmas))
        return mags[mags >= bloch._SIGMA_ZERO_TOL]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        eps=st.floats(0.005, 0.08),
        omega=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
        s=st.floats(-1.4, 1.4),
        n_modes=st.sampled_from([8, 12, 16, 32]),
    )
    def test_block_certifies_what_the_whole_matrix_does(self, eps, omega, s, n_modes):
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        sq, H, outer, Y, c, tau, rows = certificate_inputs(roll, self.grids(eps))
        block = bloch._block_certificate(sq, H, outer, Y, c, tau, rows)
        assert np.array_equal(block, full_certificate(H, Y, c, tau))
        # What the certificate proves: the fifth eigenvalue lies below tau,
        # here to eigvalsh's rounding N eps max|w|.  Near sigma = 0 tau lies
        # as little as 1e-8 above it (the cosine and sine modes of m = +-2
        # meet there), under that rounding at M = 32.
        w = np.sort(np.linalg.eigvalsh(H[block]), axis=1)
        u = H.shape[1] * np.finfo(float).eps * np.abs(w).max(axis=1)
        assert np.all(w[:, -5] < tau[block] + u)

    @pytest.mark.parametrize("rows", [(3, 7), (6, 8)], ids=["block_to_outer", "outer_to_outer"])
    def test_a_strong_coupling_outside_the_block_fails_the_certificate(self, rows):
        # One symmetric coupling H_ij = sq_i sq_j T_ij between the rows of
        # the Bloch modes m = rows, twice the geometric mean of A_ii and A_jj:
        # A is then indefinite, though A_ll is untouched.  The Schur term has
        # to see a coupling of the block to an outer row, and the Gershgorin
        # row sums one between two outer rows.
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(12))
        sq, H, outer, Y, c, tau, block = certificate_inputs(roll, [0.2])
        assert bloch._block_certificate(sq, H, outer, Y, c, tau, block).all()
        i, j = 12 + np.array(rows)
        A = c[0] * Y[0] @ Y[0].T + tau[0] * np.eye(25) - H[0]
        T = bloch._operator(roll).T.copy()
        T[i, j] = T[j, i] = 2.0 * np.sqrt(A[i, i] * A[j, j]) / (sq[0, i] * sq[0, j])
        H = H.copy()
        H[0, i, j] = H[0, j, i] = sq[0, i] * sq[0, j] * T[i, j]
        assert not full_certificate(H, Y, c, tau).any()
        assert not bloch._block_certificate(sq, H, bloch._outer_abs(T, block), Y, c, tau, block).any()

    def test_zero_roll_is_certified_off_sigma_zero(self):
        # At eps = 0 the roll is zero, T vanishes and H is diagonal: every
        # Gershgorin row sum is zero.
        roll = zero_roll(RollParameters(0.0, 0.0, 0.0), SpectralGrid(12))
        sigmas = self.grids(0.01)
        sq, H, outer, Y, c, tau, rows = certificate_inputs(roll, sigmas)
        assert not bloch._operator(roll).T.any()
        assert np.array_equal(H, np.eye(25) * np.diagonal(H, axis1=1, axis2=2)[:, None, :])
        block = bloch._block_certificate(sq, H, outer, Y, c, tau, rows)
        assert np.array_equal(block, full_certificate(H, Y, c, tau))
        radius = certify(roll, sigmas)[1]
        assert np.array_equal(np.isfinite(radius), block)
        assert np.isfinite(radius[sigmas >= 1e-6]).all()

    def test_empty_sweep(self, monkeypatch):
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(12))
        calls = cholesky_calls(monkeypatch)
        assert bloch._block_certificate(*certificate_inputs(roll, [])).shape == (0,)
        assert critical_sweep(roll, []).values.shape == (0, 3)
        assert critical_curves(roll, []) == []
        shapes = {name: a.shape for name, a in sweep_arrays(bloch._lifted_sweep(roll, [])).items()}
        assert shapes == {
            "sigmas": (0,),
            "values": (0, 3),
            "radius": (0,),
            "gaps": (0,),
            "gap_radius": (0,),
            "vectors": (0, 25, 3),
        }
        assert calls == [(0, 9, 9)] * 4


class TestQrKernel:
    """``bloch._orthonormal`` binds NumPy's private QR kernels; a NumPy release
    that moves them or changes what they return fails here first."""

    @pytest.mark.parametrize("N", [9, 25, 65])
    def test_kernel_matches_numpy_qr(self, N):
        rng = np.random.default_rng(N)
        contiguous = rng.standard_normal((4, N, 5))
        transposed = rng.standard_normal((4, 5, N)).swapaxes(1, 2)
        assert contiguous.flags.c_contiguous and not transposed.flags.c_contiguous
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for Y in (contiguous, transposed):
                want = np.linalg.qr(Y)[0]
                got = bloch._orthonormal(Y.copy(order="K"))
                assert got.tobytes() == want.tobytes()


class TestEighKernel:
    """``bloch._eigh`` binds NumPy's private stacked ``eigh`` kernel; a NumPy
    release that moves it or changes what it returns fails here first."""

    @pytest.mark.parametrize("N", [5, 25, 65])
    def test_kernels_match_numpy_eigh_and_eigvalsh(self, N):
        rng = np.random.default_rng(N)
        contiguous = rng.standard_normal((4, N, N))
        transposed = rng.standard_normal((4, N, N)).swapaxes(1, 2)
        assert contiguous.flags.c_contiguous and not transposed.flags.c_contiguous
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for A in (contiguous, transposed):
                want_w, want_v = np.linalg.eigh(A)
                got_w, got_v = bloch._eigh(A)
                assert got_w.tobytes() == want_w.tobytes()
                assert got_v.tobytes() == want_v.tobytes()

    def test_a_failed_member_is_nan_and_the_others_keep_their_bits(self):
        A = np.random.default_rng(0).standard_normal((3, 25, 25))
        A[1, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v = bloch._eigh(A)
        assert np.isnan(w[1]).all() and np.isnan(v[1]).all()
        for i in (0, 2):
            assert w[i].tobytes() == np.linalg.eigh(A[i])[0].tobytes()
            assert v[i].tobytes() == np.linalg.eigh(A[i])[1].tobytes()

    @pytest.mark.parametrize(
        "call, member", [(0, 0), (0, 2), (1, 1), (2, 1)], ids=["start_block", "start_block_last", "corrected", "parity_block"]
    )
    def test_a_nan_member_raises_a_typed_error(self, call, member, monkeypatch):
        # The kernel returns NaN where np.linalg raises LinAlgError.  A NaN
        # member must fail the sweep with a typed error, and no warning.
        # 1e-12 fails the rank-4 certificate, so a NaN there also meets the
        # rank-3 pass; 0.0 is solved last, on its even and odd blocks.
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(12))
        sweep = [0.0, 1e-12, 0.1, 0.3]
        bound, calls = bloch.eigh_lo, []

        def failing(A, **kwargs):
            out = bound(A, **kwargs)
            if len(calls) == call:
                for a in out:
                    a[member] = np.nan
            calls.append(A.shape)
            return out

        monkeypatch.setattr(bloch, "eigh_lo", failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((InvariantViolation, GapViolation)):
                critical_sweep(roll, sweep)
        assert len(calls) > call


class TestSweepRecord:
    """The public sweep record, :class:`BlochSweep`, bit for bit, against ``data/sweep_m12.npz``: at
    M = 12, the classifier's grid at eps = 0.02 in a stable and an unstable cell, and the +-1e-10 sweep
    whose members off zero fail the rank-4 certificate and pass the rank-3 one.  The file holds
    ``np.savez_compressed`` of arrays keyed ``case.field``, as written when the record also held, for
    the last case, the members' ``sq`` and ``H``.  Those are now rebuilt on read, and held to the file
    here too."""

    cases = {
        "stable": ((0.02, 0.1, 0.5), _default_sigma_grid(0.02)),
        "unstable": ((0.02, 0.4, 0.5), _default_sigma_grid(0.02)),
        "around_zero": ((0.05, 0.1, 0.8), [-1e-10, 0.0, 1e-10]),
    }
    fields = ("sigmas", "values", "radius", "gaps", "gap_radius", "vectors")

    def test_every_field_matches_the_pinned_record(self):
        got = {}
        for name, (params, sigmas) in self.cases.items():
            roll = solve_roll(RollParameters(*params), SpectralGrid(12))
            sweep = critical_sweep(roll, sigmas)
            assert isinstance(sweep, BlochSweep) and tuple(sweep_arrays(sweep)) == self.fields
            for field, a in sweep_arrays(sweep).items():
                got[f"{name}.{field}"] = a
            if name == "around_zero":
                got["around_zero.sq"], got["around_zero.H"] = bloch._stacks(roll, np.array(sigmas))[:2]
        assert_pinned("sweep_m12.npz", got)

    def test_curves_are_the_record_member_by_member(self):
        # The benchmark reads critical_curves; spectrum prints the record.
        for params, sigmas in self.cases.values():
            roll = solve_roll(RollParameters(*params), SpectralGrid(12))
            sweep = critical_sweep(roll, sigmas)
            spectra = critical_curves(roll, sigmas)
            assert len(spectra) == sweep.sigmas.size
            for spec, sigma, gap, triple in zip(spectra, sweep.sigmas, sweep.gaps, sweep.values):
                assert (type(spec.sigma), type(spec.gap)) == (float, float)
                assert np.float64(spec.sigma).tobytes() == sigma.tobytes()
                assert np.float64(spec.gap).tobytes() == gap.tobytes()
                assert spec.critical_values().tobytes() == triple.tobytes()


class TestZeroBatch:
    """A sweep through sigma = 0 is one batch, whose zero members are solved once, on the even and odd
    blocks of H(0), and certified."""

    params = RollParameters(0.05, 0.1, 0.8)
    sweep = [0.1, 0.0, 0.2, -0.0, 5e-14, -0.3]

    def test_one_eigensolve_and_one_rayleigh_ritz_step_per_batch(self, monkeypatch):
        roll = solve_roll(self.params, SpectralGrid(12))
        calls = linalg_calls(monkeypatch, "eigh", "eigvalsh")
        critical_sweep(roll, self.sweep)
        # The three distinct |sigma| off zero get two 5 x 5 Rayleigh-Ritz
        # steps, on their lifted start block and after its Davidson
        # corrections; the zero member (0.0, -0.0 and 5e-14 are all zero) gets
        # the same two on its even and odd blocks.  Every member is certified,
        # so no eigvalsh runs.
        assert calls == [("eigh", (3, 5, 5)), ("eigh", (3, 5, 5)), ("eigh", (2, 5, 5)), ("eigh", (2, 5, 5))]

    def test_a_sweep_of_zero_alone_runs_only_the_parity_pass(self, monkeypatch):
        roll = solve_roll(self.params, SpectralGrid(12))
        calls = linalg_calls(monkeypatch, "eigh", "eigvalsh")
        factored = cholesky_calls(monkeypatch)
        critical_sweep(roll, [0.0])
        # No whole pass on an empty stack: only the even and odd blocks.
        assert calls == [("eigh", (2, 5, 5))] * 2
        assert factored == [(2, 4, 4)]

    def test_no_linear_solve_or_full_eigh_of_H(self, monkeypatch):
        roll = solve_roll(self.params, SpectralGrid(12))
        sweep = np.array(self.sweep + [0.5, -0.5])
        calls = linalg_calls(monkeypatch, "solve", "eigh")
        radius = certify(roll, sweep, 1.0)[1]
        assert np.isfinite(radius).all()
        critical_sweep(roll, sweep)
        for sigma in (0.0, 0.2, 0.5, -0.5):
            critical_modes(roll, sigma)
        assert all(shape[-1] != 25 for _, shape in calls), "a solve or eigh of an N x N matrix"
        # The one solve is the conserved vector's, on the M + 1 cosine unknowns.
        assert [call for call in calls if call[0] == "solve"] == [("solve", (13, 13))]

    @pytest.mark.parametrize(
        "triples",
        [
            lambda roll, sigmas: (np.array([critical_modes(roll, x)[0] for x in sigmas]), None),
            partial(certify, delta=1.0),
        ],
        ids=["critical_modes", "fixed_block"],
    )
    def test_zero_members_solve_as_zero_alone(self, triples):
        roll = solve_roll(self.params, SpectralGrid(12))
        vals, radius = triples(roll, self.sweep)
        alone = triples(roll, [0.0])[0][0]
        # Within _SIGMA_ZERO_TOL of zero: built at zero, so the conserved zero is exact.
        for i in (1, 3, 4):
            assert np.array_equal(vals[i], alone)
        assert 0.0 in vals[4]
        if radius is not None:
            assert np.isfinite(radius).all()
            assert np.all(np.abs(vals - reference_triples(roll, self.sweep)) <= radius[:, None])


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        eps=st.floats(0.0, 0.2),
        omega=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
        s=st.floats(-3.4, 3.4),
        n_modes=st.sampled_from([8, 12, 16, 32]),
    )
    def test_parity_blocks_hold_the_spectrum_of_h0(self, eps, omega, s, n_modes):
        # H(0) is its own reversal in m and its m = 0 row and column vanish, so
        # E = P + X and O = P - X are exactly symmetric, and with 0 they hold
        # its spectrum: to eigvalsh's rounding N eps max|w|.
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        H = bloch._stacks(roll, np.zeros(1))[1][0]
        M = n_modes
        P, X = H[M + 1 :, M + 1 :], H[M + 1 :, M - 1 :: -1]
        E, O = P + X, P - X
        assert np.array_equal(E, E.T) and np.array_equal(O, O.T)
        w = np.linalg.eigvalsh(H)
        blocks = np.sort(np.concatenate([[0.0], np.linalg.eigvalsh(E), np.linalg.eigvalsh(O)]))
        u = H.shape[0] * np.finfo(float).eps * np.abs(w).max()
        assert np.all(np.abs(blocks - w) <= u)

    def test_every_zero_member_is_certified(self):
        # Criterion 2's 16 cells at M = 16, and 40 seeded cells (eps = 0 among
        # them) at M = 8 to 32.
        cells = [(e, w, s, 16) for w, s in acceptance.PARAM_SETS for e in acceptance.EPS_SWEEP]
        rng = np.random.default_rng(38)
        for i in range(40):
            eps = 0.0 if i % 10 == 0 else rng.uniform(0.0, 0.2)
            cells.append((eps, rng.uniform(-0.45, 0.45), rng.uniform(-3.4, 3.4), (8, 12, 16, 32)[i % 4]))
        for eps, omega, s, n_modes in cells:
            roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
            sweep = critical_sweep(roll, [0.0], 1e-300)
            assert np.isfinite(sweep.radius[0]) and np.isfinite(sweep.gap_radius[0])
            assert 0.0 in sweep.values[0]

    def test_zero_roll_gives_three_orthonormal_modes(self):
        # At eps = 0, H(0) is diagonal and top(E) = top(O) = 0: three exact
        # zeros, which still give the conserved mode and two of opposite parity.
        roll = zero_roll(RollParameters(0.0, 0.0, 0.0), SpectralGrid(12))
        vals, vecs = critical_modes(roll, 0.0)
        assert np.array_equal(vals, np.zeros(3))
        assert np.allclose(vecs.T @ vecs, np.eye(3), rtol=0.0, atol=1e-15)

    def test_a_failed_parity_certificate_raises(self, monkeypatch):
        # No eigvalsh stands behind the blocks: where their certificate fails,
        # the solve raises.
        roll = solve_roll(self.params, SpectralGrid(12))
        certificate = bloch._block_certificate

        def failing(sq, H, *args):
            got = certificate(sq, H, *args)
            return got & (H.shape[1] == 25)

        monkeypatch.setattr(bloch, "_block_certificate", failing)
        calls = linalg_calls(monkeypatch, "eigvalsh")
        critical_sweep(roll, [0.1])
        with pytest.raises(InvariantViolation, match="parity blocks"):
            critical_sweep(roll, self.sweep)
        assert calls == []


class TestSchurCertificate:
    """Every certificate, the engine's rank-4 and rank-3 passes, its parity blocks and the classifier's
    settle test, is proved by one kernel, ``bloch._schur_certificate``, the one caller of ``bloch._cholesky``."""

    def test_every_factorization_is_the_kernels_and_no_eigensolve_is_of_H(self, monkeypatch):
        roll = solve_roll(RollParameters(0.02, 0.1, 0.5), SpectralGrid(12))
        calls, kernel = [], bloch._cholesky

        def spy(A, out=None):
            caller = sys._getframe(1)
            calls.append(((caller.f_code.co_name, caller.f_back.f_code.co_name, caller.f_back.f_back.f_code.co_name), A.shape))
            return kernel(A, out=out)

        monkeypatch.setattr(bloch, "_cholesky", spy)
        eigensolves = linalg_calls(monkeypatch, "eigh", "eigvalsh")
        classify_numerically(roll)
        critical_sweep(roll, np.linspace(-0.5, 0.5, 41))
        critical_sweep(roll, [1e-12, -1e-12])
        for sigma in (0.0, 1e-12, 0.3):
            critical_modes(roll, sigma)
        assert {frames[0] for frames, _ in calls} == {"_schur_certificate"}
        # The settle test, the rank-4 pass, the parity blocks and the rank-3 pass.
        assert {(frames[1:], shape) for frames, shape in calls} >= {
            (("_settled_members", "classify_numerically"), (37, 9, 9)),
            (("_block_certificate", "_certified_ritz"), (34, 9, 9)),
            (("_block_certificate", "_certified_ritz"), (2, 4, 4)),
            (("_block_certificate", "_lifted_sweep"), (1, 9, 9)),
        }
        assert eigensolves and all(shape[-1] == 5 for _, shape in eigensolves)

    def test_a_kernel_that_proves_nothing_settles_and_certifies_nothing(self, monkeypatch):
        roll = solve_roll(RollParameters(0.02, 0.1, 0.5), SpectralGrid(12))
        grid = _default_sigma_grid(0.02)
        assert bloch._settled_members(roll, grid, 1.0).all()
        monkeypatch.setattr(bloch, "_schur_certificate", lambda A, *args: np.zeros(A.shape[0], bool))
        assert not bloch._settled_members(roll, grid, 1.0).any()
        with pytest.raises(InvariantViolation, match="neither certificate"):
            critical_sweep(roll, [0.1])
        with pytest.raises(InvariantViolation, match="neither certificate"):
            classify_numerically(roll)
        with pytest.raises(InvariantViolation, match="parity blocks"):
            critical_sweep(roll, [0.0])


class TestSettledMembers:
    """``bloch._settled_members`` proves, from ``T`` and the diagonal of ``S``
    alone, that a member's ``H`` has no positive eigenvalue and that
    ``lambda_4 < -delta``; the classifier skips the members it settles."""

    @staticmethod
    def sweep(eps):
        """The classifier's grid, the whole zone and members near zero, ``sigma = 0`` among them."""
        return np.concatenate([_default_sigma_grid(eps), np.linspace(-0.5, 0.5, 41), [5e-14, 1e-9, -1e-6]])

    def test_settled_members_hold_no_positive_value_and_pass_the_gap(self):
        # Against a dense eigvalsh of each settled H, which resolves the top
        # value only to its rounding N eps max|w|: the small-sigma members of
        # the triple lie under it, at M = 32 by far.
        rng = np.random.default_rng(39)
        settled_any = 0
        for i in range(40):
            eps, n_modes, delta = rng.uniform(0.005, 0.08), (8, 12, 16, 32)[i % 4], (1.0, 3.0, 10.0)[i % 3]
            roll = solve_roll(RollParameters(eps, rng.uniform(-0.45, 0.45), rng.uniform(-1.5, 1.5)), SpectralGrid(n_modes))
            sigmas = self.sweep(eps)
            settled = bloch._settled_members(roll, sigmas, delta)
            assert not settled[np.abs(sigmas) < bloch._SIGMA_ZERO_TOL].any()
            w = np.linalg.eigvalsh(bloch._stacks(roll, sigmas[settled])[1])
            u = w.shape[1] * np.finfo(float).eps * np.abs(w).max(axis=1, initial=0.0)
            assert np.all(w[:, -1] < u)
            assert np.all(w[:, -4] < -delta)
            settled_any += np.count_nonzero(settled)
        assert settled_any > 0.5 * 40 * self.sweep(0.02).size

    def test_small_members_hold_no_positive_value_by_the_oracle(self):
        # Where eigvalsh cannot tell the sign: the settled small members
        # (sigma <= 0.75 eps), whose top values are of order -sigma^2, by the
        # 40-digit oracle.
        roll = solve_roll(RollParameters(0.005, 0.1, 0.5), SpectralGrid(8))
        grid = _default_sigma_grid(0.005)
        small = grid[: np.count_nonzero(grid <= 0.75 * 0.005)]
        settled = bloch._settled_members(roll, small, 1.0)
        assert settled.all()
        top = oracle_eigenvalues(roll, small)[:, 0]
        assert np.all(top < 0.0) and top.max() > -1e-6

    @pytest.mark.parametrize("rows", [(0, 1), (1, 6)], ids=["in_block", "block_to_outer"])
    def test_a_strong_coupling_unsettles_the_member(self, rows, monkeypatch):
        # One symmetric coupling T_ij between the rows of the Bloch modes
        # m = rows, twice the geometric mean of -S_ii and -S_jj: -S is then
        # indefinite, and so is H.  Rows of |m| <= 1 are outside the lambda_4
        # bound, so only the factored block or its Schur term can see it.
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(12))
        sigma = np.array([0.2])
        assert bloch._settled_members(roll, sigma, 1.0).all()
        d, (i, j) = symmetric_factors(roll, 0.2)[1][0].diagonal(), 12 + np.array(rows)
        toeplitz = bloch._toeplitz

        def coupled(df):
            T = toeplitz(df)
            T[i, j] = T[j, i] = 2.0 * np.sqrt(d[i] * d[j])
            return T

        monkeypatch.setattr(bloch, "_toeplitz", coupled)
        # The same roll solved again, which nothing has swept: its record is built with the coupling.
        fresh = solve_roll(roll.params, roll.profile.grid)
        assert not bloch._settled_members(fresh, sigma, 1.0).any()
        assert np.linalg.eigvalsh(bloch._stacks(fresh, sigma)[1])[0, -1] > 0.0

    def test_a_margin_under_the_rounding_is_not_settled(self):
        # Near zero the least eigenvalue of -S is of order (k sigma)^2, under
        # the rounding of its Cholesky factor at sigma < 1e-8, where a
        # factorization of -S itself completes on some members.  The shrink
        # of the block's diagonal leaves them unsettled.
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(12))
        assert not bloch._settled_members(roll, np.geomspace(1e-9, 5e-9, 4), 1.0).any()
        assert bloch._settled_members(roll, np.geomspace(2e-8, 1e-5, 12), 1.0).all()

    def test_sigma_zero_is_never_settled(self):
        # At eps = 0 the classifier's grid holds sigma = 0 beside the coarse
        # members, and the zero roll's H is diagonal.
        roll = zero_roll(RollParameters(0.0, 0.1, 0.5), SpectralGrid(12))
        grid = _default_sigma_grid(0.0)
        assert grid[0] == 0.0
        settled = bloch._settled_members(roll, grid, 1.0)
        assert not settled[0] and settled[1:].all()
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(12))
        zeros = np.array([0.0, -0.0, 5e-14, -5e-14])
        assert not bloch._settled_members(roll, zeros, 1.0).any()
        # Nor at a positive level, where 1/p is never formed for them: no warning.
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            for level in (1e-300, 1e-10, 1e-4, 1.0):
                assert not bloch._settled_members(roll, zeros, 1.0, level).any()

    def test_members_settled_at_a_level_lie_below_it(self):
        # Seeded cells, each at levels from its own triples over the
        # classifier's grid: the largest top value b, b less the margin, as
        # the classifier tests, the median top value, and the classifier's
        # decay level, one value per member.  Against a dense eigvalsh of each
        # settled H; where its rounding N eps max|w| cannot tell the top value
        # from the level, a 40-digit Cholesky of level I - H decides.  At level 0.0 the
        # array is the default call's, and so it is at -0.0 and at 5e-324,
        # whose shift rounds away.
        rng = np.random.default_rng(42)
        settled_at, oracle_members = [], 0
        for i in range(12):
            eps, n_modes = rng.uniform(0.005, 0.08), (8, 12, 16)[i % 3]
            roll = solve_roll(RollParameters(eps, rng.uniform(-0.45, 0.45), rng.uniform(-1.5, 1.5)), SpectralGrid(n_modes))
            sigmas, grid = self.sweep(eps), _default_sigma_grid(eps)
            tops = critical_sweep(roll, grid).values[:, 2]
            default = bloch._settled_members(roll, sigmas, 1.0)
            for level in (0.0, -0.0, 5e-324):
                assert np.array_equal(bloch._settled_members(roll, sigmas, 1.0, level), default)
            w = np.linalg.eigvalsh(bloch._stacks(roll, sigmas)[1])
            u = w.shape[1] * np.finfo(float).eps * np.abs(w).max(axis=1)
            decay = -1e-6 * eps**2 * sigmas**2
            for level in (tops.max(), tops.max() - bloch._ritz_margin(roll, grid), np.median(tops), decay):
                settled = bloch._settled_members(roll, sigmas, 1.0, level)
                level = np.broadcast_to(level, sigmas.shape)
                assert np.all(w[settled, -1] < level[settled] + u[settled])
                unsure = settled & (w[:, -1] >= level - u)
                if unsure.any():
                    oracle_members += np.count_nonzero(unsure)
                    assert oracle_below(roll, sigmas[unsure], level[unsure]).all()
                settled_at.append(np.count_nonzero(settled))
        assert sum(settled_at) > 0.5 * len(settled_at) * self.sweep(0.02).size
        assert oracle_members > 0

    def test_a_huge_delta_settles_nothing(self):
        roll = solve_roll(RollParameters(0.02, 0.1, 0.5), SpectralGrid(12))
        grid = _default_sigma_grid(0.02)
        assert bloch._settled_members(roll, grid, 1.0).all()
        assert not bloch._settled_members(roll, grid, 1e308).any()
        with pytest.raises(OutOfRange, match="delta"):
            bloch._settled_members(roll, grid, 0.0)


class TestFixedBlockTriples:
    """The certified engine: lifted, Davidson-corrected Ritz pairs and a Cholesky certificate."""

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
        vals, radius = certify(roll, sweep, 1.0)
        want = reference_triples(roll, sweep)
        # At sigma = +-1/2 the third and fourth eigenvalues nearly coincide and
        # the reference is the less accurate side (by up to about 2e-12 at
        # M = 12), so the reference there is the 40-digit oracle.  H at -1/2
        # is H at 1/2 under m -> -m, exactly, so one oracle serves both.
        H = bloch._stacks(roll, sweep[-2:])[1]
        assert np.array_equal(H[1], H[0][::-1, ::-1])
        want[-2:] = oracle_triples(roll, sweep[-2:-1])
        assert np.all(np.abs(vals - want) <= radius[:, None])
        assert np.all(np.abs(vals - want) < 1e-13)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(**{**cells, "n_modes": st.sampled_from([8, 12, 32])})
    def test_small_sigmas_are_certified_tightly(self, eps, omega, s, n_modes):
        # Near sigma = 0 two eigenvalues of order (k sigma)^2 meet the
        # translation mode.  One inverse-iteration step missed there by up to
        # 5.8e-4 (sigma = 1e-6, M = 32), inside a radius of 760.
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        small = np.array([1e-6, 1e-5, 1e-4])
        sweep = np.concatenate([-small, small])
        vals, radius = certify(roll, sweep, 1.0)
        move = np.abs(vals - reference_triples(roll, sweep))
        assert np.all(np.isfinite(radius))
        assert np.all(move <= radius[:, None])
        assert np.all(move < 1e-13)

    def test_members_from_2e_8_to_the_zone_edge_are_certified(self, monkeypatch):
        # Off sigma = 0 the rank-4 certificate may fail below |sigma| = 1e-8
        # (up to 8.7e-9 on 400 seeded cells; see the README), and only there
        # does the rank-3 pass run.  One cell inside that window, then 40
        # seeded cells, each on 61 magnitudes per sign from 1e-12 to 1e-6 and
        # the whole zone: every member is certified (none raises), and the
        # same sweep from |sigma| = 2e-8 on runs no rank-3 pass.
        rank3 = rank3_members(monkeypatch)
        cell = solve_roll(RollParameters(0.0631, -0.096, -1.345), SpectralGrid(12))
        bloch._lifted_sweep(cell, [1e-9, 2e-9, 5e-9, -5e-9, 1e-8, -1e-8])
        assert rank3 == [3]
        small = np.logspace(-12, -6, 61)
        sweep = np.concatenate([-small, small, np.linspace(-0.5, 0.5, 41)])
        outside = sweep[np.abs(sweep) >= 2e-8]
        rng = np.random.default_rng(31)
        reached = 0
        for i in range(40):
            params = RollParameters(rng.uniform(0.01, 0.08), rng.uniform(-0.45, 0.45), rng.uniform(-1.4, 1.4))
            roll = solve_roll(params, SpectralGrid((8, 12, 16, 32)[i % 4]))
            rank3.clear()
            out = bloch._lifted_sweep(roll, sweep)
            assert np.isfinite(out.radius).all() and np.isfinite(out.gap_radius).all(), params
            reached += sum(rank3)
            rank3.clear()
            bloch._lifted_sweep(roll, outside)
            assert rank3 == [], params
        # Members of the whole sweeps that the rank-3 pass certified: 645 of
        # the 2,440 distinct magnitudes up to 1e-6, on x86-64.
        assert reached > 300

    def test_zero_residual_over_zero_denominator_is_no_correction(self):
        # A diagonal H, as of the zero-amplitude roll, whose rest diagonal
        # repeats a critical value: the correction there is 0 / 0.
        d = np.array([-300.0, -0.5, -5.0, -1.0, -0.5, -0.25, -3.0, -200.0, -100.0])
        H = np.diag(d)[None]
        theta, Y, r3, r4 = bloch._lifted_ritz(H, bloch._rows(9, bloch._START_MODES))
        assert np.array_equal(theta[0], [-5.0, -3.0, -1.0, -0.5, -0.25])
        # A zero residual leaves the rounding floor alone: eps ||G||_2 = 5 eps.
        assert r3[0] == r4[0] == bloch._ROUNDING_ULPS * np.finfo(float).eps * 5.0
        assert np.array_equal(np.abs(Y[0]), np.eye(9)[:, [6, 3, 4, 5]])

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(**cells, delta=st.floats(0.5, 40.0))
    def test_gap_check_passes_only_when_lambda_4_is_certified(self, eps, omega, s, n_modes, delta):
        # The certificate does not depend on delta.  It puts lambda_4 within r
        # of -gap, and a member passes only when that enclosure lies below -delta.
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        sweep = self.sweep(eps)
        out = critical_sweep(roll, sweep, 1e-300)
        gaps, radius = out.gaps, out.gap_radius
        assert np.all(np.isfinite(radius))
        # eigvalsh's fourth value, to its rounding N eps max|w|, lies in the enclosure.
        H = bloch._stacks(roll, sweep)[1]
        w = np.sort(np.linalg.eigvalsh(H), axis=1)
        u = H.shape[1] * np.finfo(float).eps * np.abs(w).max(axis=1)
        assert np.all(np.abs(w[:, -4] + gaps) <= radius + u)
        for sigma, gap, r in zip(sweep, gaps, radius):
            try:
                got = critical_sweep(roll, [sigma], delta)
                assert got.gaps[0] == gap and got.gap_radius[0] == r
                passed = True
            except GapViolation as info:
                assert info.gap == gap
                passed = False
            assert passed == (gap - r > delta)

    @settings(max_examples=10, deadline=None)
    @given(**cells, sigmas=st.lists(st.floats(-0.45, 0.45), min_size=1, max_size=6))
    def test_radius_encloses_the_eigensolve_path_on_fresh_draws(self, eps, omega, s, n_modes, sigmas):
        # Not derandomized: every run draws new cells.  The radius is floored
        # at the rounding of the values it encloses, so the reference, itself
        # within a few eps ||G||_2 of the true values off the zone edge, lies
        # inside it too.
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        vals, radius = certify(roll, sigmas)
        want = reference_triples(roll, sigmas)
        assert np.all(np.abs(vals - want) <= radius[:, None])

    @pytest.mark.parametrize("n_modes", [8, 12])
    @pytest.mark.parametrize("params", [(0.03, 0.15, 0.6), (0.07, -0.3, -1.1), (0.006, 0.4, 1.3)])
    def test_gap_and_triple_lie_within_their_radius_of_the_oracle(self, params, n_modes):
        roll = solve_roll(RollParameters(*params), SpectralGrid(n_modes))
        sweep = np.array([0.5, -0.5, 0.45, 0.2, 1e-6, 0.0])
        out = critical_sweep(roll, sweep, 1.0)
        vals, radius, gaps, gap_radius = out.values, out.radius, out.gaps, out.gap_radius
        # Every member is certified, sigma = 0 on its even and odd blocks.
        assert np.isfinite(radius).all() and np.isfinite(gap_radius).all()
        w = oracle_eigenvalues(roll, sweep)
        assert np.all(np.abs(vals - w[:, 2::-1]) <= radius[:, None])
        assert np.all(np.abs(-gaps - w[:, 3]) <= gap_radius)
        # Off zero, each computed top Ritz value lies less than the a priori
        # margin above lambda_1.
        off = sweep != 0.0
        assert np.all(vals[off, 2] - w[off, 0] < bloch._ritz_margin(roll, sweep[off]))

    def test_top_ritz_values_lie_within_the_margin_of_the_oracle_at_m_32(self):
        # Where the margin is largest (it grows with M^6), at a member near the
        # growth peak of an unstable cell.
        roll = solve_roll(RollParameters(0.02, 0.4, 0.0), SpectralGrid(32))
        sweep = np.array([0.007])
        top = critical_sweep(roll, sweep).values[:, 2]
        assert np.all(top - oracle_eigenvalues(roll, sweep)[:, 0] < bloch._ritz_margin(roll, sweep))

    def test_certified_curves_run_no_full_eigensolve_until_read(self, monkeypatch):
        # The whole zone at M = 32 without sigma = 0: every member certified.
        roll = solve_roll(RollParameters(0.04, 0.1, 0.5), SpectralGrid(32))
        sweep = np.linspace(-0.5, 0.5, 41)[np.arange(41) != 20]
        assert np.all(np.isfinite(certify(roll, sweep)[1]))
        calls = linalg_calls(monkeypatch, "eigh", "eigvalsh")
        spectra = critical_curves(roll, sweep)
        [spec.critical_values() for spec in spectra]
        [spec.gap for spec in spectra]
        # 34 distinct |sigma|: six of the twenty negative members are exact
        # mirrors of a positive one in floating point.
        assert calls == [("eigh", (34, 5, 5)), ("eigh", (34, 5, 5))]
        spectra[7].eigenvalues
        spectra[7].critical
        assert calls[2:] == [("eigvalsh", (1, 65, 65))]

    def test_read_eigenvalues_are_the_triple_beside_the_eigvalsh_rest(self):
        roll = solve_roll(RollParameters(0.04, 0.1, 0.5), SpectralGrid(12))
        sweep = np.linspace(-0.5, 0.5, 9)
        vals, radius = certify(roll, sweep)
        off = sweep != 0.0
        assert np.all(np.isfinite(radius[off]))
        # One stacked eigvalsh of the members off zero, built at |sigma|, less
        # its three values nearest zero, beside the certified triples, sorted
        # descending.
        H = bloch._stacks(roll, np.abs(sweep[off]))[1]
        w = np.linalg.eigvalsh(H)
        w = np.take_along_axis(w, np.argsort(np.abs(w), axis=1), axis=1)
        want = -np.sort(-np.concatenate([vals[off], w[:, 3:]], axis=1), axis=1)
        spectra = [spec for spec, x in zip(critical_curves(roll, sweep), off) if x]
        singles = [critical_curves(roll, [x])[0] for x in sweep[off]]
        for got, single, row in zip(spectra, singles, want):
            assert np.array_equal(got.eigenvalues, row)
            assert np.array_equal(single.eigenvalues, row)
            assert np.array_equal(got.eigenvalues[list(got.critical)], got.critical_values())

    def test_classifier_runs_no_full_eigensolve(self, monkeypatch):
        stable = solve_roll(RollParameters(0.02, 0.1, 0.5), SpectralGrid(12))
        unstable = solve_roll(RollParameters(0.02, 0.4, 0.0), SpectralGrid(12))
        calls = linalg_calls(monkeypatch, "eigh", "eigvalsh")
        # The stable cell's grid is settled whole, so nothing is solved.
        classify_numerically(stable)
        assert calls == []
        # The unstable cell's sweeps call only the two Rayleigh-Ritz steps of
        # the lifted start block each: the grid has no sigma = 0.
        classify_numerically(unstable)
        assert calls and all(shape[1:] == (5, 5) for _, shape in calls)

    @pytest.mark.parametrize("eps", [0.01, 0.02])
    def test_both_solve_paths_reach_the_same_verdicts(self, eps, monkeypatch):
        # A seeded 60-cell subset of the criterion-5 domain (the 30 x 30
        # (omega, s) grid with |Pi| > 0.05, M = 12), classified once from the
        # certified triples and once from the reference's.
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
            m.setattr(
                dsp, "critical_sweep",
                lambda roll, sigmas, delta: dataclasses.replace(
                    bloch.critical_sweep(roll, sigmas, delta), values=reference_triples(roll, sigmas)
                ),
            )
            eigensolved = [classify_numerically(roll) for roll in rolls]
        assert {got.verdict for got in certified} == {dsp.Stability.STABLE, dsp.Stability.UNSTABLE}
        for roll, got, want in zip(rolls, certified, eigensolved):
            assert got.verdict is want.verdict
            assert got.witness_sigma == want.witness_sigma
            if got.witness_sigma is not None:
                radius = certify(roll, [got.witness_sigma], 1.0)[1][0]
                assert abs(got.witness_lambda - want.witness_lambda) < radius

    @pytest.mark.parametrize("sigma", [1e-12])
    def test_a_member_failing_both_certificates_raises(self, sigma, monkeypatch):
        # A member that fails the rank-4 certificate gets the rank-3 one; where
        # that fails too, the solve raises, and takes no other path.
        roll = solve_roll(RollParameters(0.05, 0.1, 0.8), SpectralGrid(12))
        certificate, rank3 = bloch._block_certificate, rank3_members(monkeypatch)
        assert np.isfinite(certify(roll, [sigma])[1][0]) and rank3 == [1]

        def failing(sq, H, outer, Y, *args):
            return certificate(sq, H, outer, Y, *args) & (Y.shape[2] == 4)

        monkeypatch.setattr(bloch, "_block_certificate", failing)
        calls = linalg_calls(monkeypatch, "eigvalsh")
        critical_sweep(roll, [0.1, 0.0])
        with pytest.raises(InvariantViolation, match="neither certificate"):
            critical_sweep(roll, [sigma, 0.1])
        assert calls == []

    @pytest.mark.parametrize("n_modes", [8, 12])
    @pytest.mark.parametrize("params", [(0.0631, -0.096, -1.345), (0.07, -0.3, -1.1)])
    def test_the_rank_3_enclosures_hold_the_oracle(self, params, n_modes, monkeypatch):
        # At sigma = 1e-9 these cells fail the rank-4 certificate.  The triple
        # lies within r3 of the 40-digit oracle, and lambda_4 in
        # [rho_4 - r4, rho_4 + 2 r4]: gap_radius is 2 r4.
        roll = solve_roll(RollParameters(*params), SpectralGrid(n_modes))
        rank3 = rank3_members(monkeypatch)
        out = critical_sweep(roll, [1e-9], 1.0)
        assert rank3 == [1]
        w = oracle_eigenvalues(roll, [1e-9])[0]
        assert np.all(np.abs(out.values[0] - w[2::-1]) <= out.radius[0])
        rho4, r4 = -out.gaps[0], out.gap_radius[0] / 2.0
        assert rho4 - r4 <= w[3] <= rho4 + 2.0 * r4

    def test_every_member_near_zero_is_certified(self, monkeypatch):
        # Criterion 2's 16 cells at M = 16, and 40 seeded cells at M = 8 to
        # 32, on 11 magnitudes per sign from 1e-12 to 1e-7, where the rank-4
        # certificate fails on about a quarter of the members.
        cells = [(e, w, s, 16) for w, s in acceptance.PARAM_SETS for e in acceptance.EPS_SWEEP]
        rng = np.random.default_rng(41)
        for i in range(40):
            cells.append((rng.uniform(0.005, 0.08), rng.uniform(-0.45, 0.45), rng.uniform(-1.4, 1.4), (8, 12, 16, 32)[i % 4]))
        small = np.geomspace(1e-12, 1e-7, 11)
        rank3 = rank3_members(monkeypatch)
        for eps, omega, s, n_modes in cells:
            roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
            out = critical_sweep(roll, np.concatenate([-small, small]), 1e-300)
            assert np.isfinite(out.radius).all() and np.isfinite(out.gap_radius).all()
        assert sum(rank3) > 0.2 * len(cells) * small.size

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(**cells)
    def test_sigma_zero_holds_no_instability(self, eps, omega, s, n_modes):
        # Why the classifier's grid may leave sigma = 0 out: the conserved
        # zero is exact, the translation value vanishes and the amplitude
        # mode decays at about c = -2 (1 - 4 omega^2) eps^2.
        assert np.all(_default_sigma_grid(eps) > 0.0)
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        triple = np.sort(critical_sweep(roll, [0.0]).values[0])
        assert 0.0 in triple
        assert abs(triple[1]) <= 1e-9
        assert triple[0] <= growth_prefactor(eps, omega) / 2.0
