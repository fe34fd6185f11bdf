import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from conslaw import evolution as ev
from conslaw.errors import OutOfRange
from conslaw.fourier import PeriodicField, SpectralGrid, l2_norm
from conslaw.model import reaction, reaction_derivative, square, swift_hohenberg
from conslaw.rolls import RollParameters, _residual_and_multiplier, _symbol, zero_roll

GRID = SpectralGrid(12)


def random_field(grid, rng, scale=1.0):
    a = np.zeros(grid.n_modes + 1)
    a[0] = rng.normal() * scale
    for m in range(1, grid.n_modes + 1):
        a[m] = 2.0 * rng.normal() * scale / (1 + m) ** 2
    return PeriodicField(grid, a)


def cosine(grid, m, amplitude=1.0):
    a = np.zeros(m + 1)
    a[m] = amplitude
    return PeriodicField(grid, a)


def cosine_matrix(modes, n_points):
    """``cos(m xi_j)`` at the ``n_points`` uniform nodes ``xi_j = 2 pi j / n_points``, shape ``(n_points, modes)``."""
    xi = 2.0 * np.pi * np.arange(n_points) / n_points
    return np.cos(np.outer(xi, np.arange(modes)))


def samples(u, n_points):
    """``u`` at ``n_points`` uniform nodes, by direct cosine sums."""
    return cosine_matrix(u.grid.n_modes + 1, n_points) @ u.cosines


def linear_symbol(kt2, eps):
    """The linearization about zero on a mode with squared wavenumber ``kt2``."""
    return kt2 * (eps**2 + swift_hohenberg(kt2))


class TestGridAndField:
    def test_grid_minimum_resolution(self):
        with pytest.raises(OutOfRange):
            SpectralGrid(7)

    def test_triples_roundtrip(self):
        rng = np.random.default_rng(1)
        u = random_field(GRID, rng)
        triples = u.to_triples()
        assert [m for m, _, _ in triples] == list(GRID.modes)
        assert all(im == 0.0 for _, _, im in triples)
        c = np.array([re for _, re, _ in triples])[GRID.n_modes :]
        v = PeriodicField(GRID, np.concatenate([c[:1], 2.0 * c[1:]]))
        assert np.max(np.abs(u.cosines - v.cosines)) == 0.0

    def test_equality_and_hash_do_not_raise(self):
        # fields compare by identity; their values compare with np.array_equal
        u, v = PeriodicField(GRID, [1.0]), PeriodicField(GRID, [1.0])
        assert u == u and u != v
        assert np.array_equal(u.cosines, v.cosines)
        roll = zero_roll(RollParameters(0.05, 0.5, 0.0), GRID)
        assert roll == roll and hash(roll) == hash(roll) and hash(u) != hash(v)

    def test_coefficients_immutable(self):
        u = cosine(GRID, 1)
        with pytest.raises(ValueError):
            u.cosines[0] = 1.0

    @pytest.mark.parametrize(
        "misfit, param",
        [
            (lambda: cosine(GRID, GRID.n_modes + 1), "cosines"),
            (lambda: PeriodicField(GRID, np.zeros((2, 3))), "cosines"),
            (lambda: cosine(GRID, 1) - cosine(SpectralGrid(16), 1), "grid"),
        ],
        ids=["too_many_cosines", "not_one_dimensional", "across_grids"],
    )
    def test_misfits_raise_out_of_range_naming_the_parameter(self, misfit, param):
        with pytest.raises(OutOfRange) as info:
            misfit()
        assert info.value.param == param


class TestLinearSymbol:
    """The shared symbol ``k^2 n^2 (eps^2 + swift_hohenberg(k^2 n^2))``."""

    def test_second_harmonic_eigenvalue(self):
        # cos(2 xi) at k=1, eps=0 maps to -36 cos(2 xi)
        assert linear_symbol(4.0, 0.0) == pytest.approx(-36.0)

    def test_kernel_mode_annihilated(self):
        assert linear_symbol(1.0, 0.0) == 0.0

    def test_constants_annihilated(self):
        assert linear_symbol(0.0, 0.3) == 0.0

    def test_rejects_nonpositive_wavenumber(self):
        # k = sqrt(1 + 2 omega eps), the wavenumber of every symbol call
        with pytest.raises(OutOfRange, match="wavenumber"):
            RollParameters(2.0, -0.5, 0.0)

    def test_matches_composed_first_derivatives(self):
        # -k^2 d^2 [-(1 + k^2 d^2)^2 + eps^2] built from six first derivatives
        rng = np.random.default_rng(2)
        c = random_field(GRID, rng).coeffs
        k, eps = 1.07, 0.08

        def d(x):
            return 1j * GRID.modes * x

        d2 = d(d(c))
        d4 = d(d(d2))
        inner = -1.0 * (c + (2.0 * k**2) * d2 + k**4 * d4) + eps**2 * c
        composed = -(k**2) * d(d(inner))
        direct = linear_symbol(k**2 * GRID.modes.astype(float) ** 2, eps) * c
        assert np.max(np.abs(direct - composed)) < 1e-10


class TestNonlinearRhs:
    """The roll solver's flux-form residual and the integrator's cubic flux."""

    def test_zero_is_fixed_point(self):
        params = RollParameters(0.1, 0.1, 0.7)
        F, q, _, _ = _residual_and_multiplier(np.zeros(GRID.n_modes), params, _symbol(params, GRID.n_modes))
        assert np.all(F == 0.0) and q == 0.0

    def test_cubic_of_small_cosine(self):
        # u = delta cos(xi), s=0, eps=0, k=1: the bracket is -u^3 with
        # cos^3 = (3 cos + cos 3)/4, and the symbol vanishes on mode 1, so
        # the residual -k^2 [...] is (3/4) delta^3 on mode 1, (1/4) on mode 3.
        delta = 1e-3
        a = np.zeros(GRID.n_modes)
        a[0] = delta
        params = RollParameters(0.0, 0.0, 0.0)
        F, q, _, _ = _residual_and_multiplier(a, params, _symbol(params, GRID.n_modes))
        assert F[0] == pytest.approx(0.75 * delta**3, rel=1e-12)
        assert F[2] == pytest.approx(0.25 * delta**3, rel=1e-12)
        assert np.max(np.abs(np.delete(F, [0, 2]))) < 1e-22
        assert abs(q) < 1e-22

    def test_mean_exactly_zero(self):
        # the integrator's flux never feeds the conserved mode: its multiplier,
        # folded into the stepper's coefficients, is exactly 0 at n = 0 and
        # above the retained modes
        rng = np.random.default_rng(3)
        n_periods, K = 4, 20
        n_points = next_fast_len(2 * K + 1, real=True)
        n_idx = np.arange(n_points)
        kt2 = 0.98 * (n_idx / n_periods) ** 2
        keep = n_idx <= K
        lin = np.where(keep, kt2 * (0.01 + swift_hohenberg(kt2)), 0.0)
        stepper = ev._Etdrk4(lin, 0.1, np.where(keep, -kt2 / (2 * n_points), 0.0))
        for f in (stepper.f0, stepper.f1, stepper.f2x2, stepper.f3):
            assert f[0] == 0.0
            assert np.all(f[K + 1 :] == 0.0)
            assert np.max(np.abs(f[1 : K + 1])) > 0.0
        y = np.where(keep, rng.normal(size=n_points), 0.0)
        mean = y[0]
        stepper.step(y, ev._cubic_flux(1.0, n_points))
        assert y[0] == mean
        assert np.all(y[K + 1 :] == 0.0)


class TestInnerProduct:
    def test_cosine_normalization(self):
        assert l2_norm(cosine(GRID, 1)) == pytest.approx(1.0)

    def test_orthogonality(self):
        # |cos + cos 2|^2 = |cos|^2 + |cos 2|^2
        u = PeriodicField(GRID, [0.0, 1.0, 1.0])
        assert l2_norm(u) ** 2 == pytest.approx(2.0)

    def test_constant_norm(self):
        assert l2_norm(cosine(GRID, 0)) ** 2 == pytest.approx(2.0)

    def test_grid_mismatch_raises(self):
        with pytest.raises(ValueError):
            cosine(GRID, 1) - cosine(SpectralGrid(16), 1)

    def test_parseval_matches_quadrature(self):
        rng = np.random.default_rng(4)
        u, v = random_field(GRID, rng), random_field(GRID, rng)
        w = u - v
        quad = np.mean(samples(w, 2 * GRID.n_modes + 1) ** 2) * 2.0  # (1/pi) * (2 pi) * mean
        assert l2_norm(w) ** 2 == pytest.approx(quad, abs=1e-12)


class TestProjectKernel:
    """Even kernel coordinates ``(<cos, u>, <1, u>/2)`` read from ``cosines``."""

    @staticmethod
    def kernel_coordinates(u):
        return (u.cosines[1], u.cosines[0])

    def test_mixed_field(self):
        # shorter input is zero-padded up to mode M
        u = PeriodicField(GRID, [2.0, 3.0])
        assert self.kernel_coordinates(u) == pytest.approx((3.0, 2.0))
        assert u.cosines.shape == (GRID.n_modes + 1,) and np.all(u.cosines[2:] == 0.0)

    def test_orthogonal_harmonic(self):
        assert self.kernel_coordinates(cosine(GRID, 2)) == pytest.approx((0.0, 0.0))
        # a harmonic above M does not fit the grid
        with pytest.raises(ValueError):
            cosine(GRID, GRID.n_modes + 1)


class TestProducts:
    def test_cubic_dealiasing_exact(self):
        # the roll residual reads modes 0..M of u^3 by exact convolution: the
        # projection of u^3 itself, not of its interpolant on the field's own
        # 2M + 1 nodes, which folds the modes above M back onto them
        rng = np.random.default_rng(6)
        u = random_field(GRID, rng)
        M = GRID.n_modes

        def cube_modes(n_points):
            return cosine_matrix(M + 1, n_points).T @ samples(u, n_points) ** 3 / n_points

        r = reaction(u.coeffs, 0.0, square(u.coeffs))
        scale = np.max(np.abs(samples(u, 6 * M + 1))) ** 3
        assert np.max(np.abs(-r - cube_modes(6 * M + 1))) < 1e-13 * scale
        assert np.max(np.abs(-r - cube_modes(2 * M + 1))) > 1e-6 * scale


class TestReaction:
    """``reaction`` and ``reaction_derivative`` against direct cosine sums.

    The oracle samples ``u`` at ``8M + 1`` uniform nodes, more than the
    ``6M + 1`` that the cubic's modes need, evaluates the polynomial there
    and projects back with the same cosine sums.
    """

    cells = dict(
        seed=st.integers(0, 2**32 - 1),
        n_modes=st.sampled_from([8, 12, 16]),
        s=st.floats(-1.5, 1.5),
        scale=st.floats(0.01, 1.0),
    )

    @staticmethod
    def project(values, modes):
        """Centered coefficients ``-modes .. modes`` of real even samples."""
        n_points = values.size
        half = cosine_matrix(modes + 1, n_points).T @ values / n_points
        return np.concatenate([half[:0:-1], half])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(**cells)
    def test_reaction_matches_pointwise_polynomial(self, seed, n_modes, s, scale):
        grid = SpectralGrid(n_modes)
        u = random_field(grid, np.random.default_rng(seed), scale)
        vals = samples(u, 8 * n_modes + 1)
        want = self.project(-s * vals**2 - vals**3, n_modes)[n_modes:]
        got = reaction(u.coeffs, s, square(u.coeffs))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * (abs(s) + np.max(np.abs(vals))) * np.max(vals**2)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(**cells, eps=st.floats(0.0, 0.2))
    def test_derivative_matches_pointwise_polynomial(self, seed, n_modes, s, scale, eps):
        grid = SpectralGrid(n_modes)
        u = random_field(grid, np.random.default_rng(seed), scale)
        vals = samples(u, 8 * n_modes + 1)
        want = self.project(eps**2 - 2.0 * s * vals - 3.0 * vals**2, 2 * n_modes)
        got = reaction_derivative(u.coeffs, s, eps)
        assert got.shape == want.shape
        bound = 1e-13 * (eps**2 + (abs(s) + np.max(np.abs(vals))) * np.max(np.abs(vals)))
        assert np.max(np.abs(got - want)) <= bound
