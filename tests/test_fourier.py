import numpy as np
import pytest
from scipy.fft import next_fast_len

from conslaw import evolution as ev
from conslaw.errors import OutOfRange
from conslaw.fourier import PeriodicField, SpectralGrid, l2_norm
from conslaw.model import swift_hohenberg
from conslaw.rolls import RollParameters, _cosine_spectrum, _residual_and_multiplier

GRID = SpectralGrid(12)


def random_field(grid, rng, scale=1.0, even=False):
    c = np.zeros(2 * grid.n_modes + 1, dtype=np.complex128)
    mid = grid.n_modes
    c[mid] = rng.normal() * scale
    for m in range(1, grid.n_modes + 1):
        z = (rng.normal() + (0.0 if even else 1j * rng.normal())) * scale / (1 + m) ** 2
        c[mid + m] = z
        c[mid - m] = np.conj(z)
    return PeriodicField(grid, c, even=even)


def sine(grid, m):
    """Coefficients of ``sin(m xi)``."""
    c = np.zeros(2 * grid.n_modes + 1, dtype=np.complex128)
    c[grid.n_modes + m] = 1.0 / 2j
    c[grid.n_modes - m] = -1.0 / 2j
    return c


def cosine(grid, m, amplitude=1.0):
    a = np.zeros(m + 1)
    a[m] = amplitude
    return PeriodicField.from_cosines(grid, a)


def linear_symbol(kt2, eps):
    """The linearization about zero on a mode with squared wavenumber ``kt2``."""
    return kt2 * (eps**2 + swift_hohenberg(kt2))


class TestGridAndField:
    def test_grid_minimum_resolution(self):
        with pytest.raises(OutOfRange):
            SpectralGrid(7)

    def test_collocation_count_supports_cubic_dealiasing(self):
        assert GRID.n_points >= 4 * GRID.n_modes + 1

    def test_reality_violation_rejected(self):
        c = np.zeros(2 * GRID.n_modes + 1, dtype=np.complex128)
        c[GRID.n_modes + 1] = 1.0  # missing conjugate partner
        with pytest.raises(ValueError):
            PeriodicField(GRID, c)

    def test_even_flag_rejects_sine_content(self):
        with pytest.raises(ValueError):
            PeriodicField(GRID, sine(GRID, 1), even=True)

    def test_values_roundtrip(self):
        # the roll solver's cosine transform inverts values() on even fields
        rng = np.random.default_rng(0)
        u = random_field(GRID, rng, even=True)
        a = _cosine_spectrum(u.values(), GRID.n_modes)
        assert np.max(np.abs(a - u.cosine_coefficients())) < 1e-14

    def test_triples_roundtrip(self):
        rng = np.random.default_rng(1)
        u = random_field(GRID, rng)
        triples = u.to_triples()
        assert [m for m, _, _ in triples] == list(GRID.modes)
        v = PeriodicField(GRID, np.array([complex(re, im) for _, re, im in triples]))
        assert np.max(np.abs(u.coeffs - v.coeffs)) == 0.0

    def test_coefficients_immutable(self):
        u = cosine(GRID, 1)
        with pytest.raises(ValueError):
            u.coeffs[0] = 1.0


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
        F, q, _, _ = _residual_and_multiplier(np.zeros(GRID.n_modes), RollParameters(0.1, 0.1, 0.7), GRID)
        assert np.all(F == 0.0) and q == 0.0

    def test_cubic_of_small_cosine(self):
        # u = delta cos(xi), s=0, eps=0, k=1: the bracket is -u^3 with
        # cos^3 = (3 cos + cos 3)/4, and the symbol vanishes on mode 1, so
        # the residual -k^2 [...] is (3/4) delta^3 on mode 1, (1/4) on mode 3.
        delta = 1e-3
        a = np.zeros(GRID.n_modes)
        a[0] = delta
        F, q, _, _ = _residual_and_multiplier(a, RollParameters(0.0, 0.0, 0.0), GRID)
        assert F[0] == pytest.approx(0.75 * delta**3, rel=1e-12)
        assert F[2] == pytest.approx(0.25 * delta**3, rel=1e-12)
        assert np.max(np.abs(np.delete(F, [0, 2]))) < 1e-22
        assert abs(q) < 1e-22

    def test_mean_exactly_zero(self):
        # the integrator's flux never feeds the conserved mode
        rng = np.random.default_rng(3)
        n_periods, K = 4, 20
        n_points = next_fast_len(2 * K + 1, real=True)
        n_idx = np.arange(n_points)
        kt2 = 0.98 * (n_idx / n_periods) ** 2
        nonlin = ev._cubic_flux(np.where(n_idx <= K, -kt2 / (2 * n_points), 0.0), 1.0)
        y = np.where(n_idx <= K, rng.normal(size=n_points), 0.0)
        out = np.empty(n_points)
        nonlin(y, out)
        assert out[0] == 0.0
        assert np.max(np.abs(out[1 : K + 1])) > 0.0


class TestInnerProduct:
    def test_cosine_normalization(self):
        assert l2_norm(cosine(GRID, 1)) == pytest.approx(1.0)

    def test_orthogonality(self):
        # |cos + sin|^2 = |cos|^2 + |sin|^2
        u = PeriodicField(GRID, cosine(GRID, 1).coeffs + sine(GRID, 1))
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
        quad = np.mean(w.values() ** 2) * 2.0  # (1/pi) * (2 pi) * mean
        assert l2_norm(w) ** 2 == pytest.approx(quad, abs=1e-12)


class TestProjectKernel:
    """Kernel coordinates ``(<cos, u>, <sin, u>, <1, u>/2)`` read with ``coefficient``."""

    @staticmethod
    def kernel_coordinates(u):
        c1 = u.coefficient(1)
        return (2.0 * c1.real, -2.0 * c1.imag, u.coefficient(0).real)

    def test_mixed_field(self):
        u = PeriodicField.from_cosines(GRID, [2.0, 3.0])
        assert self.kernel_coordinates(u) == pytest.approx((3.0, 0.0, 2.0))

    def test_orthogonal_harmonic(self):
        assert self.kernel_coordinates(cosine(GRID, 2)) == pytest.approx((0.0, 0.0, 0.0))
        assert cosine(GRID, 2).coefficient(GRID.n_modes + 1) == 0.0

    def test_sine_component(self):
        u = PeriodicField(GRID, sine(GRID, 1))
        assert self.kernel_coordinates(u) == pytest.approx((0.0, 1.0, 0.0))


class TestProducts:
    def test_reality_closure(self):
        rng = np.random.default_rng(5)
        u, v = random_field(GRID, rng), random_field(GRID, rng)
        for w in (u - v, random_field(GRID, rng, even=True)):
            # reconstruct with the full complex transform: collocation values
            # of the result must be real to rounding
            n = GRID.n_points
            spec = np.zeros(n, dtype=np.complex128)
            M = GRID.n_modes
            spec[: M + 1] = w.coeffs[M:]
            spec[-M:] = w.coeffs[:M]
            vals = np.fft.ifft(spec) * n
            assert np.max(np.abs(vals.imag)) < 1e-13 * max(1.0, np.max(np.abs(vals.real)))

    def test_cubic_dealiasing_exact(self):
        # the roll solver's cubic: samples on n_points, cosine spectrum back;
        # modes <= M/3 so u^3 stays representable, and the oracle is a
        # brute-force convolution of the centered spectra.
        rng = np.random.default_rng(6)
        M = GRID.n_modes
        c = np.zeros(2 * M + 1, dtype=np.complex128)
        for m in range(M // 3 + 1):
            c[M + m] = c[M - m] = rng.normal()
        u = PeriodicField(GRID, c, even=True)
        cubed = _cosine_spectrum(u.values() ** 3, M)
        full = np.convolve(np.convolve(c, c), c)[3 * M : 4 * M + 1].real
        oracle = np.concatenate([[full[0]], 2.0 * full[1:]])
        assert np.max(np.abs(cubed - oracle)) < 1e-12

    def test_even_times_even_is_even(self):
        # the roll solver keeps only the cosine part of its products, which
        # is all there is for a product of even fields
        rng = np.random.default_rng(7)
        u, v = random_field(GRID, rng, even=True), random_field(GRID, rng, even=True)
        spec = np.fft.rfft(u.values() * v.values())
        assert np.max(np.abs(spec.imag)) < 1e-13 * np.max(np.abs(spec))
