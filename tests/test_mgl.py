import numpy as np
import pytest

from conslaw import bloch
from conslaw import dispersion as dsp
from conslaw import mgl
from conslaw.bloch import critical_sweep
from conslaw.errors import OutOfRange
from conslaw.fourier import SpectralGrid
from conslaw.rolls import RollParameters, amplitude_alpha, solve_roll, zero_roll

from eigensolve_reference import reference_triples
from pinned import DATA, linalg_calls

GRID = SpectralGrid(14)


def mgl_rhs(params, A, B, length):
    """Right-hand side of the amplitude system on a periodic slow domain.

    ``A`` (complex) and ``B`` (real) are point values on a uniform grid over
    ``[0, length)``; derivatives are spectral.  The mean-mode equation is a
    full second derivative, so the spatial mean of ``dB/dt`` vanishes exactly.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.float64)
    n = A.size
    kappa = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    lap = -(kappa**2)

    def d2(f):
        return np.fft.ifft(lap * np.fft.fft(f))

    s = params.s
    cubic = (27.0 - 2.0 * s**2) / 36.0
    dA = 4.0 * d2(A) + A - cubic * np.abs(A) ** 2 * A - 2.0 * s * A * B
    dB = d2(B).real + 0.5 * s * d2(np.abs(A) ** 2).real
    return dA, dB


class TestParametersAndAmplitude:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            mgl.MglParameters(0.6, 0.0)
        with pytest.raises(OutOfRange):
            mgl.MglParameters(0.0, 3.7)

    def test_reference_amplitude(self):
        assert mgl.mgl_roll_amplitude(0.0, 0.0) == pytest.approx(1.1547005, abs=1e-7)

    def test_band_edge_amplitude_vanishes(self):
        assert mgl.mgl_roll_amplitude(0.5, 1.0) == 0.0

    def test_leading_order_match_with_exact_amplitude(self):
        # amplitude * eps agrees with the exact cos-coefficient through O(eps^2)
        w, s = 0.2, 0.8
        for e in (0.02, 0.04):
            diff = abs(mgl.mgl_roll_amplitude(w, s) * e - amplitude_alpha(RollParameters(e, w, s)))
            assert diff < 10.0 * e**2


class TestDispersionMatrix:
    def test_origin_spectrum(self):
        d = mgl.mgl_dispersion_matrix(mgl.MglParameters(0.2, 0.7), 0.0)
        vals = np.sort(d.eigenvalues.real)
        assert vals[0] == pytest.approx(-2.0 * (1.0 - 4.0 * 0.04))
        assert np.max(np.abs(vals[1:])) < 1e-15

    def test_eigenvalue_residuals(self):
        d = mgl.mgl_dispersion_matrix(mgl.MglParameters(0.3, 1.0), 0.4)
        for lam in d.eigenvalues:
            smin = np.linalg.svd(d.matrix - lam * np.eye(3), compute_uv=False)[-1]
            assert smin < 1e-12 * np.linalg.norm(d.matrix)

    def test_conjugation(self):
        p = mgl.MglParameters(0.25, 0.9)
        plus = np.sort_complex(mgl.mgl_dispersion_matrix(p, 0.1).eigenvalues)
        minus = np.sort_complex(mgl.mgl_dispersion_matrix(p, -0.1).eigenvalues)
        assert np.max(np.abs(minus - np.conj(plus))) < 1e-12


class TestSmallSigma:
    def test_reference_point(self):
        assert mgl.mgl_small_sigma(mgl.MglParameters(0.0, 0.0)) == pytest.approx((-4.0, -4.0, -1.0))

    def test_agrees_with_exact_reduction(self):
        # Under sigma = eps sigma_hat and D = diag(1, 1, eps), the amplitude
        # system's matrix is D^-1 M D / eps^2, M the leading reduced matrix:
        # to 4.2e-16 of max(1, max|entry|) over these draws, bound at 4 ulp.
        eps = 0.01
        d = np.array([1.0, 1.0, eps])
        rng = np.random.default_rng(17)
        n = 0
        while n < 100:
            w = rng.uniform(-0.49, 0.49)
            s = rng.uniform(-3.5, 3.5)
            if 27.0 - 2.0 * s * s <= 0.0:
                continue
            n += 1
            ours = mgl.mgl_small_sigma(mgl.MglParameters(w, s))
            exact = dsp.small_sigma_expansion(RollParameters(eps, w, s))
            assert np.max(np.abs(np.array(ours) - np.array(exact))) < 1e-12
            for sh in (-50.0, -3.0, 0.0, 0.5, 7.0, 50.0):
                got = mgl.mgl_dispersion_matrix(mgl.MglParameters(w, s), sh).matrix
                m = dsp.leading_reduced_matrix(RollParameters(eps, w, s), eps * sh)
                want = m * d / d[:, None] / eps**2
                assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * max(1.0, np.max(np.abs(want)))

    def test_recovered_by_quadratic_fit(self):
        p = mgl.MglParameters(0.2, 0.8)
        sh = np.linspace(-0.02, 0.02, 9)
        trip = np.empty((3, sh.size))
        for i, x in enumerate(sh):
            trip[:, i] = np.sort(mgl.mgl_dispersion_matrix(p, float(x)).eigenvalues.real)
        t = (sh / 0.02) ** 2
        X = np.column_stack([np.ones(t.size), t, t * t, t**3])
        fits = [np.linalg.lstsq(X, trip[j], rcond=None)[0][1] / 0.02**2 for j in range(3)]
        curv, lam_minus, lam_plus = mgl.mgl_small_sigma(p)
        assert np.max(np.abs(np.array(fits) - np.array([curv, lam_minus, lam_plus]))) < 1e-6


class TestRhs:
    def _roll_state(self, params, n=64, cycles=1):
        # domain long enough that omega is a harmonic of the box
        L = 2.0 * np.pi * cycles / params.omega if params.omega else 2.0 * np.pi
        x = np.linspace(0.0, L, n, endpoint=False)
        A = mgl.mgl_roll_amplitude(params.omega, params.s) * np.exp(1j * params.omega * x)
        return x, A, np.zeros(n), L

    def test_explicit_roll_is_stationary(self):
        for w, s in [(0.25, 1.0), (0.125, 0.5), (0.5, 0.8)]:
            p = mgl.MglParameters(w, s)
            _, A, B, L = self._roll_state(p)
            dA, dB = mgl_rhs(p, A, B, L)
            assert np.max(np.abs(dA)) < 1e-12
            assert np.max(np.abs(dB)) < 1e-12

    def test_flat_state_is_stationary(self):
        p = mgl.MglParameters(0.2, 0.9)
        n = 32
        dA, dB = mgl_rhs(p, np.zeros(n, dtype=complex), np.full(n, 0.37), 10.0)
        assert np.max(np.abs(dA)) == 0.0
        assert np.max(np.abs(dB)) < 1e-16

    def test_mean_mode_mass_conserved(self):
        rng = np.random.default_rng(8)
        p = mgl.MglParameters(0.1, 1.2)
        n = 64
        A = rng.normal(size=n) + 1j * rng.normal(size=n)
        B = rng.normal(size=n)
        _, dB = mgl_rhs(p, A, B, 17.0)
        assert abs(np.mean(dB)) < 1e-14

    def test_linearized_growth_matches_dispersion(self):
        # short-time integration of the amplitude system seeded with a
        # dispersion-matrix eigenvector reproduces its real part
        w, s, sh = 0.25, 0.8, 0.25
        p = mgl.MglParameters(w, s)
        L = 8.0 * np.pi  # both omega and sigma_hat are harmonics of 2 pi / L
        n = 48
        x = np.linspace(0.0, L, n, endpoint=False)
        d = mgl.mgl_dispersion_matrix(p, sh)
        lead = int(np.argmax(d.eigenvalues.real))
        lam = d.eigenvalues[lead]
        _, vecs = np.linalg.eig(d.matrix)
        v = vecs[:, np.argmin(np.abs(np.linalg.eigvals(d.matrix) - lam))]

        amp = 1e-6
        carrier = np.exp(1j * sh * x)
        v_r = (v[0] * carrier).real * 2.0
        v_i = (v[1] * carrier).real * 2.0
        b = (v[2] * carrier).real * 2.0
        amplitude = mgl.mgl_roll_amplitude(w, s)
        A = (amplitude + amp * (v_r - 1j * v_i)) * np.exp(1j * w * x)
        B = amp * b
        A0 = amplitude * np.exp(1j * w * x)

        def norm(A, B):
            return np.sqrt(np.mean(np.abs(A - A0 * np.exp(1j * 0)) ** 2) + np.mean(B**2))

        dt, steps = 2e-4, 2500
        n0 = norm(A, B)
        for _ in range(steps):  # classical RK4
            k1 = mgl_rhs(p, A, B, L)
            k2 = mgl_rhs(p, A + 0.5 * dt * k1[0], B + 0.5 * dt * k1[1], L)
            k3 = mgl_rhs(p, A + 0.5 * dt * k2[0], B + 0.5 * dt * k2[1], L)
            k4 = mgl_rhs(p, A + dt * k3[0], B + dt * k3[1], L)
            A = A + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            B = B + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        rate = np.log(norm(A, B) / n0) / (dt * steps)
        assert abs(rate - lam.real) / abs(lam.real) < 1e-4


class TestComparison:
    def test_origin_row_approaches_closed_form(self):
        w, s = 0.2, 0.8
        devs = []
        for e in (0.02, 0.04):
            roll = solve_roll(RollParameters(e, w, s), GRID)
            row = mgl.compare_exact_vs_mgl(roll, [0.0])[0]
            lam1 = np.sort(row.lambda_exact.real)[0]
            devs.append(abs(lam1 + 2.0 * (1.0 - 4.0 * w**2)))
        assert devs[0] < devs[1] < 0.2

    def test_first_order_shrinkage(self):
        w, s = -0.3, 0.8
        grid_hat = np.linspace(-1.0, 1.0, 9)
        dev = {}
        for e in (0.02, 0.04):
            roll = solve_roll(RollParameters(e, w, s), GRID)
            dev[e] = max(r.deviation for r in mgl.compare_exact_vs_mgl(roll, grid_hat))
        ratio = dev[0.04] / dev[0.02]
        assert 1.5 <= ratio <= 3.0

    def test_band_edge_zero_amplitude(self):
        # omega = 1/2: the zero branch; both sides give the flat-state
        # dispersion, with a remainder whose constant grows like (1 + sh)
        devs = {}
        for e in (0.01, 0.02):
            roll = zero_roll(RollParameters(e, 0.5, 0.8), GRID)
            rows = mgl.compare_exact_vs_mgl(roll, [0.3, 0.7])
            for row in rows:
                assert row.deviation < 30.0 * e * (1.0 + row.sigma_hat)
            devs[e] = max(r.deviation for r in rows)
        assert devs[0.01] < 0.6 * devs[0.02]

    def test_leaving_brillouin_zone_rejected(self):
        roll = solve_roll(RollParameters(0.1, 0.0, 0.5), GRID)
        with pytest.raises(OutOfRange):
            mgl.compare_exact_vs_mgl(roll, [6.0])

    def test_zero_eps_rejected(self):
        # sigma_hat = sigma / eps has no meaning on the zero roll at eps = 0.
        roll = zero_roll(RollParameters(0.0, 0.1, 0.5), SpectralGrid(12))
        with pytest.raises(OutOfRange) as info:
            mgl.compare_exact_vs_mgl(roll, [0.5])
        assert info.value.param == "eps"

    def test_zone_checked_for_every_sigma_hat_before_any_solve(self, monkeypatch):
        roll = solve_roll(RollParameters(0.1, 0.0, 0.5), GRID)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the range check")

        monkeypatch.setattr(mgl, "critical_sweep", no_solve)
        with pytest.raises(OutOfRange, match=f"Bloch number {0.1 * 6.0} lies"):
            mgl.compare_exact_vs_mgl(roll, [0.0, 6.0, -7.0])

    def test_rows_hold_the_single_sigma_hat_eigenvalues(self, monkeypatch):
        roll = solve_roll(RollParameters(0.04, 0.25, 1.0), SpectralGrid(12))
        grid = np.linspace(-1.0, 1.0, 11)
        eigvals = np.linalg.eigvals
        shapes = []

        def spy(a):
            shapes.append(np.shape(a))
            return eigvals(a)

        with monkeypatch.context() as m:
            m.setattr(mgl.np.linalg, "eigvals", spy)
            rows = mgl.compare_exact_vs_mgl(roll, grid)
        # One stacked eigensolve of the amplitude system, bitwise the
        # eigenvalues of each sigma_hat's own matrix.
        assert shapes == [(11, 3, 3)]
        params = mgl.MglParameters(0.25, 1.0)
        for row, sh in zip(rows, grid):
            assert row.lambda_mgl.tobytes() == mgl.mgl_dispersion_matrix(params, sh).eigenvalues.tobytes()

    def test_runs_no_full_eigensolve(self, monkeypatch):
        roll = solve_roll(RollParameters(0.04, 0.25, 1.0), SpectralGrid(12))
        calls = linalg_calls(monkeypatch, "eigh", "eigvalsh", "solve")
        mgl.compare_exact_vs_mgl(roll, np.linspace(-1.0, 1.0, 11))
        # The nine distinct |sigma| (in floating point only +-1 and +-0.8 are
        # exact mirrors): the Rayleigh-Ritz steps on the lifted start block and
        # after its Davidson corrections, with no linear solve, for the eight
        # off zero, then for the even and odd blocks of sigma_hat = 0.  Every
        # member is certified, so no eigvalsh runs.
        assert calls == [("eigh", (8, 5, 5)), ("eigh", (8, 5, 5)), ("eigh", (2, 5, 5)), ("eigh", (2, 5, 5))]

    def test_builds_each_batch_once(self, monkeypatch):
        roll = solve_roll(RollParameters(0.04, 0.25, 1.0), SpectralGrid(12))
        factors = bloch._symmetric_factors
        sizes = []

        def spy(op, sigmas, *args):
            sizes.append(sigmas.size)
            return factors(op, sigmas, *args)

        monkeypatch.setattr(bloch, "_symmetric_factors", spy)
        mgl.compare_exact_vs_mgl(roll, np.linspace(-1.0, 1.0, 11))
        # One batch of the eight distinct |sigma| off zero, then the
        # sigma_hat = 0 member alone, whose parity blocks the roll's record
        # keeps: a second compare builds the batch only.
        assert sizes == [8, 1]
        mgl.compare_exact_vs_mgl(roll, np.linspace(-1.0, 1.0, 11))
        assert sizes == [8, 1, 8]

    def test_golden_compare_lies_within_the_enclosures(self):
        # tests/data/compare_m32.csv holds the lifted triples: each lies within
        # its residual radius (scaled by 1/eps^2, plus the rounding of that
        # division) of the reference eigensolve's value, the sigma_hat = 0 row
        # among them.
        eps = 0.04
        lines = (DATA / "compare_m32.csv").read_text().splitlines()[1:]
        table = np.array([[float(x) for x in line.split(",")] for line in lines])
        sigmas = eps * table[:, 0]
        assert np.array_equal(table[:, 0], np.linspace(-1.0, 1.0, 11))
        roll = solve_roll(RollParameters(eps, 0.25, 1.0), SpectralGrid(32))
        radius = critical_sweep(roll, sigmas).radius
        assert np.isfinite(radius).all()
        got, want = table[:, 1:4], reference_triples(roll, sigmas) / eps**2
        bound = radius[:, None] / eps**2 + 4.0 * np.spacing(np.abs(want))
        assert np.all(np.abs(got - want) <= bound)
