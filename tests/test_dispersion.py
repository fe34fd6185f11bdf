from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conslaw import bloch
from conslaw import dispersion as dsp
from conslaw.bloch import critical_modes, critical_sweep
from conslaw.errors import GapViolation, InvariantViolation, OutOfRange
from conslaw.fourier import SpectralGrid
from conslaw.rolls import RollParameters, solve_roll, zero_roll


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
        # On the band edge omega^2 = 1/12 the product is 4.4e-16, within the boundary band.
        assert dsp.stability_predicate(np.sqrt(1.0 / 12.0), 0.0) is dsp.Stability.BOUNDARY

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


class TestSignOfS:
    """The model is invariant under ``(u(xi), s) -> (-u(xi + pi), -s)``, i.e. cosines ``a_m -> (-1)^(m+1) a_m``.

    Each property holds bit for bit over the open band with ``0.01 < s < 3``.
    The Bloch matrix at ``-s`` is the one at ``s`` conjugated by
    ``diag((-1)^m)``, which changes signs only, never a magnitude.  At tiny
    ``|s|`` (1e-300) the even cosines underflow to zeros whose sign bit is
    not mirrored; their values, and the triples' bytes, still agree.
    """

    cells = dict(
        eps=st.floats(0.005, 0.08),
        omega=st.floats(-0.49, 0.49),
        s=st.floats(0.01, 3.0, exclude_min=True, exclude_max=True),
    )

    @staticmethod
    def rolls(eps, omega, s, n_modes):
        grid = SpectralGrid(n_modes)
        return solve_roll(RollParameters(eps, omega, s), grid), solve_roll(RollParameters(eps, omega, -s), grid)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**cells, n_modes=st.sampled_from([8, 12, 32]))
    def test_roll_at_minus_s_is_the_mirrored_roll(self, eps, omega, s, n_modes):
        plus, minus = self.rolls(eps, omega, s, n_modes)
        sign = (-1.0) ** (np.arange(n_modes + 1) + 1)
        # The mean is held at exactly zero, so only its sign bit would differ.
        assert plus.profile.cosines[0] == minus.profile.cosines[0] == 0.0
        assert minus.profile.cosines[1:].tobytes() == (sign * plus.profile.cosines)[1:].tobytes()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**cells, n_modes=st.sampled_from([8, 12, 32]))
    def test_triples_agree_over_the_classifier_grid(self, eps, omega, s, n_modes):
        plus, minus = self.rolls(eps, omega, s, n_modes)
        sigmas = dsp._default_sigma_grid(eps)
        assert critical_sweep(minus, sigmas).values.tobytes() == critical_sweep(plus, sigmas).values.tobytes()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**cells, n_modes=st.sampled_from([8, 12]))
    def test_verdict_and_witness_agree(self, eps, omega, s, n_modes):
        plus, minus = self.rolls(eps, omega, s, n_modes)
        want, got = dsp.classify_numerically(plus), dsp.classify_numerically(minus)
        assert got.verdict is want.verdict
        for a, b in [(got.witness_sigma, want.witness_sigma), (got.witness_lambda, want.witness_lambda)]:
            assert (a is None and b is None) or np.float64(a).tobytes() == np.float64(b).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(omega=st.floats(-0.49, 0.49), s=st.floats(0.0, 3.6))
    def test_closed_form_predicate_agrees(self, omega, s):
        assert dsp.stability_predicate(omega, -s) is dsp.stability_predicate(omega, s)

    def test_fold_keeps_the_first_cell_of_each_exactly_mirrored_pair(self):
        # 0.1 + 0.2 is not 0.3, so (0.1, 0.1 + 0.2) has no mirror among these;
        # -0.0 mirrors 0.0, and omega is never folded.
        cells = [
            RollParameters(0.02, w, s)
            for w, s in [(0.1, -0.3), (0.2, -0.3), (0.1, 0.3), (0.1, 0.1 + 0.2), (0.2, 0.3), (-0.1, 0.3),
                         (0.1, 0.0), (0.1, -0.3), (0.1, -0.0)]
        ]
        firsts, index = dsp._fold_mirrors(cells)
        assert [id(p) for p in firsts] == [id(cells[i]) for i in (0, 1, 3, 5, 6)]
        assert index == [0, 1, 0, 2, 1, 3, 4, 0, 4]
        assert [firsts[j].omega for j in index] == [p.omega for p in cells]


class TestSettledMembers:
    """The classifier solves only the members ``bloch._settled_members`` cannot settle, at the one level its
    predicted member sets (the decay level elsewhere), with the bits of a sweep of the whole grid."""

    @staticmethod
    def decay(grid):
        """The classifier's decay level at eps = 0.02, one value per member."""
        return -1e-6 * 0.02**2 * grid**2

    @staticmethod
    def full_grid(roll, delta=1.0):
        """The verdict with no member settled at any level: every member of the grid solved."""
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dsp, "_settled_members", lambda roll, sigmas, delta, level=0.0: np.zeros(sigmas.size, bool))
            return dsp.classify_numerically(roll, delta)

    @staticmethod
    def solved(monkeypatch):
        """The Bloch numbers each ``critical_sweep`` of the classifier solves from here on, in call order."""
        calls = []
        sweep = dsp.critical_sweep

        def spy(roll, sigmas, delta):
            calls.append(np.array(sigmas))
            return sweep(roll, sigmas, delta)

        monkeypatch.setattr(dsp, "critical_sweep", spy)
        return calls

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        eps=st.floats(0.005, 0.08),
        omega=st.floats(-0.45, 0.45),
        s=st.floats(-1.5, 1.5),
        n_modes=st.sampled_from([8, 12, 16, 32]),
    )
    def test_verdict_and_witness_are_the_full_grid_bits(self, eps, omega, s, n_modes):
        roll = solve_roll(RollParameters(eps, omega, s), SpectralGrid(n_modes))
        got, want = dsp.classify_numerically(roll), self.full_grid(roll)
        assert got.verdict is want.verdict
        for a, b in [(got.witness_sigma, want.witness_sigma), (got.witness_lambda, want.witness_lambda)]:
            assert (a is None and b is None) or np.float64(a).tobytes() == np.float64(b).tobytes()

    def test_members_solved(self, monkeypatch):
        grid = dsp._default_sigma_grid(0.02)
        assert grid.size == 37
        calls = self.solved(monkeypatch)
        stable = solve_roll(RollParameters(0.02, 0.1, 0.5), SpectralGrid(12))
        assert dsp.classify_numerically(stable).verdict is dsp.Stability.STABLE
        # No growth is predicted and every member is settled at the decay
        # level, so nothing is solved.
        assert dsp._predicted_peak(stable.params, grid) is None
        assert dsp._settled_members(stable, grid, 1.0, self.decay(grid)).all()
        assert calls == []
        unstable = solve_roll(RollParameters(0.02, 0.4, 0.0), SpectralGrid(12))
        verdict = dsp.classify_numerically(unstable)
        assert verdict.verdict is dsp.Stability.UNSTABLE
        # The predicted member first, then the one member the level test
        # could not exclude: the witness, one grid member below the prediction.
        j = dsp._predicted_peak(unstable.params, grid)[0]
        level = critical_sweep(unstable, grid[[j]]).values[0, 2] - bloch._ritz_margin(unstable, grid)
        kept = ~dsp._settled_members(unstable, grid, 1.0, level)
        assert np.flatnonzero(kept).tolist() == [j - 1, j]
        assert [c.tolist() for c in calls] == [[grid[j]], [grid[j - 1]]]
        assert verdict.witness_sigma == grid[j - 1]

    @pytest.mark.parametrize("case", ["predicted", "level_at_zero", "margin_too_wide", "mispredicted"])
    def test_one_pass_sweeps_each_member_once(self, case, monkeypatch):
        # An unstable cell: its predicted member, then the members not settled
        # at b - m; a b - m below zero, where the grid settles at the decay
        # level and the predicted member is reused; a margin the predicted
        # peak does not clear, as mostly at M = 32, where that member is never
        # solved.  And a stable cell whose growth is mispredicted at a small
        # member, where only that member is swept.  Each gives the verdict of
        # the unpatched classifier, and sweeps no Bloch number twice.
        omega, s = (0.1, 0.5) if case == "mispredicted" else (0.4, 0.0)
        roll = solve_roll(RollParameters(0.02, omega, s), SpectralGrid(12))
        grid = dsp._default_sigma_grid(0.02)
        want = dsp.classify_numerically(roll)
        j = 5 if case == "mispredicted" else dsp._predicted_peak(roll.params, grid)[0]
        b = critical_sweep(roll, grid[[j]]).values[0, 2]
        # A margin of 2 b puts b - m below zero; one of 1.0, the patched peak, skips the predicted member.
        margin = {"level_at_zero": 2.0 * b, "margin_too_wide": 1.0}.get(case, bloch._ritz_margin(roll, grid))
        monkeypatch.setattr(dsp, "_predicted_peak", lambda params, sigmas: (j, 1.0))
        monkeypatch.setattr(dsp, "_ritz_margin", lambda roll, sigmas: margin)
        calls = self.solved(monkeypatch)
        assert dsp.classify_numerically(roll) == want
        swept = np.concatenate(calls)
        assert np.unique(swept).size == swept.size
        first = np.arange(grid.size) == j
        if case == "margin_too_wide":
            unsettled = ~dsp._settled_members(roll, grid, 1.0, self.decay(grid))
            assert [c.tolist() for c in calls] == [grid[unsettled].tolist()]
            return
        assert bool(b > 1e-10 + margin) is (case == "predicted")
        level = b - margin if case == "predicted" else self.decay(grid)
        rest = ~dsp._settled_members(roll, grid, 1.0, level) & ~first
        if case == "mispredicted":
            assert not rest.any() and [c.tolist() for c in calls] == [[grid[j]]]
            return
        assert rest.any() and [c.tolist() for c in calls] == [[grid[j]], grid[rest].tolist()]

    @pytest.mark.parametrize("omega, s", [(0.1, 0.5), (0.4, 0.0)], ids=["stable", "unstable"])
    def test_gap_errors_are_the_full_grid_sweeps(self, omega, s):
        # A delta between the least and the largest gap of the grid fails some
        # members; the first of them in grid order is the one reported.
        roll = solve_roll(RollParameters(0.02, omega, s), SpectralGrid(12))
        grid = dsp._default_sigma_grid(0.02)
        gaps = critical_sweep(roll, grid).gaps
        delta = 0.5 * (gaps.min() + gaps.max())
        with pytest.raises(GapViolation) as want:
            critical_sweep(roll, grid, delta)
        with pytest.raises(GapViolation) as got:
            dsp.classify_numerically(roll, delta)
        assert np.float64(got.value.gap).tobytes() == np.float64(want.value.gap).tobytes()
        assert self.full_grid(roll, 0.9 * gaps.min()) == dsp.classify_numerically(roll, 0.9 * gaps.min())


class TestNumericalClassifier:
    @pytest.mark.parametrize(
        "omega,s,want",
        [
            (0.0, 0.0, dsp.Stability.STABLE),
            (0.4, 0.0, dsp.Stability.UNSTABLE),
            (0.0, 1.2, dsp.Stability.UNSTABLE),
            # Pi = -0.0059: five small members compute top values of 5e-11 to 1e-10, neither growth nor decay.
            (0.11651612004589557, 0.796089480544599, dsp.Stability.BOUNDARY),
        ],
    )
    def test_examples(self, omega, s, want):
        roll = solve_roll(RollParameters(0.02, omega, s), SpectralGrid(12))
        verdict = dsp.classify_numerically(roll)
        assert verdict.verdict is want
        if want is dsp.Stability.UNSTABLE:
            assert verdict.witness_lambda > 0.0

    def test_zero_roll_at_eps_zero_is_stable(self):
        # At eps = 0 the grid holds sigma = 0, which the decay rule leaves out,
        # and the decay level is zero: every other member is settled below it.
        roll = zero_roll(RollParameters(0.0, 0.1, 0.5), SpectralGrid(12))
        assert dsp.classify_numerically(roll).verdict is dsp.Stability.STABLE

    def test_flat_neutral_curves_are_a_boundary(self, monkeypatch):
        # Curves held at -1e-12, with no member settled, stay below the
        # instability threshold, but above the decay level -1e-6 eps^2 sigma^2
        # at the larger members: no diffusive decay.
        def flat_sweep(roll, sigmas, delta):
            return SimpleNamespace(values=np.full((len(sigmas), 3), -1e-12))

        monkeypatch.setattr(dsp, "critical_sweep", flat_sweep)
        monkeypatch.setattr(
            dsp, "_settled_members", lambda roll, sigmas, delta, level: np.zeros(sigmas.size, bool)
        )
        roll = solve_roll(RollParameters(0.02, 0.0, 0.0), SpectralGrid(12))
        assert dsp.classify_numerically(roll) == dsp.StabilityVerdict(dsp.Stability.BOUNDARY)

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

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_verdict_is_the_closed_form_band_at_small_eps(self, eps):
        # Growth rates scale like eps^2, near or under the absolute 1e-10
        # threshold here: an unstable cell may read BOUNDARY, but never
        # STABLE, since its growing members are neither settled at the decay
        # level nor solved below it.  Every stable cell still reads STABLE.
        rng = np.random.default_rng(19)
        cells = rng.uniform((-0.45, -1.5), (0.45, 1.5), (60, 2))
        cells = [(w, s) for w, s in cells if abs(dsp.sideband_product(w, s)) > 0.05]
        for omega, s in cells:
            got = dsp.classify_numerically(solve_roll(RollParameters(eps, omega, s), SpectralGrid(12))).verdict
            assert (got is dsp.Stability.STABLE) is (dsp.stability_predicate(omega, s) is dsp.Stability.STABLE)

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
