"""Parameter domains: each check rejects exactly what its rule excludes, NaN included.

The closed forms exist on ``27 - 2 s^2 > 0`` and the closed band
``|omega| <= 1/2``; the sideband formulas need the open band
``|omega| < 1/2 - 1e-14``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslaw import dispersion as dsp
from conslaw import mgl
from conslaw.bloch import check_delta, critical_modes
from conslaw.errors import OutOfRange
from conslaw.evolution import EvolutionConfig
from conslaw.fourier import SpectralGrid
from conslaw.rolls import RollParameters, zero_roll

NAN = math.nan
OPEN_EDGE = 0.5 - 1e-14
S_EDGE = math.sqrt(27.0 / 2.0)  # 27 - 2 s^2 = 0

OMEGAS = st.floats(-0.6, 0.6) | st.sampled_from(
    [0.5, -0.5, math.nextafter(0.5, 1.0), OPEN_EDGE, math.nextafter(OPEN_EDGE, 0.0), 0.5 - 1e-15, NAN]
)
SS = st.floats(-4.0, 4.0) | st.sampled_from([S_EDGE, -S_EDGE, math.nextafter(S_EDGE, 0.0), 4.0, NAN])


def closed_band(omega):
    return abs(omega) <= 0.5


def open_band(omega):
    return abs(omega) < OPEN_EDGE


def any_omega(omega):
    return True


#: (name, call returning a tuple, omega rule); every call also needs 27 - 2 s^2 > 0.
CASES = [
    ("sideband_product", lambda w, s: (dsp.sideband_product(w, s),), open_band),
    ("small_sigma_expansion", lambda w, s: dsp.small_sigma_expansion(RollParameters(0.05, w, s)), open_band),
    ("stability_predicate", lambda w, s: (dsp.stability_predicate(w, s),), open_band),
    ("band_edge_omega", lambda w, s: (dsp.band_edge_omega(s),), any_omega),
    ("mgl_roll_amplitude", lambda w, s: (mgl.mgl_roll_amplitude(w, s),), closed_band),
    ("mgl_small_sigma", lambda w, s: mgl.mgl_small_sigma(mgl.MglParameters(w, s)), open_band),
    ("MglParameters", lambda w, s: (mgl.MglParameters(w, s).omega,), closed_band),
    ("RollParameters", lambda w, s: (RollParameters(0.05, w, s).k,), closed_band),
]


@pytest.mark.parametrize("call,omega_rule", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
@settings(max_examples=200, deadline=None)
@given(omega=OMEGAS, s=SS)
def test_closed_forms_raise_exactly_outside_their_domain(call, omega_rule, omega, s):
    if 27.0 - 2.0 * s**2 > 0.0 and omega_rule(omega):
        values = call(omega, s)
        assert all(isinstance(v, dsp.Stability) or math.isfinite(v) for v in values)
    else:
        with pytest.raises(OutOfRange):
            call(omega, s)


ROLL = zero_roll(RollParameters(0.05, 0.0, 0.0), SpectralGrid(8))
CONFIG = {"n_periods": 4, "dt": 0.1, "seed_sigma": 0.25}
MGL = mgl.MglParameters(0.1, 0.5)

#: (id, call, the parameter its OutOfRange must name)
NON_FINITE = [
    ("eps", lambda: RollParameters(NAN, 0.0, 0.0), "eps"),
    ("omega", lambda: RollParameters(0.05, NAN, 0.0), "omega"),
    ("s", lambda: RollParameters(0.05, 0.0, NAN), "s"),
    ("n_modes", lambda: SpectralGrid(NAN), "n_modes"),
    ("n_periods", lambda: EvolutionConfig(**{**CONFIG, "n_periods": NAN}), "n_periods"),
    ("dt", lambda: EvolutionConfig(**{**CONFIG, "dt": NAN}), "dt"),
    ("t_final", lambda: EvolutionConfig(**CONFIG, t_final=NAN), "t_final"),
    ("t_final-inf", lambda: EvolutionConfig(**CONFIG, t_final=math.inf), "t_final"),
    ("amplitude", lambda: EvolutionConfig(**CONFIG, perturbation_amplitude=NAN), "perturbation_amplitude"),
    ("amplitude-inf", lambda: EvolutionConfig(**CONFIG, perturbation_amplitude=math.inf), "perturbation_amplitude"),
    ("seed_sigma", lambda: EvolutionConfig(**{**CONFIG, "seed_sigma": NAN}), "seed_sigma"),
    ("delta", lambda: check_delta(NAN), "delta"),
    ("delta-inf", lambda: check_delta(math.inf), "delta"),
    ("sigma", lambda: critical_modes(ROLL, NAN), "sigma"),
    ("sigma_hat", lambda: mgl.compare_exact_vs_mgl(ROLL, [NAN]), "sigma_hat"),
    ("mgl_dispersion_matrix", lambda: mgl.mgl_dispersion_matrix(MGL, NAN), "sigma_hat"),
    ("mgl_dispersion_matrix-inf", lambda: mgl.mgl_dispersion_matrix(MGL, math.inf), "sigma_hat"),
    ("leading_reduced_matrix", lambda: dsp.leading_reduced_matrix(ROLL.params, NAN), "sigma"),
    ("leading_reduced_matrix-inf", lambda: dsp.leading_reduced_matrix(ROLL.params, math.inf), "sigma"),
    ("cubic_coefficients", lambda: dsp.cubic_coefficients(ROLL.params, NAN), "sigma"),
    ("cubic_coefficients-inf", lambda: dsp.cubic_coefficients(ROLL.params, -math.inf), "sigma"),
]


@pytest.mark.parametrize("call,param", [c[1:] for c in NON_FINITE], ids=[c[0] for c in NON_FINITE])
def test_library_checks_reject_non_finite_values(call, param):
    with pytest.raises(OutOfRange) as info:
        call()
    assert info.value.param == param
