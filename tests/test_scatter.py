import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from plasmonqed.core import (
    EmitterParams,
    PulseShape,
    TimeSeries,
    gaussian_spectrum,
    params_from_purcell,
)
from plasmonqed.scatter import (
    pulse_averaged_rt,
    scatter_point,
    scatter_spectrum,
)

P20 = params_from_purcell(20.0)


def test_resonant_reflection_p20():
    """On resonance r = -P/(1+P); for P=20 that is R = (20/21)^2."""
    pt = scatter_point(P20, 0.0)
    assert pt.r == pytest.approx(-20.0 / 21.0, abs=1e-15)
    assert pt.reflectance == pytest.approx(400.0 / 441.0, abs=1e-15)
    assert pt.transmittance == pytest.approx(1.0 / 441.0, abs=1e-15)
    assert pt.loss == pytest.approx(40.0 / 441.0, abs=1e-12)


def test_transmission_is_one_plus_r():
    for delta in (-3.0, -0.2, 0.0, 0.7, 5.0):
        pt = scatter_point(P20, delta)
        assert pt.t == pytest.approx(1.0 + pt.r, abs=1e-15)


def test_lorentzian_half_width():
    r0 = scatter_point(P20, 0.0).reflectance
    for sign in (-1.0, 1.0):
        half = scatter_point(P20, sign * 0.5).reflectance
        assert half == pytest.approx(r0 / 2.0, rel=1e-12)


def test_perfect_mirror_limit():
    p = EmitterParams(1.0, 0.0)
    pt = scatter_point(p, 0.0)
    assert pt.reflectance == pytest.approx(1.0, abs=1e-15)
    assert abs(pt.t) < 1e-15
    assert pt.loss == pytest.approx(0.0, abs=1e-15)


def test_decoupled_emitter_never_reflects():
    p = EmitterParams(0.0, 1.0)
    for delta in (0.0, 1.0, -4.0):
        pt = scatter_point(p, delta)
        assert pt.reflectance == 0.0
        assert pt.transmittance == pytest.approx(1.0)


@given(st.floats(0.01, 1e3), st.floats(-20.0, 20.0))
def test_loss_identity(purcell, delta):
    """1 - R - T = 2R/P at every detuning and Purcell factor."""
    pt = scatter_point(params_from_purcell(purcell), delta)
    kappa = 1.0 - pt.reflectance - pt.transmittance
    assert kappa == pytest.approx(2.0 * pt.reflectance / purcell, abs=1e-12)


@given(st.floats(0.01, 1e3))
def test_resonant_reflectance_closed_form(purcell):
    pt = scatter_point(params_from_purcell(purcell), 0.0)
    assert pt.reflectance == pytest.approx((1.0 + 1.0 / purcell) ** -2,
                                           rel=1e-12)


def test_scatter_point_uses_params_delta():
    p = params_from_purcell(20.0, delta=0.5)
    assert scatter_point(p).r == scatter_point(p, 0.5).r


def test_scatter_spectrum_orders_points():
    deltas = np.linspace(-2.0, 2.0, 41)
    spectrum = scatter_spectrum(P20, deltas)
    assert list(spectrum.delta) == pytest.approx(list(deltas))


@given(st.one_of(st.sampled_from([0.0, math.inf]), st.floats(1e-3, 1e4)),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_scatter_spectrum_is_scatter_point_on_the_array(purcell, deltas):
    """One array expression: the sum rule and kappa = 2R/P hold at every
    detuning, and each element is scatter_point at that scalar detuning."""
    spectrum = scatter_spectrum(params_from_purcell(purcell), deltas)
    total = spectrum.reflectance + spectrum.transmittance + spectrum.loss
    assert np.max(np.abs(total - 1.0)) <= 1e-15
    coupling = 2.0 * spectrum.reflectance / purcell if purcell > 0 else 0.0
    assert np.max(np.abs(spectrum.loss - coupling)) <= 1e-12
    for i, delta in enumerate(deltas):
        pt = scatter_point(params_from_purcell(purcell), delta)
        assert spectrum.delta[i] == delta
        for field in ("r", "t", "reflectance", "transmittance", "loss"):
            got = getattr(spectrum, field)[i]
            assert abs(got - getattr(pt, field)) <= 1e-15, field


def test_scatter_spectrum_rejects_empty():
    with pytest.raises(ValueError):
        scatter_spectrum(P20, [])


class TestPulseAverage:
    def test_gaussian_average_frozen_values(self):
        """Quadrature reference for the wavepacket simulations.

        Values pinned from adaptive quadrature at abs tol 1e-8; they obey
        T = 1 - (1 + 2/P) R exactly because the per-point identities survive
        the averaging.
        """
        r_bar, t_bar, k_bar = pulse_averaged_rt(P20, gaussian_spectrum(0.1))
        assert r_bar == pytest.approx(0.8744131733195056, abs=1e-8)
        assert t_bar == pytest.approx(0.03814550935672937, abs=1e-8)
        assert k_bar == pytest.approx(0.08744131733195068, abs=1e-8)
        assert k_bar == pytest.approx(2.0 * r_bar / 20.0, abs=1e-9)
        assert r_bar + t_bar + k_bar == pytest.approx(1.0, abs=1e-9)

    def test_narrowband_limit_matches_point(self):
        r_bar, t_bar, _ = pulse_averaged_rt(P20, gaussian_spectrum(0.001))
        pt = scatter_point(P20, 0.0)
        assert r_bar == pytest.approx(pt.reflectance, abs=1e-5)
        assert t_bar == pytest.approx(pt.transmittance, abs=1e-5)

    def test_single_sample_is_monochromatic(self):
        mono = PulseShape(TimeSeries(0.3, 1.0, np.ones(1, dtype=complex)))
        r_bar, t_bar, k_bar = pulse_averaged_rt(P20, mono)
        pt = scatter_point(P20, 0.3)
        assert (r_bar, t_bar, k_bar) == pytest.approx(
            (pt.reflectance, pt.transmittance, pt.loss))

    def test_detuned_spectrum(self):
        r_bar, _, _ = pulse_averaged_rt(P20, gaussian_spectrum(0.05, center=2.0))
        # reflectance near the point value at delta = 2
        assert r_bar == pytest.approx(scatter_point(P20, 2.0).reflectance,
                                      rel=2e-2)

    @pytest.mark.parametrize("purcell", [0.5, 20.0, 200.0])
    def test_matches_gauss_legendre_integral(self, purcell):
        """The sample sum against an independent integral of the analytic
        Gaussian: R = gamma_pl^2/(Gamma^2 + 4 d^2) and
        T = (gamma'^2 + 4 d^2)/(Gamma^2 + 4 d^2) against the normal density,
        by 400-node Gauss-Legendre on each of 16 panels of the +-8 sigma
        window (the window's tails hold 1.2e-15 of the density)."""
        params = params_from_purcell(purcell)
        nodes, node_weights = np.polynomial.legendre.leggauss(400)
        for sigma in (0.05, 0.1, 1.0):
            for center in (0.0, 1.3):
                edges = center + sigma * np.linspace(-8.0, 8.0, 17)
                half = 0.5 * np.diff(edges)
                d = ((edges[:-1] + half)[:, None] + half[:, None] * nodes).ravel()
                w = (half[:, None] * node_weights).ravel()
                w *= np.exp(-0.5 * ((d - center) / sigma) ** 2)
                w /= sigma * math.sqrt(2.0 * math.pi)
                lorentz = params.gamma_total**2 + 4.0 * d**2
                refl = params.gamma_pl**2 / lorentz
                trans = (params.gamma_prime**2 + 4.0 * d**2) / lorentz
                expected = (w @ refl, w @ trans, w @ (1.0 - refl - trans))
                for n_samples in (1601, 1600):
                    got = pulse_averaged_rt(params, gaussian_spectrum(
                        sigma, center=center, n_samples=n_samples))
                    assert np.max(np.abs(np.subtract(got, expected))) <= 1e-12

    def test_requires_unit_norm(self):
        samples = gaussian_spectrum(0.1).samples
        # a hand-built pulse of norm 1 needs no label
        assert pulse_averaged_rt(P20, PulseShape(samples)) == pulse_averaged_rt(
            P20, gaussian_spectrum(0.1))
        with_nan = samples.values.copy()
        with_nan[800] = np.nan
        for values in (2.0 * samples.values, with_nan):
            with pytest.raises(ValueError,
                               match="^spectrum must be unit-normalized"):
                pulse_averaged_rt(P20, PulseShape(
                    TimeSeries(samples.t0, samples.dt, values)))
