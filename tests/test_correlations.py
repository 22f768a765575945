import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from plasmonqed.bloch import PropagatorFamily, steady_state
from plasmonqed.core import InvariantViolation, params_from_purcell
from plasmonqed.correlations import (
    G2Curve,
    antibunching_time,
    g2,
    g2_value,
    g2_weakfield_analytic,
    jump_state,
)

TIMES = np.linspace(0.0, 10.0, 2001)


def weak_params(purcell, omega=1e-3):
    return params_from_purcell(purcell, omega_c=omega)


class TestWeakFieldLimit:
    @pytest.mark.parametrize("purcell", [0.6, 1.0, 1.5, 2.0])
    def test_regression_matches_closed_form(self, purcell):
        """sup |num - ana| / (1 + ana) shrinks with the drive.

        At omega = 1e-3 the residual is O((1+P)^2 omega^2); it measures
        3.7e-4 at P = 2, 2.7x under the bound used here.
        """
        num = g2(weak_params(purcell), "transmitted", TIMES).values
        ana = g2_weakfield_analytic(purcell, TIMES)
        sup = np.max(np.abs(num - ana) / (1.0 + ana))
        assert sup < 1e-3

    @pytest.mark.parametrize("purcell", [1.0, 2.0])
    def test_residual_scales_as_drive_squared(self, purcell):
        ana0 = g2_weakfield_analytic(purcell, 0.0)
        scaled = [
            (g2_value(weak_params(purcell, w), "transmitted", 0.0) - ana0) / w**2
            for w in (0.01, 0.005)
        ]
        assert scaled[0] == pytest.approx(scaled[1], rel=2e-2)

    def test_bunching_peak_at_zero_delay(self):
        # transmitted photons through a good mirror bunch enormously:
        # g2(0) -> (P^2 - 1)^2
        value = g2_value(weak_params(2.0, 1e-4), "transmitted", 0.0)
        assert value == pytest.approx(9.0, rel=1e-3)

    def test_closed_form_is_stable_at_long_delays(self):
        for purcell in (0.6, 2.0, 20.0):
            late = g2_weakfield_analytic(purcell, np.array([1e3, 1e6]))
            assert np.all(np.isfinite(late))
            assert late == pytest.approx(1.0, abs=1e-15)
            # e^{-t} (P^2 - e^{t/2})^2 is the same function until it overflows
            times = np.linspace(0.0, 40.0, 401)
            direct = np.exp(-times) * (purcell**2 - np.exp(times / 2.0)) ** 2
            assert g2_weakfield_analytic(purcell, times) == pytest.approx(
                direct, rel=1e-12, abs=1e-12)

    def test_large_purcell_growth(self):
        assert g2_weakfield_analytic(100.0, 0.0) / 100.0**4 == pytest.approx(
            1.0, abs=1e-3)

    def test_dip_position(self):
        p = weak_params(1.5, 0.01)
        t0 = antibunching_time(1.5)
        result = minimize_scalar(
            lambda t: g2_value(p, "transmitted", t),
            bracket=(t0 - 0.3, t0, t0 + 0.3), method="brent",
            options={"xtol": 1e-10})
        assert abs(result.x - t0) < 0.02

    @pytest.mark.parametrize("branch", ["transmitted", "reflected"])
    def test_value_is_the_curve_at_that_delay(self, branch):
        p = params_from_purcell(20.0, omega_c=0.01)
        curve = g2(p, branch, np.linspace(0.0, 10.0, 401))
        for t, value in zip(curve.times, curve.values):
            assert abs(g2_value(p, branch, t) - value) <= 1e-15, t

    def test_long_delay_decorrelates(self):
        value = g2_value(params_from_purcell(20.0, omega_c=0.3),
                         "transmitted", 60.0)
        assert value == pytest.approx(1.0, abs=1e-6)


class TestAntibunchingTime:
    def test_values(self):
        assert antibunching_time(2.0) == pytest.approx(4.0 * math.log(2.0))
        assert antibunching_time(1.0) == 0.0
        assert antibunching_time(0.6) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            antibunching_time(0.0)

    def test_closed_form_vanishes_there(self):
        for purcell in (1.3, 2.0, 5.0):
            t0 = antibunching_time(purcell)
            assert g2_weakfield_analytic(purcell, t0) == pytest.approx(0.0,
                                                                       abs=1e-20)


class TestStrongDrive:
    def test_transmitted_g2_flattens(self):
        # the coherent drive dominates the emitter contribution, so the
        # normalized correlation pins to 1
        p = params_from_purcell(20.0, omega_c=10.0)
        curve = g2(p, "transmitted", np.linspace(0.0, 10.0, 401))
        assert np.all(curve.values > 0.9)
        assert np.all(curve.values < 1.1)

    def test_drive_beyond_double_precision_is_rejected(self):
        """eps * 2 omega_c above 1e-3 Gamma swamps the decay at rate ~Gamma.

        At P = 0.6 and omega_c = 1e16 the curve used to fall from 1 to
        0.0067 by t = 10, where it stays near 1; omega_c = 1e12 still runs.
        """
        times = np.linspace(0.0, 10.0, 5)
        for omega in (1e13, 1e16):
            with pytest.raises(InvariantViolation) as exc:
                g2(params_from_purcell(0.6, omega_c=omega), "transmitted",
                   times)
            assert exc.value.invariant == "g2-drive-precision"
        curve = g2(params_from_purcell(0.6, omega_c=1e12), "transmitted",
                   times)
        assert np.max(np.abs(curve.values - 1.0)) < 1e-6


class TestReflectedBranch:
    def test_perfect_antibunching_at_zero_delay(self):
        p = params_from_purcell(20.0, omega_c=0.3)
        assert g2_value(p, "reflected", 0.0) <= 1e-10

    def test_jump_state_is_ground(self):
        state = jump_state(params_from_purcell(20.0, omega_c=0.5), "reflected")
        assert np.allclose(state.rho_jump, np.diag([1.0, 0.0]), atol=1e-14)
        assert state.amplitude_ratio == 0.0

    def test_curve_is_reexcitation_from_ground(self):
        # after a reflected click the emitter restarts from |g>, so g2(t) is
        # just the re-excitation curve rho_ee(t | g) over its stationary value
        p = params_from_purcell(5.0, omega_c=0.4)
        times = np.linspace(0.0, 8.0, 81)
        curve = g2(p, "reflected", times)
        rho_ss = steady_state(p)
        ground = np.diag([1.0, 0.0]).astype(complex)
        # rho_ee is vec index 3
        evolved = PropagatorFamily(p).matrix(times) @ ground.reshape(4)
        expected = evolved[:, 3].real / rho_ss[1, 1].real
        assert np.max(np.abs(curve.values - expected)) < 1e-12


class TestJumpState:
    @pytest.mark.parametrize("purcell,omega", [(20.0, 1e-3), (5.0, 0.1),
                                               (2.0, 0.5)])
    def test_transmitted_ratios_closed_form(self, purcell, omega):
        """Post-click coherence and mean-field enhancement factors.

        For gamma_total = 1, gamma_prime = 1/(1+P) and x2 = 8 omega^2:
            <sigma_ge>_jump / <sigma_ge>_ss = gamma_prime (1 + x2)
                                              / (gamma_prime^2 + x2)
            <a_T>_jump / <a_T>_ss = (1 - gamma_pl gamma_prime
                                        / (gamma_prime^2 + x2))
                                    / (1 - gamma_pl / (1 + x2))
        Both reduce to 1 + P and -(P^2 - 1) as the drive vanishes.
        """
        p = params_from_purcell(purcell, omega_c=omega)
        state = jump_state(p, "transmitted")
        rho_ss = steady_state(p)
        sigma_ge = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        coh = (complex(np.trace(state.rho_jump @ sigma_ge))
               / complex(np.trace(rho_ss @ sigma_ge)))
        x2 = 8.0 * omega**2
        gp = p.gamma_prime
        coh_exact = gp * (1.0 + x2) / (gp**2 + x2)
        amp_exact = ((1.0 - p.gamma_pl * gp / (gp**2 + x2))
                     / (1.0 - p.gamma_pl / (1.0 + x2)))
        assert coh == pytest.approx(coh_exact, rel=1e-10)
        assert state.amplitude_ratio == pytest.approx(amp_exact, rel=1e-10)

    def test_weak_drive_limits(self):
        p = params_from_purcell(20.0, omega_c=1e-6)
        state = jump_state(p, "transmitted")
        rho_ss = steady_state(p)
        sigma_ge = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        coh = (complex(np.trace(state.rho_jump @ sigma_ge))
               / complex(np.trace(rho_ss @ sigma_ge)))
        assert coh == pytest.approx(21.0, rel=1e-5)
        assert state.amplitude_ratio == pytest.approx(-399.0, rel=1e-5)

    def test_jump_state_is_valid(self):
        state = jump_state(params_from_purcell(2.0, omega_c=0.7), "transmitted")
        assert np.trace(state.rho_jump).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(state.rho_jump)[0] > -1e-12

    def test_undriven_reflected_click_impossible(self):
        with pytest.raises(ValueError, match="zero detection"):
            jump_state(params_from_purcell(20.0), "reflected")


def resonance_fluorescence_g2(omega, t):
    """Kimble & Mandel (1976) resonant g2 of a driven two-level emitter.

    Times in 1/Gamma; mu = sqrt((2 omega)^2 - 1/16) turns imaginary below
    omega = 1/8, where the oscillation becomes a second decay rate.
    """
    mu2 = (2.0 * omega) ** 2 - 1.0 / 16.0
    decay = np.exp(-0.75 * t)
    if mu2 > 0.0:
        mu = math.sqrt(mu2)
        return 1.0 - decay * (np.cos(mu * t) + 0.75 / mu * np.sin(mu * t))
    if mu2 < 0.0:
        kappa = math.sqrt(-mu2)
        return 1.0 - decay * (np.cosh(kappa * t)
                              + 0.75 / kappa * np.sinh(kappa * t))
    return 1.0 - decay * (1.0 + 0.75 * t)


class TestReflectedClosedForm:
    @pytest.mark.parametrize("omega", [1e-3, 0.05, 0.125, 0.2, 1.0, 5.0])
    @pytest.mark.parametrize("purcell", [0.5, 5.0, 20.0, 200.0])
    def test_matches_resonance_fluorescence(self, purcell, omega):
        """The reflected field is proportional to sigma_ge at every drive.

        omega = 0.125 is the exceptional point mu = 0, where the propagator
        family falls back to the matrix exponential.
        """
        times = np.linspace(0.0, 20.0, 401)
        curve = g2(params_from_purcell(purcell, omega_c=omega), "reflected",
                   times)
        expected = resonance_fluorescence_g2(omega, times)
        assert np.max(np.abs(curve.values - expected)) <= 1e-12


class TestCurveValidation:
    def test_rejects_undriven_emitter(self):
        with pytest.raises(ValueError, match="omega_c"):
            g2(params_from_purcell(20.0), "transmitted", TIMES)

    def test_rejects_negative_values(self):
        times = np.array([0.0, 1.0, 2.0])
        with pytest.raises(InvariantViolation) as exc:
            G2Curve(times, np.array([0.1, -1e-6, 0.2]), "transmitted")
        assert exc.value.invariant == "g2-negativity"

    def test_clips_rounding_noise_to_zero(self):
        times = np.array([0.0, 1.0, 2.0])
        curve = G2Curve(times, np.array([0.1, -1e-12, 0.2]), "transmitted")
        assert curve.values[1] == 0.0

    def test_nonuniform_times_match_g2_value(self):
        """g2 is evaluated at exactly the given delays, at any spacing."""
        p = params_from_purcell(20.0, omega_c=0.3)
        times = np.array([0.0, 0.1, 0.3, 2.0, 2.05, 7.5])
        curve = g2(p, "transmitted", times)
        np.testing.assert_array_equal(curve.times, times)
        expected = [g2_value(p, "transmitted", t) for t in times]
        np.testing.assert_allclose(curve.values, expected, rtol=0.0,
                                   atol=1e-15)

    def test_rejects_negative_times(self):
        p = params_from_purcell(20.0, omega_c=0.3)
        with pytest.raises(ValueError):
            g2(p, "transmitted", np.array([-1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("omega", [0.3, 0.125])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_times(self, omega, bad):
        # the input is at fault, not the g2 postcondition; omega = 0.125 is
        # the exceptional point's fallback
        p = params_from_purcell(20.0, omega_c=omega)
        with pytest.raises(ValueError, match="propagation time must be >= 0"):
            g2_value(p, "reflected", bad)
        with pytest.raises(ValueError, match="propagation time must be >= 0"):
            g2(p, "reflected", np.array([0.0, bad]))
