import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from plasmonqed.bloch import (
    PropagatorFamily,
    SIGMA_EG,
    SIGMA_GE,
    field_observables,
    field_operator,
    hamiltonian,
    liouvillian,
    saturation_closed_form,
    steady_state,
)
from plasmonqed.core import (
    EmitterParams,
    params_from_purcell,
)
from plasmonqed.scatter import scatter_point


def lindblad_rhs(params, rho):
    """Master-equation right-hand side written out directly.

    Independent of the vectorized generator, so it cross-checks the kron
    ordering in liouvillian().
    """
    h = hamiltonian(params)
    g = params.gamma_total
    cdc = SIGMA_EG @ SIGMA_GE
    return (-1j * (h @ rho - rho @ h)
            + g * (SIGMA_GE @ rho @ SIGMA_EG
                   - 0.5 * (cdc @ rho + rho @ cdc)))


def trace_defects(stack):
    """Worst-case trace change of each map exp(L t) over normalized inputs.

    The trace functional in vec form is the row (1, 0, 0, 1); a trace
    preserving map leaves it invariant under right action.
    """
    trace_row = np.array([1.0, 0.0, 0.0, 1.0])
    return np.max(np.abs(trace_row @ stack - trace_row), axis=-1)


def choi_min_eigenvalues(stack):
    """Smallest eigenvalue of each map's Choi matrix (>= 0 for a CP map)."""
    lead = stack.shape[:-2]
    choi = stack.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -2) \
        .reshape(lead + (4, 4))
    choi = 0.5 * (choi + choi.conj().swapaxes(-1, -2))
    return np.linalg.eigvalsh(choi)[..., 0]


class TestSteadyState:
    def test_excited_population_closed_form(self):
        for purcell, omega, delta in [(20.0, 0.3, 0.0), (2.0, 1.0, 0.7),
                                      (0.5, 0.05, -2.0)]:
            p = params_from_purcell(purcell, omega_c=omega, delta=delta)
            rho = steady_state(p)
            expected = omega**2 / (0.25 + delta**2 + 2.0 * omega**2)
            assert rho[1, 1].real == pytest.approx(expected, abs=1e-12)

    def test_rhs_vanishes(self):
        p = params_from_purcell(20.0, omega_c=0.8, delta=0.4)
        rho = steady_state(p)
        assert np.max(np.abs(lindblad_rhs(p, rho))) < 1e-10

    @pytest.mark.parametrize("omega", [1e-100, 1e-12, 1e-3, 0.8, 1e3])
    @pytest.mark.parametrize("delta", [0.0, 0.4, -3.0])
    def test_rhs_vanishes_relative_to_each_element(self, omega, delta):
        # each element vanishes to rounding of its largest term: Gamma
        # rho_ee and omega |rho_eg| for the populations, which fall as
        # omega^2 at weak drive, and |Gamma/2 - i delta| |rho_eg| and omega
        # for the coherence, which fall as omega
        p = params_from_purcell(20.0, omega_c=omega, delta=delta)
        rho = steady_state(p)
        rhs = lindblad_rhs(p, rho)
        coherence = abs(rho[1, 0])
        population_scale = rho[1, 1].real + omega * coherence
        coherence_scale = math.hypot(0.5, delta) * coherence + omega
        assert abs(rhs[1, 1]) <= 1e-14 * population_scale
        assert abs(rhs[0, 0]) <= 1e-14 * population_scale
        assert abs(rhs[1, 0]) <= 1e-14 * coherence_scale
        assert rho[0, 1] == rho[1, 0].conjugate()

    @pytest.mark.parametrize("purcell", [0.5, 20.0, math.inf])
    @pytest.mark.parametrize("delta", [0.0, 0.7, -2.0])
    def test_matches_null_space_of_liouvillian(self, purcell, delta):
        for omega in np.geomspace(1e-3, 10.0, 17):
            p = params_from_purcell(purcell, omega_c=omega, delta=delta)
            null = scipy.linalg.null_space(liouvillian(p))
            assert null.shape == (4, 1)
            reference = null[:, 0].reshape(2, 2)
            reference = reference / np.trace(reference)
            assert np.max(np.abs(steady_state(p) - reference)) <= 1e-12, omega

    def test_extreme_drive_stays_finite(self):
        # omega_c^2 and (1 + 2 s^2)(Gamma/2 - i delta) would overflow here
        rho = steady_state(params_from_purcell(20.0, omega_c=1e300,
                                               delta=1e-3))
        assert np.all(np.isfinite(rho))
        assert rho[1, 1].real == 0.5
        # s/(1 + 2 s^2) -> 1/(2 s) = |Gamma/2 - i delta|/(2 omega_c)
        assert abs(rho[1, 0]) == pytest.approx(
            math.hypot(0.5, 1e-3) / 2e300, rel=1e-12, abs=0.0)

    def test_weak_drive_coherence_sign(self):
        # resonant coherence must be +2i omega / gamma at weak drive
        p = params_from_purcell(20.0, omega_c=1e-4)
        rho = steady_state(p)
        assert complex(np.trace(rho @ SIGMA_GE)) == pytest.approx(2e-4j, rel=1e-3)

    def test_undriven_emitter_relaxes_to_ground(self):
        rho = steady_state(params_from_purcell(20.0))
        assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_is_valid_density_matrix(self):
        # weak, strong and detuned drive
        for omega_c, delta in [(1e-3, 0.0), (3.0, 0.0), (3.0, 1.0)]:
            rho = steady_state(params_from_purcell(5.0, omega_c=omega_c,
                                                   delta=delta))
            assert np.array_equal(rho, rho.conj().T)
            assert abs(np.trace(rho) - 1.0) <= 1e-15
            # det rho = s^4/(1 + 2 s^2)^2, s = omega_c/|Gamma/2 - i delta|
            s2 = omega_c**2 / (0.25 + delta**2)
            det = (rho[0, 0] * rho[1, 1] - abs(rho[0, 1]) ** 2).real
            assert det >= 0.0
            assert det == pytest.approx(s2**2 / (1.0 + 2.0 * s2) ** 2,
                                        rel=1e-9)

    def test_rejects_zero_linewidth(self):
        with pytest.raises(ValueError, match="total decay rate"):
            EmitterParams(0.0, 0.0, omega_c=1.0)


class TestPropagator:
    def test_matches_expm(self):
        p = params_from_purcell(20.0, omega_c=0.7, delta=0.4)
        t = 2.3
        direct = scipy.linalg.expm(liouvillian(p) * t)
        assert np.max(np.abs(PropagatorFamily(p).matrix(t) - direct)) < 1e-12

    def test_semigroup_property(self):
        p = params_from_purcell(20.0, omega_c=0.7, delta=0.4)
        fam = PropagatorFamily(p)
        combined = fam.matrix(1.1 + 2.6)
        composed = fam.matrix(1.1) @ fam.matrix(2.6)
        assert np.max(np.abs(combined - composed)) < 1e-10

    def test_relaxation_to_steady_state(self):
        p = params_from_purcell(20.0, omega_c=0.5, delta=0.2)
        excited = np.diag([0.0, 1.0]).astype(complex)
        final = PropagatorFamily(p).matrix(60.0) @ excited.reshape(4)
        assert np.max(np.abs(final.reshape(2, 2) - steady_state(p))) < 1e-8

    def test_trace_and_positivity_spot_check(self):
        p = params_from_purcell(20.0, omega_c=1.0, delta=0.3)
        stack = PropagatorFamily(p).matrix(2.7)
        assert trace_defects(stack) < 1e-12
        assert choi_min_eigenvalues(stack) > -1e-12

    def test_rejects_negative_time(self):
        fam = PropagatorFamily(params_from_purcell(20.0, omega_c=1.0))
        with pytest.raises(ValueError):
            fam.matrix(-0.1)

    @pytest.mark.parametrize("omega, delta", [(0.7, 0.4), (0.125, 0.0)])
    def test_array_of_times_is_the_stack_of_scalar_calls(self, omega, delta):
        # omega = 0.125 on resonance is the exceptional point's fallback
        fam = PropagatorFamily(params_from_purcell(20.0, omega_c=omega,
                                                   delta=delta))
        assert fam.diagonalizable == (omega != 0.125)
        times = np.linspace(0.0, 20.0, 41)
        stack = fam.matrix(times)
        assert stack.shape == (41, 4, 4)
        assert np.array_equal(stack, [fam.matrix(t) for t in times])

    def test_array_with_a_negative_time_is_rejected(self):
        fam = PropagatorFamily(params_from_purcell(20.0, omega_c=1.0))
        with pytest.raises(ValueError):
            fam.matrix(np.array([0.0, 1.0, -0.1, 2.0]))

    @pytest.mark.parametrize("omega", [1.0, 0.125])
    @pytest.mark.parametrize("t", [math.nan, math.inf,
                                   [0.0, 1.0, math.nan, 2.0],
                                   [0.0, math.inf, 2.0]])
    def test_non_finite_time_is_rejected(self, omega, t):
        # omega = 0.125 on resonance is the exceptional point's fallback
        fam = PropagatorFamily(params_from_purcell(20.0, omega_c=omega))
        assert fam.diagonalizable == (omega != 0.125)
        with pytest.raises(ValueError,
                           match="propagation time must be >= 0"):
            fam.matrix(t)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 100.0), st.floats(0.0, 10.0),
           st.floats(-5.0, 5.0), st.floats(0.0, 20.0))
    def test_channel_everywhere(self, purcell, omega, delta, t):
        """exp(L t) is trace preserving and completely positive.

        The bound is loose enough to stay meaningful near the exceptional
        point of the generator (omega ~ gamma/8 on resonance), where the
        eigenvector basis is nearly defective and the spectral path hands
        off to scaling-and-squaring.
        """
        p = params_from_purcell(purcell, omega_c=omega, delta=delta)
        stack = PropagatorFamily(p).matrix(t)
        assert trace_defects(stack) < 1e-7
        assert choi_min_eigenvalues(stack) > -1e-7

    def test_exceptional_point_fallback(self):
        # on resonance the generator coalesces at omega = gamma/8; the
        # propagator must stay a quantum channel straight through it
        p = params_from_purcell(20.0, omega_c=0.125)
        fam = PropagatorFamily(p)
        assert not fam.diagonalizable
        stack = fam.matrix([0.5, 4.0, 17.0])
        assert np.all(trace_defects(stack) < 1e-9)
        assert np.all(choi_min_eigenvalues(stack) > -1e-9)
        combined = fam.matrix(3.0)
        composed = fam.matrix(1.0) @ fam.matrix(2.0)
        assert np.max(np.abs(combined - composed)) < 1e-9

    @pytest.mark.parametrize("purcell", [0.5, 20.0, 200.0])
    def test_exceptional_point_matches_expm(self, purcell):
        fam = PropagatorFamily(params_from_purcell(purcell, omega_c=0.125))
        assert not fam.diagonalizable
        for t in np.linspace(0.0, 20.0, 81):
            direct = scipy.linalg.expm(fam.generator * t)
            assert np.max(np.abs(fam.matrix(t) - direct)) <= 1e-12, t


class TestFieldObservables:
    def test_flux_balance_random_params(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            purcell = float(rng.uniform(0.1, 50.0))
            omega = float(rng.uniform(0.01, 5.0))
            delta = float(rng.uniform(-3.0, 3.0))
            p = params_from_purcell(purcell, omega_c=omega, delta=delta)
            obs = field_observables(p, steady_state(p))
            total = obs.transmittance + obs.reflectance + obs.loss
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_weak_drive_reproduces_single_photon(self):
        for delta in (0.0, 0.5, -1.0):
            p = params_from_purcell(20.0, omega_c=1e-3, delta=delta)
            obs = field_observables(p, steady_state(p))
            pt = scatter_point(p, delta)
            assert obs.transmittance == pytest.approx(pt.transmittance, abs=1e-4)
            assert obs.reflectance == pytest.approx(pt.reflectance, abs=1e-4)
            assert obs.loss == pytest.approx(pt.loss, abs=1e-4)

    def test_weak_drive_mean_field_is_t_amplitude(self):
        p = params_from_purcell(20.0, omega_c=1e-3, delta=0.4)
        obs = field_observables(p, steady_state(p))
        pt = scatter_point(p, 0.4)
        assert obs.mean_transmitted / p.omega_c == pytest.approx(pt.t, abs=1e-3)
        assert obs.mean_reflected / p.omega_c == pytest.approx(pt.r, abs=1e-3)

    def test_requires_positive_drive(self):
        p = params_from_purcell(20.0)
        with pytest.raises(ValueError, match="omega_c"):
            field_observables(p, np.diag([1.0, 0.0]))

    def test_field_operator_unknown_branch(self):
        with pytest.raises(ValueError, match="branch"):
            field_operator(params_from_purcell(20.0, omega_c=1.0), "sideways")


class TestSaturation:
    def test_closed_form_matches_steady_state(self):
        for purcell in (0.5, 2.0, 20.0, 100.0):
            for omega in (1e-3, 0.1, 1.0, 10.0):
                p = params_from_purcell(purcell, omega_c=omega)
                obs = field_observables(p, steady_state(p))
                t_cf, r_cf = saturation_closed_form(purcell, omega)
                assert obs.transmittance == pytest.approx(t_cf, abs=1e-8)
                assert obs.reflectance == pytest.approx(r_cf, abs=1e-8)

    def test_reference_points(self):
        t_cf, _ = saturation_closed_form(20.0, 1.0)
        assert t_cf == pytest.approx(0.889141, abs=1e-6)
        t0, r0 = saturation_closed_form(20.0, 0.0)
        assert r0 == pytest.approx(0.907029, abs=1e-6)
        assert t0 == pytest.approx(1.0 / 441.0, abs=1e-12)
        t10, _ = saturation_closed_form(20.0, 10.0)
        assert t10 > 0.95

    def test_lossless_limit(self):
        t, r = saturation_closed_form(math.inf, 0.5)
        x2 = 8.0 * 0.25
        assert t == pytest.approx(x2 / (1 + x2))
        assert r == pytest.approx(1.0 / (1 + x2))
        assert saturation_closed_form(math.inf, 0.0) == (0.0, 1.0)

    def test_decoupled_transmits_everything(self):
        for omega in (0.0, 0.3, 5.0):
            t, r = saturation_closed_form(0.0, omega)
            assert t == pytest.approx(1.0)
            assert r == 0.0

    def test_rejects_negative_purcell(self):
        with pytest.raises(ValueError):
            saturation_closed_form(-1.0, 0.5)

    @pytest.mark.parametrize("omega", [2.3e152, 1e154])
    def test_drive_past_the_overflow_of_x2_saturates(self, omega):
        """(1+P)^2 8 omega^2 overflows here, while omega^2 does not: the
        closed form and the steady state both read T = 1, R ~ 0."""
        t_closed, r_closed = saturation_closed_form(20.0, omega)
        p = params_from_purcell(20.0, omega_c=omega)
        obs = field_observables(p, steady_state(p))
        assert t_closed == obs.transmittance == 1.0
        assert 0.0 <= r_closed < 1e-300
        assert 0.0 <= obs.reflectance < 1e-300

    def test_monotone_in_drive(self):
        omegas = np.linspace(0.0, 5.0, 41)
        ts = [saturation_closed_form(20.0, w)[0] for w in omegas]
        assert all(b >= a for a, b in zip(ts, ts[1:]))
