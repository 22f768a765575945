import gc
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from plasmonqed import storage
from plasmonqed.core import (
    FLUX_NORM,
    InvariantViolation,
    PulseShape,
    TimeSeries,
    gaussian_spectrum,
)
from plasmonqed.scatter import scatter_point
from plasmonqed.storage import (
    _TAYLOR_RADIUS,
    GainEstimate,
    ThreeLevelParams,
    control_for_target_pulse,
    generate_photon,
    matched_storage,
    run_transistor,
    store_photon,
    transistor_gain,
    _BLOCK,
    _affine_exp,
    _at_gauss_nodes,
    _cumulative,
    _derivative,
    _evolve,
    _scan_states,
    _taylor_degree,
)

PARAMS = ThreeLevelParams(20.0 / 21.0, 0.0, 1.0 / 21.0)
BOUND = PARAMS.gamma_pl / PARAMS.gamma_total  # 20/21


def matched_pair(duration, n_samples=2001):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return matched_storage(PARAMS, duration=duration, n_samples=n_samples)


def gaussian(duration, n_samples):
    """Unit-norm Gaussian on [0, duration], intensity rms duration/12: the
    shape matched_storage scales into its target."""
    return gaussian_spectrum(duration / 12.0, duration / 2.0, 6.0, n_samples)


def three_level(purcell, pumping_share, delta):
    """Rates at Purcell factor P, a share of the non-guided rate going to |s>."""
    other = 1.0 / (1.0 + purcell)
    return ThreeLevelParams(purcell / (1.0 + purcell),
                            other * (1.0 - pumping_share),
                            other * pumping_share, delta)


def l2_distance(a, b, dt):
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2)) * dt)


def reference_evolve(params, control, drive, c_s0):
    """[c_e, c_s, lost, out] by DOP853 over cubic splines of control and drive."""
    t = control.grid
    fields = CubicSpline(t, np.stack([control.values, drive], axis=1))
    decay = 1j * params.delta - params.gamma_total / 2.0
    root_pl = math.sqrt(params.gamma_pl)
    gamma_other = params.gamma_prime_g + params.gamma_es

    def rhs(time, y):
        c_e, c_s, _, _ = y
        om, field = fields(time)
        return [
            decay * c_e + 1j * om * c_s + root_pl * field,
            1j * np.conj(om) * c_e,
            gamma_other * abs(c_e) ** 2,
            abs(field - root_pl * c_e) ** 2,
        ]

    sol = solve_ivp(
        rhs, (t[0], t[-1]), np.array([0.0, c_s0, 0.0, 0.0], dtype=complex),
        method="DOP853", rtol=1e-10, atol=1e-12, t_eval=t,
        max_step=(t[-1] - t[0]) / 50.0)
    assert sol.success, sol.message
    return sol.y


def reference_control(params, target):
    """Closed-form inversion with cubic-spline derivative and integrals."""
    t = target.samples.grid
    gamma = params.gamma_total
    c_e = target.samples.values / math.sqrt(params.gamma_pl)
    intensity = np.abs(c_e) ** 2
    cs2 = 1.0 - intensity - gamma * CubicSpline(
        t, intensity).antiderivative()(t)
    guarded = np.flatnonzero(cs2 <= 1e-12)
    stop = int(guarded[0]) if guarded.size else len(t)
    numerator = (CubicSpline(t, c_e).derivative()(t)
                 + (gamma / 2.0 - 1j * params.delta) * c_e)[:stop]
    cs2 = cs2[:stop]
    phase_rate = -np.imag(np.conj(numerator) * c_e[:stop]) / cs2
    phase = CubicSpline(t[:stop], phase_rate).antiderivative()(t[:stop])
    omega = np.zeros(len(t), dtype=complex)
    omega[:stop] = numerator / (1j * np.sqrt(cs2) * np.exp(1j * phase))
    return omega


class TestThreeLevelParams:
    def test_rate_properties(self):
        p = ThreeLevelParams(0.8, 0.1, 0.1)
        assert p.gamma_eg == pytest.approx(0.9)
        assert p.gamma_total == pytest.approx(1.0)
        assert p.as_two_level().purcell == pytest.approx(4.0)

    def test_purcell_counts_all_nonguided_channels(self):
        assert PARAMS.as_two_level().purcell == pytest.approx(20.0)
        assert ThreeLevelParams(1.0, 0.0, 0.0).as_two_level().purcell \
            == math.inf

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            ThreeLevelParams(-0.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            ThreeLevelParams(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ThreeLevelParams(math.nan, 0.5, 0.5)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_detuning(self, delta):
        with pytest.raises(ValueError,
                           match=re.escape(f"delta must be finite, got {delta!r}")):
            ThreeLevelParams(20.0 / 21.0, 1.0 / 21.0, 0.0, delta=delta)

    def test_two_level_view(self):
        two = three_level(20.0, 0.5, 0.7).as_two_level()
        assert two.gamma_pl == pytest.approx(PARAMS.gamma_pl)
        assert two.gamma_prime == pytest.approx(1.0 / 21.0)
        assert two.omega_c == 0.0
        assert two.delta == 0.7
        assert two.purcell == pytest.approx(20.0)

    def test_two_level_view_lossless(self):
        two = ThreeLevelParams(1.0, 0.0, 0.0).as_two_level()
        assert two.gamma_prime == 0.0

    def test_with_control(self):
        control = PulseShape(TimeSeries(0.0, 0.1, np.ones(5, complex)),
                             FLUX_NORM)
        p = PARAMS.with_control(control)
        assert p.control is control
        assert p.gamma_pl == PARAMS.gamma_pl
        assert PARAMS.control is None


class TestGaussianTarget:
    """matched_storage's Gaussian: centred, intensity rms duration/12."""

    def test_unit_norm_and_center(self):
        matched = matched_pair(50.0, 4001)
        assert matched.input.squared_norm == pytest.approx(1.0, abs=1e-9)
        for pulse in (matched.input, matched.target):
            grid = pulse.samples.grid
            intensity = np.abs(pulse.samples.values) ** 2
            mean = np.sum(grid * intensity) / np.sum(intensity)
            assert mean == pytest.approx(25.0, abs=1e-9)

    def test_intensity_rms_width(self):
        pulse = matched_pair(60.0, 4001).target
        grid = pulse.samples.grid
        intensity = np.abs(pulse.samples.values) ** 2
        mean = np.sum(grid * intensity) / np.sum(intensity)
        var = np.sum((grid - mean) ** 2 * intensity) / np.sum(intensity)
        assert math.sqrt(var) == pytest.approx(5.0, rel=1e-3)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="^duration must be positive$"):
            matched_storage(PARAMS, duration=0.0)


class TestMatchedStorage:
    def test_slow_pulse_reaches_branching_bound(self):
        matched = matched_pair(50.0)
        outcome = store_photon(PARAMS, matched.input, matched.store_control)
        assert outcome.efficiency == pytest.approx(BOUND, rel=2e-2)
        # the feasibility margin costs 1e-4 in relative efficiency, no more
        assert outcome.efficiency == pytest.approx(BOUND, rel=2e-4)

    def test_control_reproduces_target_pulse(self):
        for duration in (2.0, 50.0):
            matched = matched_pair(duration)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                emitted, _ = generate_photon(
                    PARAMS.with_control(matched.generate_control),
                    matched.target.samples.grid)
            dt = matched.target.samples.dt
            l2 = math.sqrt(float(np.sum(np.abs(
                emitted.samples.values - matched.target.samples.values) ** 2))
                           * dt)
            assert l2 < 1e-3

    def test_storage_equals_emission_efficiency(self):
        """Time-reversal symmetry of the matched pair."""
        matched = matched_pair(10.0)
        outcome = store_photon(PARAMS, matched.input, matched.store_control)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            _, gen_eff = generate_photon(
                PARAMS.with_control(matched.generate_control),
                matched.target.samples.grid)
        assert outcome.efficiency == pytest.approx(gen_eff, abs=1e-6)
        assert outcome.efficiency == pytest.approx(
            matched.target.squared_norm, abs=1e-3)

    def test_detuned_round_trip(self):
        """A detuned target makes the control's phase integral nonzero."""
        params = ThreeLevelParams(PARAMS.gamma_pl, PARAMS.gamma_prime_g,
                                  PARAMS.gamma_es, delta=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            matched = matched_storage(params, duration=50.0, n_samples=4001)
            emitted, gen_eff = generate_photon(
                params.with_control(matched.generate_control),
                matched.target.samples.grid)
        outcome = store_photon(params, matched.input, matched.store_control)
        dt = matched.target.samples.dt
        l2 = math.sqrt(float(np.sum(np.abs(
            emitted.samples.values - matched.target.samples.values) ** 2))
                       * dt)
        assert l2 < 1e-3
        assert outcome.efficiency == pytest.approx(gen_eff, abs=1e-6)

    def test_efficiency_grows_with_duration(self):
        effs = [
            store_photon(PARAMS, m.input, m.store_control).efficiency
            for m in (matched_pair(t) for t in (0.5, 2.0, 10.0, 50.0))
        ]
        assert all(a < b for a, b in zip(effs, effs[1:]))
        assert effs[-1] == pytest.approx(BOUND, rel=2e-2)

    def test_input_is_time_reversed_target(self):
        matched = matched_pair(50.0)
        target = matched.target.normalized().samples.values
        assert np.allclose(matched.input.samples.values,
                           np.conj(target[::-1]), atol=1e-12)


class TestStorePhoton:
    def test_probability_bookkeeping(self):
        matched = matched_pair(10.0)
        outcome = store_photon(PARAMS, matched.input, matched.store_control)
        total = outcome.efficiency + outcome.leakage + outcome.loss
        assert total == pytest.approx(matched.input.squared_norm, abs=1e-6)
        assert outcome.loss > 0.0

    def test_single_sided_input_halves_efficiency(self):
        # splitting 1.0 puts half the power in the odd mode, which never
        # meets the emitter
        matched = matched_pair(50.0)
        both = store_photon(PARAMS, matched.input, matched.store_control)
        one = store_photon(PARAMS, matched.input, matched.store_control,
                           splitting=1.0)
        assert one.efficiency == pytest.approx(both.efficiency / 2.0,
                                               abs=1e-9)
        assert one.leakage > 0.5

    def test_splitting_symmetric_in_direction(self):
        matched = matched_pair(10.0)
        a = store_photon(PARAMS, matched.input, matched.store_control,
                         splitting=0.3)
        b = store_photon(PARAMS, matched.input, matched.store_control,
                         splitting=0.7)
        assert a.efficiency == pytest.approx(b.efficiency, abs=1e-12)

    def test_rejects_bad_splitting(self):
        matched = matched_pair(10.0)
        for s in (-0.1, 1.5):
            with pytest.raises(ValueError, match="splitting"):
                store_photon(PARAMS, matched.input, matched.store_control,
                             splitting=s)

    def test_rejects_mismatched_grids(self):
        matched = matched_pair(10.0)
        control = PulseShape(TimeSeries(0.0, 0.5, np.zeros(7, complex)),
                             FLUX_NORM)
        with pytest.raises(ValueError, match="time grid"):
            store_photon(PARAMS, matched.input, control)

    def test_amplitude_trajectories(self):
        matched = matched_pair(10.0)
        outcome = store_photon(PARAMS, matched.input, matched.store_control)
        c_e, c_s = outcome.amplitudes
        assert len(c_e) == len(matched.input.samples)
        assert abs(c_s.values[-1]) ** 2 == pytest.approx(outcome.efficiency,
                                                         abs=1e-12)
        assert abs(c_s.values[0]) < 1e-6


class TestGeneratePhoton:
    def test_requires_control(self):
        with pytest.raises(ValueError, match="control"):
            generate_photon(PARAMS, np.linspace(0.0, 10.0, 101))

    def test_emitted_norm_is_efficiency(self):
        matched = matched_pair(2.0)
        with pytest.warns(UserWarning, match="undepleted"):
            pulse, eff = generate_photon(
                PARAMS.with_control(matched.generate_control),
                matched.target.samples.grid)
        assert pulse.norm_convention == FLUX_NORM
        assert pulse.squared_norm == pytest.approx(eff, abs=1e-8)

    def test_matched_control_depletes_initial_state(self):
        matched = matched_pair(50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, eff = generate_photon(
                PARAMS.with_control(matched.generate_control),
                matched.target.samples.grid)
        assert eff == pytest.approx(BOUND, rel=2e-4)

    def test_rejects_nonuniform_grid(self):
        matched = matched_pair(2.0)
        p = PARAMS.with_control(matched.generate_control)
        grid = matched.generate_control.samples.grid
        for t_grid in (np.array([0.0, 0.5, 2.0]), grid + 1e-6,
                       np.linspace(grid[0], grid[-1], len(grid) + 1)):
            with pytest.raises(ValueError, match="time grid"):
                generate_photon(p, t_grid)

    def test_leaves_no_cyclic_garbage(self):
        """A store + generate pair frees everything by reference counting."""
        matched = matched_pair(10.0)
        gc.collect()
        gc.disable()
        try:
            store_photon(PARAMS, matched.input, matched.store_control)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                generate_photon(PARAMS.with_control(matched.generate_control),
                                matched.target.samples.grid)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0


class TestControlInversion:
    def test_rejects_norm_above_bound(self):
        shape = gaussian(50.0, 1001)
        over = PulseShape(
            TimeSeries(0.0, shape.samples.dt,
                       shape.samples.values * math.sqrt(0.96)), FLUX_NORM)
        with pytest.raises(ValueError, match="efficiency bound"):
            control_for_target_pulse(PARAMS, over)

    def test_rejects_pulse_faster_than_linewidth(self):
        # norm is feasible for a slow pulse, but emitting it within two
        # linewidths would need |c_e|^2 > 1: the inversion guard must fire
        shape = gaussian(2.0, 1001)
        fast = PulseShape(
            TimeSeries(0.0, shape.samples.dt,
                       shape.samples.values * math.sqrt(0.95 * BOUND)),
            FLUX_NORM)
        with pytest.raises(ValueError, match="unemitted"):
            control_for_target_pulse(PARAMS, fast)

    @pytest.mark.parametrize("n_samples", [2001, 4001])
    def test_rejects_undersampled_detuned_phase(self, n_samples):
        """The phase rate delta |c_e|^2/|c_s|^2 peaks as |c_s|^2 -> 1e-4."""
        params = ThreeLevelParams(PARAMS.gamma_pl, PARAMS.gamma_prime_g,
                                  PARAMS.gamma_es, delta=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            with pytest.raises(ValueError, match="undersampled") as exc:
                matched_storage(params, duration=10.0, n_samples=n_samples)
            named = int(re.search(r"at least (\d+) times",
                                  str(exc.value)).group(1))
            assert 4001 < named < 8001
            matched_storage(params, duration=10.0, n_samples=named)

    def test_resolved_detuned_phase_round_trips(self):
        params = ThreeLevelParams(PARAMS.gamma_pl, PARAMS.gamma_prime_g,
                                  PARAMS.gamma_es, delta=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            matched = matched_storage(params, duration=10.0, n_samples=8001)
            emitted, _ = generate_photon(
                params.with_control(matched.generate_control),
                matched.target.samples.grid)
        l2 = math.sqrt(float(np.sum(np.abs(
            emitted.samples.values - matched.target.samples.values) ** 2))
                       * matched.target.samples.dt)
        assert l2 < 1e-3

    def test_rejects_grid_too_short_for_stencils(self):
        short = PulseShape(TimeSeries(0.0, 0.1, np.full(3, 0.1 + 0j)),
                           FLUX_NORM)
        with pytest.raises(ValueError, match="too few"):
            control_for_target_pulse(PARAMS, short)
        with pytest.raises(ValueError, match="too few"):
            store_photon(PARAMS, short, short)
        with pytest.raises(ValueError, match="too few"):
            generate_photon(PARAMS.with_control(short), short.samples.grid)

    def test_four_samples_invert(self):
        target = PulseShape(TimeSeries(0.0, 0.1, np.full(4, 0.1 + 0j)),
                            FLUX_NORM)
        control = control_for_target_pulse(PARAMS, target)
        assert len(control.samples) == 4
        assert np.all(np.isfinite(control.samples.values))

    def test_rejects_decoupled_emitter(self):
        p = ThreeLevelParams(0.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="gamma_pl"):
            control_for_target_pulse(p, gaussian(10.0, 501))


class TestAgreesWithScipyReference:
    """Magnus propagation and finite-difference inversion against DOP853 and
    cubic-spline quadrature on the same samples."""

    @pytest.mark.parametrize("n_samples", [1501, 16001])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("rates", [(20.0, 1.0), (20.0, 0.3), (5.0, 0.5)])
    def test_matched_storage_at_duration_50(self, rates, delta, n_samples):
        params = three_level(*rates, delta)
        matched = matched_storage(params, duration=50.0, n_samples=n_samples)
        control = matched.generate_control.samples
        expected = reference_control(params, matched.target)
        assert (np.max(np.abs(control.values - expected))
                <= 1e-6 * np.max(np.abs(expected)))

        drive = matched.input.samples.values
        budget = matched.input.squared_norm
        for splitting in (0.5, 0.3):
            outcome = store_photon(params, matched.input,
                                   matched.store_control, splitting)
            even = 0.5 + math.sqrt(splitting * (1.0 - splitting))
            c_e, c_s, lost, out = reference_evolve(
                params, matched.store_control.samples,
                math.sqrt(even) * drive, 0.0)
            assert np.max(np.abs(outcome.amplitudes[0].values - c_e)) <= 1e-7
            assert np.max(np.abs(outcome.amplitudes[1].values - c_s)) <= 1e-7
            assert outcome.efficiency == pytest.approx(abs(c_s[-1]) ** 2,
                                                       abs=1e-7)
            assert outcome.loss == pytest.approx(lost[-1].real, abs=1e-7)
            leakage = (out[-1].real + abs(c_e[-1]) ** 2
                       + (1.0 - even) * budget)
            assert outcome.leakage == pytest.approx(leakage, abs=1e-7)

        pulse, efficiency = generate_photon(
            params.with_control(matched.generate_control), control.grid)
        c_e, _, _, out = reference_evolve(
            params, control, np.zeros(len(control), dtype=complex), 1.0)
        assert np.max(np.abs(pulse.samples.values
                             - math.sqrt(params.gamma_pl) * c_e)) <= 1e-7
        assert efficiency == pytest.approx(out[-1].real, abs=1e-7)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("rates", [(20.0, 1.0), (20.0, 0.3), (5.0, 0.5)])
    def test_control_end_samples_at_1501(self, rates, delta):
        """The two samples next to each end take the cubic end extension's
        derivative, within 1e-8 of the spline reference's peak."""
        params = three_level(*rates, delta)
        matched = matched_storage(params, duration=50.0, n_samples=1501)
        control = matched.generate_control.samples.values
        expected = reference_control(params, matched.target)
        ends = np.r_[0:2, -2:0]
        assert (np.max(np.abs(control[ends] - expected[ends]))
                <= 1e-8 * np.max(np.abs(expected)))

    def test_short_detuned_round_trip(self):
        """At duration 10 the control turns 1.86 rad per sample; the
        regenerated pulse may miss its target by at most 1.2 times the
        reference pipeline's miss."""
        params = three_level(20.0, 1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            matched = matched_storage(params, duration=10.0, n_samples=8001)
            grid = matched.target.samples.grid
            pulse, _ = generate_photon(
                params.with_control(matched.generate_control), grid)
        samples = matched.target.samples
        reference = TimeSeries(0.0, samples.dt,
                               reference_control(params, matched.target))
        c_e = reference_evolve(params, reference,
                               np.zeros(len(grid), dtype=complex), 1.0)[0]
        missed = l2_distance(pulse.samples.values, samples.values, samples.dt)
        reference_missed = l2_distance(math.sqrt(params.gamma_pl) * c_e,
                                       samples.values, samples.dt)
        assert missed <= 1.2 * reference_missed


class TestSampleRules:
    """The derivative, the running integral and the Gauss-node values on
    the cubic end extension."""

    COEFFS = (0.3 - 0.2j, -1.2 + 0.5j, 0.7, -0.25 + 0.1j)

    def cubic(self, t):
        a0, a1, a2, a3 = self.COEFFS
        return a0 + t * (a1 + t * (a2 + t * a3))

    @pytest.mark.parametrize("n", [4, 5, 9, 40])
    def test_derivative_exact_on_cubics(self, n):
        t, dt = np.linspace(-1.0, 2.0, n, retstep=True)
        _, a1, a2, a3 = self.COEFFS
        expected = a1 + t * (2.0 * a2 + t * 3.0 * a3)
        assert np.max(np.abs(_derivative(self.cubic(t), dt) - expected)) \
            <= 1e-12

    @pytest.mark.parametrize("n", [4, 5, 9, 40])
    def test_cumulative_exact_on_cubics(self, n):
        t, dt = np.linspace(-1.0, 2.0, n, retstep=True)
        a0, a1, a2, a3 = self.COEFFS

        def antiderivative(x):
            return x * (a0 + x * (a1 / 2.0 + x * (a2 / 3.0 + x * a3 / 4.0)))

        expected = antiderivative(t) - antiderivative(t[0])
        running = _cumulative(self.cubic(t), dt)
        assert running[0] == 0.0
        assert np.max(np.abs(running - expected)) <= 1e-12

    @pytest.mark.parametrize("f, first, tol", [
        # the end extension continues a cubic exactly: every interval
        (lambda x: ((x - 100.0) / 100.0) ** 3 - 0.3j * x / 100.0 + 0.2, 0,
         1e-14),
        # intervals 4 ... n - 6 take no extended sample: a degree-5
        # polynomial to rounding, a wave of 0.3 rad per sample to the
        # interpolant's error (8.6e-10)
        (lambda x: ((x - 80.0) / 100.0) ** 5
         + 0.5j * ((x - 80.0) / 100.0) ** 4 + 1.0, 4, 1e-13),
        (lambda x: np.exp(0.3j * x), 4, 1e-8),
    ], ids=["cubic", "quintic", "wave"])
    def test_gauss_node_values(self, f, first, tol):
        """Both Gauss nodes of each interval, relative to the largest
        node value."""
        n = 200
        x = np.arange(n, dtype=float)
        nodes = _at_gauss_nodes(f(x))
        for values, theta in zip(nodes, (0.5 - math.sqrt(3.0) / 6.0,
                                         0.5 + math.sqrt(3.0) / 6.0)):
            exact = f(x[:-1] + theta)
            error = np.abs(values - exact)[first:n - 1 - first]
            assert np.max(error) <= tol * np.max(np.abs(exact))


def random_generators(rng, norms):
    """Generators [[W, w], [0, 0]] as six arrays: W decays and couples like a
    Magnus step's and has infinity norm ``norms``, w is random."""
    count = len(norms)
    coupling = rng.normal(size=count) + 1j * rng.normal(size=count)
    w00 = -rng.uniform(0.0, 1.0, count) + 1j * rng.uniform(-1.0, 1.0, count)
    w01, w10 = 1j * coupling, 1j * np.conj(coupling)
    w11 = 0.1j * rng.normal(size=count)
    scale = norms / np.maximum(np.abs(w00) + np.abs(w01),
                               np.abs(w10) + np.abs(w11))
    return [scale * w00, scale * w01, scale * w10, scale * w11,
            rng.normal(size=count) + 1j * rng.normal(size=count),
            rng.normal(size=count) + 1j * rng.normal(size=count)]


class TestPropagation:
    """The Magnus steps' exponential and the scan that chains them."""

    @pytest.mark.parametrize("norm", np.logspace(-6.0, math.log10(4.0), 25),
                             ids="{:.2g}".format)
    def test_affine_exp_matches_expm(self, norm):
        rng = np.random.default_rng(int(1e3 * norm) + 7)
        generator = random_generators(rng, np.full(4, norm))
        maps = _affine_exp(generator)
        for i in range(4):
            full = np.zeros((3, 3), dtype=complex)
            full[:2] = [[generator[0][i], generator[1][i], generator[4][i]],
                        [generator[2][i], generator[3][i], generator[5][i]]]
            expected = scipy.linalg.expm(full)[:2]
            got = np.array([[maps[0][i], maps[1][i], maps[4][i]],
                            [maps[2][i], maps[3][i], maps[5][i]]])
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(
                np.abs(expected)), (norm, i)

    def test_degree_rule(self):
        assert _taylor_degree(_TAYLOR_RADIUS) == 12
        # the step norms of storage at 1501, 4001 and 16001 samples
        assert [_taylor_degree(t) for t in (0.031, 0.012, 0.0029)] == [7, 6, 5]

    @pytest.mark.parametrize("count", [*range(1, 40), 1000])
    def test_state_scan_matches_sequential_steps(self, count):
        rng = np.random.default_rng(count)
        # norms up to 3 make _affine_exp square up to three times
        steps = _affine_exp(random_generators(
            rng, rng.uniform(0.01, 3.0, count)))
        start = (0.3 - 0.1j, 0.9 + 0.2j)
        states = _scan_states(steps, start)
        y0, y1 = start
        expected = []
        for p00, p01, p10, p11, q0, q1 in zip(*steps):
            y0, y1 = p00 * y0 + p01 * y1 + q0, p10 * y0 + p11 * y1 + q1
            expected.append((y0, y1))
        expected = np.array(expected).T
        assert np.shape(states) == expected.shape
        assert np.max(np.abs(np.array(states) - expected)) <= 1e-12 * np.max(
            np.abs(expected))

    @pytest.mark.parametrize("n_samples", [1501, 2 * _BLOCK + 1])
    def test_zero_drive_matches_a_splined_drive(self, n_samples):
        # an all-zero drive is not interpolated; one sample of 1e-300 is,
        # and adds nothing at double precision
        control = matched_pair(50.0, n_samples).generate_control.samples
        drive = np.zeros(n_samples, dtype=complex)
        skipped = _evolve(PARAMS, control, drive, 1.0)
        drive[n_samples // 2] = 1e-300
        splined = _evolve(PARAMS, control, drive, 1.0)
        for a, b in zip(skipped, splined):
            assert np.array_equal(a, b)


def evolve_store_and_generate(params, matched):
    """_evolve's (c_e, c_s, lost, out) for storing and for regenerating."""
    control = matched.store_control.samples
    stored = _evolve(params, control, matched.input.samples.values, 0.0)
    control = matched.generate_control.samples
    emitted = _evolve(params, control, np.zeros(len(control), complex), 1.0)
    return [*stored, *emitted]


class TestBlocks:
    """_evolve builds its Magnus steps in blocks of _BLOCK intervals."""

    @pytest.mark.parametrize("block", [7, 11, 99, 200])
    def test_block_length_does_not_move_the_result(self, monkeypatch, block):
        # 99 intervals: blocks of 7 end in one of a single interval, blocks
        # of 11 fill it exactly, 99 and 200 make one block
        params = three_level(20.0, 0.5, 0.2)
        matched = matched_storage(params, duration=50.0, n_samples=100)
        whole = evolve_store_and_generate(params, matched)
        monkeypatch.setattr(storage, "_BLOCK", block)
        blocked = evolve_store_and_generate(params, matched)
        for a, b in zip(blocked, whole):
            assert np.max(np.abs(a - b)) <= 1e-14

    @pytest.mark.parametrize("n_samples", [4097, 4098, 8193])
    def test_real_block_length_matches_one_block(self, monkeypatch,
                                                 n_samples):
        # 4096 intervals are one block, 4097 end in a block of one
        # interval, 8192 are two full blocks
        matched = matched_pair(50.0, n_samples)
        blocked = evolve_store_and_generate(PARAMS, matched)
        monkeypatch.setattr(storage, "_BLOCK", n_samples)
        whole = evolve_store_and_generate(PARAMS, matched)
        for a, b in zip(blocked, whole):
            if n_samples - 1 <= _BLOCK:
                assert np.array_equal(a, b)
            assert np.max(np.abs(a - b)) <= 1e-14

    @pytest.mark.parametrize("field, message", [
        ("control", "non-finite control or drive"),
        # the drive enters only the affine part of the steps, which each
        # block checks next to the norm of its linear part
        ("drive", "non-finite control or drive"),
    ])
    def test_non_finite_sample_in_last_block(self, field, message):
        matched = matched_pair(50.0, 2 * _BLOCK + 1)
        values = {"control": matched.store_control.samples.values.copy(),
                  "drive": matched.input.samples.values.copy()}
        # the stencil spreads a sample over the 5 intervals before it and
        # the 4 after it, all of them intervals of the second block
        values[field][-200] = np.nan
        control, drive = (PulseShape(TimeSeries(0.0, matched.input.samples.dt,
                                                values[name]), FLUX_NORM)
                          for name in ("control", "drive"))
        with pytest.raises(InvariantViolation, match=message) as caught:
            store_photon(PARAMS, drive, control)
        assert caught.value.invariant == "amplitude-integration"


class TestConditionalMirror:
    def test_ground_state_scatters(self):
        """In |g> the emitter reflects with the two-level view's r at the
        params' own detuning, in the transistor as well."""
        two = PARAMS.as_two_level()
        assert scatter_point(two) == scatter_point(two, 0.0)
        detuned = three_level(20.0, 0.0, 0.7)
        point = scatter_point(detuned.as_two_level())
        assert point == scatter_point(two, 0.7)
        run = run_transistor(detuned, 0, 15, seed=5)
        assert not run.flip_occurred
        assert run.reflected == 15 * point.reflectance
        assert run.transmitted == 15 * point.transmittance


class TestTransistorGain:
    def test_analytic_mean_is_branching_ratio(self):
        est = transistor_gain(PARAMS, 100, seed=0)
        assert est.analytic_mean == pytest.approx(20.0)

    def test_monte_carlo_matches_analytic(self):
        est = transistor_gain(PARAMS, 10000, seed=1)
        assert est.mean == pytest.approx(est.analytic_mean, rel=5e-2)
        assert est.ci95 < 1.0

    def test_deterministic_per_seed(self):
        a = transistor_gain(PARAMS, 500, seed=42)
        b = transistor_gain(PARAMS, 500, seed=42)
        assert a == b
        c = transistor_gain(PARAMS, 500, seed=43)
        assert c.mean != a.mean

    def test_no_pumping_channel_means_infinite_gain(self):
        p = ThreeLevelParams(20.0 / 21.0, 1.0 / 21.0, 0.0)
        assert transistor_gain(p, 100, seed=0) == GainEstimate(
            math.inf, 0.0, math.inf)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            transistor_gain(PARAMS, 0, seed=0)

    def test_single_trial_has_unbounded_interval(self):
        assert transistor_gain(PARAMS, 1, seed=0).ci95 == math.inf

    def test_confidence_interval_coverage(self):
        """The 95% interval must cover the analytic mean ~95 times in 100.

        Binomial fluctuation allows a few misses either way; the check is
        >= 93. Geometric counts are skewed, so the normal interval needs a
        decent sample per repetition to be honest (5000 here).
        """
        covered = 0
        for seed in range(100):
            est = transistor_gain(PARAMS, 5000, seed=seed)
            if abs(est.mean - est.analytic_mean) <= est.ci95:
                covered += 1
        assert covered >= 93


class TestRunTransistor:
    def test_stored_gate_transmits_all_signals(self):
        run = run_transistor(PARAMS, 1, 20, seed=0, storage_duration=20.0)
        assert run.gate_stored
        assert run.transmitted == 20.0
        assert run.reflected == 0.0
        assert not run.flip_occurred
        assert run.storage_efficiency == pytest.approx(0.941, abs=1e-3)

    def test_empty_gate_reflects_until_flip(self):
        run = run_transistor(PARAMS, 0, 20, seed=3)
        assert not run.gate_stored
        assert run.storage_efficiency is None
        assert run.flip_occurred
        # counts decompose into mirrored photons, one absorbed flip photon,
        # and free transmission afterwards
        two = PARAMS.as_two_level()
        pt = scatter_point(two, 0.0)
        routed = round(run.reflected / pt.reflectance)
        expected_t = routed * pt.transmittance + (20 - routed - 1)
        assert run.transmitted == pytest.approx(expected_t, abs=1e-12)
        assert run.reflected + run.transmitted < 20.0

    def test_mean_reflected_count_is_the_closed_form(self):
        """With more signals than ever arrive before the flip, the reflected
        count is R (F - 1), F geometric with the per-signal flip probability
        p = kappa gamma_es/(gamma'_g + gamma_es), so its mean is R (1 - p)/p.
        At P = 1 and branching 1, p = 1/2 and the mean is 1/4: 8000 seeded
        runs give it to a standard error of 0.004, and a flip probability
        5 % high moves it by 0.024."""
        params = ThreeLevelParams(0.5, 0.0, 0.5)
        mirror = scatter_point(params.as_two_level())
        p = mirror.loss * params.gamma_es / (params.gamma_prime_g
                                             + params.gamma_es)
        runs = 8000
        reflected = [run_transistor(params, 0, 10_000, seed=seed).reflected
                     for seed in range(runs)]
        expected = mirror.reflectance * (1.0 - p) / p
        error = mirror.reflectance * math.sqrt(1.0 - p) / p / math.sqrt(runs)
        assert abs(np.mean(reflected) - expected) <= 3.0 * error

    def test_deterministic_per_seed(self):
        a = run_transistor(PARAMS, 0, 10, seed=7)
        b = run_transistor(PARAMS, 0, 10, seed=7)
        assert a == b

    def test_no_pumping_never_flips(self):
        p = ThreeLevelParams(20.0 / 21.0, 1.0 / 21.0, 0.0)
        run = run_transistor(p, 0, 15, seed=5)
        assert not run.flip_occurred
        pt = scatter_point(p.as_two_level(), 0.0)
        assert run.reflected == pytest.approx(15 * pt.reflectance)

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="gate_photon"):
            run_transistor(PARAMS, 2, 10)
        with pytest.raises(ValueError, match="signal_count"):
            run_transistor(PARAMS, 0, -1)
