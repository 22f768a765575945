import math
import re

import numpy as np
import pytest

from plasmonqed.core import (
    EmitterParams,
    InvariantViolation,
    PulseShape,
    gaussian_spectrum,
    params_from_purcell,
)
from plasmonqed import oracle
from plasmonqed.oracle import (
    _BESSEL_FLOOR,
    _BLOCK,
    _LOSS_PER_SEGMENT,
    _NORM_CEILING,
    _arrowhead,
    _bessel_j,
    _chebyshev,
    _coefficients,
    _initial_amplitudes,
    _propagate,
    _spectral_radius,
    build_grid,
    convergence_report,
    golden_rule_rate,
    scatter_wavepacket,
)

P20 = params_from_purcell(20.0)

# continuum spectral averages for the rms-0.1 resonant Gaussian at P = 20,
# frozen from adaptive quadrature of the closed forms (see test_scatter)
REF_R = 0.8744131733195056
REF_T = 0.03814550935672937
REF_LOSS = 0.08744131733195068


def _full_hamiltonian(grid, gamma_prime):
    """Dense (1 + 2n) H on [c_e, right, left]."""
    h = np.diag(np.concatenate(
        ([-0.5j * gamma_prime], grid.deltas, grid.deltas)))
    h[0, 1:] = h[1:, 0] = -grid.coupling
    return h


def _even_hamiltonian(grid, gamma_prime):
    """Dense (1 + n) even block on [c_e, (right + left)/sqrt 2]."""
    h = np.diag(np.concatenate(([-0.5j * gamma_prime], grid.deltas)))
    h[0, 1:] = h[1:, 0] = -math.sqrt(2.0) * grid.coupling
    return h


def _time_keeping(terms, radius):
    """The time at which _bessel_j(radius t) keeps exactly ``terms``."""
    x = 0.0
    if terms > 1:
        lo, x = 0.0, float(terms)
        for _ in range(60):
            mid = 0.5 * (lo + x)
            lo, x = (mid, x) if len(_bessel_j(mid)) < terms else (lo, mid)
    assert len(_bessel_j(x)) == terms
    return x / radius


def band_reflection(params, deltas, half_span):
    """r of one emitter on a flat band of half-width D, the grid's continuum.

    The band's self-energy is -i gamma_pl/2 plus the Lamb shift
    -(gamma_pl/2 pi) ln((D + delta)/(D - delta)), so r_band(delta) =
    -gamma_pl/(Gamma - 2i(delta - (gamma_pl/2 pi) ln((D + delta)/(D - delta))))
    and t_band = 1 + r_band; as D grows this is the infinite-band r (Shen &
    Fan, Opt. Lett. 30, 2001 (2005)).
    """
    shift = params.gamma_pl / (2.0 * math.pi) * np.log(
        (half_span + deltas) / (half_span - deltas))
    return -params.gamma_pl / (params.gamma_total - 2j * (deltas - shift))


def _random_state(size, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=size) + 1j * rng.normal(size=size)
    return y / np.linalg.norm(y)


class TestBuildGrid:
    def test_default_span_keeps_spacing_fixed(self):
        grid = build_grid(P20, 500)
        assert grid.k_span == pytest.approx(40.0)
        assert grid.mode_spacing == pytest.approx(0.08)
        assert grid.recurrence_time == pytest.approx(2.0 * math.pi / 0.08)

    def test_default_span_has_floor(self):
        grid = build_grid(P20, 100)
        assert grid.k_span == pytest.approx(20.0)

    def test_mode_layout(self):
        grid = build_grid(P20, 250)
        deltas = grid.deltas
        assert len(deltas) == 250
        # even count: symmetric offset grid, no mode exactly on resonance
        assert np.min(np.abs(deltas)) == pytest.approx(grid.mode_spacing / 2)
        assert np.max(deltas) == pytest.approx(-np.min(deltas))

    def test_coupling_calibration(self):
        grid = build_grid(P20, 250)
        expected = math.sqrt(P20.gamma_pl * grid.mode_spacing / (4.0 * math.pi))
        assert grid.coupling == pytest.approx(expected)

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            build_grid(P20, 1)

    def test_rejects_narrow_window(self):
        with pytest.raises(ValueError, match="narrow"):
            build_grid(P20, 250, k_span=10.0)

    def test_span_of_twenty_linewidths_builds_at_every_purcell(self):
        # gamma_pl + gamma_prime rounds to 1 + 2.2e-16 at 48 of these P
        # (P = 0.001, 0.003): the floor allows that rounding and no more
        for purcell in np.logspace(-6.0, 6.0, 2009):
            build_grid(params_from_purcell(purcell), 250, k_span=20.0)
        with pytest.raises(ValueError, match="narrow"):
            build_grid(P20, 250, k_span=20.0 * (1.0 - 1e-9))


class TestChebyshevPropagator:
    # the last case is about the largest R t_final the CLI's grids reach:
    # R = 10.5 at n_modes = 20000 and span 20, times 1.8 recurrences 6283
    @pytest.mark.parametrize("x", [0.5, 3.0, 80.0, 4800.0, 1.2e5])
    def test_bessel_matches_scipy(self, x):
        """Every kept order matches scipy; the next 200 are negligible.

        Up to 4800 each of them is below the floor. From about 5e4 scipy's
        own tail differs from the recurrence's at the 1e-17 level, so there
        twice their sum, the most they move a unit-norm state, is checked
        instead: it reads 1.06 epsilon at 1.2e5, within two.
        """
        from scipy.special import jv

        kept = _bessel_j(x)
        assert abs(kept[-1]) >= _BESSEL_FLOOR
        assert np.max(np.abs(kept - jv(np.arange(len(kept)), x))) < 1e-12
        dropped = np.abs(jv(np.arange(len(kept), len(kept) + 200), x))
        if x <= 4800.0:
            assert np.max(dropped) < _BESSEL_FLOOR
        else:
            assert 2.0 * np.sum(dropped) < 2.0 * np.finfo(float).eps

    def test_bessel_at_zero(self):
        # a zero-length run keeps the one coefficient J_0(0) = 1, and so does
        # one whose J_1(x) = x/2 is below the floor
        for x in (0.0, 5e-324, 1e-300, 1.9e-17):
            assert np.array_equal(_bessel_j(x), [1.0])
        assert len(_bessel_j(2.1e-17)) == 2

    @pytest.mark.parametrize("gamma_prime", [0.048, 0.5])
    @pytest.mark.parametrize("t", [0.7, 3.0, 10.0])
    def test_matches_dense_exponential(self, gamma_prime, t):
        from scipy.linalg import expm

        grid = build_grid(P20, 40)
        h = _full_hamiltonian(grid, gamma_prime)
        y0 = _random_state(1 + 2 * grid.n_modes, 7)
        y, snapshots = _propagate(grid, y0, t, gamma_prime)
        assert np.max(np.abs(y - expm(-1j * t * h) @ y0)) < 1e-12
        # the loss stays within one segment's: one series, two snapshots
        assert gamma_prime * t <= _LOSS_PER_SEGMENT
        assert len(snapshots) == 2
        assert snapshots[-1].time == pytest.approx(t)
        assert snapshots[-1].norm == pytest.approx(np.vdot(y, y).real,
                                                   abs=1e-15)

    @pytest.mark.parametrize("n_modes", [40, 250])
    @pytest.mark.parametrize("purcell", [0.0, 20.0, math.inf])
    def test_spectral_radius_bounds_the_hamiltonian(self, n_modes, purcell):
        """R bounds the even block and the full H, for loss and for gain.

        At P = 0 and gamma_prime = 0 both are diagonal and R equals their
        norm, so the comparison allows the norm's last-digit rounding.
        """
        grid = build_grid(params_from_purcell(purcell), n_modes)
        for gamma_prime in (0.0, 0.048, 0.5, -0.1, -30.0):
            radius = _spectral_radius(grid, gamma_prime)
            for h in (_even_hamiltonian(grid, gamma_prime),
                      _full_hamiltonian(grid, gamma_prime)):
                assert np.linalg.norm(h, 2) <= radius * (1.0 + 1e-14), \
                    gamma_prime

    def test_default_grid_radii(self):
        # max|delta| + gamma_pl n/(pi (n - 1)) + gamma_prime/2 at spacing 0.08
        radii = [_spectral_radius(build_grid(P20, n), P20.gamma_prime)
                 for n in (250, 500, 1000, 2000)]
        assert radii == pytest.approx([10.29, 20.29, 40.29, 80.29], abs=5e-3)

    # 23 to 25 terms end inside the first block
    @pytest.mark.parametrize("terms", [
        1, 23, 24, 25, 100,
        _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_series_across_block_edges(self, terms):
        """Series that end inside, at and just past a block are all summed.

        The time is chosen from R so that _bessel_j keeps exactly ``terms``
        coefficients; a zero-length run keeps its one, J_0(0) = 1.
        """
        from scipy.linalg import expm

        grid = build_grid(P20, 40)
        series = _arrowhead(grid, P20.gamma_prime)
        y0 = _random_state(1 + grid.n_modes, terms)
        t = _time_keeping(terms, series[0])
        state = _chebyshev(series, _coefficients(series, t), y0)
        exact = expm(-1j * t * _even_hamiltonian(grid, P20.gamma_prime)) @ y0
        assert np.max(np.abs(state - exact)) < 1e-12
        if terms == 1:
            assert np.array_equal(state, y0)

    def test_segments_share_one_series_and_chain(self, monkeypatch):
        """A four-segment run builds its series and its coefficients once
        and equals four chained one-segment runs and the dense exponential."""
        from scipy.linalg import expm

        grid = build_grid(P20, 40)
        gamma_prime = 0.5
        t = 3.5 * _LOSS_PER_SEGMENT / gamma_prime
        y0 = _random_state(1 + 2 * grid.n_modes, 17)
        built, bessels = [], []

        def counted(*args):
            built.append(args)
            return _arrowhead(*args)

        def counted_bessel(x):
            bessels.append(x)
            return _bessel_j(x)

        monkeypatch.setattr(oracle, "_arrowhead", counted)
        monkeypatch.setattr(oracle, "_bessel_j", counted_bessel)
        y, snapshots = _propagate(grid, y0, t, gamma_prime)
        assert len(snapshots) == 5 and len(built) == 1 and len(bessels) == 1
        chained = y0
        for _ in range(4):
            chained, single = _propagate(grid, chained, t / 4, gamma_prime)
            assert len(single) == 2
        assert np.max(np.abs(y - chained)) < 1e-14
        h = _full_hamiltonian(grid, gamma_prime)
        assert np.max(np.abs(y - expm(-1j * t * h) @ y0)) < 1e-12

    @pytest.mark.parametrize("purcell", [0.01, 0.1, 1.0, 20.0])
    @pytest.mark.parametrize("t", [60.0, 87.0])
    def test_lossy_run_matches_dense_exponential(self, purcell, t):
        """Segments keep a low-P run exact: as one series, P = 0.1 at
        t = 87 (|gamma_prime| t = 79) was 1e-3 off."""
        from scipy.linalg import expm

        params = params_from_purcell(purcell)
        grid = build_grid(params, 250)
        h = _full_hamiltonian(grid, params.gamma_prime)
        y0 = _random_state(1 + 2 * grid.n_modes, 7)
        y, _ = _propagate(grid, y0, t, params.gamma_prime)
        assert np.max(np.abs(y - expm(-1j * t * h) @ y0)) < 1e-12

    def test_long_run_is_split_and_checked_at_every_segment_end(self):
        """|gamma_prime| t_final above one segment's runs several, each
        end checked.

        A negative non-guided rate is gain, so the norm grows at every
        segment end; a start scaled to cross the ceiling between the second
        and third ends must raise at the third.
        """
        grid = build_grid(P20, 250)
        gain = -0.1
        t = 3.5 * _LOSS_PER_SEGMENT / abs(gain)
        rng = np.random.default_rng(11)
        y0 = rng.normal(size=1 + 2 * grid.n_modes) \
            + 1j * rng.normal(size=1 + 2 * grid.n_modes)
        y0 *= 0.5 / np.linalg.norm(y0)
        _, snapshots = _propagate(grid, y0, t, gain)
        assert [s.time for s in snapshots] == pytest.approx(
            np.linspace(0.0, t, 5), abs=1e-12)
        norms = np.array([s.norm for s in snapshots])
        assert np.all(np.diff(norms) > 0.0)
        scale = _NORM_CEILING / math.sqrt(norms[2] * norms[3])
        with pytest.raises(InvariantViolation) as exc:
            _propagate(grid, y0 * math.sqrt(scale), t, gain)
        assert exc.value.invariant == "excitation-norm"
        assert str(exc.value).endswith(
            f"at t = {snapshots[3].time}, limit {_NORM_CEILING!r}")

    def test_antisymmetric_state_never_meets_the_emitter(self):
        """right = -left is odd: the emitter stays empty, the modes only turn.

        The odd modes carry no coupling, so across two segments c_e stays
        exactly 0 and every mode keeps its modulus.
        """
        grid = build_grid(P20, 250)
        t = 1.5 * _LOSS_PER_SEGMENT / P20.gamma_prime
        rng = np.random.default_rng(5)
        right = rng.normal(size=grid.n_modes) + 1j * rng.normal(size=grid.n_modes)
        y0 = np.concatenate(([0.0], right, -right)) / math.sqrt(
            2.0 * np.vdot(right, right).real)
        y, snapshots = _propagate(grid, y0, t, P20.gamma_prime)
        assert len(snapshots) == 3
        assert y[0] == 0.0
        assert all(s.c_e == 0.0 for s in snapshots)
        assert np.max(np.abs(np.abs(y) - np.abs(y0))) < 1e-15


class TestGoldenRule:
    @pytest.mark.parametrize("n_modes", [1000, 2000])
    def test_grid_decay_rate_within_one_percent(self, n_modes):
        grid = build_grid(P20, n_modes)
        rate = golden_rule_rate(grid)
        assert rate == pytest.approx(P20.gamma_pl, rel=1e-2)

    def test_rate_error_shrinks_with_span(self):
        narrow = golden_rule_rate(build_grid(P20, 250))
        wide = golden_rule_rate(build_grid(P20, 1000))
        target = P20.gamma_pl
        assert abs(wide - target) < abs(narrow - target)

    @pytest.mark.parametrize("t_probe, message", [
        (0.0, "t_probe must be finite and positive, got 0.0"),
        (-1.0, "t_probe must be finite and positive, got -1.0"),
        (math.nan, "t_probe must be finite and positive, got nan"),
        (1e-9, "t_probe = 1e-09 shows no decay"),
        (200.0, "t_probe = 200.0 reaches the mode-grid recurrence"),
        # |c_e|^2 has fallen to 1e-26 and the grid's tail dominates
        (62.0, "t_probe = 62.0 is outside the exponential window"),
        # the decay is still quadratic
        (1e-6, "t_probe = 1e-06 is outside the exponential window"),
    ])
    def test_rejects_probe_without_a_rate(self, t_probe, message):
        # the recurrence of this grid is at 2 pi / 0.08 = 78.5
        with pytest.raises(ValueError, match=re.escape(message)):
            golden_rule_rate(build_grid(P20, 250), t_probe)

    @pytest.mark.parametrize("n_modes", [40, 100, 250])
    @pytest.mark.parametrize("purcell", [5.0, 20.0, 50.0])
    def test_rate_is_the_slope_of_the_dense_exponential(self, purcell,
                                                        n_modes):
        """The chained series over t/4, t/4 and t/2 reads the slope of
        ln |c_e|^2 between t/4 and t that the dense exponential gives (the
        one at t/4 to the fourth power at t)."""
        from scipy.linalg import expm

        grid = build_grid(params_from_purcell(purcell), n_modes)
        h = _even_hamiltonian(grid, 0.0)
        for t_probe in (1.5, 2.0, 4.0):
            quarter = expm(-0.25j * t_probe * h)
            p1, p2 = (abs(u[0, 0]) ** 2
                      for u in (quarter, np.linalg.matrix_power(quarter, 4)))
            slope = -math.log(p2 / p1) / (0.75 * t_probe)
            assert golden_rule_rate(grid, t_probe) == pytest.approx(
                slope, rel=1e-12, abs=0.0), t_probe

    @pytest.mark.parametrize("purcell", [5.0, 20.0, 50.0])
    def test_default_probe_is_in_the_exponential_window(self, purcell):
        # the two half-window slopes differ by at most 1e-2 of the rate here
        params = params_from_purcell(purcell)
        for n_modes in (250, 500, 1000, 2000):
            rate = golden_rule_rate(build_grid(params, n_modes))
            assert rate == pytest.approx(params.gamma_pl, rel=2e-2), n_modes


class TestScatterWavepacket:
    def test_decoupled_emitter_transmits_exactly(self):
        p = EmitterParams(0.0, 1.0)
        grid = build_grid(p, 250)
        result = scatter_wavepacket(grid, gaussian_spectrum(0.1))
        assert result.t_sim == pytest.approx(1.0, abs=1e-8)
        assert result.r_sim == 0.0

    def test_resonant_pulse_matches_spectral_average(self):
        grid = build_grid(P20, 500)
        result = scatter_wavepacket(grid, gaussian_spectrum(0.1))
        assert result.r_sim == pytest.approx(REF_R, abs=2e-3)
        assert result.t_sim == pytest.approx(REF_T, abs=2e-3)
        assert result.loss_sim == pytest.approx(REF_LOSS, abs=2e-3)

    def test_far_detuned_pulse_passes(self):
        # 20 linewidths off resonance, inside a grid centred on it
        grid = build_grid(P20, 600, k_span=48.0)
        result = scatter_wavepacket(grid, gaussian_spectrum(0.1, center=20.0))
        assert result.t_sim > 0.99

    def test_probability_bookkeeping(self):
        grid = build_grid(P20, 250)
        result = scatter_wavepacket(grid, gaussian_spectrum(0.1))
        residual = abs(result.trajectory[-1].c_e) ** 2
        total = result.r_sim + result.t_sim + result.loss_sim
        assert total == pytest.approx(1.0 - residual, abs=1e-15)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_norm_never_increases(self):
        grid = build_grid(P20, 250)
        result = scatter_wavepacket(grid, gaussian_spectrum(0.1))
        norms = np.array([s.norm for s in result.trajectory])
        assert np.max(np.diff(norms)) <= 1e-12
        # a run is one series, so also sample the norm across it
        y0 = np.zeros(1 + 2 * grid.n_modes, dtype=complex)
        y0[1:1 + grid.n_modes] = _initial_amplitudes(
            grid, gaussian_spectrum(0.1), 25.0)
        norms = [np.vdot(y, y).real for y in (
            _propagate(grid, y0, t, P20.gamma_prime)[0]
            for t in np.arange(0.0, 61.0, 5.0))]
        assert norms[0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.diff(norms)) <= 1e-12
        assert norms[-1] == pytest.approx(1.0 - result.loss_sim, abs=1e-12)

    @pytest.mark.parametrize("purcell", [5.0, 20.0, 50.0])
    def test_default_runs_are_one_series(self, purcell):
        # gamma_prime t_final <= 10 for P >= 5 at t_final = 60
        params = params_from_purcell(purcell)
        for n_modes in (250, 500, 1000, 2000):
            result = scatter_wavepacket(build_grid(params, n_modes),
                                        gaussian_spectrum(0.1), t_final=60.0)
            assert len(result.trajectory) == 2, n_modes

    def test_trajectory_endpoints(self):
        grid = build_grid(P20, 250)
        result = scatter_wavepacket(grid, gaussian_spectrum(0.1), t_final=55.0)
        assert result.trajectory[0].time == 0.0
        assert result.trajectory[-1].time == pytest.approx(55.0)

    def test_truncation_is_converged(self):
        """The Bessel tail a default run drops is below the floor.

        Each dropped J_k(R tau) is below 1e-17, and since |T_k| <= 1 on the
        spectrum the dropped terms together move the unit-norm state by at
        most 2 sum |J_k|, below the double-precision epsilon.
        """
        from scipy.special import jv

        for n_modes in (250, 2000):
            grid = build_grid(P20, n_modes)
            # one series: test_default_runs_are_one_series
            x = _spectral_radius(grid, P20.gamma_prime) * 60.0
            kept = len(_bessel_j(x))
            dropped = np.abs(jv(np.arange(kept, kept + 200), x))
            assert np.max(dropped) < _BESSEL_FLOOR
            assert 2.0 * np.sum(dropped) < np.finfo(float).eps

    def test_lossless_narrowband_cancellation(self):
        """A perfectly coupled emitter nulls the forward amplitude.

        t = 1 + r -> 0 on resonance as P -> inf, so a spectrally narrow pulse
        transmits only its O(bandwidth^2) tail. With gamma_prime = 0 the
        evolution is unitary and the excitation norm must be conserved.
        """
        p = params_from_purcell(math.inf)
        grid = build_grid(p, 2000, k_span=20.0)
        result = scatter_wavepacket(grid, gaussian_spectrum(0.01),
                                    t_final=480.0, t_peak=225.0)
        assert abs(result.t_sim) < 1e-3
        assert result.r_sim + result.t_sim == pytest.approx(1.0, abs=1e-6)
        norms = [s.norm for s in result.trajectory]
        # the run is one series; also step through it every 40 time units
        y = np.zeros(1 + 2 * grid.n_modes, dtype=complex)
        y[1:1 + grid.n_modes] = _initial_amplitudes(
            grid, gaussian_spectrum(0.01), 225.0)
        for _ in range(12):
            y, _ = _propagate(grid, y, 40.0, 0.0)
            norms.append(np.vdot(y, y).real)
        assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-8

    def test_uncleared_pulse_is_an_error(self):
        grid = build_grid(P20, 250)
        with pytest.raises(InvariantViolation) as exc:
            scatter_wavepacket(grid, gaussian_spectrum(0.1), t_final=26.0)
        assert exc.value.invariant == "pulse-not-cleared"

    def test_rejects_run_into_recurrence(self):
        grid = build_grid(P20, 250)
        with pytest.raises(ValueError, match="recurrence"):
            scatter_wavepacket(grid, gaussian_spectrum(0.1), t_final=90.0)

    def test_rejects_run_ending_before_peak(self):
        grid = build_grid(P20, 250)
        for t_final in (0.0, 0.5, 25.0):
            with pytest.raises(ValueError, match="t_peak = 25.0"):
                scatter_wavepacket(grid, gaussian_spectrum(0.1),
                                   t_final=t_final)

    def test_rejects_negative_final_time(self):
        grid = build_grid(P20, 250)
        with pytest.raises(ValueError, match="backward"):
            scatter_wavepacket(grid, gaussian_spectrum(0.1), t_final=-5.0)

    def test_rejects_spectral_leakage(self):
        grid = build_grid(P20, 250)
        with pytest.raises(ValueError, match="leakage"):
            scatter_wavepacket(grid, gaussian_spectrum(0.1, center=11.0))

    def test_off_grid_pulse_width_runs(self):
        # grid detunings fall between pulse samples, so interpolation lowers
        # the on-grid norm by ~4e-6 although nothing leaks out of the window
        result = scatter_wavepacket(build_grid(P20, 250),
                                    gaussian_spectrum(0.15))
        assert abs(result.r_sim + result.t_sim + result.loss_sim - 1.0) < 1e-6

    def test_rejects_pulse_narrower_than_spacing(self):
        grid = build_grid(P20, 250)
        with pytest.raises(ValueError, match="not resolved"):
            scatter_wavepacket(grid, gaussian_spectrum(0.004))

    def test_rejects_flux_normalized_pulse(self):
        grid = build_grid(P20, 250)
        flux = PulseShape(gaussian_spectrum(0.1).samples, "flux")
        with pytest.raises(ValueError, match="unit-normalized"):
            scatter_wavepacket(grid, flux)


class TestFiniteBand:
    """The grid against its own closed form, mode by mode.

    At the window (35, 80) the packet starts and ends clear of the emitter,
    so each mode's reflected and transmitted amplitudes over its free
    evolution a_j e^{-i delta_j t} are r_band(delta_j) and t_band(delta_j)
    up to the grid's discreteness. Measured at n = 250: per mode 1.35e-8 to
    1.23e-7 on the modes holding >= 1e-3 of the peak weight (8.0e-8 for
    the pulses centred at 0.5 and -0.7); R - R_band -1.5e-9 to -6.6e-8,
    T - T_band 6.6e-9 to 7.2e-8. With the coupling's 4 pi made 4.04 pi
    (gamma_pl 1 % low) every case fails, the resonant ones at 2.4e-3 to
    5.1e-3 per mode; with the propagated gamma_prime 1 % high the cases at
    finite P fail, at 2.3e-3 (P = 0.6), 4.5e-4 (P = 20) and 4.9e-5
    (P = 200) per mode.
    """

    @staticmethod
    def band_errors(purcell, sigma, n_modes=250, center=0.0):
        """Per-mode |r_j - r_band| and |t_j - t_band| on the kept modes, and
        R - R_band and T - T_band over the grid."""
        params = params_from_purcell(purcell)
        grid = build_grid(params, n_modes)
        n, t_final = grid.n_modes, 80.0
        a = _initial_amplitudes(grid, gaussian_spectrum(sigma, center), 35.0)
        y, _ = _propagate(grid, np.concatenate(([0.0], a, np.zeros(n))),
                          t_final, params.gamma_prime)
        free = a * np.exp(-1j * grid.deltas * t_final)
        r_band = band_reflection(params, grid.deltas, grid.k_span / 2.0)
        weight = np.abs(a) ** 2
        kept = weight >= 1e-3 * np.max(weight)
        errors = []
        for out, expected in ((y[1 + n:], r_band), (y[1:1 + n], 1.0 + r_band)):
            errors.append((
                np.max(np.abs(out[kept] / free[kept] - expected[kept])),
                np.sum(np.abs(out) ** 2)
                - np.sum(weight * np.abs(expected) ** 2)))
        return errors

    def check(self, errors):
        for per_mode, total in errors:
            assert per_mode < 2.5e-7
            assert abs(total) < 1e-7

    @pytest.mark.parametrize("sigma", [0.2, 0.3])
    @pytest.mark.parametrize("purcell", [0.6, 20.0, 200.0, math.inf])
    def test_modes_scatter_as_on_a_finite_band(self, purcell, sigma):
        self.check(self.band_errors(purcell, sigma))

    @pytest.mark.parametrize("center", [0.5, -0.7])
    def test_detuned_pulse_scatters_as_on_a_finite_band(self, center):
        self.check(self.band_errors(20.0, 0.2, center=center))

    def test_discreteness_error_falls_with_the_mode_count(self):
        """At fixed spacing four times the modes cut R - R_band and
        T - T_band by 64, from 2.5e-8 and 2.8e-8 at n = 250 to 3.9e-10
        and 4.3e-10 at n = 1000; at least 32 is asserted."""
        coarse = self.band_errors(20.0, 0.2)
        fine = self.band_errors(20.0, 0.2, n_modes=1000)
        self.check(fine)
        for (_, before), (_, after) in zip(coarse, fine):
            assert abs(after) < abs(before) / 32.0


class TestConvergence:
    def test_error_halves_with_span(self):
        grids = [build_grid(P20, n) for n in (250, 500)]
        report = convergence_report(grids, gaussian_spectrum(0.1))
        (n1, e1), (n2, e2) = report.rows
        assert (n1, n2) == (250, 500)
        assert e2 < e1
        assert e2 == pytest.approx(e1 / 2.0, rel=0.2)
        assert report.monotone
        assert report.reference == pytest.approx((REF_R, REF_T, REF_LOSS),
                                                 abs=1e-9)
        assert len(report.results) == 2

    def test_single_grid_single_row(self):
        report = convergence_report([build_grid(P20, 250)],
                                    gaussian_spectrum(0.1))
        assert len(report.rows) == 1
        assert report.monotone

    def test_rejects_unsorted_sizes(self):
        grids = [build_grid(P20, 500), build_grid(P20, 250)]
        with pytest.raises(ValueError, match="increasing"):
            convergence_report(grids, gaussian_spectrum(0.1))

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            convergence_report([], gaussian_spectrum(0.1))
