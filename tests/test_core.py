import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from plasmonqed.core import (
    EmitterParams,
    FLUX_NORM,
    PulseShape,
    TimeSeries,
    gaussian_spectrum,
    params_from_purcell,
)
from plasmonqed.storage import ThreeLevelParams


class TestParams:
    def test_purcell_mapping_is_exact(self):
        p = params_from_purcell(20.0)
        assert p.gamma_pl == pytest.approx(20.0 / 21.0, abs=1e-15)
        assert p.gamma_prime == pytest.approx(1.0 / 21.0, abs=1e-15)
        assert p.gamma_total == pytest.approx(1.0, abs=1e-15)
        assert p.purcell == pytest.approx(20.0, rel=1e-14)

    def test_total_rate_scaling(self):
        p = params_from_purcell(5.0, gamma_total=3.0)
        assert p.gamma_total == pytest.approx(3.0)
        assert p.purcell == pytest.approx(5.0)

    def test_infinite_purcell(self):
        p = params_from_purcell(math.inf)
        assert p.gamma_prime == 0.0
        assert p.purcell == math.inf

    def test_zero_gamma_prime_is_the_lossless_limit(self):
        p = EmitterParams(1.0, 0.0)
        assert p.purcell == math.inf
        assert p == params_from_purcell(math.inf)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_bad_rates(self, bad):
        with pytest.raises(ValueError):
            EmitterParams(bad, 1.0)
        with pytest.raises(ValueError):
            EmitterParams(1.0, 1.0, omega_c=bad)

    @pytest.mark.parametrize("kind", [EmitterParams, ThreeLevelParams])
    def test_both_parameter_types_check_their_rates(self, kind):
        """One rule for both types, whose first four fields are three rates
        (the third is omega_c or gamma_es) and delta: each rate finite and
        >= 0, delta finite, a positive total. Zero loss is accepted, and
        every number is stored as a float."""
        for args in ((-0.5, 1.0, 0.5, 0.0), (1.0, -0.5, 0.5, 0.0),
                     (1.0, 1.0, -0.5, 0.0), (math.nan, 1.0, 0.5, 0.0),
                     (1.0, math.inf, 0.5, 0.0), (1.0, 1.0, math.nan, 0.0),
                     (1.0, 1.0, 0.5, math.nan), (0.0, 0.0, 0.0, 0.0)):
            with pytest.raises(ValueError):
                kind(*args)
        lossless = kind(np.float64(1.0), 0, 0, np.float64(0.25))
        assert lossless.gamma_total == 1.0
        two_level = (lossless.as_two_level() if kind is ThreeLevelParams
                     else lossless)
        assert two_level.purcell == math.inf
        stored = [getattr(lossless, f.name) for f in fields(lossless)[:4]]
        assert stored == [1.0, 0.0, 0.0, 0.25]
        assert all(type(value) is float for value in stored)

    @pytest.mark.parametrize("purcell", [0.0, 20.0, math.inf])
    @pytest.mark.parametrize("gamma_total", [0.0, -1.0, math.inf, math.nan])
    def test_purcell_rejects_bad_total(self, purcell, gamma_total):
        with pytest.raises(ValueError):
            params_from_purcell(purcell, gamma_total=gamma_total)

    def test_rejects_negative_purcell(self):
        with pytest.raises(ValueError):
            params_from_purcell(-0.5)

    def test_frozen(self):
        p = params_from_purcell(1.0)
        with pytest.raises(AttributeError):
            p.gamma_pl = 2.0

    @given(st.floats(0.01, 1e3), st.floats(0.01, 10.0))
    def test_roundtrip_rates(self, purcell, gamma):
        p = params_from_purcell(purcell, gamma_total=gamma)
        assert p.gamma_total == pytest.approx(gamma, rel=1e-12)
        assert p.purcell == pytest.approx(purcell, rel=1e-9)


class TestTimeSeries:
    def test_grid(self):
        ts = TimeSeries(1.0, 0.5, np.arange(4.0))
        np.testing.assert_allclose(ts.grid, [1.0, 1.5, 2.0, 2.5])
        assert len(ts) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(0.0, 0.0, np.ones(3))
        with pytest.raises(ValueError):
            TimeSeries(0.0, 1.0, np.empty(0))
        with pytest.raises(ValueError):
            TimeSeries(0.0, 1.0, np.ones((2, 2)))


class TestPulseShape:
    def test_unit_norm_enforced(self):
        ts = TimeSeries(0.0, 0.1, np.ones(10, dtype=complex))
        PulseShape(ts)  # sum |v|^2 dt = 1 exactly
        bad = TimeSeries(0.0, 0.1, 2.0 * np.ones(10, dtype=complex))
        with pytest.raises(ValueError, match="unit-norm"):
            PulseShape(bad)
        # flux convention carries any norm
        p = PulseShape(bad, FLUX_NORM)
        assert p.squared_norm == pytest.approx(4.0)

    def test_nan_sample_is_not_unit_norm(self):
        values = np.ones(10, dtype=complex)
        values[3] = math.nan
        with pytest.raises(ValueError, match="unit-norm pulse has sum "
                                             r"\|v\|\^2 dt = nan"):
            PulseShape(TimeSeries(0.0, 0.1, values))

    def test_normalized(self):
        ts = TimeSeries(0.0, 0.1, 3.0 * np.ones(10, dtype=complex))
        p = PulseShape(ts, FLUX_NORM).normalized()
        assert p.squared_norm == pytest.approx(1.0, abs=1e-12)

    def test_normalize_zero_pulse(self):
        ts = TimeSeries(0.0, 0.1, np.zeros(5, dtype=complex))
        with pytest.raises(ValueError):
            PulseShape(ts, FLUX_NORM).normalized()

    def test_unknown_convention(self):
        ts = TimeSeries(0.0, 0.1, np.ones(10, dtype=complex))
        with pytest.raises(ValueError):
            PulseShape(ts, "rms")


class TestGaussianSpectrum:
    def test_unit_norm_and_rms(self):
        sp = gaussian_spectrum(0.1)
        w = np.abs(sp.samples.values) ** 2 * sp.samples.dt
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        rms = np.sqrt((w * sp.samples.grid**2).sum())
        assert rms == pytest.approx(0.1, rel=1e-9)

    def test_center_offsets_grid(self):
        sp = gaussian_spectrum(0.37, center=2.0)
        g = sp.samples.grid
        assert g[0] == pytest.approx(2.0 - 8 * 0.37)
        assert g[-1] == pytest.approx(2.0 + 8 * 0.37)
        w = np.abs(sp.samples.values) ** 2 * sp.samples.dt
        rms = np.sqrt((w * (g - 2.0) ** 2).sum())
        assert rms == pytest.approx(0.37, rel=1e-9)

    @given(st.floats(0.01, 2.0))
    def test_any_bandwidth_is_unit_norm(self, sigma):
        sp = gaussian_spectrum(sigma)
        assert sp.squared_norm == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gaussian_spectrum(0.0)
        with pytest.raises(ValueError):
            gaussian_spectrum(0.1, n_samples=2)
