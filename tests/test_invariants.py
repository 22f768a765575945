"""Every numerical postcondition of the package, driven over its limit.

Seven checks compare a measured value with a limit through
``core.require``; six have no limit and raise directly. Each is reached
here from a small input that crosses it, and each limit check also fails
on a NaN.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from plasmonqed import cli, correlations, oracle, scatter, storage
from plasmonqed.core import (
    InvariantViolation,
    PulseShape,
    TimeSeries,
    gaussian_spectrum,
    params_from_purcell,
    require,
)

P20 = params_from_purcell(20.0)
STORAGE_PARAMS = storage.ThreeLevelParams(20.0 / 21.0, 0.0, 1.0 / 21.0)


def _matched(duration, n_samples):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return storage.matched_storage(STORAGE_PARAMS, duration=duration,
                                       n_samples=n_samples)


def _store_with(duration=50.0, n_samples=201, scale_control=1.0,
                nan_control=False):
    matched = _matched(duration, n_samples)
    control = matched.store_control.samples.values * scale_control
    if nan_control:
        control[100] = math.nan
    dt = matched.input.samples.dt
    storage.store_photon(
        STORAGE_PARAMS, matched.input,
        PulseShape(TimeSeries(0.0, dt, control)))


def _oracle_command(monkeypatch, error):
    """cmd_oracle on a convergence report whose last error is ``error``."""
    report = oracle.ConvergenceReport([(250, error)], (0.9, 0.1, 0.0), [],
                                      True)
    monkeypatch.setattr(oracle, "convergence_report",
                        lambda *args, **kwargs: report)
    cli.cmd_oracle(cli._parse_config("oracle", dict(cli._DEFAULTS["oracle"])),
                   0)


def _uncleared_run(t_final=26.0):
    """A run that ends before the pulse has left the emitter; by default
    1/Gamma after the peak, with |c_e|^2 = 0.14."""
    oracle.scatter_wavepacket(oracle.build_grid(P20, 250),
                              gaussian_spectrum(0.1), t_final=t_final)


def _excited_start(amplitude):
    grid = oracle.build_grid(P20, 250, k_span=200.0)
    y0 = np.zeros(1 + 2 * grid.n_modes, dtype=complex)
    y0[0] = amplitude
    oracle._propagate(grid, y0, 1.0, P20.gamma_prime)


def _averaged_with(monkeypatch, excess):
    """pulse_averaged_rt on a unit-norm spectrum, with ``excess`` added to
    the closed form's loss at every detuning: the spectrum passes the
    unit-norm check, and only the patched loss moves R + T + kappa off 1."""
    closed_form = scatter.scatter_point

    def lossier(params, delta=None):
        point = closed_form(params, delta)
        return dataclasses.replace(point, loss=point.loss + excess)

    monkeypatch.setattr(scatter, "scatter_point", lossier)
    scatter.pulse_averaged_rt(P20, gaussian_spectrum(0.1))


def _overflowing_jump():
    with np.errstate(all="ignore"):
        correlations.jump_state(params_from_purcell(20.0, omega_c=1e300),
                                "transmitted")


# (invariant, the call that crosses it); the six without a limit come last
OVER_THE_LIMIT = [
    ("oracle-final-error", lambda mp: _oracle_command(mp, 0.5)),
    ("g2-negativity",
     lambda mp: correlations.G2Curve(np.zeros(2), np.array([1.0, -0.5]),
                                     "transmitted")),
    ("g2-drive-precision",
     lambda mp: correlations.g2(params_from_purcell(0.6, omega_c=1e13),
                                "transmitted", np.array([0.0, 1.0]))),
    ("excitation-norm", lambda mp: _excited_start(1.1)),
    ("pulse-not-cleared", lambda mp: _uncleared_run()),
    # 27/Gamma after the peak |c_e|^2 = 2.0e-6 is left, twice the limit;
    # the loss is 1 - (R + T + |c_e|^2), so this also bounds R + T + loss
    ("pulse-not-cleared", lambda mp: _uncleared_run(t_final=52.0)),
    ("spectral-average-normalization", lambda mp: _averaged_with(mp, 1.0)),
    # 100 samples over a duration of 3, too few for the pulse
    ("storage-probability-bookkeeping",
     lambda mp: _store_with(duration=3.0, n_samples=100)),
    ("dataset-column-count",
     lambda mp: cli._write_dataset(None, "test", {}, 0,
                                   {"x": [0.0, 1.0], "a": [1.0]}, ())),
    ("dataset-non-finite",
     lambda mp: cli._write_dataset(None, "test", {}, 0,
                                   {"x": [0.0], "a": [math.inf]}, ())),
    ("g2-non-finite",
     lambda mp: correlations.G2Curve(np.zeros(1), np.array([math.nan]),
                                     "transmitted")),
    ("jump-state-non-finite", lambda mp: _overflowing_jump()),
    # the block's norm and forcing are checked before its Taylor sum ...
    ("amplitude-integration", lambda mp: _store_with(nan_control=True)),
    # ... and the amplitudes after the scan, here grown to inf
    ("amplitude-integration",
     lambda mp: _store_with(scale_control=1e150)),
]


# ids start at 3, so that each row keeps the test id it has had since it
# was added
@pytest.mark.parametrize("invariant, cross", OVER_THE_LIMIT,
                         ids=[f"{name}-{i}" for i, (name, _)
                              in enumerate(OVER_THE_LIMIT, start=3)])
def test_each_check_fails_over_its_limit(invariant, cross, monkeypatch):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvariantViolation) as exc:
            cross(monkeypatch)
    assert exc.value.invariant == invariant


# The limit of each of the seven checks that goes through require
LIMITS = {
    "oracle-final-error": 1e-2,
    "g2-negativity": correlations._CLIP_FLOOR,
    "g2-drive-precision": correlations._SPECTRAL_ERROR_LIMIT,
    "excitation-norm": oracle._NORM_CEILING,
    "pulse-not-cleared": oracle._CLEARED_TOL,
    "spectral-average-normalization": scatter._AVERAGE_SUM_TOL,
    "storage-probability-bookkeeping": storage._BOOKKEEPING_TOL,
}


@pytest.mark.parametrize("invariant", LIMITS)
def test_nan_fails_every_limit(invariant):
    limit = LIMITS[invariant]
    require(invariant, limit, limit, "at the limit")
    with pytest.raises(InvariantViolation) as exc:
        require(invariant, math.nan, limit, "value nan")
    assert str(exc.value) == f"{invariant}: value nan, limit {limit!r}"


@pytest.mark.parametrize("invariant, feed_nan", [
    ("oracle-final-error", lambda mp: _oracle_command(mp, math.nan)),
    ("excitation-norm", lambda mp: _excited_start(math.nan)),
    ("spectral-average-normalization",
     lambda mp: _averaged_with(mp, math.nan)),
])
def test_nan_input_fails_its_check(invariant, feed_nan, monkeypatch):
    """A NaN reaches these checks from an input or, for the spectral
    average, from the patched closed form; at every other limit check an
    earlier check stops it (a NaN in a g2 curve fails g2-non-finite first,
    a NaN spectrum sample the unit-norm check)."""
    with pytest.raises(InvariantViolation) as exc:
        feed_nan(monkeypatch)
    assert exc.value.invariant == invariant


class TestRequire:
    def test_a_negative_limit_is_a_floor(self):
        require("floor", -1e-10, -1e-10, "")
        require("floor", 5.0, -1e-10, "")
        with pytest.raises(InvariantViolation, match="floor: x, limit -1e-10"):
            require("floor", -2e-10, -1e-10, "x")

    def test_any_other_limit_is_a_ceiling(self):
        require("ceiling", 1e-6, 1e-6, "")
        require("ceiling", -5.0, 0.0, "")
        for value in (1.1e-6, math.inf):
            with pytest.raises(InvariantViolation,
                               match=r"ceiling: x, limit 1e-06$"):
                require("ceiling", value, 1e-6, "x")
