"""Closed-form single-photon scattering off the emitter.

The emitter acts as a saturable mirror for guided photons: on resonance a
strongly coupled emitter reflects nearly everything, and the linewidth of the
reflection spectrum is the total decay rate. The three probabilities
(reflection R, transmission T, loss kappa) satisfy R + T + kappa = 1 and the
coupling identity kappa = 2R/P. Each closed form is one array expression:
an array of detunings gives arrays of its shape, with no call per detuning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EmitterParams, PulseShape, UNIT_NORM, require

__all__ = [
    "ScatterPoint",
    "scatter_point",
    "scatter_spectrum",
    "pulse_averaged_rt",
]

_AVERAGE_SUM_TOL = 1e-6


@dataclass(frozen=True)
class ScatterPoint:
    """Scattering outcome at one detuning, or at each of an array of them
    (then every field is an array of the detunings' shape)."""

    delta: float
    r: complex
    t: complex
    reflectance: float
    transmittance: float
    loss: float


def scatter_point(params: EmitterParams, delta: float | None = None) -> ScatterPoint:
    """Full (r, t, R, T, kappa) at a detuning or an array of them
    (params.delta by default).

    r = -gamma_pl / (gamma_total - 2 i delta) and t = 1 + r. A decoupled
    emitter (gamma_pl = 0) gives r = 0; the lossless limit gives |r(0)| = 1.
    """
    d = params.delta if delta is None else delta
    r = -params.gamma_pl / (params.gamma_total - 2.0j * d)
    t = 1.0 + r
    reflectance = abs(r) ** 2
    transmittance = abs(t) ** 2
    loss = 1.0 - reflectance - transmittance
    return ScatterPoint(d, r, t, reflectance, transmittance, loss)


def scatter_spectrum(
    params: EmitterParams, deltas: Sequence[float]
) -> ScatterPoint:
    """One ScatterPoint of arrays over a non-empty array of detunings."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size == 0:
        raise ValueError("deltas must be non-empty")
    return scatter_point(params, deltas)


def pulse_averaged_rt(
    params: EmitterParams, spectrum: PulseShape
) -> tuple[float, float, float]:
    """Spectrally averaged (R, T, kappa) for a finite-bandwidth photon.

    ``spectrum`` is a unit-norm pulse sampled on a *frequency* grid; the
    averages are the single-photon probabilities summed over its samples
    with weights |f(delta)|^2 d(delta), the same rule that fixes the unit
    norm. For a smooth spectrum that decays like a Gaussian inside the
    window this sum converges exponentially in the sample spacing
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)), and a single-sample
    spectrum is a monochromatic line. The caller is responsible for
    covering the pulse support (8 rms widths for the built-in Gaussian).
    """
    if spectrum.norm_convention != UNIT_NORM:
        raise ValueError("spectrum must be unit-normalized in frequency")
    samples = spectrum.samples
    weights = np.abs(samples.values) ** 2 * samples.dt
    point = scatter_point(params, samples.grid)
    r_bar = float(weights @ point.reflectance)
    t_bar = float(weights @ point.transmittance)
    k_bar = float(weights @ point.loss)
    total = r_bar + t_bar + k_bar
    require("spectral-average-normalization", abs(total - 1.0),
            _AVERAGE_SUM_TOL, f"R + T + kappa = {total!r}")
    return r_bar, t_bar, k_bar
