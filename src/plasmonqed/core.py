"""Shared domain types and unit conventions.

Everything internal works in units where the total emitter linewidth is 1:
times are measured in 1/Gamma, rates in Gamma. All physics downstream depends
only on the dimensionless combinations P = gamma_pl/gamma_prime, omega_c/Gamma
and delta/Gamma, so absolute rates are accepted but immediately reducible.

``require`` is the one place where a measured value meets its limit: every
tolerance check of every layer calls it, and a NaN fails each of them.
``_check_rates`` is the one rate rule: ``EmitterParams`` and
``storage.ThreeLevelParams`` call it when built, so no parameter object with
a negative or non-finite rate, a non-finite delta or a zero total exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvariantViolation",
    "require",
    "EmitterParams",
    "TimeSeries",
    "PulseShape",
    "params_from_purcell",
    "gaussian_spectrum",
]

# Largest Taylor degree and scaled norm of bloch._expm, storage._affine_exp
_TAYLOR_DEGREE = 12
_TAYLOR_RADIUS = 0.5


class InvariantViolation(RuntimeError):
    """A numerical postcondition failed; ``invariant`` names which one."""

    def __init__(self, invariant: str, message: str = ""):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}" if message else invariant)


def require(invariant: str, value: float, limit: float, text: str) -> None:
    """Raise InvariantViolation(invariant, "<text>, limit <limit!r>") unless
    value is within limit: at least a negative limit (a floor), at most any
    other (a ceiling). A value equal to its limit passes; a NaN fails."""
    if not (value >= limit if limit < 0.0 else value <= limit):
        raise InvariantViolation(invariant, f"{text}, limit {limit!r}")


def _check_rates(params, *rates: str) -> None:
    """Store the named rates and ``delta`` of a frozen parameter object as
    floats. Each rate must be finite and >= 0, delta finite and the total
    decay rate positive; zero loss is the lossless, infinite-Purcell limit."""
    for name in (*rates, "delta"):
        object.__setattr__(params, name, float(getattr(params, name)))
    for name in rates:
        value = getattr(params, name)
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    if not math.isfinite(params.delta):
        raise ValueError(f"delta must be finite, got {params.delta!r}")
    if not params.gamma_total > 0.0:
        raise ValueError("total decay rate must be positive")


@dataclass(frozen=True)
class EmitterParams:
    """Rates of a driven two-level emitter coupled to the waveguide.

    gamma_pl    emission rate into the guided (waveguide) modes
    gamma_prime emission rate into every other channel
    omega_c     coherent drive amplitude: the coefficient in
                H = -delta sigma_ee - omega_c (sigma_eg + sigma_ge), so
                populations oscillate at 2 omega_c and the resonant
                saturation parameter is 8 (omega_c/Gamma)^2
    delta       detuning of the drive/photon from the emitter transition
    """

    gamma_pl: float
    gamma_prime: float
    omega_c: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        _check_rates(self, "gamma_pl", "gamma_prime", "omega_c")

    @property
    def gamma_total(self) -> float:
        return self.gamma_pl + self.gamma_prime

    @property
    def purcell(self) -> float:
        """P = gamma_pl / gamma_prime (inf when gamma_prime == 0)."""
        if self.gamma_prime == 0.0:
            return math.inf
        return self.gamma_pl / self.gamma_prime


def params_from_purcell(
    purcell: float,
    gamma_total: float = 1.0,
    omega_c: float = 0.0,
    delta: float = 0.0,
) -> EmitterParams:
    """Build parameters from (P, Gamma) instead of the two bare rates.

    Inverts P = gamma_pl/gamma_prime and Gamma = gamma_pl + gamma_prime:
    gamma_pl = Gamma * P/(1+P), gamma_prime = Gamma/(1+P).
    ``purcell = math.inf`` selects the lossless limit.
    """
    if not purcell >= 0.0:
        raise ValueError(f"purcell must be >= 0, got {purcell!r}")
    if math.isinf(purcell):
        return EmitterParams(gamma_total, 0.0, omega_c, delta)
    return EmitterParams(gamma_total * purcell / (1.0 + purcell),
                         gamma_total / (1.0 + purcell), omega_c, delta)


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled signal; ``t0`` and ``dt`` in units of 1/Gamma.

    Also used for frequency-domain sampling, in which case ``t0``/``dt`` are
    the grid origin and spacing in units of Gamma.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        values = np.asarray(self.values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        object.__setattr__(self, "values", values)

    @property
    def grid(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.values))

    def __len__(self) -> int:
        return len(self.values)


_NORM_TOL = 1e-9


@dataclass(frozen=True)
class PulseShape:
    """Complex envelope of a photon wavepacket or a control field.

    Its squared norm is whatever the samples give: 1 for a photon spectrum,
    the emission probability for an emitted field (see ``_check_unit_norm``).
    """

    samples: TimeSeries

    @property
    def squared_norm(self) -> float:
        v = self.samples.values
        return float(np.sum(np.abs(v) ** 2) * self.samples.dt)

    def normalized(self) -> "PulseShape":
        """Return a unit-norm copy (rescaled)."""
        n = self.squared_norm
        if n <= 0.0:
            raise ValueError("cannot normalize a zero pulse")
        scaled = self.samples.values / math.sqrt(n)
        return PulseShape(TimeSeries(self.samples.t0, self.samples.dt, scaled))


def _check_unit_norm(pulse: PulseShape, name: str) -> None:
    """Raise ValueError unless sum |v|^2 dt is 1 within 1e-9; NaN fails."""
    n = pulse.squared_norm
    if not abs(n - 1.0) <= _NORM_TOL:
        raise ValueError(f"{name} must be unit-normalized in frequency within "
                         f"{_NORM_TOL}, got sum |v|^2 dt = {n!r}")


def gaussian_spectrum(
    rms_bandwidth: float,
    center: float = 0.0,
    n_sigma: float = 8.0,
    n_samples: int = 1601,
) -> PulseShape:
    """Unit-norm Gaussian envelope sampled on a frequency grid.

    ``rms_bandwidth`` is the rms width of the spectral intensity |f|^2, i.e.
    |f(delta)|^2 is a normal density with standard deviation ``rms_bandwidth``
    centered on ``center``. The grid spans ``center +- n_sigma * rms``; it
    may be a time grid as well (storage's Gaussian photon).
    """
    if not 0.0 < rms_bandwidth < math.inf:
        raise ValueError(
            f"rms_bandwidth must be finite and positive, got {rms_bandwidth!r}")
    if not 0.0 < n_sigma < math.inf:
        raise ValueError(
            f"n_sigma must be finite and positive, got {n_sigma!r}")
    if n_samples < 3:
        raise ValueError("n_samples must be at least 3")
    sigma = float(rms_bandwidth)
    lo = center - n_sigma * sigma
    hi = center + n_sigma * sigma
    grid = np.linspace(lo, hi, n_samples)
    dnu = grid[1] - grid[0]
    # field amplitude: |f|^2 Gaussian of rms sigma
    f = np.exp(-((grid - center) ** 2) / (4.0 * sigma**2)).astype(complex)
    return PulseShape(TimeSeries(float(lo), float(dnu), f)).normalized()
