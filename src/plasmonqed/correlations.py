"""Two-time photon statistics and quantum-jump conditioning.

The normalized intensity correlation of a detected branch is evaluated with
the quantum regression theorem,

    g2(t) = Tr[a^+ a  e^{L t}(a rho_ss a^+)] / <a^+ a>_ss^2 ,

with a the scaled transmitted or reflected field operator. Detecting a photon
projects the emitter onto the conditional state a rho_ss a^+ (normalized).
g2 is one spectral expression over the caller's delays, one or many, as
given and at any spacing (bloch.PropagatorFamily.matrix), except where two
eigenvalues of L merge (weak resonant drive, the exceptional point
omega_c = Gamma/8), which falls back to _expm.

The reflected field is proportional to sigma_ge, so its g2 is that of
resonance fluorescence at every drive (Kimble & Mandel, Phys. Rev. A 13,
2123 (1976)); on resonance, with times in 1/Gamma,

    g2(t) = 1 - exp(-3t/4) [cos(mu t) + 3/(4 mu) sin(mu t)],
    mu = sqrt((2 omega_c/Gamma)^2 - 1/16),

which the tests pin on both sides of omega_c = Gamma/8, where mu = 0.

At weak drive the transmitted curve approaches the closed form
(P^2 exp(-t/2) - 1)^2 (times in 1/Gamma), which vanishes at
t0 = 4 ln P for P >= 1 (below P = 1 it has no zero) and reaches
(P^2 - 1)^2 at t = 0. Weak drive for the
transmitted branch means (1+P)^2 8 (omega_c/Gamma)^2 << 1, not merely
omega_c << Gamma: that product is the transmitted-branch saturation parameter
of bloch.saturation_closed_form, and the leading correction to the closed
form is of that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bloch
from .core import EmitterParams, InvariantViolation, require

__all__ = [
    "G2Curve",
    "JumpState",
    "g2",
    "g2_weakfield_analytic",
    "jump_state",
]

_CLIP_FLOOR = -1e-10
_DETECTION_FLOOR = 1e-300
# Largest rounding error eps * max|eigenvalue of L| (in Gamma) the spectral
# propagator may carry: below it the reflected g2 stays within 1e-5 of its
# closed form (omega_c <= 1e12 Gamma); at 1e13 Gamma it is off by 1e-3.
_SPECTRAL_ERROR_LIMIT = 1e-3


@dataclass(frozen=True)
class G2Curve:
    """Normalized correlation samples at an array of delays."""

    times: np.ndarray
    values: np.ndarray
    branch: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.times),):
            raise ValueError("values must match the number of delays")
        if not np.all(np.isfinite(values)):
            raise InvariantViolation(
                "g2-non-finite",
                f"{np.count_nonzero(~np.isfinite(values))} of {values.size} "
                "values")
        lowest = float(np.min(values))
        require("g2-negativity", lowest, _CLIP_FLOOR,
                f"minimum value {lowest!r}")
        # tiny negative round-off at exact zeros is reported as 0
        object.__setattr__(self, "values", np.where(values < 0.0, 0.0, values))


@dataclass(frozen=True)
class JumpState:
    """Emitter state immediately after a photon detection."""

    rho_jump: np.ndarray
    branch: str
    amplitude_ratio: complex


def _post_click(params: EmitterParams, branch: str):
    """rho_ss, the field operator a, a rho_ss a^+ and its trace <a^+ a>_ss."""
    rho_ss = bloch.steady_state(params)
    a = bloch.field_operator(params, branch)
    unnormalized = a @ rho_ss @ a.conj().T
    norm = float(np.real(np.trace(unnormalized)))
    if norm <= _DETECTION_FLOOR:
        raise ValueError(f"zero detection probability on the {branch} branch")
    return rho_ss, a, unnormalized, norm


def _g2(params: EmitterParams, branch: str, times) -> np.ndarray:
    """Tr[a^+ a e^{L t}(a rho_ss a^+)] / <a^+ a>_ss^2 at each delay t."""
    if params.omega_c <= 0.0:
        raise ValueError("omega_c must be positive for stationary g2")
    family = bloch.PropagatorFamily(params)
    spectral_error = (math.ulp(1.0) * float(np.max(np.abs(family.eigenvalues)))
                      / params.gamma_total)
    require("g2-drive-precision", spectral_error, _SPECTRAL_ERROR_LIMIT,
            f"eps * max|eigenvalue of L| / Gamma = {spectral_error!r}")
    _, a, conditional, intensity = _post_click(params, branch)
    if intensity * intensity < np.finfo(float).tiny:
        raise ValueError(f"detected intensity {intensity!r} on the {branch} "
                         f"branch: its square underflows double precision")
    number_row = (a.conj().T @ a).T.reshape(4)
    evolved = family.matrix(times) @ conditional.reshape(4)
    # a sum, not a matrix product, so no delay's value depends on the others
    return np.real(np.sum(evolved * number_row, axis=-1)) / intensity**2


def g2(params: EmitterParams, branch: str, times) -> G2Curve:
    """Stationary normalized g2 at each of the given delays, at any spacing."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D array of delays")
    return G2Curve(times, _g2(params, branch, times), branch)


def g2_weakfield_analytic(purcell: float, t) -> np.ndarray | float:
    """Weak-drive transmitted-branch closed form, times in 1/Gamma.

    Written as (P^2 e^{-t/2} - 1)^2, not as the equal e^{-t} (P^2 - e^{t/2})^2,
    whose factors overflow beyond t of about 710.
    """
    t = np.asarray(t, dtype=float)
    value = (purcell**2 * np.exp(-t / 2.0) - 1.0) ** 2
    return float(value) if value.ndim == 0 else value


def jump_state(params: EmitterParams, branch: str) -> JumpState:
    """Conditional emitter state right after a detection on a branch."""
    rho_ss, a, unnormalized, norm = _post_click(params, branch)
    rho_jump = unnormalized / norm
    rho_jump = 0.5 * (rho_jump + rho_jump.conj().T)
    if not np.all(np.isfinite(rho_jump)):
        raise InvariantViolation(
            "jump-state-non-finite", f"detection probability {norm!r}")
    mean_ss = complex(np.trace(rho_ss @ a))
    ratio = (complex(np.trace(rho_jump @ a)) / mean_ss if mean_ss != 0
             else complex(math.nan, math.nan))
    return JumpState(rho_jump, branch, ratio)

