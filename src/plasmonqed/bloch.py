"""Driven two-level emitter dynamics and input-output observables.

After displacing the coherent input field to a c-number, the emitter obeys a
Lindblad master equation with Hamiltonian

    H = -delta sigma_ee - omega_c (sigma_eg + sigma_ge)

and a single decay channel of total rate Gamma. The drive sign is the unique
choice for which the resonant steady-state coherence is +2i omega_c/Gamma at
weak drive, which is what the destructive-interference transmission dip and
the saturation closed forms require.

Detected fields are expressed through the scaled operators

    a_T = omega_c * 1 + i (gamma_pl/2) sigma_ge      (transmitted)
    a_R = i (gamma_pl/2) sigma_ge                    (reflected)

whose normally ordered moments, divided by omega_c^2, give the transmittance
and reflectance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _TAYLOR_DEGREE, _TAYLOR_RADIUS, EmitterParams

__all__ = [
    "SIGMA_GE",
    "FieldObservables",
    "PropagatorFamily",
    "liouvillian",
    "hamiltonian",
    "steady_state",
    "field_operator",
    "field_observables",
    "saturation_closed_form",
]

# Basis ordering: index 0 = |g>, index 1 = |e>.
SIGMA_GE = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_EG = SIGMA_GE.conj().T
SIGMA_EE = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

_I2 = np.eye(2, dtype=complex)
# Smallest eigenvalue gap of L, in Gamma, of the spectral path: down to a
# gap of 1e-8 its g2 is within 3e-13 of _expm's, and where two eigenvalues
# merge in rounding (omega_c = 1e-12 on resonance) it is off by O(100).
_EIG_GAP_LIMIT = 1e-6
# Delay, in 1/Gamma, from which exp(L t) is taken as exp(L 80/Gamma). Every
# nonzero eigenvalue of L has Re <= -Gamma/2, so the other modes have
# decayed below e^-40 = 4e-18 by then; at longer delays the zero eigenvalue,
# which eig returns as about 1e-17, would drift exp(lambda t) away from 1.
_SETTLED_TIME = 80.0


def hamiltonian(params: EmitterParams) -> np.ndarray:
    return -params.delta * SIGMA_EE - params.omega_c * (SIGMA_EG + SIGMA_GE)


def liouvillian(params: EmitterParams) -> np.ndarray:
    """Generator of the master equation as a 4x4 matrix over vec(rho).

    Row-major vectorization: vec(A rho B) = (A kron B^T) vec(rho).
    """
    h = hamiltonian(params)
    gamma = params.gamma_total
    c = SIGMA_GE
    cdc = SIGMA_EG @ SIGMA_GE
    lv = -1j * (np.kron(h, _I2) - np.kron(_I2, h.T))
    lv += gamma * (
        np.kron(c, c.conj())
        - 0.5 * np.kron(cdc, _I2)
        - 0.5 * np.kron(_I2, cdc.T)
    )
    return lv


class PropagatorFamily:
    """Evaluates exp(L t) at one t, or at an array of them in one broadcast,
    from one spectral decomposition. Where two eigenvalues of L come within
    _EIG_GAP_LIMIT Gamma of each other, as at weak resonant drive and at
    the exceptional point, it falls back to ``_expm`` over the whole array.
    ``eigenvalues`` holds the spectrum either way. Delays past 80/Gamma are
    evaluated at 80/Gamma, where exp(L t) has reached its limit.
    """

    def __init__(self, params: EmitterParams):
        self.generator = liouvillian(params)
        w, v = np.linalg.eig(self.generator)
        self.eigenvalues = w
        self._settled = _SETTLED_TIME / params.gamma_total
        gaps = np.abs(w[:, None] - w)[np.triu_indices(len(w), 1)]
        # False also for a non-finite spectrum, whose gaps compare as NaN
        self.diagonalizable = bool(
            np.min(gaps) >= _EIG_GAP_LIMIT * params.gamma_total)
        if self.diagonalizable:
            self._vectors = v
            self._inverse = np.linalg.inv(v)

    def matrix(self, t) -> np.ndarray:
        """exp(L t), stacked over the shape of t."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t) & (t >= 0)):
            raise ValueError("propagation time must be >= 0 and finite")
        t = np.minimum(t, self._settled)
        if self.diagonalizable:
            phases = np.exp(t[..., None, None] * self.eigenvalues)
            return (self._vectors * phases) @ self._inverse
        stack = _expm(self.generator * t.reshape(-1, 1, 1))
        return stack.reshape(t.shape + (4, 4))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for each matrix of a stack: a Taylor polynomial of a/2^s,
    1-norm <= 1/2, squared s times, with s chosen per matrix; the degree-12
    truncation error is below 0.5^13/13! e^0.5 = 3e-14."""
    norm = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    if not np.all(np.isfinite(norm)):
        raise OverflowError("matrix exponential of a non-finite generator")
    squarings = np.ceil(np.log2(
        np.maximum(norm, _TAYLOR_RADIUS) / _TAYLOR_RADIUS)).astype(int)
    scaled = a / (2.0**squarings)[..., None, None]
    eye = np.eye(a.shape[-1], dtype=complex)
    result = eye
    for k in range(_TAYLOR_DEGREE, 0, -1):
        result = eye + scaled @ result / k
    for step in range(int(np.max(squarings, initial=0))):
        pick = squarings > step
        result[pick] = result[pick] @ result[pick]
    return result


def steady_state(params: EmitterParams) -> np.ndarray:
    """Stationary state in closed form (Cohen-Tannoudji, Dupont-Roc &
    Grynberg, Atom-Photon Interactions, 1992).

    With s = omega_c/|Gamma/2 - i delta|,

        rho_ee = s^2/(1 + 2 s^2),
        rho_eg = i omega_c/((1 + 2 s^2)(Gamma/2 - i delta)) = conj(rho_ge).

    omega_c and |Gamma/2 - i delta| are divided by the larger of the two
    first, so nothing overflows, and rho_ee underflows only with omega_c^2.
    """
    gamma = params.gamma_total
    width = math.hypot(0.5 * gamma, params.delta)
    scale = max(params.omega_c, width)
    x, y = params.omega_c / scale, width / scale
    denominator = y * y + 2.0 * x * x
    rho_ee = x * x / denominator
    # s/(1 + 2 s^2) times the unit phase (Gamma/2 + i delta)/width
    phase = complex(0.5 * gamma, params.delta) / width
    rho_eg = 1j * x * y / denominator * phase
    return np.array([[1.0 - rho_ee, rho_eg.conjugate()],
                     [rho_eg, rho_ee]], dtype=complex)


def field_operator(params: EmitterParams, branch: str) -> np.ndarray:
    """Scaled detected-field operator for a branch ('transmitted'/'reflected')."""
    source = 0.5j * params.gamma_pl * SIGMA_GE
    if branch == "transmitted":
        return params.omega_c * _I2 + source
    if branch == "reflected":
        return source
    raise ValueError(f"unknown branch {branch!r}")


@dataclass(frozen=True)
class FieldObservables:
    mean_transmitted: complex
    mean_reflected: complex
    transmittance: float
    reflectance: float
    loss: float


def field_observables(params: EmitterParams, rho: np.ndarray) -> FieldObservables:
    """Input-output observables of a state, normalized to the drive flux.

    T = <a_T^+ a_T>/omega_c^2 and R = <a_R^+ a_R>/omega_c^2; the loss channel
    carries gamma_pl * gamma_prime * rho_ee / (2 omega_c^2), which closes the
    flux balance T + R + loss = 1 exactly in steady state at any detuning.
    """
    if params.omega_c <= 0.0:
        raise ValueError("omega_c must be positive for normalized observables")
    rho = np.asarray(rho, dtype=complex)
    a_t = field_operator(params, "transmitted")
    a_r = field_operator(params, "reflected")
    flux = params.omega_c**2
    mean_t = complex(np.trace(rho @ a_t))
    mean_r = complex(np.trace(rho @ a_r))
    trans = float(np.real(np.trace(rho @ (a_t.conj().T @ a_t)))) / flux
    refl = float(np.real(np.trace(rho @ (a_r.conj().T @ a_r)))) / flux
    rho_ee = float(np.real(rho[1, 1]))
    loss = params.gamma_pl * params.gamma_prime * rho_ee / (2.0 * flux)
    return FieldObservables(mean_t, mean_r, trans, refl, loss)


def saturation_closed_form(purcell: float, omega_over_gamma: float) -> tuple[float, float]:
    """Steady-state (T, R) on resonance as closed forms of P and omega_c/Gamma.

    T = (1 + (1+P)^2 x2) / ((1+P)^2 (1+x2)) with x2 = 8 (omega_c/Gamma)^2 is
    evaluated as x2/(1+x2) + 1/((1+P)^2 (1+x2)), and x2/(1+x2) as
    1/(1 + 1/x2), so a drive whose x2 or (1+P)^2 x2 overflows gives T -> 1
    rather than inf/inf.
    """
    omega = float(omega_over_gamma)
    x2 = 8.0 * omega * omega
    saturated = 1.0 / (1.0 + 1.0 / x2) if x2 else 0.0
    if math.isinf(purcell):
        return saturated, 1.0 / (1.0 + x2)
    if purcell < 0.0:
        raise ValueError("purcell must be >= 0")
    one_plus = (1.0 + purcell) ** 2
    t = saturated + 1.0 / (one_plus * (1.0 + x2))
    if purcell == 0.0:
        r = 0.0
    else:
        r = (1.0 + 1.0 / purcell) ** (-2) / (1.0 + x2)
    return t, r

