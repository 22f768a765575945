"""Three-level emitter: photon storage and transistor gain.

A metastable state |s> decoupled from the waveguide turns the emitter into a
state-controlled mirror. A classical control Omega(t) on the s-e transition
maps an incoming single photon onto |s> (storage); reading the same emitter
afterwards routes signal photons by reflection (state |g>, as_two_level's
scatter_point) or transmission (state |s>, a transparent emitter).

Single-excitation amplitude equations (times in 1/Gamma, Gamma the total
|e> linewidth including the control-free decay to |s>):

    dc_e/dt = (i delta - Gamma/2) c_e + i Omega(t) c_s + sqrt(gamma_pl) E(t)
    dc_s/dt = i conj(Omega(t)) c_e,        output E - sqrt(gamma_pl) c_e

Generation starts in |s> with no drive (E = 0); storage starts in |g> and
is driven by the incoming photon. Both integrate this one system, by a
4th-order Magnus step per sample interval, 4096 intervals at a time; the
control that emits a given pulse comes from inverting it in closed form on
the same samples. Both run on numpy alone. Every rule on the samples (the
derivative, the running integral and its total, and the values at the Gauss
nodes) is a fixed local stencil on the samples continued past each end by
the cubic through their 4 outermost values; no path takes fewer than 4.

Storage with the time reverse of a generation control and pulse is impedance
matched: a unit photon is stored with probability gamma_pl/Gamma, which is
the 1 - 1/P law at a large Purcell factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    _TAYLOR_DEGREE,
    _TAYLOR_RADIUS,
    _check_rates,
    EmitterParams,
    InvariantViolation,
    PulseShape,
    TimeSeries,
    gaussian_spectrum,
    require,
)
from .scatter import scatter_point

__all__ = [
    "ThreeLevelParams",
    "StorageResult",
    "GainEstimate",
    "TransistorRun",
    "MatchedStorage",
    "generate_photon",
    "control_for_target_pulse",
    "store_photon",
    "matched_storage",
    "transistor_gain",
    "run_transistor",
]

_CS_GUARD = 1e-6
_BOOKKEEPING_TOL = 1e-6
_FEASIBILITY_MARGIN = 1e-4
# largest control phase advance per sample the inversion resolves: at 1.86
# rad the regenerated pulse misses its target by L2 2.2e-4, at 3.72 rad by
# 8.0e-3 (P = 20, delta = 0.5, duration 10)
_MAX_PHASE_STEP = 2.0

# Lagrange weights of samples i - 4 ... i + 5 at the Gauss-Legendre nodes
# i + 1/2 -+ sqrt(3)/6 of interval i, a degree-9 interpolant (_at_gauss_nodes)
_NODE_WEIGHTS = np.array([
    [math.prod((x - m) / (j - m) for m in range(-4, 6) if m != j)
     for j in range(-4, 6)]
    for x in (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)])
# Lagrange weights of samples 0..3 at the 4 points before the first, the
# rows of the cubic end extension (_extend)
_END_CUBIC = np.array([
    [math.prod((x - m) / (j - m) for m in range(4) if m != j)
     for j in range(4)]
    for x in range(-4, 0)])
# weights of f[0..3], and mirrored of f[n-1..n-4], that turn the plain sum
# of the samples into the cumulative rule's total integral, over dt/24
_END_TOTAL = np.array([-16.0, 7.0, -4.0, 1.0])

# Remainder bound of phi(W) at the largest Taylor degree and scaled norm of
# each Magnus step's exponential, 0.5^12/13! e^0.5 = 6.5e-14. Each call
# takes the smallest degree K whose bound theta^K/(K+1)! e^theta at its
# scaled norm theta stays within that: storing a duration-50 pulse at 1501,
# 4001 and 16001 samples (step norms 0.027, 0.010, 0.0025) takes 7, 6 and 5.
_TAYLOR_REMAINDER = (_TAYLOR_RADIUS**_TAYLOR_DEGREE
                     / math.factorial(_TAYLOR_DEGREE + 1)
                     * math.exp(_TAYLOR_RADIUS))
# Sample intervals _evolve takes together, node values to loss sums: their
# complex temporaries (64 KB) stay below glibc's 128 KB mmap threshold.
_BLOCK = 4096


@dataclass(frozen=True)
class ThreeLevelParams:
    """Rates of the lambda system.

    gamma_pl       e -> g decay into the waveguide
    gamma_prime_g  e -> g decay into non-guided channels
    gamma_es       e -> s decay (optical pumping channel)
    delta          detuning of the photon/drive from the e-g transition
    control        optional classical control envelope Omega(t)
    """

    gamma_pl: float
    gamma_prime_g: float
    gamma_es: float
    delta: float = 0.0
    control: PulseShape | None = None

    def __post_init__(self):
        _check_rates(self, "gamma_pl", "gamma_prime_g", "gamma_es")

    @property
    def gamma_eg(self) -> float:
        return self.gamma_pl + self.gamma_prime_g

    @property
    def gamma_total(self) -> float:
        return self.gamma_eg + self.gamma_es

    def as_two_level(self) -> EmitterParams:
        """Undriven two-level view of the g-e transition at this detuning.

        Decay to |s> removes the photon from the guided mode, so it counts
        as part of the non-guided rate, and of the view's purcell.
        """
        return EmitterParams(self.gamma_pl,
                             self.gamma_prime_g + self.gamma_es, 0.0, self.delta)

    def with_control(self, control: PulseShape) -> "ThreeLevelParams":
        return ThreeLevelParams(self.gamma_pl, self.gamma_prime_g,
                                self.gamma_es, self.delta, control)


@dataclass(frozen=True)
class StorageResult:
    efficiency: float
    leakage: float
    loss: float
    amplitudes: tuple[TimeSeries, TimeSeries]


@dataclass(frozen=True)
class GainEstimate:
    mean: float
    ci95: float
    analytic_mean: float


@dataclass(frozen=True)
class TransistorRun:
    reflected: float
    transmitted: float
    flip_occurred: bool
    gate_stored: bool
    storage_efficiency: float | None


@dataclass(frozen=True)
class MatchedStorage:
    """Impedance-matched (input, control) pair and the pulse it time-reverses."""

    input: PulseShape
    store_control: PulseShape
    generate_control: PulseShape
    target: PulseShape


def _check_grid(series: TimeSeries, grid) -> None:
    grid = np.asarray(grid, dtype=float)
    if (grid.shape != (len(series),)
            or not np.max(np.abs(grid - series.grid)) <= 1e-9):
        raise ValueError("pulse and control must share one time grid")


def _extend(values: np.ndarray, count: int) -> np.ndarray:
    """The samples continued ``count`` points past each end by the cubic
    through their 4 outermost values. Fewer than 4 samples are rejected."""
    if len(values) < 4:
        raise ValueError(
            f"{len(values)} samples are too few for the cubic end "
            f"extension, which needs at least 4")
    weights = _END_CUBIC[-count:]
    return np.concatenate([weights @ values[:4], values,
                           (weights @ values[:-5:-1])[::-1]])


def _derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """First derivative at every sample: the central 4th-order stencil on
    the samples extended by 2, so the cubic end extension's derivative at
    the two samples next to each end."""
    ext = _extend(values, 2)
    return (ext[:-4] - 8.0 * ext[1:-3] + 8.0 * ext[3:-1] - ext[4:]) \
        / (12.0 * dt)


def _cumulative(values: np.ndarray, dt: float) -> np.ndarray:
    """Integral from the first sample to each sample, to 4th order in dt.

    Each interval takes dt/24 (-f[i-1] + 13 f[i] + 13 f[i+1] - f[i+2]) on
    the samples extended by 1; at the ends that is the 4-point rule
    dt/24 (9, 19, -5, 1), since the extension is f[-1] = 4 f[0] - 6 f[1]
    + 4 f[2] - f[3].
    """
    ext = _extend(values, 1)
    steps = 13.0 * (ext[1:-2] + ext[2:-1]) - (ext[:-3] + ext[3:])
    running = np.zeros(len(values), dtype=values.dtype)
    np.cumsum(steps * (dt / 24.0), out=running[1:])
    return running


def _integral(total: float, ends: np.ndarray, dt: float) -> float:
    """_cumulative(f, dt)[-1] from the sum ``total`` of all n >= 4 samples f
    and ``ends``, f at samples 0 ... 3 and n - 4 ... n - 1 (_END_TOTAL)."""
    return float(dt * (total + _END_TOTAL @ (ends[:4] + ends[:3:-1]) / 24.0))


def _at_gauss_nodes(extended: np.ndarray) -> list[np.ndarray]:
    """Values at both Gauss nodes of each interval i: the degree-9 interpolant
    through extended samples i ... i + 9 (samples i - 4 ... i + 5 if
    ``extended`` is _extend(values, 4); a slice of it gives its intervals)."""
    nodes = []
    for row in _NODE_WEIGHTS:
        node = np.empty(len(extended) - 9, dtype=complex)
        node.real = np.convolve(extended.real, row[::-1], "valid")
        node.imag = np.convolve(extended.imag, row[::-1], "valid")
        nodes.append(node)
    return nodes


def _compose(later, earlier):
    """Affine maps y -> P y + q of C^2, elementwise along the arrays.

    Each map is the six arrays (P00, P01, P10, P11, q0, q1); the result
    applies ``earlier`` first. With ``later`` a generator [[W, w], [0, 0]] of
    the affine system it is the product of the two 3x3 matrices. The arrays
    stay separate: stacking them costs more than the arithmetic.
    """
    a00, a01, a10, a11, a0, a1 = later
    b00, b01, b10, b11, b0, b1 = earlier
    return [a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11,
            a00 * b0 + a01 * b1 + a0, a10 * b0 + a11 * b1 + a1]


def _taylor_degree(theta: float) -> int:
    """Smallest Taylor degree whose remainder bound at theta is in tolerance."""
    return next((k for k in range(1, _TAYLOR_DEGREE)
                 if theta**k / math.factorial(k + 1) * math.exp(theta)
                 <= _TAYLOR_REMAINDER), _TAYLOR_DEGREE)


def _affine_exp(generator):
    """exp of each 3x3 generator [[W, w], [0, 0]], as the map (e^W, phi(W) w).

    phi(W) = sum W^(k-1)/k! is a Taylor sum in W scaled by 2^-s to norm
    theta <= 1/2, and the map is squared s times. The degree is the smallest
    K <= 12 that keeps the remainder theta^K/(K+1)! e^theta of phi within
    its value at theta = 1/2 and K = 12, 6.5e-14. By Cayley-Hamilton every
    polynomial in the 2x2 W is c I + d W, so the Horner steps run on the two
    coefficients: (I + W (c I + d W))/k is (1 - d det W)/k I + (c + d tr W)/k
    W. e^W = I + W phi(W) is one more such step, with W times phi's remainder.
    """
    w00, w01, w10, w11, v0, v1 = generator
    norm = float(np.max(np.maximum(np.abs(w00) + np.abs(w01),
                                   np.abs(w10) + np.abs(w11)), initial=0.0))
    if not (math.isfinite(norm) and np.all(np.isfinite(v0))
            and np.all(np.isfinite(v1))):
        raise InvariantViolation("amplitude-integration",
                                 "non-finite control or drive")
    squarings = max(0, math.ceil(math.log2(norm / _TAYLOR_RADIUS))) \
        if norm > 0.0 else 0
    if squarings:
        w00, w01, w10, w11, v0, v1 = (g / 2.0**squarings for g in generator)
    degree = _taylor_degree(norm / 2.0**squarings)
    trace = w00 + w11
    det = w00 * w11 - w01 * w10
    # phi(W) = c I + d W, after the Horner step k = K
    c, d = 1.0 / degree, 0.0
    for k in range(degree - 1, 0, -1):
        c, d = (1.0 - d * det) * (1.0 / k), (c + d * trace) * (1.0 / k)
    a, b = 1.0 - d * det, c + d * trace
    result = [a + b * w00, b * w01, b * w10, a + b * w11,
              c * v0 + d * (w00 * v0 + w01 * v1),
              c * v1 + d * (w10 * v0 + w11 * v1)]
    for _ in range(squarings):
        result = _compose(result, result)
    return result


def _scan_states(steps, start):
    """Inclusive scan on a state: entry i is step i ... step 0 of ``start``.

    Recursive doubling on the state: composing neighbouring steps pairwise
    halves the sequence, and its scan from the same start gives every odd
    entry; applying each even step to the entry before it (the start for
    step 0) fills in the even ones. That is about one composition and one
    matrix-vector product per entry, where carrying the map from the start
    to every entry took two compositions. At 64 entries or fewer a loop on
    Python complex values (so ``start`` should be such) costs less.
    """
    n = len(steps[0])
    if n <= 64:
        y0, y1 = start
        e, s = [], []
        for p00, p01, p10, p11, q0, q1 in zip(*(x.tolist() for x in steps)):
            y0, y1 = p00 * y0 + p01 * y1 + q0, p10 * y0 + p11 * y1 + q1
            e.append(y0)
            s.append(y1)
        return np.array(e), np.array(s)
    odd = _scan_states(_compose([s[1::2] for s in steps],
                                [s[:n - 1:2] for s in steps]), start)
    y0, y1 = (np.concatenate([[y], o[:(n - 1) // 2]])
              for y, o in zip(start, odd))
    p00, p01, p10, p11, q0, q1 = (s[::2] for s in steps)
    states = np.empty((2, n), dtype=complex)
    states[0, ::2], states[1, ::2] = (p00 * y0 + p01 * y1 + q0,
                                      p10 * y0 + p11 * y1 + q1)
    states[0, 1::2], states[1, 1::2] = odd
    return states


def _generators(controls, drives, h, decay):
    """4th-order Magnus generators h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1]
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)) of the intervals
    of a slice of the extended samples, with Omega and the drive E at both
    Gauss nodes (_at_gauss_nodes). An all-zero drive (``drives`` None) adds
    the scalar 0, as its interpolant would. Its temporaries die on return."""
    weight = math.sqrt(3.0) / 12.0 * h * h
    om1, om2 = _at_gauss_nodes(controls)
    # off-diagonal entries i Omega, i conj(Omega) of A at the two nodes
    a1, a2 = 1j * om1, 1j * om2
    b1, b2 = 1j * np.conj(om1), 1j * np.conj(om2)
    forcing = (0.0, 0.0)
    if drives is not None:
        f1, f2 = _at_gauss_nodes(drives)
        forcing = (0.5 * h * (f1 + f2) + weight * decay * (f1 - f2),
                   weight * (b2 * f1 - b1 * f2))
    # [A2, A1] has the diagonal (x, -x), x = a2 b1 - a1 b2
    commutator = a2 * b1 - a1 * b2
    return (h * decay + weight * commutator,
            0.5 * h * (a1 + a2) + weight * decay * (a1 - a2),
            0.5 * h * (b1 + b2) + weight * decay * (b2 - b1),
            -weight * commutator,
            *forcing)


def _evolve(params: ThreeLevelParams, control: TimeSeries,
            drive: np.ndarray, c_s0: float):
    """Amplitudes (c_e, c_s) at the samples and the totals (lost, out).

    Integrates from c_e = 0, c_s = c_s0

        dc_e/dt = (i delta - Gamma/2) c_e + i Omega c_s + sqrt(gamma_pl) E
        dc_s/dt = i conj(Omega) c_e

    as the affine system on [c_e, c_s, 1], one Magnus step (_generators)
    per sample interval, its exponential a Taylor sum of the degree the step
    norm sets. The work runs in blocks of ``_BLOCK`` = 4096 intervals (up to
    4097 samples are one block), whose temporaries come from the heap and
    stay in cache. Each block takes its steps from its slice of the extended
    samples, with the degree and squarings of its own norm, scans them by
    recursive doubling from the state the block before left (from (0, c_s0)
    in the first), and adds its samples to the sums of the totals
    lost = (gamma'_g + gamma_es) int |c_e|^2 and
    out = int |E - sqrt(gamma_pl) c_e|^2 (_integral).
    """
    h = control.dt
    decay = 1j * params.delta - params.gamma_total / 2.0
    root_pl = math.sqrt(params.gamma_pl)
    n = len(control)
    controls = _extend(control.values, 4)
    drives = _extend(root_pl * drive, 4) if np.any(drive) else None
    c_e, c_s = np.empty((2, n), dtype=complex)
    c_e[0], c_s[0] = 0.0, c_s0
    lost, out = 0.0, float(abs(drive[0]) ** 2)
    for start in range(0, n - 1, _BLOCK):
        stop = min(start + _BLOCK, n - 1)
        maps = _affine_exp(_generators(
            controls[start:stop + 9],
            None if drives is None else drives[start:stop + 9], h, decay))
        new = slice(start + 1, stop + 1)
        c_e[new], c_s[new] = _scan_states(
            maps, (complex(c_e[start]), complex(c_s[start])))
        field = drive[new] - root_pl * c_e[new]
        lost += np.vdot(c_e[new], c_e[new]).real
        out += np.vdot(field, field).real
    if not (np.all(np.isfinite(c_e)) and np.all(np.isfinite(c_s))):
        raise InvariantViolation("amplitude-integration",
                                 "non-finite amplitudes")
    ends = [0, 1, 2, 3, -4, -3, -2, -1]
    lost = (params.gamma_prime_g + params.gamma_es) * _integral(
        lost, np.abs(c_e[ends]) ** 2, h)
    out = _integral(out, np.abs(drive[ends] - root_pl * c_e[ends]) ** 2, h)
    return c_e, c_s, lost, out


def generate_photon(
    params: ThreeLevelParams, t_grid
) -> tuple[PulseShape, float]:
    """Emit a photon from |s> under the control in ``params``.

    Returns the emitted waveguide envelope v(t) = sqrt(gamma_pl) c_e(t)
    (its squared norm is the emission efficiency) and
    the efficiency itself. ``t_grid`` must be the control's own grid.
    """
    if params.control is None:
        raise ValueError("generation requires a control pulse in params")
    control = params.control.samples
    _check_grid(control, t_grid)
    c_e, c_s, _, out = _evolve(params, control,
                               np.zeros(len(control), dtype=complex), 1.0)
    residual = float(abs(c_s[-1]) ** 2)
    if residual > 1e-3:
        warnings.warn(
            f"control leaves |c_s|^2 = {residual:.3g} undepleted",
            stacklevel=2)
    v = math.sqrt(params.gamma_pl) * c_e
    pulse = PulseShape(TimeSeries(control.t0, control.dt, v))
    return pulse, out


def _departed_population(c_e: np.ndarray, dt: float,
                         gamma: float) -> np.ndarray:
    """Population that has left |s> by each sample: |c_e|^2 + Gamma int |c_e|^2.

    During generation |c_s|^2 is one minus this; the emitted flux and the
    other decay channels together drain Gamma |c_e|^2.
    """
    intensity = np.abs(c_e) ** 2
    return intensity + gamma * _cumulative(intensity, dt)


def control_for_target_pulse(
    params: ThreeLevelParams, target: PulseShape
) -> PulseShape:
    """Control that makes ``generate_photon`` emit ``target``.

    Inverts the generation equations in closed form (Gorshkov et al., PRL
    98, 123601 (2007)). The target fixes c_e = v/sqrt(gamma_pl), and the c_e
    equation fixes N = i Omega c_s = dc_e/dt + (Gamma/2 - i delta) c_e, with
    dc_e/dt a 4th-order finite difference of the samples. Norm bookkeeping
    gives |c_s|^2 = 1 - |c_e|^2 - Gamma int |c_e|^2, and the c_s equation
    gives its phase phi = -int Im(conj(N) c_e)/|c_s|^2, both integrals being
    running sums of a 4th-order cumulative rule on the samples. Then
    Omega = N/(i |c_s| e^{i phi}). Every rule continues the samples past
    each end by the cubic through the 4 outermost ones, so a target of fewer
    than 4 samples is rejected.

    Division is guarded at |c_s| <= 1e-6: from the first sample where the
    guard holds the control is zero, and if more than 1e-5 of the target is
    still unemitted there, the target demands more than the gamma_pl/Gamma
    efficiency bound and is rejected. A detuned target whose phase advances
    by more than 2 rad between samples (the rate grows as |c_s|^2 falls) is
    rejected as undersampled.
    """
    if params.gamma_pl <= 0.0:
        raise ValueError("gamma_pl must be positive to emit into the waveguide")
    t = target.samples.grid
    dt = target.samples.dt
    gamma = params.gamma_total
    v = target.samples.values
    norm = target.squared_norm
    bound = params.gamma_pl / gamma
    if norm > bound + 1e-9:
        raise ValueError(
            f"target norm {norm:.6g} exceeds the efficiency bound "
            f"gamma_pl/Gamma = {bound:.6g}")
    c_e = v / math.sqrt(params.gamma_pl)
    cs2 = 1.0 - _departed_population(c_e, dt, gamma)
    guarded = np.flatnonzero(cs2 <= _CS_GUARD**2)
    stop = int(guarded[0]) if guarded.size else len(t)
    remaining = float(np.sum(np.abs(v[stop:]) ** 2) * dt)
    if remaining > 1e-5:
        raise ValueError(
            f"target requires more than the gamma_pl/Gamma efficiency "
            f"bound: |c_s| hit the guard at t = {t[stop]:.4g} with "
            f"{remaining:.3g} of the pulse unemitted")
    numerator = (_derivative(c_e, dt)
                 + (gamma / 2.0 - 1j * params.delta) * c_e)[:stop]
    cs2 = cs2[:stop]
    phase_rate = -np.imag(np.conj(numerator) * c_e[:stop]) / cs2
    max_rate = float(np.max(np.abs(phase_rate), initial=0.0))
    if dt * max_rate > _MAX_PHASE_STEP:
        # finer samples land nearer the rate's peak: 1 % headroom covers that
        needed = math.ceil(
            1.01 * (t[-1] - t[0]) * max_rate / _MAX_PHASE_STEP) + 1
        raise ValueError(
            f"control phase undersampled: it advances {dt * max_rate:.3g} "
            f"rad per sample (limit {_MAX_PHASE_STEP:g}); sample the target "
            f"at least {needed} times over the same span")
    phase = _cumulative(phase_rate, dt)
    omega = np.zeros(len(t), dtype=complex)
    omega[:stop] = numerator / (1j * np.sqrt(cs2) * np.exp(1j * phase))
    return PulseShape(TimeSeries(float(t[0]), float(dt), omega))


def store_photon(
    params: ThreeLevelParams,
    input_pulse: PulseShape,
    control: PulseShape,
    splitting: float = 0.5,
) -> StorageResult:
    """Drive the emitter with an incoming photon and a control; store on |s>.

    Only the even combination of the two propagation directions couples to
    the emitter. ``splitting`` is the power fraction sent in from the left;
    anything in the odd mode bypasses the emitter and counts as leakage.
    The outgoing field is E_out = E_in - sqrt(gamma_pl) c_e, and the
    probability bookkeeping  efficiency + leakage + loss = |E_in|^2  is
    enforced to 1e-6 (leakage includes any residual excited population).
    """
    if not 0.0 <= splitting <= 1.0:
        raise ValueError("splitting must lie in [0, 1]")
    samples = control.samples
    _check_grid(samples, input_pulse.samples.grid)
    even_fraction = 0.5 + math.sqrt(splitting * (1.0 - splitting))
    c_e, c_s, loss, out = _evolve(
        params, samples, math.sqrt(even_fraction) * input_pulse.samples.values,
        0.0)
    budget = input_pulse.squared_norm
    efficiency = float(abs(c_s[-1]) ** 2)
    leakage = (out + float(abs(c_e[-1]) ** 2)
               + (1.0 - even_fraction) * budget)
    total = efficiency + leakage + loss
    require("storage-probability-bookkeeping", abs(total - budget),
            _BOOKKEEPING_TOL,
            f"eff + leak + loss = {total!r}, input norm = {budget!r}")
    amplitudes = (TimeSeries(samples.t0, samples.dt, c_e),
                  TimeSeries(samples.t0, samples.dt, c_s))
    return StorageResult(efficiency, leakage, loss, amplitudes)


def matched_storage(
    params: ThreeLevelParams, duration: float = 50.0, n_samples: int = 4001
) -> MatchedStorage:
    """Build the impedance-matched input and control for a Gaussian photon.

    The generation target is a Gaussian on [0, duration] of intensity rms
    duration/12, whose truncated tails stay below the storage error budgets,
    scaled to the largest feasible emission norm (the gamma_pl/Gamma bound
    for slow pulses, less for pulses faster than the linewidth); the storage
    pair is its time reverse. The scale uses the inversion's own
    bookkeeping, so the smallest |c_s|^2 along the target is the
    feasibility margin, 1e-4.
    """
    if not duration > 0.0:
        raise ValueError("duration must be positive")
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration!r}")
    shape = gaussian_spectrum(duration / 12.0, duration / 2.0, 6.0, n_samples)
    dt = shape.samples.dt
    v0 = shape.samples.values
    headroom = _departed_population(v0 / math.sqrt(params.gamma_pl), dt,
                                    params.gamma_total)
    alpha2 = (1.0 - _FEASIBILITY_MARGIN) / float(np.max(headroom))
    target = PulseShape(TimeSeries(0.0, dt, v0 * math.sqrt(alpha2)))
    generate_control = control_for_target_pulse(params, target)
    reversed_input = PulseShape(
        TimeSeries(0.0, dt, np.conj(target.samples.values[::-1]))).normalized()
    store_control = PulseShape(
        TimeSeries(0.0, dt, np.conj(generate_control.samples.values[::-1])))
    return MatchedStorage(reversed_input, store_control, generate_control,
                          target)


def transistor_gain(
    params: ThreeLevelParams, n_trials: int, seed: int
) -> GainEstimate:
    """Monte Carlo mean number of g-preserving scatterings before a spin flip.

    The count is of scattering events, photons the emitter absorbed and
    re-emitted, not of incident signals: each flips the emitter to |s> with
    probability gamma_es / (gamma_eg + gamma_es), so the count before the
    flip is geometric with mean gamma_eg/gamma_es. Per incident signal,
    run_transistor's flip probability p is 2 gamma_pl gamma_es / Gamma^2 on
    resonance, so analytic_mean * p = 2 gamma_pl gamma_eg / Gamma^2 (1.81 at
    P = 20 and branching 20).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if params.gamma_es == 0.0:
        return GainEstimate(math.inf, 0.0, math.inf)
    p = params.gamma_es / (params.gamma_eg + params.gamma_es)
    rng = np.random.default_rng(seed)
    counts = rng.geometric(p, size=n_trials) - 1
    mean = float(np.mean(counts))
    if n_trials > 1:
        ci95 = 1.96 * float(np.std(counts, ddof=1)) / math.sqrt(n_trials)
    else:
        ci95 = math.inf
    return GainEstimate(mean, ci95, params.gamma_eg / params.gamma_es)


def run_transistor(
    params: ThreeLevelParams,
    gate_photon: int,
    signal_count: int,
    seed: int = 0,
    storage_duration: float = 50.0,
) -> TransistorRun:
    """End-to-end gate: store (or not) a gate photon, then route signals.

    The gate outcome and the optical-pumping flip photon are sampled with the
    seeded generator; reflected/transmitted are expected counts of incident
    signal photons conditioned on that sampled path. Each signal photon is
    routed on its own, with the one-photon R and kappa, which holds only for
    signals that arrive one at a time. While the emitter sits in |g> a signal
    reflects with the conditional-mirror R and is lost into the pumping
    channel with probability p = kappa * gamma_es/(gamma_prime_g + gamma_es);
    the photon that causes the flip is absorbed, and everything after the
    flip is transmitted. So ``reflected`` counts the signals routed before
    the flip, R (F - 1) for the sampled flip index F; with no gate stored and
    more signals than arrive before the flip its mean is R (1 - p)/p.
    """
    if gate_photon not in (0, 1):
        raise ValueError("gate_photon must be 0 or 1")
    if signal_count < 0:
        raise ValueError("signal_count must be >= 0")
    rng = np.random.default_rng(seed)
    mirror = scatter_point(params.as_two_level())
    other = params.gamma_prime_g + params.gamma_es
    flip_prob = 0.0
    if params.gamma_es > 0.0 and other > 0.0:
        flip_prob = mirror.loss * params.gamma_es / other

    storage_efficiency = None
    stored = False
    if gate_photon == 1:
        matched = matched_storage(params, duration=storage_duration)
        outcome = store_photon(params, matched.input, matched.store_control)
        storage_efficiency = outcome.efficiency
        stored = bool(rng.random() < outcome.efficiency)

    if stored:
        return TransistorRun(0.0, float(signal_count), False, True,
                             storage_efficiency)

    if flip_prob > 0.0:
        flip_index = int(rng.geometric(flip_prob))
    else:
        flip_index = signal_count + 1  # never flips
    routed_as_g = min(signal_count, flip_index - 1)
    reflected = routed_as_g * mirror.reflectance
    transmitted = routed_as_g * mirror.transmittance
    flip_occurred = flip_index <= signal_count
    if flip_occurred:
        transmitted += float(signal_count - flip_index)
    return TransistorRun(float(reflected), float(transmitted), flip_occurred,
                         stored, storage_efficiency)
