"""Three-level emitter: photon storage, conditional mirror, transistor gain.

A metastable state |s> decoupled from the waveguide turns the emitter into a
state-controlled mirror. A classical control Omega(t) on the s-e transition
maps an incoming single photon onto |s> (storage); reading the same emitter
afterwards routes signal photons by reflection (state |g>) or transmission
(state |s>).

Single-excitation amplitude equations (times in 1/Gamma, Gamma the total
|e> linewidth including the control-free decay to |s>):

    dc_e/dt = (i delta - Gamma/2) c_e + i Omega(t) c_s + sqrt(gamma_pl) E(t)
    dc_s/dt = i conj(Omega(t)) c_e,        output E - sqrt(gamma_pl) c_e

Generation starts in |s> with no drive (E = 0); storage starts in |g> and
is driven by the incoming photon. Both integrate this one system, by a
4th-order Magnus step per sample interval; the control that emits a given
pulse comes from inverting it in closed form on the same samples. Both run
on numpy alone. The derivative, the running integral and the spline on the
samples all continue them past each end by the cubic through their 4
outermost values, so every path needs at least 4 samples.

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
    EmitterParams,
    FLUX_NORM,
    InvariantViolation,
    PulseShape,
    TimeSeries,
    UNIT_NORM,
    make_params,
)
from .scatter import ScatterPoint, scatter_point

__all__ = [
    "ThreeLevelParams",
    "StorageResult",
    "GainEstimate",
    "TransistorRun",
    "MatchedStorage",
    "gaussian_target",
    "generate_photon",
    "control_for_target_pulse",
    "store_photon",
    "matched_storage",
    "conditional_mirror",
    "transistor_gain",
    "run_transistor",
]

_CS_GUARD = 1e-6
_BOOKKEEPING_TOL = 1e-6
_FEASIBILITY_MARGIN = 1e-4
# largest control phase advance per sample the inversion resolves: at 1.86
# rad the regenerated pulse misses its target by L2 3.0e-4, at 3.72 rad by
# 8.1e-3 (P = 20, delta = 0.5, duration 10)
_MAX_PHASE_STEP = 2.0

# Cubic-spline interpolation on the uniform grid: the B-spline coefficients
# are the samples filtered by sqrt(3) z^|k|, z = sqrt(3) - 2, whose taps fall
# below 1e-16 beyond |k| = 28, which puts the spline within a few 1e-9 of the
# not-a-knot one.
_SPLINE_TAPS = 28
_PREFILTER = math.sqrt(3.0) * (math.sqrt(3.0) - 2.0) ** np.abs(
    np.arange(-_SPLINE_TAPS, _SPLINE_TAPS + 1))
# Lagrange weights of samples 0..3 at the 30 points before the first, the
# rows of the cubic end extension (_extend)
_END_CUBIC = np.array([
    [math.prod((x - m) / (j - m) for m in range(4) if m != j)
     for j in range(4)]
    for x in range(-_SPLINE_TAPS - 2, 0)])
# the two Gauss-Legendre nodes of a sample interval, as fractions of it
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)

# Largest Taylor degree and scaled norm of each Magnus step's exponential,
# and the remainder bound of phi(W) there, 0.5^12/13! e^0.5 = 6.5e-14. Each
# call takes the smallest degree K whose bound theta^K/(K+1)! e^theta at its
# scaled norm theta stays within that: storing a duration-50 pulse at 1501,
# 4001 and 16001 samples (step norms 0.027, 0.010, 0.0025) takes 7, 6 and 5.
_TAYLOR_DEGREE = 12
_TAYLOR_RADIUS = 0.5
_TAYLOR_REMAINDER = (_TAYLOR_RADIUS**_TAYLOR_DEGREE
                     / math.factorial(_TAYLOR_DEGREE + 1)
                     * math.exp(_TAYLOR_RADIUS))
# Sample intervals whose Magnus steps are built together: a block's complex
# temporaries (64 KB) stay below glibc's 128 KB mmap threshold and in cache.
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
        for name in ("gamma_pl", "gamma_prime_g", "gamma_es"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta!r}")
        if self.gamma_total <= 0.0:
            raise ValueError("total decay rate must be positive")

    @property
    def gamma_eg(self) -> float:
        return self.gamma_pl + self.gamma_prime_g

    @property
    def gamma_total(self) -> float:
        return self.gamma_eg + self.gamma_es

    @property
    def purcell(self) -> float:
        """P = gamma_pl over everything that is not the waveguide."""
        other = self.gamma_prime_g + self.gamma_es
        if other == 0.0:
            return math.inf
        return self.gamma_pl / other

    def as_two_level(self, omega_c: float = 0.0) -> EmitterParams:
        """Two-level view for scattering off the g-e transition.

        Decay to |s> removes the photon from the guided mode, so it counts
        as part of the non-guided rate.
        """
        other = self.gamma_prime_g + self.gamma_es
        return make_params(self.gamma_pl, other, omega_c, self.delta,
                           infinite_p=(other == 0.0))

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
            or not np.allclose(grid, series.grid, rtol=0.0, atol=1e-9)):
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


def _at_gauss_nodes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubic spline through the samples at both Gauss nodes of each interval."""
    extended = _extend(values, len(_END_CUBIC))
    # coeffs[j] is the B-spline coefficient of sample j - 2
    coeffs = np.convolve(extended, _PREFILTER, mode="valid")
    n = len(values)
    nodes = []
    for theta in _GAUSS_NODES:
        weights = ((1.0 - theta) ** 3, 4.0 - 6.0 * theta**2 + 3.0 * theta**3,
                   1.0 + 3.0 * theta * (1.0 + theta - theta**2), theta**3)
        nodes.append(sum(w / 6.0 * coeffs[k:n - 1 + k]
                         for k, w in enumerate(weights, start=1)))
    return nodes[0], nodes[1]


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

    e^W = sum W^k/k! and phi(W) = sum W^(k-1)/k! are Taylor sums in W scaled
    by 2^-s to norm theta <= 1/2, and the map is squared s times. The degree
    is the smallest K <= 12 that keeps the remainder theta^K/(K+1)! e^theta
    of phi within its value at theta = 1/2 and K = 12, 6.5e-14. By
    Cayley-Hamilton every polynomial in the 2x2 W is a I + b W, so the
    Horner steps run on the two coefficients: I + W (a I + b W)/k is
    (1 - b det W/k) I + (a + b tr W)/k W.
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
    # e^W = a I + b W and phi(W) = c I + d W, after the Horner step k = K
    a, b = 1.0, 1.0 / degree
    c, d = 1.0 / degree, 0.0
    for k in range(degree - 1, 0, -1):
        a, b = 1.0 - b * det / k, (a + b * trace) / k
        c, d = (1.0 - d * det) / k, (c + d * trace) / k
    result = [a + b * w00, b * w01, b * w10, a + b * w11,
              c * v0 + d * (w00 * v0 + w01 * v1),
              c * v1 + d * (w10 * v0 + w11 * v1)]
    for _ in range(squarings):
        result = _compose(result, result)
    return result


def _apply(maps, state):
    """Each map y -> P y + q of C^2 applied to its state, elementwise."""
    p00, p01, p10, p11, q0, q1 = maps
    y0, y1 = state
    return p00 * y0 + p01 * y1 + q0, p10 * y0 + p11 * y1 + q1


def _scan_states(steps, start):
    """Inclusive scan on a state: entry i is step i ... step 0 of ``start``.

    Recursive doubling on the state: composing neighbouring steps pairwise
    halves the sequence, and its scan from the same start gives every odd
    entry; applying each even step to the entry before it (the start for
    step 0) fills in the even ones. That is about one composition and one
    matrix-vector product per entry, where carrying the map from the start
    to every entry took two compositions.
    """
    n = len(steps[0])
    if n == 1:
        return _apply(steps, start)
    odd = _scan_states(_compose([s[1::2] for s in steps],
                                [s[:n - 1:2] for s in steps]), start)
    before = [np.concatenate([[y], o[:(n - 1) // 2]])
              for y, o in zip(start, odd)]
    even = _apply([s[::2] for s in steps], before)
    states = []
    for o, e in zip(odd, even):
        entry = np.empty(n, dtype=e.dtype)
        entry[0::2] = e
        entry[1::2] = o
        states.append(entry)
    return states


def _evolve(params: ThreeLevelParams, control: TimeSeries,
            drive: np.ndarray, c_s0: float):
    """Amplitudes and running integrals (c_e, c_s, lost, out) at the samples.

    Integrates from c_e = 0, c_s = c_s0

        dc_e/dt = (i delta - Gamma/2) c_e + i Omega c_s + sqrt(gamma_pl) E
        dc_s/dt = i conj(Omega) c_e

    as the affine system on [c_e, c_s, 1], one 4th-order Magnus step per
    sample interval (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)):
    Omega and the drive E are taken at the interval's two Gauss nodes from a
    cubic spline through the samples, and the step is
    exp(h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1]), a Taylor sum whose degree
    the step norm sets. The steps are built in blocks of ``_BLOCK`` = 4096
    intervals, each with the degree and squarings of its own norm, so that
    their temporaries come from the heap and stay in cache; up to 4097
    samples are one block. One recursive-doubling scan over all
    the steps carries the state (c_e, c_s) from (0, c_s0) to every sample.
    lost and out are (gamma'_g + gamma_es) int |c_e|^2 and
    int |E - sqrt(gamma_pl) c_e|^2 by the cumulative rule on the samples.
    """
    h = control.dt
    decay = 1j * params.delta - params.gamma_total / 2.0
    root_pl = math.sqrt(params.gamma_pl)
    om1, om2 = _at_gauss_nodes(control.values)
    e1, e2 = _at_gauss_nodes(root_pl * drive)
    weight = math.sqrt(3.0) / 12.0 * h * h
    # a single block's maps are the steps themselves; more are gathered
    # into full-length arrays for the one scan
    n = len(om1)
    steps = [np.empty(n, dtype=complex) for _ in range(6)] \
        if n > _BLOCK else None
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        # off-diagonal entries i Omega, i conj(Omega) of A at the two nodes
        a1, a2 = 1j * om1[block], 1j * om2[block]
        b1, b2 = 1j * np.conj(om1[block]), 1j * np.conj(om2[block])
        f1, f2 = e1[block], e2[block]
        # [A2, A1] has the diagonal (x, -x), x = a2 b1 - a1 b2
        commutator = a2 * b1 - a1 * b2
        maps = _affine_exp((
            h * decay + weight * commutator,
            0.5 * h * (a1 + a2) + weight * decay * (a1 - a2),
            0.5 * h * (b1 + b2) + weight * decay * (b2 - b1),
            -weight * commutator,
            0.5 * h * (f1 + f2) + weight * decay * (f1 - f2),
            weight * (b2 * f1 - b1 * f2),
        ))
        if steps is None:
            steps = maps
        else:
            for whole, part in zip(steps, maps):
                whole[block] = part
    c_e, c_s = _scan_states(steps, (0.0, c_s0))
    c_e = np.concatenate([[0.0], c_e])
    c_s = np.concatenate([[c_s0], c_s])
    if not (np.all(np.isfinite(c_e)) and np.all(np.isfinite(c_s))):
        raise InvariantViolation("amplitude-integration",
                                 "non-finite amplitudes")
    lost = (params.gamma_prime_g + params.gamma_es) * _cumulative(
        np.abs(c_e) ** 2, h)
    out = _cumulative(np.abs(drive - root_pl * c_e) ** 2, h)
    return c_e, c_s, lost, out


def gaussian_target(duration: float, n_samples: int = 4001) -> PulseShape:
    """Unit-norm Gaussian envelope on [0, duration].

    The intensity rms width is duration/12, which keeps the truncated tails
    at the window edges below the storage error budgets.
    """
    if not duration > 0.0:
        raise ValueError("duration must be positive")
    t = np.linspace(0.0, duration, n_samples)
    sigma = duration / 12.0
    amp = np.exp(-((t - duration / 2.0) ** 2) / (4.0 * sigma**2)).astype(complex)
    dt = t[1] - t[0]
    amp /= math.sqrt(np.sum(np.abs(amp) ** 2) * dt)
    return PulseShape(TimeSeries(0.0, float(dt), amp), UNIT_NORM)


def generate_photon(
    params: ThreeLevelParams, t_grid
) -> tuple[PulseShape, float]:
    """Emit a photon from |s> under the control in ``params``.

    Returns the emitted waveguide envelope v(t) = sqrt(gamma_pl) c_e(t)
    (flux normalization: its squared norm is the emission efficiency) and
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
    pulse = PulseShape(TimeSeries(control.t0, control.dt, v), FLUX_NORM)
    return pulse, float(out[-1])


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
    norm = float(np.sum(np.abs(v) ** 2) * dt)
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
    return PulseShape(TimeSeries(float(t[0]), float(dt), omega), FLUX_NORM)


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
    c_e, c_s, lost, out = _evolve(
        params, samples, math.sqrt(even_fraction) * input_pulse.samples.values,
        0.0)
    budget = input_pulse.squared_norm
    efficiency = float(abs(c_s[-1]) ** 2)
    loss = float(lost[-1])
    leakage = (float(out[-1]) + float(abs(c_e[-1]) ** 2)
               + (1.0 - even_fraction) * budget)
    if abs(efficiency + leakage + loss - budget) > _BOOKKEEPING_TOL:
        raise InvariantViolation(
            "storage-probability-bookkeeping",
            f"eff + leak + loss = {efficiency + leakage + loss!r}, "
            f"input norm = {budget!r}, limit {_BOOKKEEPING_TOL:g}")
    amplitudes = (TimeSeries(samples.t0, samples.dt, c_e),
                  TimeSeries(samples.t0, samples.dt, c_s))
    return StorageResult(efficiency, leakage, loss, amplitudes)


def matched_storage(
    params: ThreeLevelParams, duration: float = 50.0, n_samples: int = 4001
) -> MatchedStorage:
    """Build the impedance-matched input and control for a Gaussian photon.

    The generation target is the Gaussian scaled to the largest feasible
    emission norm (the gamma_pl/Gamma bound for slow pulses, less for pulses
    faster than the linewidth); the storage pair is its time reverse. The
    scale uses the inversion's own bookkeeping, so the smallest |c_s|^2
    along the target is the feasibility margin, 1e-4.
    """
    shape = gaussian_target(duration, n_samples)
    dt = shape.samples.dt
    v0 = shape.samples.values
    headroom = _departed_population(v0 / math.sqrt(params.gamma_pl), dt,
                                    params.gamma_total)
    alpha2 = (1.0 - _FEASIBILITY_MARGIN) / float(np.max(headroom))
    target = PulseShape(
        TimeSeries(0.0, dt, v0 * math.sqrt(alpha2)), FLUX_NORM)
    generate_control = control_for_target_pulse(params, target)
    reversed_input = PulseShape(
        TimeSeries(0.0, dt, np.conj(target.samples.values[::-1])), FLUX_NORM
    ).normalized()
    store_control = PulseShape(
        TimeSeries(0.0, dt, np.conj(generate_control.samples.values[::-1])),
        FLUX_NORM)
    return MatchedStorage(reversed_input, store_control, generate_control,
                          target)


def conditional_mirror(
    state: str, params: EmitterParams, delta: float | None = None
) -> ScatterPoint:
    """Scattering seen by a guided photon for a given internal state."""
    d = params.delta if delta is None else float(delta)
    if state == "s":
        return ScatterPoint(d, 0.0 + 0.0j, 1.0 + 0.0j, 0.0, 1.0, 0.0)
    if state == "g":
        return scatter_point(params, d)
    raise ValueError(f"internal state must be 'g' or 's', got {state!r}")


def transistor_gain(
    params: ThreeLevelParams, n_trials: int, seed: int
) -> GainEstimate:
    """Monte Carlo mean number of g-preserving scatterings before a spin flip.

    Each scattering event flips the emitter to |s> with probability
    p = gamma_es / (gamma_eg + gamma_es); the count of photons routed before
    the flip is geometric with mean gamma_eg/gamma_es.
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
    seeded generator; reflected/transmitted are expected counts conditioned
    on that sampled path. While the emitter sits in |g> each signal photon
    reflects with the conditional-mirror R and is lost into the pumping
    channel with probability kappa * gamma_es/(gamma_prime_g + gamma_es); the
    photon that causes the flip is absorbed, and everything after the flip is
    transmitted.
    """
    if gate_photon not in (0, 1):
        raise ValueError("gate_photon must be 0 or 1")
    if signal_count < 0:
        raise ValueError("signal_count must be >= 0")
    rng = np.random.default_rng(seed)
    mirror = conditional_mirror("g", params.as_two_level(), params.delta)
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
