"""Brute-force single-excitation wavepacket scattering on a mode grid.

Independent verification path for the closed-form scattering coefficients:
the waveguide continuum is discretized into two branches (right- and
left-moving) of equally spaced modes around the emitter resonance, the
single-excitation state is propagated by a Chebyshev expansion of
exp(-iHt) whose coefficients are Bessel functions (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984)), and the final mode populations give
(R, T, loss) with no reference to the analytic reflection coefficient.
The emitter couples to the two branches only through their even
combination (right + left)/sqrt 2 (Shen & Fan, Opt. Lett. 30, 2001
(2005)), so the propagator changes basis: the series runs on the emitter
and the n even modes, while the n odd modes (right - left)/sqrt 2 never
meet the emitter and only pick up their free phases. The even block is an
arrowhead, so each even mode is a Chebyshev recurrence of its own driven
by the emitter. One function, _chebyshev, sums the series for one time,
and later times are reached by carrying the state forward. Its loop runs
only the chain that must go block by block, _BLOCK terms at a time (two
real products with a table of Chebyshev polynomials of the detunings, the
emitter's next values, in-place mode and result updates), and the
emitter's amplitude and driven share are summed after it. A run is cut
into equal segments only where its non-guided loss needs it
(|gamma_prime| tau <= 10 each), and they share one series.

Conventions: linear dispersion around resonance, detunings delta_j on a
symmetric offset grid (no mode sits exactly on resonance), per-mode coupling
g = sqrt(gamma_pl * ddelta / (4 pi)) so the grid's golden-rule decay rate
into both branches is gamma_pl, and decay into non-guided channels enters as
the non-Hermitian rate -i gamma_prime/2 on the excited amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EmitterParams, PulseShape, _check_unit_norm, require

__all__ = [
    "ModeGrid",
    "ExcitationState",
    "OracleResult",
    "ConvergenceReport",
    "build_grid",
    "scatter_wavepacket",
    "golden_rule_rate",
    "convergence_report",
]

_MIN_SPAN = 20.0
_LEAKAGE_TOL = 1e-6
_RESOLUTION_TOL = 1e-4
_CLEARED_TOL = 1e-6
_NORM_CEILING = 1.0 + 1e-9
# Error below which convergence_report counts a non-decreasing step as
# monotone: the noise floor of the error column.
_CONVERGENCE_FLOOR = 1e-5
# Largest difference of golden_rule_rate's two slopes relative to the rate:
# 1e-2 for the default probe on calibrated grids, 0.6 in the quadratic onset.
_WINDOW_TOLERANCE = 5e-2
# Largest |gamma_prime| tau per Chebyshev segment. With the corner
# -i gamma_prime/2 a series' terms grow to about e^{|gamma_prime| tau/2}
# times its result and carry their rounding into it. At n = 250 and
# P <= 1, runs cut at 2.5 to 25 agree with runs cut at 1 to 2e-14, at 30 to
# 3e-13, at 40 to 2e-11. 10 keeps P = 5 at t_final = 60 one series.
_LOSS_PER_SEGMENT = 10.0
# Smallest Bessel coefficient a Chebyshev series keeps.
_BESSEL_FLOOR = 1e-17
# Chebyshev terms per block: oracle-convergence's round, in process on 2
# CPUs, took 0.028 s at 48, 0.030 s at 32 and 64 and 0.036 s at 96.
_BLOCK = 48


@dataclass(frozen=True)
class ModeGrid:
    """Discretized two-branch continuum around the emitter resonance."""

    params: EmitterParams
    n_modes: int
    k_span: float
    coupling: float
    deltas: np.ndarray

    @property
    def mode_spacing(self) -> float:
        return self.k_span / self.n_modes

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi / self.mode_spacing


@dataclass(frozen=True)
class ExcitationState:
    """Emitter amplitude and total excitation norm at a segment end."""

    time: float
    c_e: complex
    norm: float


@dataclass(frozen=True)
class OracleResult:
    r_sim: float
    t_sim: float
    loss_sim: float
    trajectory: list[ExcitationState] = field(repr=False)


_DEFAULT_SPACING = 0.08


def build_grid(
    params: EmitterParams,
    n_modes: int,
    k_span: float | None = None,
) -> ModeGrid:
    """Construct a calibrated mode grid centred on the emitter resonance.

    ``k_span`` is the total frequency window (units of Gamma, group velocity
    set to 1) and must cover at least 20 linewidths. The default span keeps
    the mode spacing fixed at 0.08, so larger grids enclose a wider band;
    the residual band-edge bias of grid observables falls off as one over
    the span.
    """
    if not (n_modes >= 2 and float(n_modes).is_integer()):
        raise ValueError(f"n_modes must be an integer >= 2, got {n_modes!r}")
    if k_span is None:
        k_span = max(_MIN_SPAN * params.gamma_total,
                     _DEFAULT_SPACING * n_modes)
    if not math.isfinite(k_span):
        raise ValueError(f"k_span must be finite, got {k_span!r}")
    # Gamma = gamma_pl + gamma_prime can round to 1 + 2.2e-16 (P = 0.001)
    if k_span < _MIN_SPAN * params.gamma_total * (1.0 - 1e-12):
        raise ValueError(
            f"window too narrow: k_span {k_span} < {_MIN_SPAN} Gamma")
    spacing = k_span / n_modes
    deltas = (np.arange(n_modes) - (n_modes - 1) / 2.0) * spacing
    coupling = math.sqrt(params.gamma_pl * spacing / (4.0 * math.pi))
    return ModeGrid(params, int(n_modes), float(k_span), coupling, deltas)


def _initial_amplitudes(grid: ModeGrid, pulse: PulseShape, t_peak: float) -> np.ndarray:
    """Sample the spectral envelope on the grid, peaking at the emitter at t_peak.

    Leakage is the pulse norm outside the grid window, summed from the
    pulse's own samples (limit 1e-6). The on-grid norm, which linear
    interpolation lowers by a few 1e-6, must stay within 1e-4 of one, so a
    pulse narrower than the mode spacing is rejected; the sampled envelope
    is then renormalized.
    """
    _check_unit_norm(pulse, "pulse")
    freq = pulse.samples.grid
    values = pulse.samples.values
    half = grid.mode_spacing / 2.0
    outside = (freq < grid.deltas[0] - half) | (freq > grid.deltas[-1] + half)
    leaked = float(np.sum(np.abs(values[outside]) ** 2) * pulse.samples.dt)
    if leaked > _LEAKAGE_TOL:
        raise ValueError(
            f"spectral leakage beyond window: norm outside {leaked!r}")
    f = np.interp(grid.deltas, freq, values, left=0.0, right=0.0)
    norm = float(np.sum(np.abs(f) ** 2) * grid.mode_spacing)
    if abs(1.0 - norm) > _RESOLUTION_TOL:
        raise ValueError(
            f"pulse not resolved by the mode grid: on-grid norm {norm!r}")
    f = f * np.exp(1j * grid.deltas * t_peak)
    return f / math.sqrt(np.sum(np.abs(f) ** 2))


def _bessel_j(x: float) -> np.ndarray:
    """J_0(x) ... J_K(x) for x >= 0, K the last order with |J_K(x)| >= 1e-17.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} is run down
    from an order far enough above x that J is negligible there, rescaled
    before the unnormalized values can overflow, and normalized by
    J_0 + 2 sum J_2k = 1. Beyond K the terms of a Chebyshev series with
    these coefficients are below the rounding of its O(1) result.
    """
    if x < 2.0 * _BESSEL_FLOOR:
        # J_0(x) = 1 and J_1(x) = x/2 is below the floor; at tiny x the
        # recurrence's factor 2k/x would overflow
        return np.ones(1)
    top = int(x + 10.0 * x ** (1.0 / 3.0)) + 50
    down, behind, ahead = [1.0], 0.0, 1.0
    for k in range(top, 0, -1):
        behind, ahead = ahead, (2.0 * k / x) * ahead - behind
        if abs(ahead) > 1e250:
            down = [v * 1e-250 for v in down]
            behind, ahead = behind * 1e-250, ahead * 1e-250
        down.append(ahead)
    values = np.array(down[::-1])
    values /= values[0] + 2.0 * np.sum(values[2::2])
    return values[:np.flatnonzero(np.abs(values) >= _BESSEL_FLOOR)[-1] + 1]


def _spectral_radius(grid: ModeGrid, gamma_prime: float) -> float:
    """R with ||H|| <= R for the grid Hamiltonian and for its even block.

    The grid is centred on the resonance, with largest detuning D. An
    eigenvalue of the Hermitian even block outside [-D, D] solves
    lambda = 2 g^2 sum_j 1/(lambda - delta_j), so |lambda| (|lambda| - D)
    <= 2 g^2 n and |lambda| <= D + 2 g^2 n / D, which is
    D + gamma_pl n/(pi (n - 1)) on a calibrated grid; the corner
    -i gamma_prime/2 adds at most |gamma_prime|/2, gain or loss. The odd
    block is diagonal with entries among the delta_j, so R bounds the full
    H as well.
    """
    diagonal = float(np.max(np.abs(grid.deltas)))
    coupling = 2.0 * grid.coupling ** 2 * grid.n_modes / diagonal
    return diagonal + coupling + 0.5 * abs(gamma_prime)


def _arrowhead(grid: ModeGrid, gamma_prime: float):
    """R and the block recurrence of A = 2 H_even / R, once per grid and rate.

    A = [[a0, g 1^T], [g 1, diag(d)]] with a0 = -i gamma_prime/R, and the
    terms v_k = [s_k, w_k] obey v_{k+1} = A v_k - v_{k-1}. Over B = _BLOCK
    terms from k0 each mode is a forced recurrence, w_{k0+b} = U_b w_{k0} -
    U_{b-1} w_{k0-1} + g sum_{m<b} U_{b-1-m} s_{k0+m}, with U_b = U_b(d/2) the
    Chebyshev polynomials of the second kind, |U_b| <= b + 1; so s_{k0+1}
    ... s_{k0+B} are one linear map of s_{k0}, s_{k0-1} and the B sums
    phi_b = 1.(U_b w_{k0} - U_{b-1} w_{k0-1}). Returns R, a0, g, the real
    table [U_0 ... U_B] (B + 1 rows of n) and that B x (B + 2) map.
    """
    radius = _spectral_radius(grid, gamma_prime)
    corner = -1j * gamma_prime / radius
    g = -2.0 * math.sqrt(2.0) * grid.coupling / radius
    table = np.empty((_BLOCK + 1, grid.n_modes))
    table[0] = 1.0
    table[1] = (2.0 / radius) * grid.deltas
    for b in range(2, _BLOCK + 1):
        table[b] = table[1] * table[b - 1] - table[b - 2]
    moments = g * g * table.sum(axis=1)
    # rows s_{k0-1}, s_{k0}, ..., s_{k0+B} over [s_{k0}, s_{k0-1}, phi]
    emitter = np.zeros((_BLOCK + 2, _BLOCK + 2), dtype=complex)
    emitter[0, 1] = emitter[1, 0] = 1.0
    for b in range(_BLOCK):
        emitter[b + 2] = (corner * emitter[b + 1] - emitter[b]
                          + moments[:b][::-1] @ emitter[1:b + 1])
        emitter[b + 2, b + 2] += g
    return radius, corner, g, table, emitter[2:]


def _coefficients(series, tau):
    """_chebyshev's weight rows for exp(-i H tau), B = _BLOCK terms a block.

    c_k = (2 - delta_k0) (-i)^k J_k(R tau) up to the last order _bessel_j
    keeps for R tau, and 0 beyond it to a whole number of blocks. The
    (blocks, B, 4) array holds each block's c in column 0 and -c shifted by
    one in column 1, the weights of U_0 ... U_{B-1}; _chebyshev fills its
    last two columns.
    """
    radius, size = series[0], len(series[3]) - 1
    bessel = _bessel_j(radius * tau)
    rows = np.zeros((math.ceil(len(bessel) / size), size, 4), dtype=complex)
    c = rows[:, :, 0]
    c.flat[:len(bessel)] = 2.0 * (-1j) ** (np.arange(len(bessel)) % 4) * bessel
    c[0, 0] /= 2.0
    rows[:, :-1, 1] = -c[:, 1:]
    return rows


def _chebyshev(series, rows, y) -> np.ndarray:
    """exp(-i H tau) y, by the series whose weight rows ``rows`` holds.

    ``series`` is _arrowhead's, for H = R A/2 with ||H|| <= R, ``rows``
    _coefficients' for tau, and exp(-i H tau) y = sum_k (2 - delta_k0) (-i)^k
    J_k(R tau) T_k(H/R) y (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984)). The terms v_k = [s_k, w_k] = T_k(H/R) y, from v_0 = y and
    v_{-1} = v_1 = A y/2, are never formed. A block of B terms is a real
    product of the table with [w_{k0}, w_{k0-1}], the emitter map to
    s_{k0+1} ... s_{k0+B}, and a real product of the table with the block's
    weight rows (forcing columns g s reversed), from which the mode result
    and [w_{k0+B}, w_{k0+B-1}] are updated in place. After the loop c_e =
    sum_k c_k s_k, and sum_m c_{m+j+1} s_m, the weight of g U_j in the mode
    result, is the (j+1)-th superdiagonal sum of s^T C over the blocks: one
    product each.
    """
    _, corner, g, table, emitter = series
    blocks, size = rows.shape[:2]
    u, edge = table[:size], table[:-4:-1] + 0j  # U_B, U_{B-1}, U_{B-2}
    s = np.empty(blocks * size + 1, dtype=complex)  # s_0 ... s_K
    ends = np.empty(size + 2, dtype=complex)  # s_{k0}, s_{k0-1}, phi
    s[0], ends[1] = y[0], 0.5 * (corner * y[0] + g * y[1:].sum())
    modes, spare = np.empty((2, len(y) - 1, 2), dtype=complex)
    modes[:, 0], modes[:, 1] = y[1:], 0.5 * (table[1] * y[1:] + g * y[0])
    scratch = np.empty(len(y) - 1, dtype=complex)
    result = np.zeros(len(y), dtype=complex)
    for k0, block in zip(range(0, blocks * size, size), rows):
        dots = (u @ modes.view(float)).view(complex)
        ends[0], ends[2] = s[k0], dots[0, 0]
        np.subtract(dots[1:, 0], dots[:-1, 1], out=ends[3:])
        np.matmul(emitter, ends, out=s[k0 + 1:k0 + size + 1])
        np.multiply(s[k0:k0 + size][::-1], g, out=block[:, 2])
        block[:-1, 3] = block[1:, 2]
        sums = (u.T @ block.view(float)).view(complex)
        w, w_prev = modes[:, 0], modes[:, 1]
        result[1:] += np.multiply(sums[:, 0], w, out=scratch)
        result[1:] += np.multiply(sums[:, 1], w_prev, out=scratch)
        for j, col in enumerate(spare.T):
            np.multiply(edge[j], w, out=col)
            col -= np.multiply(edge[j + 1], w_prev, out=scratch)
            col += sums[:, j + 2]
        modes, spare = spare, modes
        ends[1] = s[k0 + size - 1]
    c = rows[:, :, 0].copy()
    result[0] = c.reshape(-1) @ s[:-1]
    # read in rows of B + 1, the flattened strict upper triangle of s^T C
    # has its d-th superdiagonal in column d
    upper = np.triu(s[:-1].reshape(-1, size).T @ c, 1).reshape(-1)
    forced = upper[:size * size - 1].reshape(size - 1, size + 1).sum(axis=0)
    result[1:] += g * (table[:size - 1].T @ forced[1:size].view(float)
                       .reshape(-1, 2)).view(complex)[:, 0]
    return result


def _propagate(
    grid: ModeGrid,
    initial: np.ndarray,
    t_final: float,
    gamma_prime: float,
) -> tuple[np.ndarray, list[ExcitationState]]:
    """Apply exp(-i H t_final) to ``[c_e, right, left]`` by a Chebyshev series.

    H is the single-excitation grid Hamiltonian: H_00 = -i gamma_prime/2,
    H_jj = delta_j on both branches and H_0j = H_j0 = -g. In the even and
    odd modes e_j = (r_j + l_j)/sqrt 2 and o_j = (r_j - l_j)/sqrt 2 it
    splits into an arrowhead block on ``[c_e, e]`` with coupling
    -sqrt(2) g and the diagonal delta_j on o, so o(t) = o(0) e^{-i delta_j t}
    exactly and only the length-(1 + n) vector ``[c_e, e]`` runs the series.
    The run is cut into max(1, ceil(|gamma_prime| t_final / 10)) equal
    segments of length tau, each one _chebyshev series for exp(-i H tau):
    the corner -i gamma_prime/2 makes a series' terms grow to about
    e^{|gamma_prime| tau/2} times its result, and a segment bounds that
    growth. Every segment end is a snapshot of c_e and the norm
    |[c_e, e]|^2 + |o|^2, checked against the norm ceiling;
    ``[c_e, right, left]`` is recombined once, at t_final.
    """
    if t_final < 0.0:
        raise ValueError(f"t_final = {t_final}: cannot propagate backward")
    series = _arrowhead(grid, gamma_prime)
    segments = max(1, math.ceil(abs(gamma_prime) * t_final
                                / _LOSS_PER_SEGMENT))
    tau = t_final / segments
    rows = _coefficients(series, tau)
    root2 = math.sqrt(2.0)

    snapshots: list[ExcitationState] = []

    def record(t, c_e, norm):
        require("excitation-norm", norm, _NORM_CEILING,
                f"norm {norm!r} at t = {t}")
        snapshots.append(ExcitationState(t, complex(c_e), norm))

    n = grid.n_modes
    right, left = initial[1:1 + n], initial[1 + n:]
    even = np.concatenate((initial[:1], (right + left) / root2))
    even_modes0 = even[1:]
    odd = (right - left) / root2
    odd_norm = float(np.vdot(odd, odd).real)
    record(0.0, initial[0], float(np.vdot(initial, initial).real))
    for segment in range(segments):
        even = _chebyshev(series, rows, even)
        record((segment + 1) * tau, even[0],
               float(np.vdot(even, even).real) + odd_norm)
    phase = np.exp(-1j * grid.deltas * t_final)
    if grid.coupling == 0.0:
        # nothing couples the even modes either: they take the exact phase
        # too, so a branch no excitation entered stays empty
        even[1:] = even_modes0 * phase
    odd_t = odd * phase
    y = np.concatenate((even[:1], (even[1:] + odd_t) / root2,
                        (even[1:] - odd_t) / root2))
    return y, snapshots


def scatter_wavepacket(
    grid: ModeGrid,
    pulse: PulseShape,
    t_final: float | None = None,
    t_peak: float = 25.0,
) -> OracleResult:
    """Scatter an incoming right-moving wavepacket off the emitter.

    The pulse is a unit-norm spectral envelope; it is launched so its peak
    reaches the emitter at ``t_peak`` and the run ends at ``t_final``
    (default ``t_peak + 35``), by which time the pulse must have cleared the
    emitter (|c_e|^2 < 1e-6, enforced); the loss is 1 - (R + T + |c_e|^2),
    so that check also bounds R + T + loss - 1. A run that ends by
    ``t_peak`` is rejected: the pulse has not yet reached the emitter, so
    |c_e|^2 is still small and the cleared check would pass on an
    unscattered packet. Runs must stay clear of the discrete recurrence at
    2 pi / spacing, when the scattered packet wraps around the box and hits
    the emitter a second time, and a peak at or past that recurrence would
    pass the emitter twice. Both times must be finite.
    """
    if t_final is None:
        t_final = t_peak + 35.0
    for name, value in (("t_peak", t_peak), ("t_final", t_final)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if t_peak >= grid.recurrence_time:
        raise ValueError(
            f"t_peak = {t_peak} is at or past the mode-grid recurrence, "
            f"2 pi/spacing = {grid.recurrence_time:.4g}, so the pulse peak "
            f"passes the emitter twice; use a denser grid or an earlier peak")
    # a negative t_final is left to _propagate, which rejects it as backward
    if 0.0 <= t_final <= t_peak:
        raise ValueError(
            f"t_final = {t_final} ends the run before the pulse peak reaches "
            f"the emitter at t_peak = {t_peak}")
    if t_final > t_peak + 0.8 * grid.recurrence_time:
        raise ValueError(
            f"t_final = {t_final} reaches the mode-grid recurrence, "
            f"2 pi/spacing = {grid.recurrence_time:.4g} after t_peak = "
            f"{t_peak}; use a denser grid or a shorter run")
    n = grid.n_modes
    y0 = np.zeros(1 + 2 * n, dtype=complex)
    y0[1:1 + n] = _initial_amplitudes(grid, pulse, t_peak)
    y, snapshots = _propagate(grid, y0, t_final, grid.params.gamma_prime)
    excited = float(abs(y[0]) ** 2)
    require("pulse-not-cleared", excited, _CLEARED_TOL,
            f"|c_e|^2 = {excited!r} at t_final = {t_final}")
    t_sim = float(np.sum(np.abs(y[1:1 + n]) ** 2))
    r_sim = float(np.sum(np.abs(y[1 + n:]) ** 2))
    loss_sim = 1.0 - (r_sim + t_sim + excited)
    return OracleResult(r_sim, t_sim, loss_sim, snapshots)


def golden_rule_rate(grid: ModeGrid, t_probe: float = 2.0) -> float:
    """Measured emission rate into the grid modes from an excited emitter.

    Evaluates pure decay (no pulse, no non-guided loss) of ``[c_e, e]`` at
    t_probe/4, t_probe/2 and t_probe, carrying the state by Chebyshev
    series over t_probe/4, t_probe/4 and t_probe/2, and fits the slope of
    ln |c_e|^2 from t_probe/4 to t_probe; on a calibrated grid this
    reproduces gamma_pl.

    t_probe must be positive and, like a scattering run, stay within 0.8 of
    the recurrence at 2 pi / spacing; a probe too short for |c_e|^2 to fall
    between the two times is rejected as well, and so is one whose slopes
    before and after t_probe/2 disagree (quadratic onset or late tail).
    """
    if not (math.isfinite(t_probe) and t_probe > 0.0):
        raise ValueError(f"t_probe must be finite and positive, got {t_probe!r}")
    if t_probe > 0.8 * grid.recurrence_time:
        raise ValueError(
            f"t_probe = {t_probe} reaches the mode-grid recurrence "
            f"(first return near t = {grid.recurrence_time:.1f}); "
            f"use a denser grid or a shorter probe")
    series = _arrowhead(grid, 0.0)
    quarter = _coefficients(series, 0.25 * t_probe)
    y = np.eye(1, 1 + grid.n_modes)[0]
    populations = []
    for rows in (quarter, quarter, _coefficients(series, 0.5 * t_probe)):
        y = _chebyshev(series, rows, y)
        populations.append(float(abs(y[0]) ** 2))
    p1, p_mid, p2 = populations
    if not (p_mid > 0.0 and 0.0 < p2 < p1):
        raise ValueError(
            f"t_probe = {t_probe} shows no decay: |c_e|^2 = {p1!r} at "
            f"t_probe/4 and {p2!r} at t_probe")
    rate = -math.log(p2 / p1) / (0.75 * t_probe)
    first = -math.log(p_mid / p1) / (0.25 * t_probe)
    second = -math.log(p2 / p_mid) / (0.5 * t_probe)
    if abs(first - second) > _WINDOW_TOLERANCE * rate:
        raise ValueError(
            f"t_probe = {t_probe} is outside the exponential window: the "
            f"slopes {first:.4g} and {second:.4g} before and after t_probe/2 "
            f"differ by more than {_WINDOW_TOLERANCE:g} of the rate")
    return rate


@dataclass(frozen=True)
class ConvergenceReport:
    """Error of the discrete simulation against the spectral average."""

    rows: list[tuple[int, float]]
    reference: tuple[float, float, float]
    results: list[OracleResult]
    monotone: bool


def convergence_report(
    grids: list[ModeGrid],
    pulse: PulseShape,
    t_peak: float = 25.0,
    t_final: float | None = None,
) -> ConvergenceReport:
    """Run the same pulse on successively finer grids and tabulate the error.

    The reference is the continuum spectral average of the closed-form
    coefficients. At fixed mode spacing the residual error is the finite
    bandwidth of the mode box, which falls off as one over the span, so a
    family of grids with n_modes (and hence span) doubling shows the error
    halving until it reaches the noise floor; ``monotone`` says whether
    each error is at most the one before it or 1e-5, whichever is larger.
    """
    from .scatter import pulse_averaged_rt

    if not grids:
        raise ValueError("need at least one grid")
    sizes = [g.n_modes for g in grids]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"n_modes must be strictly increasing, got {sizes}")
    reference = pulse_averaged_rt(grids[0].params, pulse)
    rows: list[tuple[int, float]] = []
    results: list[OracleResult] = []
    for grid in grids:
        outcome = scatter_wavepacket(grid, pulse, t_final=t_final,
                                     t_peak=t_peak)
        rows.append((grid.n_modes, abs(outcome.r_sim - reference[0])))
        results.append(outcome)
    monotone = all(
        later <= max(earlier, _CONVERGENCE_FLOOR)
        for (_, earlier), (_, later) in zip(rows, rows[1:])
    )
    return ConvergenceReport(rows, reference, results, monotone)
