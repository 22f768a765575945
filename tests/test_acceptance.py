"""Headline acceptance checks at their pinned tolerances.

Every test here evaluates one end-to-end result, registers a PASS/FAIL line
with the measured numbers (printed in the terminal summary by conftest), and
then asserts. Criteria 4 and 5 pin drive->0 (weak-field) limits. They run at
their pinned drive omega and at omega/2, extrapolate each quantity to
omega -> 0 with one Richardson step in omega^2, and compare the extrapolant
with the closed form. Both also assert that the raw finite-drive residual
falls 4x (within 5 %) from omega to omega/2, so the omega^2 expansion is
checked before the extrapolant is used; the raw residuals appear in their
PASS/FAIL lines next to the extrapolated ones.
"""

import math
import subprocess
import sys

import numpy as np
from conftest import record_criterion
from scipy.optimize import brentq, minimize_scalar

from plasmonqed.bloch import (
    SIGMA_GE,
    field_observables,
    saturation_closed_form,
    steady_state,
)
from plasmonqed.core import gaussian_spectrum, params_from_purcell
from plasmonqed.correlations import (
    g2,
    g2_weakfield_analytic,
    jump_state,
)
from plasmonqed.oracle import build_grid, convergence_report
from plasmonqed.scatter import scatter_point, scatter_spectrum
from plasmonqed.storage import (
    ThreeLevelParams,
    generate_photon,
    matched_storage,
    store_photon,
    transistor_gain,
)


def test_criterion_1_lossless_identity():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        purcell = float(10.0 ** rng.uniform(-2.0, 2.0))
        delta = float(rng.uniform(-10.0, 10.0))
        pt = scatter_point(params_from_purcell(purcell), delta)
        defect = abs(1.0 - pt.reflectance - pt.transmittance
                     - 2.0 * pt.reflectance / purcell)
        worst = max(worst, defect)
    passed = worst < 1e-12
    record_criterion(
        "1 loss identity 1-R-T = 2R/P over 1e3 random (P, delta)",
        passed, f"max defect {worst:.3e} (tol 1e-12)")
    assert passed


def test_criterion_2_resonant_sweep():
    params = params_from_purcell(20.0)
    spectrum = scatter_spectrum(params, np.linspace(-5.0, 5.0, 201))
    assert spectrum.delta[100] == 0.0
    targets = (0.907029, 0.0022676, 0.0907029)
    measured = (spectrum.reflectance[100], spectrum.transmittance[100],
                spectrum.loss[100])
    worst = max(abs(m - t) for m, t in zip(measured, targets))
    r_half = measured[0] / 2.0
    half_width = brentq(
        lambda d: scatter_point(params, d).reflectance - r_half,
        0.2, 0.9, xtol=1e-12)
    hw_err = abs(half_width - 0.5)
    passed = worst < 1e-6 and hw_err < 1e-3
    record_criterion(
        "2 resonant (R, T, kappa) at P=20 and half-width Gamma/2",
        passed,
        f"(R, T, kappa) = ({measured[0]:.7f}, {measured[1]:.8f}, "
        f"{measured[2]:.8f}), max dev {worst:.2e} (tol 1e-6); "
        f"half-width {half_width:.6f} dev {hw_err:.2e} (tol 1e-3)")
    assert passed


def test_criterion_3_saturation_grid():
    purcells = (0.5, 1.0, 2.0, 5.0, 20.0, 100.0)
    worst_closed = 0.0
    for purcell in purcells:
        for omega in (1e-3, 0.1, 1.0, 10.0):
            p = params_from_purcell(purcell, omega_c=omega)
            obs = field_observables(p, steady_state(p))
            t_cf, r_cf = saturation_closed_form(purcell, omega)
            worst_closed = max(worst_closed,
                               abs(obs.transmittance - t_cf),
                               abs(obs.reflectance - r_cf))
    worst_weak = 0.0
    for purcell in purcells:
        p = params_from_purcell(purcell, omega_c=1e-3)
        obs = field_observables(p, steady_state(p))
        pt = scatter_point(p, 0.0)
        worst_weak = max(worst_weak,
                         abs(obs.transmittance - pt.transmittance),
                         abs(obs.reflectance - pt.reflectance))
    passed = worst_closed < 1e-8 and worst_weak < 1e-4
    record_criterion(
        "3 saturation curves match closed forms and weak-drive limit",
        passed,
        f"max |numeric - closed| {worst_closed:.3e} (tol 1e-8); "
        f"max |weak drive - single photon| {worst_weak:.3e} (tol 1e-4)")
    assert passed


def _richardson(at_full, at_half):
    """Drive->0 extrapolant from values at drives omega and omega/2.

    The steady state and the normalized g2 are rational in omega^2, so
    (4 f(omega/2) - f(omega))/3 cancels the O(omega^2) term and leaves an
    O(omega^4) error.
    """
    return (4.0 * at_half - at_full) / 3.0


def _halving_ratio(residual_full, residual_half):
    """Fall of a raw residual from omega to omega/2 (4 if O(omega^2))."""
    return abs(residual_full) / abs(residual_half)


def _ratio_ok(ratio):
    return abs(ratio / 4.0 - 1.0) <= 0.05


def _sup_metric(num, ana):
    return float(np.max(np.abs(num - ana) / (1.0 + ana)))


def _dip_offset(purcell, omega):
    """Offset of the g2 transmission dip from 4 ln P; NaN if no dip.

    A curve with no minimum inside the +-0.3 bracket around 4 ln P has no
    dip to locate. NaN fails every tolerance and ratio check it enters, so
    the criterion records FAIL instead of stopping before its line.
    """
    params = params_from_purcell(purcell, omega_c=omega)
    t0 = 4.0 * math.log(purcell)
    try:
        found = minimize_scalar(
            lambda t: g2(params, "transmitted", [t]).values[0],
            bracket=(t0 - 0.3, t0, t0 + 0.3), method="brent",
            options={"xtol": 1e-10})
    except ValueError:  # the bracket holds no minimum
        return math.nan
    return float(found.x - t0)


def test_criterion_4_weakfield_g2():
    """Transmitted g2(t) in the drive->0 limit against the closed form.

    The closed form is a weak-field limit: at the pinned drive omega = 0.01
    the curve still carries an O(omega^2) correction of relative size
    (1+P)^2 8 omega^2, which reaches 3.7e-2 in the sup metric at P = 2.
    Every quantity is therefore computed at omega and omega/2 and
    extrapolated to omega -> 0 before it is compared. The raw residuals
    must fall 4x (within 5 %) between the two drives, which confirms that
    the omega^2 expansion holds before the extrapolant is trusted.
    """
    omega = 0.01
    drives = (omega, omega / 2.0)
    times = np.linspace(0.0, 10.0, 2001)
    ratios = []

    sups, raw_sups = {}, {}
    for purcell in (0.6, 1.0, 1.5, 2.0):
        ana = g2_weakfield_analytic(purcell, times)
        full, half = (
            g2(params_from_purcell(purcell, omega_c=w), "transmitted",
               times).values
            for w in drives)
        raw_sups[purcell] = _sup_metric(full, ana)
        ratios.append(
            _halving_ratio(raw_sups[purcell], _sup_metric(half, ana)))
        sups[purcell] = _sup_metric(_richardson(full, half), ana)
    sup_ok = all(v <= 1e-2 for v in sups.values())

    offsets, raw_offsets = {}, {}
    for purcell in (1.5, 2.0):
        full, half = (_dip_offset(purcell, w) for w in drives)
        raw_offsets[purcell] = full
        ratios.append(_halving_ratio(full, half))
        offsets[purcell] = _richardson(full, half)
    dips_ok = all(abs(v) < 0.02 for v in offsets.values())

    raw_g20, half = (
        g2(params_from_purcell(2.0, omega_c=w), "transmitted",
           [0.0]).values[0]
        for w in drives)
    ratios.append(_halving_ratio(raw_g20 - 9.0, half - 9.0))
    g20 = _richardson(raw_g20, half)
    g20_ok = abs(g20 - 9.0) / 9.0 < 1e-2

    passed = sup_ok and dips_ok and g20_ok and all(map(_ratio_ok, ratios))
    detail = (
        "omega->0: sup metric " + ", ".join(
            f"P={p:g}: {v:.2e}" for p, v in sups.items())
        + " (tol 1e-2); dip offsets " + ", ".join(
            f"P={p:g}: {v:+.1e}" for p, v in offsets.items())
        + f" (tol 0.02); g2(0) = {g20:.5f} vs 9 (tol 1%). "
        f"Raw at omega={omega:g}: sup metric " + ", ".join(
            f"P={p:g}: {v:.2e}" for p, v in raw_sups.items())
        + "; dip offsets " + ", ".join(
            f"P={p:g}: {v:+.4f}" for p, v in raw_offsets.items())
        + f"; g2(0) = {raw_g20:.4f}. Residual fall omega -> omega/2: "
        + ", ".join(f"{r:.3f}" for r in ratios) + " (want 4 +- 5%)")
    record_criterion("4 weak-field g2(t) against the closed form",
                     passed, detail)
    assert passed, detail


def test_criterion_5_jump_ratios():
    """Post-detection enhancement ratios at P = 20 in the drive->0 limit.

    The limits 1+P = 21 (coherence) and -(P^2-1) = -399 (field amplitude)
    hold as omega -> 0. At the pinned drive omega = 1e-3 the exact ratios
    sit 3.5e-3 and 3.9e-3 relative below them, an O(omega^2) correction
    pinned to 1e-10 in test_correlations. Both ratios are computed at omega
    and omega/2 and extrapolated to omega -> 0 before they are compared; the
    raw residuals must fall 4x (within 5 %) between the two drives.
    """
    omega = 1e-3
    raw = []
    for w in (omega, omega / 2.0):
        params = params_from_purcell(20.0, omega_c=w)
        state = jump_state(params, "transmitted")
        rho_ss = steady_state(params)
        coherence = complex(np.trace(state.rho_jump @ SIGMA_GE))
        coherence /= complex(np.trace(rho_ss @ SIGMA_GE))
        raw.append((coherence, state.amplitude_ratio))
    (coh_full, amp_full), (coh_half, amp_half) = raw
    coherence = _richardson(coh_full, coh_half)
    amplitude = _richardson(amp_full, amp_half)
    coh_err = abs(coherence - 21.0) / 21.0
    amp_err = abs(amplitude + 399.0) / 399.0
    ratios = (_halving_ratio(coh_full - 21.0, coh_half - 21.0),
              _halving_ratio(amp_full + 399.0, amp_half + 399.0))
    passed = (coh_err < 1e-3 and amp_err < 1e-3
              and all(map(_ratio_ok, ratios)))
    detail = (f"omega->0: coherence ratio {coherence.real:.6f} vs 21 "
              f"(rel {coh_err:.2e}); amplitude ratio {amplitude.real:.6f} "
              f"vs -399 (rel {amp_err:.2e}); tol 1e-3. Raw at "
              f"omega={omega:g}: {coh_full.real:.6f} "
              f"(rel {abs(coh_full - 21.0) / 21.0:.2e}), "
              f"{amp_full.real:.6f} "
              f"(rel {abs(amp_full + 399.0) / 399.0:.2e}). Residual fall "
              f"omega -> omega/2: {ratios[0]:.3f}, {ratios[1]:.3f} "
              "(want 4 +- 5%)")
    record_criterion("5 post-detection enhancement ratios at P=20",
                     passed, detail)
    assert passed, detail


def test_criterion_6_oracle_convergence():
    params = params_from_purcell(20.0)
    pulse = gaussian_spectrum(0.1)
    grids = [build_grid(params, n)
             for n in (250, 500, 1000, 2000, 4000, 8000)]
    report = convergence_report(grids, pulse)
    errors = [error for _, error in report.rows]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    final = report.results[-1]
    ref = report.reference
    devs = (abs(final.r_sim - ref[0]), abs(final.t_sim - ref[1]),
            abs(final.loss_sim - ref[2]))
    passed = report.monotone and decreasing and max(devs) < 1e-2
    record_criterion(
        "6 mode-grid simulation converges to the spectral average",
        passed,
        "error column " + " -> ".join(f"{e:.2e}" for e in errors)
        + f" (monotone {report.monotone}); "
        + f"n={grids[-1].n_modes} (R, T, kappa) devs "
        + ", ".join(f"{d:.1e}" for d in devs) + " (tol 1e-2)")
    assert passed


def test_criterion_7_storage_efficiency():
    params = ThreeLevelParams(20.0 / 21.0, 1.0 / 21.0, 0.0)
    bound = 20.0 / 21.0
    matched = matched_storage(params, duration=50.0)
    outcome = store_photon(params, matched.input, matched.store_control)
    eff_rel = abs(outcome.efficiency - bound) / bound
    emitted, _ = generate_photon(params.with_control(matched.generate_control),
                                 matched.target.samples.grid)
    dt = matched.target.samples.dt
    l2 = math.sqrt(float(np.sum(np.abs(
        emitted.samples.values - matched.target.samples.values) ** 2)) * dt)
    passed = eff_rel < 2e-2 and l2 < 1e-3
    record_criterion(
        "7 matched storage of a T=50 pulse at P=20",
        passed,
        f"efficiency {outcome.efficiency:.6f} vs 20/21 "
        f"(rel {eff_rel:.2e}, tol 2e-2); round-trip pulse L2 error "
        f"{l2:.2e} (tol 1e-3)")
    assert passed


def test_criterion_8_transistor_gain():
    params = ThreeLevelParams(20.0 / 21.0, 0.0, 1.0 / 21.0)
    estimate = transistor_gain(params, 10000, seed=1)
    rel = abs(estimate.mean - 20.0) / 20.0
    passed = rel < 5e-2
    record_criterion(
        "8 Monte Carlo transistor gain at branching ratio 20",
        passed,
        f"mean {estimate.mean:.4f} +- {estimate.ci95:.4f} vs 20 "
        f"(rel {rel:.2e}, tol 5e-2, 1e4 trials, seed 1)")
    assert passed


CLI_RUNS = [
    ("scatter",),
    ("saturation",),
    ("g2", "--set", "n_times=101"),
    ("jump",),
    ("oracle", "--set", "n_modes=250"),
    ("storage", "--set", "duration=20", "--set", "n_samples=801"),
    ("transistor", "--set", "trials=5000", "--set", "duration=20"),
]


def test_criterion_9_cli_determinism():
    failures = []
    for args in CLI_RUNS:
        full = [sys.executable, "-m", "plasmonqed.cli", *args,
                "--seed", "0", "--workers", "1"]
        first = subprocess.run(full, capture_output=True)
        second = subprocess.run(full, capture_output=True)
        if first.returncode != 0 or second.returncode != 0:
            failures.append(f"{args[0]}: exit {first.returncode}/"
                            f"{second.returncode}")
        elif first.stdout != second.stdout:
            failures.append(f"{args[0]}: bytes differ")
    passed = not failures
    record_criterion(
        "9 CLI datasets byte-identical across repeated runs",
        passed,
        "all 7 subcommands reproducible" if passed else "; ".join(failures))
    assert passed, failures
