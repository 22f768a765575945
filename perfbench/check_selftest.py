"""Tests of the benchmark's own checks, on synthetic outputs.

Each check must accept an output built from the closed forms and reject a
deliberately wrong one. The program is not run. From the root of the
repository:

    python3 -m pytest -q perfbench/check_selftest.py

(The file name keeps it out of the repository's default test collection.)
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from run import scipy_share  # noqa: E402
from tracing import Tracer  # noqa: E402

P = 20.0


def rejects(fn, *args):
    with pytest.raises(checks.CheckError):
        fn(*args)


# ------------------------------------------------------------ CLI datasets

def scatter_table(purcell=P, deltas=np.linspace(-5.0, 5.0, 201)):
    r = -(purcell / (1 + purcell)) / (1.0 - 2j * deltas)
    refl = np.abs(r) ** 2
    trans = np.abs(1.0 + r) ** 2
    return ["delta", "R", "T", "kappa"], np.column_stack(
        [deltas, refl, trans, 1.0 - refl - trans]), deltas


def test_scatter_accepts_closed_form_and_rejects_scaled_r():
    columns, table, deltas = scatter_table()
    checks.check_scatter(P, deltas, columns, table)
    wrong = table.copy()
    wrong[:, 1] *= 1.0 + 1e-6
    rejects(checks.check_scatter, P, deltas, columns, wrong)


def test_scatter_rejects_broken_loss_identity():
    columns, table, deltas = scatter_table()
    wrong = table.copy()
    wrong[:, 3] += 1e-9
    rejects(checks.check_scatter, P, deltas, columns, wrong)


def test_scatter_rejects_other_detuning_grid():
    columns, table, deltas = scatter_table()
    rejects(checks.check_scatter, P, np.linspace(-5.0, 5.0, 200), columns,
            table)


def saturation_table(purcell=P):
    omega = np.array([1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0])
    t, r = checks.saturation_tr(purcell, omega)
    return (["omega", "T_closed", "R_closed", "T_numeric", "R_numeric"],
            np.column_stack([omega, t, r, t + 1e-10, r - 1e-10]))


def test_saturation_accepts_closed_form_and_rejects_scaled_r():
    columns, table = saturation_table()
    checks.check_saturation(P, columns, table)
    wrong = table.copy()
    wrong[:, 4] *= 1.0 + 1e-6
    rejects(checks.check_saturation, P, columns, wrong)


def test_saturation_closed_form_limits():
    # Weak drive: T -> 1/(1+P)^2, R -> (P/(1+P))^2; strong drive: T -> 1.
    t, r = checks.saturation_tr(P, 1e-9)
    assert math.isclose(t, 1.0 / (1.0 + P) ** 2, rel_tol=1e-12)
    assert math.isclose(r, (P / (1.0 + P)) ** 2, rel_tol=1e-12)
    t, r = checks.saturation_tr(P, 1e6)
    assert math.isclose(t, 1.0, rel_tol=1e-9) and r < 1e-12


def g2_table(omega=0.01, scale=0.5):
    purcells = (0.6, 1.0, 1.5, 2.0)
    t = np.linspace(0.0, 10.0, 401)
    columns, cols = ["t"], [t]
    for p in purcells:
        ana = checks.g2_weak(p, t)
        limit = checks.G2_DRIVE_FACTOR * (1 + p) ** 2 * 8 * omega**2
        columns.append(f"g2_P{p:g}")
        cols.append(ana + scale * limit * (1.0 + ana) * np.cos(t))
    for p in purcells:
        columns.append(f"analytic_P{p:g}")
        cols.append(checks.g2_weak(p, t))
    return purcells, columns, np.column_stack(cols)


def test_g2_accepts_drive_correction_and_rejects_scaled_analytic():
    purcells, columns, table = g2_table()
    checks.check_g2(purcells, 0.01, columns, table)
    wrong = table.copy()
    wrong[:, columns.index("analytic_P1.5")] *= 1.0 + 1e-6
    rejects(checks.check_g2, purcells, 0.01, columns, wrong)


def test_g2_rejects_curve_beyond_drive_correction():
    purcells, columns, table = g2_table(scale=2.0)
    rejects(checks.check_g2, purcells, 0.01, columns, table)


def test_g2_weak_closed_form_values():
    # g2(0) = (P^2 - 1)^2 and the zero at t = 4 ln P.
    assert math.isclose(checks.g2_weak(2.0, 0.0), 9.0)
    assert abs(checks.g2_weak(2.0, 4.0 * math.log(2.0))) < 1e-15


def jump_table(rel=5e-3):
    return (["omega", "coherence_ratio", "amplitude_ratio",
             "coherence_weak_limit", "amplitude_weak_limit"],
            np.array([[1e-3, (1 + P) * (1 - rel), -(P**2 - 1) * (1 - rel),
                       1 + P, -(P**2 - 1)]]))


def test_jump_accepts_one_percent_and_rejects_two():
    columns, table = jump_table(5e-3)
    checks.check_jump(P, columns, table)
    rejects(checks.check_jump, P, *jump_table(2e-2))


def test_parse_dataset_reads_header_and_columns():
    text = ("# plasmonqed 0.1.0\n# command = jump\n# purcell = 20\n"
            "# efficiency = 0.5\n# columns: a b\n1 2\n3 4.5\n")
    header, columns, table = checks.parse_dataset(text)
    assert header["purcell"] == "20" and header["efficiency"] == "0.5"
    assert columns == ["a", "b"]
    assert table.tolist() == [[1.0, 2.0], [3.0, 4.5]]


def storage_dataset(efficiency, purcell=P):
    t = np.linspace(0.0, 50.0, 1501)
    dt = t[1] - t[0]
    e_in = np.exp(-((t - 25.0) ** 2) / 40.0)
    e_in /= math.sqrt(np.sum(e_in**2) * dt)
    cs = np.linspace(0.0, efficiency, t.size)
    table = np.column_stack([t, e_in, 0 * t, 0 * t, 0 * t, 0 * t, cs])
    columns = ["t", "E_in_re", "E_in_im", "control_re", "control_im",
               "ce_abs2", "cs_abs2"]
    return {"efficiency": repr(efficiency)}, columns, table


def test_storage_dataset_rejects_efficiency_above_bound():
    bound = P / (1 + P)
    checks.check_storage_dataset(P, *storage_dataset(bound * (1 - 1e-4)))
    rejects(checks.check_storage_dataset, P,
            *storage_dataset(bound * (1 + 1e-6)))
    rejects(checks.check_storage_dataset, P,
            *storage_dataset(bound * (1 - 3e-3)))


def transistor_row(gain=20.0, efficiency=0.95, stored=1.0):
    columns = ["storage_efficiency", "R_mirror", "T_mirror", "gain_mean",
               "gain_ci95", "gain_analytic", "reflected", "transmitted",
               "flip", "gate_stored"]
    r_mirror = (P / (1 + P)) ** 2
    row = [efficiency, r_mirror, 1 / (1 + P) ** 2, 19.9, 0.4, gain,
           0.0, 20.0, 0.0, stored]
    return columns, np.array([row])


def test_transistor_dataset_checks_gain_and_efficiency():
    bound = P / (1 + P)
    checks.check_transistor_dataset(P, 20.0, 20,
                                    *transistor_row(20.0, bound * 0.9999))
    rejects(checks.check_transistor_dataset, P, 20.0, 20,
            *transistor_row(20.0 * (1 + 1e-9), bound * 0.9999))
    rejects(checks.check_transistor_dataset, P, 20.0, 20,
            *transistor_row(20.0, bound * (1 + 1e-6)))


# ------------------------------------------------------------------ oracle

def test_bookkeeping_rejects_loss_off_two_r_over_p():
    r = 0.8
    loss = 2 * r / P
    checks.check_oracle_bookkeeping(r, 1 - r - loss, loss, P, 250)
    rejects(checks.check_oracle_bookkeeping, r, 1 - r - loss,
            loss * (1 + 1e-6), P, 250)
    rejects(checks.check_oracle_bookkeeping, r, 1 - r - loss - 1e-5, loss,
            P, 250)


def test_averaged_reflectance_matches_dense_trapezoid():
    sigma = 0.1
    (lo, hi), intensity = checks.gaussian_intensity(sigma)
    x = np.linspace(lo, hi, 400001)
    y = checks.reflectance(P, x) * intensity(x)
    trapezoid = float(np.sum((y[1:] + y[:-1]) * 0.5 * np.diff(x)))
    assert abs(checks.averaged_reflectance(P, sigma) - trapezoid) < 1e-10
    # A monochromatic limit: a narrow pulse sees R(0).
    narrow = checks.averaged_reflectance(P, 1e-4)
    assert math.isclose(narrow, float(checks.reflectance(P, 0.0)),
                        rel_tol=1e-6)


def test_reference_and_convergence_reject_r_bar_off_by_1e_3():
    r_bar = checks.averaged_reflectance(P, 0.1)
    sizes = [250, 500, 1000, 2000]
    r_sims = [r_bar - 0.4425 / n for n in sizes]
    checks.check_reference(r_bar + 5e-12, r_bar)
    checks.check_convergence(sizes, r_sims, r_bar)
    rejects(checks.check_reference, r_bar + 1e-3, r_bar)
    rejects(checks.check_convergence, sizes, r_sims, r_bar + 1e-3)


def test_convergence_rejects_stalled_error():
    sizes = [250, 500, 1000, 2000]
    rejects(checks.check_convergence, sizes,
            [0.5 - 1e-3, 0.5 - 6e-4, 0.5 - 4e-4, 0.5 - 3e-4], 0.5)


def test_golden_rule_checks_only_fine_grids():
    gamma_pl = P / (1 + P)
    checks.check_golden_rule(gamma_pl * 1.02, gamma_pl, 500)
    checks.check_golden_rule(gamma_pl * 1.009, gamma_pl, 1000)
    rejects(checks.check_golden_rule, gamma_pl * 1.011, gamma_pl, 1000)


# ----------------------------------------------------------------- storage

def test_stored_efficiency_rejects_value_above_bound():
    bound = P / (1 + P)
    checks.check_stored_efficiency(bound * (1 - 9e-4), bound)
    rejects(checks.check_stored_efficiency, bound * (1 + 1e-9), bound)
    rejects(checks.check_stored_efficiency, bound * (1 - 2.1e-3), bound)
    rejects(checks.check_stored_efficiency, math.nan, bound)


def test_round_trip_and_overlap():
    checks.check_round_trip(0.95, 0.95 + 5e-7)
    rejects(checks.check_round_trip, 0.95, 0.95 + 2e-6)
    t = np.linspace(0.0, 50.0, 1501)
    target = np.exp(-((t - 25.0) ** 2) / 40.0) * (1 + 0.1j)
    checks.check_overlap(0.97 * target, target)
    shifted = np.exp(-((t - 25.1) ** 2) / 40.0) * (1 + 0.1j)
    rejects(checks.check_overlap, shifted, target)


def test_gain_analytic():
    checks.check_gain_analytic(20.0, 20.0)
    rejects(checks.check_gain_analytic, 20.0 * (1 + 1e-9), 20.0)


# ------------------------------------------------------ tracing and import

def test_tracer_self_time_and_restore():
    class Layer:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Layer.inner() + 1

    original = Layer.outer
    tracer = Tracer()
    assert tracer.wrap(Layer, "inner", "inner",
                       lambda counts, result: counts.update(hits=result))
    assert tracer.wrap(Layer, "outer", "outer")
    assert not tracer.wrap(Layer, "missing", "missing")
    with tracer.span("round"):
        assert Layer.outer() == 2
    tracer.restore()
    assert Layer.outer is original
    names = [span[0] for span in tracer.spans]
    assert names == ["round", "outer", "inner"]
    parents = [span[3] for span in tracer.spans]
    assert parents == [-1, 0, 1]
    totals = tracer.per_round()[0]
    selfs = tracer.per_round(self_time=True)[0]
    assert math.isclose(selfs["outer"], totals["outer"] - totals["inner"],
                        rel_tol=1e-9, abs_tol=1e-12)
    assert tracer.counts[0]["calls"] == 2 and tracer.counts[0]["hits"] == 1


def test_scipy_share_sums_outermost_scipy_imports():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |       scipy._lib",
        "import time:        30 |         30 |       numpy.fft",
        "import time:       400 |        450 |     scipy.special",
        "import time:       100 |        550 |   scipy.integrate",
        "import time:        10 |         10 |   scipy.linalg",
        "import time:        40 |        750 | plasmonqed.core",
    ])
    assert math.isclose(scipy_share(report), 560e-6)
