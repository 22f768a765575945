"""Command-line front end producing figure-ready text datasets.

Every subcommand reads defaults, an optional ``key = value`` config file,
and ``--set key=value`` overrides, then writes a delimiter-separated table
with a commented header that echoes the resolved configuration. Output is
byte-identical for identical config and seed.

Exit codes: 0 success, 2 configuration error, 3 numerical postcondition
failure (the failing invariant name goes to stderr).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .bloch import (
    SIGMA_GE,
    field_observables,
    saturation_closed_form,
    steady_state,
)
from .core import (
    InvariantViolation,
    gaussian_spectrum,
    params_from_purcell,
)
from .correlations import g2, g2_weakfield_analytic, jump_state
from .oracle import build_grid, convergence_report
from .scatter import scatter_spectrum

__all__ = ["main"]


class ConfigError(Exception):
    """Anything wrong with flags, keys, or values."""


_DEFAULTS = {
    "scatter": {"purcell": "20", "delta": "-5:5:201"},
    "saturation": {"purcell": "20", "omega": "0.001,0.01,0.1,0.3,1,3,10"},
    "g2": {
        "purcell": "0.6,1,1.5,2",
        "omega": "0.01",
        "branch": "transmitted",
        "tmax": "10",
        "n_times": "401",
    },
    "jump": {"purcell": "20", "omega": "0.001"},
    "oracle": {
        "purcell": "20",
        "sigma": "0.1",
        "n_modes": "250,500,1000,2000",
        "spacing": "0.08",
        "t_peak": "25",
        "t_final": "60",
    },
    "storage": {
        "purcell": "20",
        "gamma_es": "0",
        "duration": "50",
        "n_samples": "1501",
    },
    "transistor": {
        "purcell": "20",
        "branching": "20",
        "gate": "1",
        "signals": "20",
        "trials": "10000",
        "duration": "50",
    },
}


# Largest accepted value of each size key: far above every default, and
# small enough that the largest run fits in memory and ends in minutes.
_SIZE_CAPS = {
    "n_times": 100_000,
    "n_modes": 20_000,
    "n_samples": 100_000,
    "trials": 10_000_000,
}

# Largest number of values in each list key (a comma list or the n of
# lo:hi:n). Each value costs a whole unit of the subcommand's work: a
# detuning, a steady state, a g2 curve of n_times delays, an oracle grid.
_COUNT_CAPS = {
    "delta": 100_000,
    "omega": 10_000,
    "purcell": 10,
    "n_modes": 10,
}


# Pulse length of storage and transistor, in 1/Gamma. The control grows as
# 8/duration, and its square overflows below a duration of 6.3e-154. A
# sample step past the lifetime 1/Gamma is unresolved: there the storage
# bookkeeping fails from steps of 2.07 (151 samples) to 58 (100000).
_MIN_DURATION = 1e-150
_MAX_STEP = 1.0
# run_transistor stores its gate photon on matched_storage's default grid
_TRANSISTOR_SAMPLES = 4001


def _check_cap(caps: dict, key: str, value: int, unit: str = "") -> None:
    cap = caps.get(key)
    if cap is not None and value > cap:
        raise ConfigError(f"{key}: at most {cap}{unit} allowed, got {value}")


def _parse_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if math.isnan(value):
        raise ConfigError(f"{key}: expected a number, not NaN ({text!r})")
    return value


def _parse_duration(text: str, n_samples: int) -> float:
    duration = _parse_float(text, "duration")
    if not _MIN_DURATION <= duration < math.inf:
        raise ConfigError(f"duration: must be finite and >= "
                          f"{_MIN_DURATION:g}, got {duration:g}")
    longest = _MAX_STEP * (n_samples - 1)
    if duration > longest:
        raise ConfigError(
            f"duration: at most {longest:g} over {n_samples} samples (a "
            f"step of the lifetime 1/Gamma), got {duration:g}")
    return duration


def _parse_int(text: str, key: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None
    _check_cap(_SIZE_CAPS, key, value)
    return value


def _parse_floats(text: str, key: str) -> np.ndarray:
    """Scalar, comma list, or lo:hi:n linspace."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{key}: range syntax is lo:hi:n, got {text!r}")
        lo = _parse_float(parts[0], key)
        hi = _parse_float(parts[1], key)
        n = _parse_int(parts[2], key)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"{key}: range bounds must be finite in {text!r}")
        if n < 2 or hi <= lo:
            raise ConfigError(f"{key}: need hi > lo and n >= 2 in {text!r}")
        _check_cap(_COUNT_CAPS, key, n, " values")
        return np.linspace(lo, hi, n)
    return np.array(_parse_list(text, key, _parse_float))


def _parse_ints(text: str, key: str) -> list[int]:
    return _parse_list(text, key, _parse_int)


def _parse_list(text: str, key: str, parse) -> list:
    parts = [p for p in text.split(",") if p != ""]
    _check_cap(_COUNT_CAPS, key, len(parts), " values")
    values = [parse(p, key) for p in parts]
    if not values:
        raise ConfigError(f"{key}: expected at least one value, got {text!r}")
    return values


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve_config(command: str, args) -> dict[str, str]:
    config = dict(_DEFAULTS[command])
    overrides: dict[str, str] = {}
    if args.config:
        overrides.update(_read_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    for key, value in overrides.items():
        if key not in config:
            raise ConfigError(
                f"unknown config key {key!r} for {command} "
                f"(known: {', '.join(sorted(config))})")
        config[key] = value
    return config


def _write_dataset(out_path, command, config, seed, table, summary):
    """Write the header and the table of named columns, or nothing if the
    columns differ in length or any cell is not finite (exit 3, naming the
    column and the row)."""
    names = list(table)
    lengths = {name: len(values) for name, values in table.items()}
    if len(set(lengths.values())) > 1:
        raise InvariantViolation("dataset-column-count",
                                 f"column lengths {lengths}")
    cells = np.array(list(table.values()), dtype=float).T
    bad = ~np.isfinite(cells)
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), len(names))
        raise InvariantViolation(
            "dataset-non-finite",
            f"{names[col]} = {cells[row, col]:.17g} at "
            f"{names[0]} = {cells[row, 0]:.17g}")
    lines = [f"# plasmonqed {__version__}", f"# command = {command}",
             f"# seed = {seed}",
             *(f"# {key} = {config[key]}" for key in sorted(config)),
             *(f"# {entry}" for entry in summary),
             "# columns: " + " ".join(names)]
    row_format = " ".join(["%.17g"] * len(names))
    lines.extend(row_format % tuple(row) for row in cells)
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc.strerror}") from None


def cmd_scatter(config, seed):
    purcell = _parse_float(config["purcell"], "purcell")
    deltas = _parse_floats(config["delta"], "delta")
    if not np.all(np.isfinite(deltas)):
        raise ConfigError("delta: detunings must be finite")
    params = params_from_purcell(purcell)
    spectrum = scatter_spectrum(params, deltas)
    return {"delta": spectrum.delta, "R": spectrum.reflectance,
            "T": spectrum.transmittance, "kappa": spectrum.loss}, ()


def cmd_saturation(config, seed):
    purcell = _parse_float(config["purcell"], "purcell")
    omegas = _parse_floats(config["omega"], "omega")
    values = np.empty((4, omegas.size))
    for i, omega in enumerate(omegas):
        if omega <= 0:
            raise ConfigError("omega: drive strengths must be positive")
        # the observables divide by the drive flux omega^2, and the closed
        # form squares the drive
        square = float(omega) * float(omega)
        if square < sys.float_info.min:
            raise ConfigError(f"omega: {float(omega)!r} is too weak, its "
                              f"square underflows double precision")
        if square > sys.float_info.max:
            raise ConfigError(f"omega: {float(omega)!r} is too strong, its "
                              f"square overflows double precision")
        t_closed, r_closed = saturation_closed_form(purcell, omega)
        params = params_from_purcell(purcell, omega_c=omega)
        obs = field_observables(params, steady_state(params))
        values[:, i] = (t_closed, r_closed, obs.transmittance,
                        obs.reflectance)
    return dict(zip(["omega", "T_closed", "R_closed", "T_numeric",
                     "R_numeric"], [omegas, *values])), ()


def cmd_g2(config, seed):
    purcells = _parse_floats(config["purcell"], "purcell")
    omega = _parse_float(config["omega"], "omega")
    branch = config["branch"]
    if branch not in ("transmitted", "reflected"):
        raise ConfigError(f"branch: must be transmitted or reflected, "
                          f"got {branch!r}")
    if omega <= 0:
        raise ConfigError("omega: must be positive")
    if branch == "transmitted" and not np.all(np.isfinite(purcells)):
        raise ConfigError("purcell: the transmitted branch's weak-field "
                          "column needs finite P")
    labels = [f"{p:g}" for p in purcells]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"purcell: values {', '.join(labels)} repeat a "
                          f"column label")
    tmax = _parse_float(config["tmax"], "tmax")
    n_times = _parse_int(config["n_times"], "n_times")
    if tmax <= 0 or n_times < 2:
        raise ConfigError("need tmax > 0 and n_times >= 2")
    times = np.linspace(0.0, tmax, n_times)
    table = {"t": times}
    for label, p in zip(labels, purcells):
        params = params_from_purcell(float(p), omega_c=omega)
        table[f"g2_P{label}"] = g2(params, branch, times).values
    if branch == "transmitted":
        for label, p in zip(labels, purcells):
            table[f"analytic_P{label}"] = g2_weakfield_analytic(float(p),
                                                                times)
    return table, ()


def cmd_jump(config, seed):
    purcell = _parse_float(config["purcell"], "purcell")
    omegas = _parse_floats(config["omega"], "omega")
    if not math.isfinite(purcell):
        raise ConfigError("purcell: the weak-limit columns need finite P")
    values = np.empty((4, omegas.size))
    for i, omega in enumerate(omegas):
        if omega <= 0:
            raise ConfigError("omega: drive strengths must be positive")
        # the jump state's coherence scales as omega^3
        if omega * omega * omega < sys.float_info.min:
            raise ConfigError(f"omega: {float(omega)!r} is too weak, its "
                              f"cube underflows double precision")
        params = params_from_purcell(purcell, omega_c=omega)
        state = jump_state(params, branch="transmitted")
        rho_ss = steady_state(params)
        coherence = complex(np.trace(state.rho_jump @ SIGMA_GE))
        coherence /= complex(np.trace(rho_ss @ SIGMA_GE))
        values[:, i] = (coherence.real, state.amplitude_ratio.real,
                        1.0 + purcell, -(purcell**2 - 1.0))
    return dict(zip(["omega", "coherence_ratio", "amplitude_ratio",
                     "coherence_weak_limit", "amplitude_weak_limit"],
                    [omegas, *values])), ()


def cmd_oracle(config, seed):
    purcell = _parse_float(config["purcell"], "purcell")
    sigma = _parse_float(config["sigma"], "sigma")
    n_modes = _parse_ints(config["n_modes"], "n_modes")
    spacing = _parse_float(config["spacing"], "spacing")
    t_peak = _parse_float(config["t_peak"], "t_peak")
    t_final = _parse_float(config["t_final"], "t_final")
    if sigma <= 0 or spacing <= 0:
        raise ConfigError("sigma and spacing must be positive")
    params = params_from_purcell(purcell)
    grids = [build_grid(params, n, k_span=spacing * n) for n in n_modes]
    report = convergence_report(grids, gaussian_spectrum(sigma),
                                t_peak=t_peak, t_final=t_final)
    r_avg, t_avg, _ = report.reference
    errors = [error for _, error in report.rows]
    if not errors[-1] < 1e-2:
        raise InvariantViolation(
            "oracle-final-error",
            f"|R_sim - R_avg| = {errors[-1]!r} at n = {n_modes[-1]}, "
            f"limit 1e-2")
    table = {"n_modes": n_modes, "error": errors,
             "R_sim": [r.r_sim for r in report.results],
             "T_sim": [r.t_sim for r in report.results],
             "loss_sim": [r.loss_sim for r in report.results]}
    return table, (f"R_avg = {r_avg:.17g}", f"T_avg = {t_avg:.17g}")


def _three_level_from(purcell: float, gamma_es: float):
    # `storage` is imported only by the subcommands that use it: building
    # its dataclasses takes about 8 ms, which the others need not pay.
    from .storage import ThreeLevelParams

    rates = params_from_purcell(purcell)
    other = rates.gamma_prime
    if gamma_es < 0 or gamma_es > other + 1e-12:
        raise ConfigError(
            f"gamma_es: must lie in [0, {other:.6g}] for purcell={purcell:g}")
    return ThreeLevelParams(rates.gamma_pl, max(0.0, other - gamma_es),
                            gamma_es)


def cmd_storage(config, seed):
    from .storage import matched_storage, store_photon

    purcell = _parse_float(config["purcell"], "purcell")
    gamma_es = _parse_float(config["gamma_es"], "gamma_es")
    n_samples = _parse_int(config["n_samples"], "n_samples")
    if n_samples < 16:
        raise ConfigError("n_samples: must be >= 16")
    duration = _parse_duration(config["duration"], n_samples)
    if not 0 < purcell < math.inf:
        raise ConfigError("purcell: must be positive and finite")
    params = _three_level_from(purcell, gamma_es)
    matched = matched_storage(params, duration=duration, n_samples=n_samples)
    result = store_photon(params, matched.input, matched.store_control)
    e_in = matched.input.samples.values
    control = matched.store_control.samples.values
    c_e, c_s = result.amplitudes
    table = {"t": matched.input.samples.grid,
             "E_in_re": e_in.real, "E_in_im": e_in.imag,
             "control_re": control.real, "control_im": control.imag,
             "ce_abs2": np.abs(c_e.values) ** 2,
             "cs_abs2": np.abs(c_s.values) ** 2}
    return table, (f"efficiency = {result.efficiency:.17g}",
                   f"leakage = {result.leakage:.17g}",
                   f"loss = {result.loss:.17g}")


def cmd_transistor(config, seed):
    from .storage import conditional_mirror, run_transistor, transistor_gain

    purcell = _parse_float(config["purcell"], "purcell")
    branching = _parse_float(config["branching"], "branching")
    gate = _parse_int(config["gate"], "gate")
    signals = _parse_int(config["signals"], "signals")
    trials = _parse_int(config["trials"], "trials")
    duration = _parse_duration(config["duration"], _TRANSISTOR_SAMPLES)
    if not 0 < purcell < math.inf:
        raise ConfigError("purcell: must be positive and finite")
    if math.isinf(branching):
        raise ConfigError("branching: must be finite")
    if branching < purcell:
        raise ConfigError(
            "branching: Gamma_eg/Gamma_es cannot be below purcell "
            "(the pumping channel would need a negative rate)")
    if gate not in (0, 1):
        raise ConfigError("gate: must be 0 or 1")
    if signals < 0 or trials < 1:
        raise ConfigError("need signals >= 0 and trials >= 1")
    params = _three_level_from(purcell, 1.0 / (1.0 + branching))
    mirror = conditional_mirror("g", params.as_two_level())
    gain = transistor_gain(params, trials, seed)
    run = run_transistor(params, gate, signals, seed=seed,
                         storage_duration=duration)
    # no gate photon was sent, so none was stored
    efficiency = (0.0 if run.storage_efficiency is None
                  else run.storage_efficiency)
    table = {"storage_efficiency": [efficiency],
             "R_mirror": [mirror.reflectance],
             "T_mirror": [mirror.transmittance],
             "gain_mean": [gain.mean], "gain_ci95": [gain.ci95],
             "gain_analytic": [gain.analytic_mean],
             "reflected": [run.reflected], "transmitted": [run.transmitted],
             "flip": [run.flip_occurred], "gate_stored": [run.gate_stored]}
    summary = (
        f"gain: {gain.mean:.17g} +- {gain.ci95:.17g} "
        f"(analytic {gain.analytic_mean:.17g})",
        f"routing: reflected {run.reflected:.17g}, "
        f"transmitted {run.transmitted:.17g} of {signals} signals",
    )
    return table, summary

_COMMANDS = {
    "scatter": cmd_scatter,
    "saturation": cmd_saturation,
    "g2": cmd_g2,
    "jump": cmd_jump,
    "oracle": cmd_oracle,
    "storage": cmd_storage,
    "transistor": cmd_transistor,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plasmonqed",
        description="Single-emitter waveguide scattering tool: spectra, "
                    "saturation, photon correlations, wavepacket checks, "
                    "storage, and transistor runs.")
    parser.add_argument("--version", action="version",
                        version=f"plasmonqed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"{name} dataset")
        cmd.add_argument("--config", help="key = value config file")
        cmd.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override one config key (repeatable)")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--seed", type=int, default=0,
                         help="random seed for stochastic commands")
        cmd.add_argument("--workers", type=int, default=1,
                         help="accepted for compatibility; every subcommand "
                              "runs in-process")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        config = _resolve_config(args.command, args)
        # Overflow at extreme drive is caught by the finite checks and
        # reported below as one line; numpy's warnings would only precede it.
        with np.errstate(all="ignore"):
            table, summary = _COMMANDS[args.command](config, args.seed)
            _write_dataset(args.out, args.command, config, args.seed, table,
                           summary)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"numerical overflow: {args.command}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
