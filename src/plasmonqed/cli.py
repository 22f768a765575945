"""Command-line front end producing figure-ready text datasets.

Every subcommand reads defaults, an optional ``key = value`` config file,
and ``--set key=value`` overrides, checks every key against the domain that
``_KEYS`` declares for it, then writes a delimiter-separated table with a
commented header that echoes the resolved configuration. Output is
byte-identical for identical config and seed.

Exit codes: 0 success, 2 configuration error naming its key, 3 numerical
postcondition failure (the failing invariant name goes to stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from . import __version__
from .bloch import (SIGMA_GE, field_observables, saturation_closed_form,
                    steady_state)
from .core import (InvariantViolation, gaussian_spectrum, params_from_purcell,
                   require)
from .correlations import g2, g2_weakfield_analytic, jump_state
from .scatter import scatter_point, scatter_spectrum

__all__ = ["main"]


class ConfigError(Exception):
    """Anything wrong with flags, keys, or values."""


def _parse_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if math.isnan(value):
        raise ConfigError(f"{key}: expected a number, not NaN ({text!r})")
    return value


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"{key}: expected an integer, got {text!r}") from None


def _list_of(parse, count: int):
    """Parser of a comma list of at most ``count`` values, or for floats of
    the range lo:hi:n of n evenly spaced values, returned as the triple
    (lo, hi, n) for _parse_config to check at its typed ends and spread.
    Each value costs a whole unit of the subcommand's work: a detuning, a
    steady state, a g2 curve of n_times delays, an oracle grid."""

    def parse_list(text: str, key: str):
        ranged = parse is _parse_float and ":" in text
        parts = text.split(":" if ranged else ",")
        if "" in parts:
            raise ConfigError(f"{key}: empty item in {text!r}")
        if ranged and len(parts) != 3:
            raise ConfigError(f"{key}: range syntax is lo:hi:n, got {text!r}")
        n = _parse_int(parts[2], key) if ranged else len(parts)
        if ranged:
            lo, hi = _parse_float(parts[0], key), _parse_float(parts[1], key)
            if n < 2 or not -math.inf < lo < hi < math.inf:
                raise ConfigError(
                    f"{key}: need finite lo < hi and n >= 2 in {text!r}")
        if n > count:
            raise ConfigError(
                f"{key}: at most {count} values allowed, got {n}")
        if ranged:
            return lo, hi, n
        return np.array([parse(p, key) for p in parts])

    return parse_list


# A check on a key's values: a test of an array of them, and the message
# of the first value that fails it.
def _within(lo, hi, *also):
    """The domain of a numeric key: the closed interval [lo, hi], plus the
    values ``also``."""
    extra = "".join(f" or {value:g}" for value in also)
    return (lambda v: ((v >= lo) & (v <= hi)) | np.isin(v, also),
            f"must lie in [{lo:g}, {hi:g}]{extra}, got {{value!r}}")


# Each domain is physical, in units of Gamma, with wide margins around the
# paper's runs: Purcell factors of order 1 to 1e3, drives, detunings and
# pulse bandwidths of order Gamma, times of order 1 to 1e4/Gamma (Chang,
# Sorensen, Demler & Lukin, arXiv:0706.4335). A count's upper bound is a
# size cap, small enough that the largest run fits in memory and ends in
# seconds. purcell = inf is the lossless limit.
_PURCELL = _within(0, 1e6, math.inf)
_DRIVE = _within(1e-8, 1e4)
# Fewest storage samples: swept over the duration domain, from 0.01 to the
# longest a count allows, the probability bookkeeping fails (above 1e-6) at
# up to 183 samples, near duration 3, and passes from 184 on.
_MIN_SAMPLES = 200
_MAX_SAMPLES = 100_000
# A storage sample step past the lifetime 1/Gamma is unresolved: there the
# bookkeeping fails from steps of 2.07 (151 samples) to 58 (100000).
_MAX_STEP = 1.0

# Every config key of every subcommand: its default text, its parser, and
# the checks its values must pass, in order. _check_joint holds the rules
# that join keys.
_KEYS = {
    "scatter": {
        "purcell": ("20", _parse_float, _PURCELL),
        "delta": ("-5:5:201", _list_of(_parse_float, 100_000),
                  _within(-1e4, 1e4)),
    },
    "saturation": {
        "purcell": ("20", _parse_float, _PURCELL),
        "omega": ("0.001,0.01,0.1,0.3,1,3,10", _list_of(_parse_float, 10_000),
                  _DRIVE),
    },
    "g2": {
        "purcell": ("0.6,1,1.5,2", _list_of(_parse_float, 10), _PURCELL),
        "omega": ("0.01", _parse_float, _DRIVE),
        "branch": ("transmitted", lambda text, key: text,
                   (lambda v: np.isin(v, ("transmitted", "reflected")),
                    "must be transmitted or reflected, got {value!r}")),
        "tmax": ("10", _parse_float, _within(0.01, 1e6)),
        "n_times": ("401", _parse_int, _within(2, 100_000)),
    },
    "jump": {
        # the weak-limit columns, 1 + P and -(P^2 - 1), need finite P
        "purcell": ("20", _parse_float, _within(0, 1e6)),
        "omega": ("0.001", _list_of(_parse_float, 10_000), _DRIVE),
    },
    "oracle": {
        # A run needs n_modes * spacing >= 20 and a pulse that the grid
        # holds, clears by t_final and that peaks before the box recurrence
        # 2 pi/spacing; the layer checks these and names the keys.
        "purcell": ("20", _parse_float, _PURCELL),
        "sigma": ("0.1", _parse_float, _within(0.01, 10)),
        "n_modes": ("250,500,1000,2000", _list_of(_parse_int, 10),
                    _within(100, 20_000)),
        "spacing": ("0.08", _parse_float, _within(0.001, 0.25)),
        "t_peak": ("25", _parse_float, _within(1, 1000)),
        "t_final": ("60", _parse_float, _within(15, 2000)),
    },
    "storage": {
        "purcell": ("20", _parse_float, _within(0.01, 1e6)),
        "gamma_es": ("0", _parse_float, _within(0, 0.99)),
        "duration": ("50", _parse_float,
                     _within(0.01, _MAX_STEP * (_MAX_SAMPLES - 1))),
        "n_samples": ("1501", _parse_int,
                      _within(_MIN_SAMPLES, _MAX_SAMPLES)),
    },
    "transistor": {
        "purcell": ("20", _parse_float, _within(0.01, 1e6)),
        "branching": ("20", _parse_float, _within(0.01, 1e6)),
        "gate": ("1", _parse_int, _within(0, 1)),
        "signals": ("20", _parse_int, _within(0, 1_000_000)),
        # the 95 % interval of the gain needs two trials
        "trials": ("10000", _parse_int, _within(2, 10_000_000)),
        # run_transistor stores its gate photon on matched_storage's default
        # grid, 4001 samples, so at most a step of 1/Gamma
        "duration": ("50", _parse_float, _within(0.01, 4000)),
    },
}

_DEFAULTS = {command: {key: spec[0] for key, spec in keys.items()}
             for command, keys in _KEYS.items()}


def _check_joint(command: str, v: dict) -> None:
    """The rules that join keys, each once; every key is in its domain."""
    if command == "storage":
        samples = v["n_samples"]
        longest = _MAX_STEP * (samples - 1)
        if v["duration"] > longest:
            raise ConfigError(
                f"duration: at most {longest:g} over {samples} samples (a "
                f"step of the lifetime 1/Gamma), got {v['duration']:g}")
        other = 1.0 / (1.0 + v["purcell"])  # gamma_prime at Gamma = 1
        if v["gamma_es"] > other + 1e-12:
            raise ConfigError(f"gamma_es: must lie in [0, {other:.6g}] for "
                              f"purcell={v['purcell']:g}")
    if command == "transistor" and v["branching"] < v["purcell"]:
        raise ConfigError(
            "branching: Gamma_eg/Gamma_es cannot be below purcell "
            "(the pumping channel would need a negative rate)")
    if command == "g2":
        if v["branch"] == "transmitted" and np.isinf(v["purcell"]).any():
            raise ConfigError("purcell: inf needs branch=reflected (the "
                              "transmitted weak-field column needs finite P)")
        labels = [f"{p:g}" for p in v["purcell"]]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"purcell: values {', '.join(labels)} repeat a "
                              f"column label")


def _parse_config(command: str, config: dict[str, str]) -> dict:
    """The typed value of every key, each checked against its domain. A
    range lo:hi:n is checked at its typed ends, then spread: its values lie
    between them, and the span of two ends in a domain is finite."""
    values = {}
    for key, (_, parse, *checks) in _KEYS[command].items():
        value = parse(config[key], key)
        ranged = isinstance(value, tuple)
        array = np.atleast_1d(value[:2] if ranged else value)
        for test, message in checks:
            ok = np.asarray(test(array), dtype=bool)
            if not ok.all():
                bad = array.tolist()[int(np.argmin(ok))]
                raise ConfigError(f"{key}: " + message.format(value=bad))
        values[key] = np.linspace(*value) if ranged else value
    _check_joint(command, values)
    return values


@contextlib.contextmanager
def _naming(v: dict, keys: str):
    """Turn a layer's ValueError into a ConfigError that opens with a key of
    ``v``: its own first word, or else ``keys``, the keys behind the call."""
    try:
        yield
    except ValueError as exc:
        text = str(exc)
        if text.split(" ", 1)[0] in v:
            raise ConfigError(text) from None
        raise ConfigError(f"{keys}: {text}") from None


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


def cmd_scatter(v, seed):
    spectrum = scatter_spectrum(params_from_purcell(v["purcell"]), v["delta"])
    return {"delta": spectrum.delta, "R": spectrum.reflectance,
            "T": spectrum.transmittance, "kappa": spectrum.loss}, ()


def cmd_saturation(v, seed):
    purcell, omegas = v["purcell"], v["omega"]
    values = np.empty((4, omegas.size))
    for i, omega in enumerate(omegas):
        t_closed, r_closed = saturation_closed_form(purcell, omega)
        params = params_from_purcell(purcell, omega_c=omega)
        obs = field_observables(params, steady_state(params))
        values[:, i] = (t_closed, r_closed, obs.transmittance,
                        obs.reflectance)
    return dict(zip(["omega", "T_closed", "R_closed", "T_numeric",
                     "R_numeric"], [omegas, *values])), ()


def cmd_g2(v, seed):
    times = np.linspace(0.0, v["tmax"], v["n_times"])
    table = {"t": times}
    labels = [f"{p:g}" for p in v["purcell"]]
    for label, p in zip(labels, v["purcell"]):
        params = params_from_purcell(float(p), omega_c=v["omega"])
        with _naming(v, "purcell, omega"):
            table[f"g2_P{label}"] = g2(params, v["branch"], times).values
    if v["branch"] == "transmitted":
        for label, p in zip(labels, v["purcell"]):
            table[f"analytic_P{label}"] = g2_weakfield_analytic(float(p),
                                                                times)
    return table, ()


def cmd_jump(v, seed):
    purcell, omegas = v["purcell"], v["omega"]
    values = np.empty((4, omegas.size))
    for i, omega in enumerate(omegas):
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


def cmd_oracle(v, seed):
    from .oracle import build_grid, convergence_report

    params, n_modes = params_from_purcell(v["purcell"]), v["n_modes"]
    with _naming(v, "n_modes, spacing"):
        grids = [build_grid(params, n, k_span=v["spacing"] * n)
                 for n in n_modes]
    with _naming(v, "sigma, n_modes, spacing"):
        report = convergence_report(grids, gaussian_spectrum(v["sigma"]),
                                    t_peak=v["t_peak"], t_final=v["t_final"])
    r_avg, t_avg, _ = report.reference
    errors = [error for _, error in report.rows]
    require("oracle-final-error", errors[-1], 1e-2,
            f"|R_sim - R_avg| = {errors[-1]!r} at n = {n_modes[-1]}")
    table = {"n_modes": n_modes, "error": errors,
             "R_sim": [r.r_sim for r in report.results],
             "T_sim": [r.t_sim for r in report.results],
             "loss_sim": [r.loss_sim for r in report.results]}
    return table, (f"R_avg = {r_avg:.17g}", f"T_avg = {t_avg:.17g}")


def _three_level_from(purcell: float, gamma_es: float):
    # `storage` and `oracle` are imported only by the subcommands that use
    # them: their dataclasses take milliseconds the others need not pay.
    from .storage import ThreeLevelParams

    rates = params_from_purcell(purcell)
    return ThreeLevelParams(rates.gamma_pl,
                            max(0.0, rates.gamma_prime - gamma_es), gamma_es)


def cmd_storage(v, seed):
    from .storage import matched_storage, store_photon

    params = _three_level_from(v["purcell"], v["gamma_es"])
    matched = matched_storage(params, duration=v["duration"],
                              n_samples=v["n_samples"])
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


def cmd_transistor(v, seed):
    from .storage import run_transistor, transistor_gain

    params = _three_level_from(v["purcell"], 1.0 / (1.0 + v["branching"]))
    mirror = scatter_point(params.as_two_level())
    gain = transistor_gain(params, v["trials"], seed)
    run = run_transistor(params, v["gate"], v["signals"], seed=seed,
                         storage_duration=v["duration"])
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
        f"transmitted {run.transmitted:.17g} of {v['signals']} signals",
    )
    return table, summary


_COMMANDS = {command: globals()[f"cmd_{command}"] for command in _KEYS}


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
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        config = _resolve_config(args.command, args)
        values = _parse_config(args.command, config)
        table, summary = _COMMANDS[args.command](values, args.seed)
        _write_dataset(args.out, args.command, config, args.seed, table,
                       summary)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
