"""One run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script with ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --tmp DIR [--spans FILE] [--setup-only]

It sets the workload up (timed), then runs whole rounds of the workload's
operations until ``--seconds`` have passed, checks every output, and prints
one JSON object as its last line of standard output. With ``--setup-only``
it stops after the set-up and prints only its time.

A round runs each operation kind of the workload once, in a fixed order,
so slow drift of the machine hits every kind alike. There is one caller
and one operation at a time (a closed loop).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

checks = None  # the benchmark's output checks, imported after the set-up

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The README's CLI block, without `oracle`, whose default config exits 2.
CLI_COMMANDS = ("scatter", "saturation", "g2", "jump", "storage",
                "transistor")
SCATTER_PURCELL = 20.0
SCATTER_DELTA = (-5.0, 5.0, 201)
G2_PURCELLS = (0.6, 1.0, 1.5, 2.0)

ORACLE_SIZES = (250, 500, 1000, 2000)
ORACLE_SPACING = 0.08
PURCELL_RANGE = (5.0, 50.0)
# Pulse widths sigma = 4/m put every grid detuning (odd multiples of 0.04)
# on a sample of the pulse (spacing 0.01 sigma). At other widths the
# oracle's linear interpolation of the pulse loses ~4e-6 of its norm, and
# the 1e-6 spectral-leakage check rejects the run (see CHANGES.md).
SIGMA_DIVISORS = (16, 40)  # sigma from 0.25 down to 0.1

STORAGE_SAMPLES = (1501, 4001, 16001)
STORAGE_CONFIGS = 4
DURATION_RANGE = (30.0, 100.0)
SPLIT_RANGE = (0.1, 0.9)
TRANSISTOR_SIGNALS = 20
GAIN_TRIALS = 10000

# Set-up times per untraced run: the worker's own and fresh interpreters'.
SETUP_SAMPLES = 5

# Per-layer metrics every traced run reports. Layers a workload does not
# call read 0.
PER_LAYER = (
    ["cli.import_s", "cli.import_scipy_s"]
    + [f"cli.{c}.{k}_s" for c in CLI_COMMANDS for k in ("call", "self")]
    + ["scatter.scatter_spectrum_s", "scatter.pulse_averaged_rt_s",
       "bloch.steady_state_s", "bloch.field_observables_s",
       "correlations.g2_s", "correlations.jump_state_s"]
    + [f"oracle.scatter_wavepacket.n{n}_s" for n in ORACLE_SIZES]
    + ["oracle.snapshots", "oracle.golden_rule_rate_s",
       "storage.matched_storage_s", "storage.control_for_target_pulse_s",
       "storage.store_photon_s", "storage.generate_photon_s",
       "storage.run_transistor_s", "storage.transistor_gain_s",
       "storage.solve_ivp_calls", "storage.solve_ivp_nfev",
       "trace.overhead_s"]
)
COUNTS = ("oracle.snapshots", "storage.solve_ivp_calls",
          "storage.solve_ivp_nfev")


# ------------------------------------------------------------------ set-up

def setup_cli(seed: int) -> tuple[float, dict]:
    start = time.perf_counter()
    import plasmonqed.cli  # noqa: F401
    return time.perf_counter() - start, {"seed": seed}


def setup_oracle(seed: int) -> tuple[float, dict]:
    start = time.perf_counter()
    from plasmonqed import core, oracle

    rng = random.Random(seed)
    purcell = rng.uniform(*PURCELL_RANGE)
    sigma = 4.0 / rng.randint(*SIGMA_DIVISORS)
    params = core.params_from_purcell(purcell)
    pulse = core.gaussian_spectrum(sigma)
    grids = [oracle.build_grid(params, n, k_span=ORACLE_SPACING * n)
             for n in ORACLE_SIZES]
    elapsed = time.perf_counter() - start
    return elapsed, {"purcell": purcell, "sigma": sigma, "params": params,
                     "pulse": pulse, "grids": grids}


def setup_storage(seed: int) -> tuple[float, dict]:
    start = time.perf_counter()
    from plasmonqed import storage

    rng = random.Random(seed)
    count = STORAGE_CONFIGS
    # Stratified draws: each parameter takes one value in each of `count`
    # equal slices of its range, in a random order, so that every run
    # spans the ranges and its work hardly depends on the seed.
    orders = [rng.sample(range(count), count) for _ in range(3)]

    def draw(lo, hi, stratum):
        return lo + (hi - lo) * (stratum + rng.random()) / count

    configs = []
    for i in range(count):
        purcell = draw(*PURCELL_RANGE, orders[0][i])
        duration = draw(*DURATION_RANGE, orders[1][i])
        split = draw(*SPLIT_RANGE, orders[2][i])
        other = 1.0 / (1.0 + purcell)
        params = storage.ThreeLevelParams(
            purcell * other, (1.0 - split) * other, split * other)
        configs.append({"purcell": purcell, "duration": duration,
                        "split": split, "params": params})
    elapsed = time.perf_counter() - start
    return elapsed, {"configs": configs, "seed": seed}


# ---------------------------------------------------------------- CLI calls

def cli_argv(command: str, seed: int) -> list[str]:
    if command == "scatter":
        lo, hi, n = SCATTER_DELTA
        return ["scatter", "--set", f"purcell={SCATTER_PURCELL:g}",
                "--set", f"delta={lo:g}:{hi:g}:{n}"]
    if command == "g2":
        return ["g2", "--set",
                "purcell=" + ",".join(f"{p:g}" for p in G2_PURCELLS)]
    if command == "storage":
        return ["storage", "--set", "duration=50"]
    if command == "transistor":
        return ["transistor", "--set", "gate=1", "--seed", str(seed)]
    return [command]


def run_cli(argv: list[str], out_path: str) -> dict:
    """One `python -m plasmonqed.cli` process, timed from spawn to exit."""
    so_path, se_path = out_path + ".stdout", out_path + ".stderr"
    with open(so_path, "wb") as so, open(se_path, "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "plasmonqed.cli", *argv, "--out", out_path],
            stdout=so, stderr=se, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(so_path, "rb") as so, open(se_path, "rb") as se:
        stdout, stderr = so.read(), se.read()
    os.remove(so_path)
    os.remove(se_path)
    # ru_maxrss is in KiB on Linux and covers the process's own children.
    return {"seconds": elapsed, "code": proc.returncode, "stdout": stdout,
            "stderr": stderr, "rss_mb": usage.ru_maxrss / 1024.0}


def fresh_setup(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def check_cli_output(command: str, text: str) -> None:
    import numpy as np

    header, columns, table = checks.parse_dataset(text)
    if command == "scatter":
        lo, hi, n = SCATTER_DELTA
        checks.check_scatter(SCATTER_PURCELL, np.linspace(lo, hi, n),
                             columns, table)
    elif command == "saturation":
        checks.check_saturation(float(header["purcell"]), columns, table)
    elif command == "g2":
        checks.check_g2(G2_PURCELLS, float(header["omega"]), columns, table)
    elif command == "jump":
        checks.check_jump(float(header["purcell"]), columns, table)
    elif command == "storage":
        checks.check_storage_dataset(float(header["purcell"]), header,
                                     columns, table)
    elif command == "transistor":
        checks.check_transistor_dataset(
            float(header["purcell"]), float(header["branching"]),
            int(header["signals"]), columns, table)


# ----------------------------------------------------------------- rounds

class Run:
    """Operation counts, failures and check results of one run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.check_errors: list[str] = []
        self.op_seconds: list[dict[str, float]] = []
        self.rss_mb = 0.0

    def op(self, times: dict, name: str, fn, *args, **kwargs):
        """Time one operation; a raised exception counts as a failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run goes on; the failure is counted
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            times[name] = times.get(name, 0.0) + time.perf_counter() - start

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckError as exc:
            self.check_errors.append(str(exc))


def round_cli(run: Run, state: dict, tmp: str) -> dict:
    """Each README command in its own fresh process; traced: also in-process."""
    times: dict[str, float] = {}
    for command in CLI_COMMANDS:
        argv = cli_argv(command, state["seed"])
        out_path = os.path.join(tmp, f"{command}.dat")
        run.attempted += 1
        result = run_cli(argv, out_path)
        times[command] = result["seconds"]
        run.rss_mb = max(run.rss_mb, result["rss_mb"])
        if result["code"] != 0 or result["stderr"] or result["stdout"]:
            run.failures.append(
                f"cli {command}: exit {result['code']}, stderr "
                f"{result['stderr'][-300:]!r}, stdout {len(result['stdout'])} "
                "bytes")
            continue
        with open(out_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        run.check(check_cli_output, command, text)
        if run.tracer is not None:
            traced_cli_call(run, state, command, argv, text, tmp)
    return times


def traced_cli_call(run: Run, state: dict, command: str, argv: list[str],
                    fresh_text: str, tmp: str) -> None:
    """`plasmonqed.cli.main(argv)` in this process, under the tracer.

    `g2` runs with --workers 1 here so its layer calls stay in this process
    where the tracer sees them; its output bytes must not depend on that.
    """
    out_path = os.path.join(tmp, f"{command}.inproc.dat")
    extra_args = ["--workers", "1"] if command == "g2" else []
    with run.tracer.span(f"cli.{command}"):
        code = state["cli"].main(argv + extra_args + ["--out", out_path])
    with open(out_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if code != 0:
        run.check_errors.append(f"in-process cli {command}: exit {code}")
    elif text != fresh_text:
        run.check_errors.append(
            f"in-process cli {command}: output differs from the "
            "fresh-process output")


def round_oracle(run: Run, state: dict, tmp: str) -> dict:
    """Criterion 6's sweep plus one golden-rule probe per grid."""
    from plasmonqed import oracle

    times: dict[str, float] = {}
    report = run.op(times, "convergence_report", oracle.convergence_report,
                    state["grids"], state["pulse"])
    rates = [run.op(times, "golden_rule_rate", oracle.golden_rule_rate, grid)
             for grid in state["grids"]]
    purcell = state["purcell"]
    if report is not None:
        sizes = [g.n_modes for g in state["grids"]]
        for n, result in zip(sizes, report.results):
            run.check(checks.check_oracle_bookkeeping, result.r_sim,
                      result.t_sim, result.loss_sim, purcell, n)
        run.check(checks.check_reference, report.reference[0], state["r_bar"])
        run.check(checks.check_convergence, sizes,
                  [r.r_sim for r in report.results], state["r_bar"])
    for grid, rate in zip(state["grids"], rates):
        if rate is not None:
            run.check(checks.check_golden_rule, rate,
                      state["params"].gamma_pl, grid.n_modes)
    return times


def round_storage(run: Run, state: dict, tmp: str) -> dict:
    """Each configuration: matched storage, storage and regeneration at
    three sample counts, then the transistor."""
    times: dict[str, float] = {}
    for config in state["configs"]:
        storage_config(run, times, config, state["seed"])
    return times


def storage_config(run: Run, times: dict, config: dict, seed: int) -> None:
    from plasmonqed import storage

    params = config["params"]
    duration = config["duration"]
    bound = checks.storage_bound(params.gamma_pl, params.gamma_total)
    for n in STORAGE_SAMPLES:
        matched = run.op(times, "matched_storage", storage.matched_storage,
                         params, duration=duration, n_samples=n)
        if matched is None:
            # The two operations that need its output fail with it, so
            # every round attempts the same operations.
            run.attempted += 2
            run.failures += [f"store_photon n={n}: no matched input",
                             f"generate_photon n={n}: no matched control"]
            continue
        stored = run.op(times, "store_photon", storage.store_photon, params,
                        matched.input, matched.store_control)
        generated = run.op(times, "generate_photon", storage.generate_photon,
                           params.with_control(matched.generate_control),
                           matched.target.samples.grid)
        if stored is not None:
            run.check(checks.check_stored_efficiency, stored.efficiency,
                      bound, f"storage n={n}")
        if stored is not None and generated is not None:
            emitted, efficiency = generated
            run.check(checks.check_round_trip, stored.efficiency, efficiency)
            run.check(checks.check_overlap, emitted.samples.values,
                      matched.target.samples.values)
    transistor = run.op(times, "run_transistor", storage.run_transistor,
                        params, 1, TRANSISTOR_SIGNALS, seed=seed,
                        storage_duration=duration)
    gain = run.op(times, "transistor_gain", storage.transistor_gain, params,
                  GAIN_TRIALS, seed)
    if transistor is not None:
        run.check(checks.check_stored_efficiency,
                  transistor.storage_efficiency, bound, "run_transistor")
    if gain is not None:
        run.check(checks.check_gain_analytic, gain.analytic_mean,
                  params.gamma_eg / params.gamma_es)


WORKLOADS = {
    "cli-datasets": (setup_cli, round_cli),
    "oracle-convergence": (setup_oracle, round_oracle),
    "storage-sweep": (setup_storage, round_storage),
}


# ----------------------------------------------------------------- tracing

def install_tracer(tracer) -> None:
    """Wrap the public layer functions under every name the program uses."""
    from plasmonqed import bloch, cli, correlations, oracle, scatter, storage

    # Span name -> the modules that bind the function under that name.
    plan = {
        "scatter.scatter_spectrum": (cli, scatter),
        "scatter.pulse_averaged_rt": (cli, scatter),
        "bloch.steady_state": (cli, bloch),
        "bloch.field_observables": (cli, bloch),
        "correlations.g2": (cli, correlations),
        "correlations.jump_state": (cli, correlations),
        "oracle.golden_rule_rate": (oracle,),
        "storage.matched_storage": (cli, storage),
        "storage.control_for_target_pulse": (storage,),
        "storage.store_photon": (cli, storage),
        "storage.generate_photon": (storage,),
        "storage.run_transistor": (cli, storage),
        "storage.transistor_gain": (cli, storage),
    }
    for span_name, modules in plan.items():
        attr = span_name.split(".", 1)[1]
        for module in modules:
            tracer.wrap(module, attr, span_name)

    def grid_span(grid, *args, **kwargs):
        return f"oracle.scatter_wavepacket.n{grid.n_modes}"

    def count_snapshots(counts, result):
        counts["oracle.snapshots"] += len(result.trajectory)

    def count_solver(counts, result):
        counts["storage.solve_ivp_calls"] += 1
        counts["storage.solve_ivp_nfev"] += int(result.nfev)

    for module in (cli, oracle):
        tracer.wrap(module, "scatter_wavepacket", grid_span, count_snapshots)
    tracer.wrap(storage, "solve_ivp", None, count_solver)


def layer_metrics(tracer, rounds: int, call_times: list[dict]) -> dict:
    from tracing import wrapper_cost

    cost = wrapper_cost()
    totals = tracer.per_round()
    selfs = tracer.per_round(self_time=True)
    values: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for rnd in range(rounds):
        for name in PER_LAYER:
            if name in COUNTS:
                values[name].append(tracer.counts[rnd][name])
            elif name == "trace.overhead_s":
                values[name].append(tracer.counts[rnd]["calls"] * cost)
            elif name.startswith("cli.") and name.endswith(".call_s"):
                command = name.split(".")[1]
                values[name].append(call_times[rnd].get(command, 0.0))
            elif name.startswith("cli.") and name.endswith(".self_s"):
                span = name[:-len("_s")].rsplit(".", 1)[0]
                values[name].append(selfs[rnd].get(span, 0.0))
            elif name.startswith("cli.import"):
                continue  # measured by run.py in fresh interpreters
            else:
                values[name].append(totals[rnd].get(name[:-len("_s")], 0.0))
    return {name: statistics.median(v) for name, v in values.items() if v}


# -------------------------------------------------------------------- main

def plain(state: dict) -> dict:
    """The drawn numbers of a workload's state, for the run record."""
    out = {k: v for k, v in state.items() if isinstance(v, (int, float))}
    if "configs" in state:
        out["configs"] = [plain(c) for c in state["configs"]]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup, one_round = WORKLOADS[args.workload]
    setup_s, state = setup(args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # The checks (and numpy with them) are imported after the set-up, so
    # that the set-up time is the program's alone.
    global checks
    import resource

    import checks

    if args.workload == "oracle-convergence":
        state["r_bar"] = checks.averaged_reflectance(state["purcell"],
                                                     state["sigma"])
    tracer = None
    if args.trace:
        from tracing import Tracer

        import plasmonqed.cli

        state["cli"] = plasmonqed.cli
        tracer = Tracer()
        install_tracer(tracer)

    run = Run(tracer)
    walls: list[float] = []
    setups = [setup_s]
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            if not args.trace and len(setups) < SETUP_SAMPLES:
                # Spread the set-up samples over the run, so that one slow
                # spell of the machine does not hold all of them; the run
                # gets the time back.
                start = time.perf_counter()
                setups.append(fresh_setup(args.workload, args.seed))
                deadline += time.perf_counter() - start
            if tracer is not None:
                tracer.round = len(walls)
            times = one_round(run, state, args.tmp)
            run.op_seconds.append(times)
            walls.append(sum(times.values()))
            if time.perf_counter() >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(fresh_setup(args.workload, args.seed))

    if args.workload == "cli-datasets":
        peak_rss_mb = run.rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": plain(state),
        "setup_samples_s": setups,
        "rounds": len(walls),
        "round_wall_s": walls,
        "op_seconds": run.op_seconds,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "check_errors": run.check_errors,
        "correct": not run.check_errors,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        call_times = (run.op_seconds if args.workload == "cli-datasets"
                      else [{} for _ in walls])
        record["layers"] = layer_metrics(tracer, len(walls), call_times)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
