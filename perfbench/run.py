"""Benchmark of plasmonqed: one workload, one run, one JSON line.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload cli-datasets --seed 1 \
        --seconds 20 --trace 0

Workloads: ``cli-datasets``, ``oracle-convergence`` and ``storage-sweep``
(see README.md next to this file). The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when ``--trace 0`` and the per-layer metrics of
a traced run when ``--trace 1``. Raw records and spans go to
``perfbench/runs/``. The script uses the standard library only; the work
runs in child interpreters (``worker.py``) that import the package from
``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("cli-datasets", "oracle-convergence", "storage-sweep")
# Fresh interpreters that time `import plasmonqed.cli` in a traced run.
IMPORT_SAMPLES = 3
# A run must end within 180 s; this leaves room for the last round.
WORKER_TIMEOUT_S = 170.0

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The run cannot produce a result (no program, or a child crashed)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], timeout: float = WORKER_TIMEOUT_S
              ) -> subprocess.CompletedProcess:
    """Run a child interpreter to its end; kill its whole group on timeout."""
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args[:3]} exceeded {timeout:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args[:3]} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def import_s() -> float:
    """Seconds of `import plasmonqed.cli` in a fresh interpreter."""
    done = run_child([WORKER, "--workload", "cli-datasets", "--seed", "0",
                      "--setup-only"], timeout=60.0)
    return float(last_json(done.stdout)["setup_s"])


def scipy_import_s() -> float:
    """Seconds of the scipy imports in `import plasmonqed.cli`."""
    done = run_child(["-X", "importtime", "-c", "import plasmonqed.cli"],
                     timeout=60.0)
    return scipy_share(done.stderr)


def scipy_share(importtime: str) -> float:
    """Cumulative seconds of the outermost scipy.* imports in the report.

    `python -X importtime` prints one line per module after its children,
    indented by nesting depth; walking the lines backwards meets each
    parent before its children.
    """
    total_us = 0
    stack: list[tuple[int, bool]] = []
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, raw_name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        raw_name = raw_name.rstrip()
        depth = len(raw_name) - len(raw_name.lstrip())
        name = raw_name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(flag for _, flag in stack):
            total_us += int(cumulative)
        stack.append((depth, is_scipy))
    return total_us / 1e6


def check_checkout() -> None:
    package = os.path.join(ROOT, "src", "plasmonqed", "__init__.py")
    if not os.path.isfile(package):
        raise BenchError(f"no program to measure: {package} is missing")
    # Compile the package once, untimed: users do not pay that per call.
    run_child(["-c", "import plasmonqed.cli"], timeout=120.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        check_checkout()
        os.makedirs(RUNS, exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        tmp = tempfile.mkdtemp(prefix=f"{tag}-", dir=RUNS)
        try:
            result, record = measure(args, tag, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(RUNS, f"{tag}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


def measure(args, tag: str, tmp: str) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "nproc": os.cpu_count(), "python": sys.version.split()[0]}
    worker = [WORKER, *common, "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--tmp", tmp]
    if args.trace:
        imports = [import_s() for _ in range(IMPORT_SAMPLES)]
        scipy = [scipy_import_s() for _ in range(IMPORT_SAMPLES)]
        worker += ["--spans", os.path.join(RUNS, f"{tag}.spans.json")]
    done = run_child(worker)
    work = last_json(done.stdout)
    record["worker"] = work

    if args.trace:
        layers = dict(work["layers"])
        layers["cli.import_s"] = statistics.median(imports)
        layers["cli.import_scipy_s"] = statistics.median(scipy)
        record["import_s"] = imports
        record["import_scipy_s"] = scipy
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        values = {"setup_s": statistics.median(work["setup_samples_s"]),
                  "wall_s": work["wall_s"],
                  "peak_rss_mb": work["peak_rss_mb"]}
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in values.items()}
    result = {"correct": bool(work["correct"]),
              "attempted": int(work["attempted"]),
              "failed": int(work["failed"]),
              "metrics": metrics}
    return result, record


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
