import contextlib
import io
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from plasmonqed.bloch import saturation_closed_form
from plasmonqed.cli import _DEFAULTS, _write_dataset, main
from plasmonqed.cli import _KEYS as KEY_TABLE
from plasmonqed.core import InvariantViolation, params_from_purcell
from plasmonqed.scatter import scatter_point


def run_cli(*args, check=False):
    """Run ``main(args)`` in this process with captured streams.

    Returns a CompletedProcess with the exit code and the bytes written to
    stdout and stderr; ``--version`` exits through SystemExit.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    proc = subprocess.CompletedProcess(
        args, code, out.getvalue().encode(), err.getvalue().encode())
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return proc


def parse_dataset(stdout: bytes):
    header, columns, rows = {}, [], []
    for line in stdout.decode().splitlines():
        if line.startswith("# columns:"):
            columns = line.removeprefix("# columns:").split()
        elif line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
        else:
            rows.append([float(tok) for tok in line.split()])
    return header, columns, rows


class TestScatter:
    def test_resonant_row(self):
        proc = run_cli("scatter", "--set", "delta=-2:2:11", "--workers", "1",
                       check=True)
        header, columns, rows = parse_dataset(proc.stdout)
        assert header["command"] == "scatter"
        assert header["purcell"] == "20"
        assert columns == ["delta", "R", "T", "kappa"]
        assert len(rows) == 11
        resonant = rows[5]
        assert resonant[0] == 0.0
        # 17 significant digits round-trip the doubles exactly
        point = scatter_point(params_from_purcell(20.0), 0.0)
        assert resonant[1] == point.reflectance
        assert resonant[2] == point.transmittance
        assert resonant[1] == pytest.approx(400.0 / 441.0, abs=1e-15)

    def test_decoupled_never_reflects(self):
        proc = run_cli("scatter", "--set", "purcell=0",
                       "--set", "delta=-1:1:5", check=True)
        _, _, rows = parse_dataset(proc.stdout)
        assert all(row[1] == 0.0 for row in rows)
        assert all(row[2] == 1.0 for row in rows)


class TestSaturation:
    def test_reference_drive(self):
        proc = run_cli("saturation", check=True)
        _, columns, rows = parse_dataset(proc.stdout)
        assert columns[:3] == ["omega", "T_closed", "R_closed"]
        by_omega = {row[0]: row for row in rows}
        t_closed = by_omega[1.0][1]
        assert t_closed == saturation_closed_form(20.0, 1.0)[0]
        assert t_closed == pytest.approx(0.889141, abs=1e-6)
        # numeric steady state agrees with the closed form in every row
        for row in rows:
            assert row[3] == pytest.approx(row[1], abs=1e-10)
            assert row[4] == pytest.approx(row[2], abs=1e-10)

    def test_weak_drive_matches_closed_form(self):
        proc = run_cli("saturation", "--set", "omega=1e-8,1e-7,1e-6",
                       check=True)
        _, columns, rows = parse_dataset(proc.stdout)
        assert [row[0] for row in rows] == [1e-8, 1e-7, 1e-6]
        for row in rows:
            named = dict(zip(columns, row))
            assert abs(named["T_numeric"] - named["T_closed"]) <= 1e-15, row
            assert abs(named["R_numeric"] - named["R_closed"]) <= 1e-15, row


class TestG2:
    def test_transmitted_includes_analytic_columns(self):
        proc = run_cli("g2", "--set", "purcell=2", "--set", "n_times=21",
                       "--set", "tmax=2", "--workers", "1", check=True)
        _, columns, rows = parse_dataset(proc.stdout)
        assert columns == ["t", "g2_P2", "analytic_P2"]
        assert rows[0][2] == pytest.approx(9.0)  # (P^2 - 1)^2 at t = 0

    def test_reflected_has_no_analytic_columns(self):
        proc = run_cli("g2", "--set", "purcell=2", "--set", "branch=reflected",
                       "--set", "n_times=21", "--set", "tmax=2",
                       "--workers", "1", check=True)
        _, columns, rows = parse_dataset(proc.stdout)
        assert columns == ["t", "g2_P2"]
        assert rows[0][1] == 0.0

    def test_long_delays_stay_finite(self, capsys):
        assert main(["g2", "--set", "tmax=1000", "--set", "n_times=11"]) == 0
        _, columns, rows = parse_dataset(capsys.readouterr().out.encode())
        assert all(math.isfinite(v) for row in rows for v in row)
        last = dict(zip(columns, rows[-1]))
        assert [last[f"analytic_P{p}"] for p in ("0.6", "1", "1.5", "2")] \
            == [1.0] * 4

    @pytest.mark.parametrize("tmax", ["1e5", "1e6"])
    def test_settled_delays_read_one(self, tmax):
        """Past 80/Gamma g2 has settled to 1, on either evaluation path."""
        proc = run_cli("g2", "--set", "omega=1e-5", "--set", f"tmax={tmax}",
                       "--set", "n_times=3", check=True)
        _, _, rows = parse_dataset(proc.stdout)
        assert np.max(np.abs(np.array(rows)[1:, 1:] - 1.0)) < 1e-12

    def test_repeated_column_label_exits_2(self, capsys):
        assert main(["g2", "--set", "purcell=2,2.0000001",
                     "--set", "n_times=5"]) == 2
        assert capsys.readouterr().err == (
            "config error: purcell: values 2, 2 repeat a column label\n")

    def test_infinite_purcell_needs_reflected_branch(self, capsys):
        assert main(["g2", "--set", "purcell=inf"]) == 2
        assert "config error: purcell" in capsys.readouterr().err
        assert main(["g2", "--set", "purcell=inf", "--set", "branch=reflected",
                     "--set", "n_times=5"]) == 0

    def test_worker_count_does_not_change_bytes(self):
        args = ("g2", "--set", "purcell=1,2", "--set", "n_times=21",
                "--set", "tmax=2")
        serial = run_cli(*args, "--workers", "1", check=True)
        parallel = run_cli(*args, "--workers", "2", check=True)
        assert serial.stdout == parallel.stdout


class TestJump:
    def test_weak_drive_ratios(self):
        proc = run_cli("jump", check=True)
        _, columns, rows = parse_dataset(proc.stdout)
        assert columns == ["omega", "coherence_ratio", "amplitude_ratio",
                           "coherence_weak_limit", "amplitude_weak_limit"]
        (omega, coh, amp, coh_lim, amp_lim) = rows[0]
        assert omega == 0.001
        assert coh_lim == 21.0
        assert amp_lim == -399.0
        assert coh == pytest.approx(21.0, rel=1e-2)
        assert amp == pytest.approx(-399.0, rel=1e-2)

    def test_weak_drive_reaches_limits(self):
        """At the weakest drive of the domain the O(omega^2) correction,
        (1+P)^2 8 omega^2 = 3.5e-13, is below the tolerance."""
        proc = run_cli("jump", "--set", "omega=1e-8", check=True)
        _, _, rows = parse_dataset(proc.stdout)
        assert len(rows) == 1
        for _, coh, amp, _, _ in rows:
            assert coh == pytest.approx(21.0, rel=1e-12)
            assert amp == pytest.approx(-399.0, rel=1e-12)

    def test_infinite_purcell_exits_2(self, capsys):
        assert main(["jump", "--set", "purcell=inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: purcell: must lie in [0, 1e+06], got inf\n")


class TestOracle:
    def test_single_grid_run(self):
        proc = run_cli("oracle", "--set", "n_modes=250", "--workers", "1",
                       check=True)
        header, columns, rows = parse_dataset(proc.stdout)
        assert columns == ["n_modes", "error", "R_sim", "T_sim", "loss_sim"]
        assert len(rows) == 1
        assert rows[0][0] == 250
        assert rows[0][1] < 1e-2
        assert "R_avg" in header

    def test_increasing_grids_run_in_order(self):
        proc = run_cli("oracle", "--set", "n_modes=250,500", "--workers", "1",
                       check=True)
        _, _, rows = parse_dataset(proc.stdout)
        assert [row[0] for row in rows] == [250, 500]

    def test_non_increasing_grids_exit_2(self):
        for sizes in ("500,250", "250,250"):
            proc = run_cli("oracle", "--set", f"n_modes={sizes}",
                           "--workers", "1")
            assert proc.returncode == 2
            assert b"strictly increasing" in proc.stderr

    def test_run_ending_before_peak_exits_2(self):
        proc = run_cli("oracle", "--set", "n_modes=250",
                       "--set", "t_final=20", "--workers", "1")
        assert proc.returncode == 2
        assert b"config error" in proc.stderr
        assert b"t_final = 20.0" in proc.stderr
        assert b"t_peak = 25" in proc.stderr

    @pytest.mark.parametrize("t_peak", ["100", "1000"])
    def test_peak_past_recurrence_exits_2(self, t_peak):
        # the recurrence at the default spacing is 2 pi/0.08 = 78.5
        proc = run_cli("oracle", "--set", "n_modes=250,500",
                       "--set", f"t_peak={t_peak}",
                       "--set", f"t_final={float(t_peak) + 35}")
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            f"config error: t_peak = {float(t_peak)} is at or past the "
            f"mode-grid recurrence".encode())

    @pytest.mark.parametrize("argv", [
        ("purcell=0.01", "t_final=70"), ("purcell=0.01", "t_final=78"),
        ("purcell=0.03", "t_final=74"), ("purcell=0.001",),
        ("purcell=0.003",)])
    def test_low_purcell_runs(self, argv):
        # the first three lost their digits as one series (exit 3), the
        # last two had Gamma round above 1 and failed the span floor (exit 2)
        proc = run_cli("oracle", *(a for kv in argv for a in ("--set", kv)),
                       check=True)
        _, _, rows = parse_dataset(proc.stdout)
        assert len(rows) == 4
        assert np.all(np.isfinite(rows))

    def test_dataset_bytes_do_not_depend_on_blas_threads(self):
        """The README oracle dataset is byte-identical on one and on two
        OpenBLAS threads: each entry of the series' block products is
        summed on one thread."""
        runs = [subprocess.run(
            [sys.executable, "-m", "plasmonqed.cli", "oracle"],
            capture_output=True, check=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
        assert runs[0] == runs[1]

    def test_uncleared_pulse_exits_3(self):
        proc = run_cli("oracle", "--set", "n_modes=250",
                       "--set", "t_final=26", "--workers", "1")
        assert proc.returncode == 3
        assert b"invariant violated" in proc.stderr
        assert b"pulse-not-cleared" in proc.stderr
        assert proc.stderr.endswith(b", limit 1e-06\n")


class TestStorage:
    def test_matched_run_summary(self):
        proc = run_cli("storage", "--set", "duration=20",
                       "--set", "n_samples=801", check=True)
        header, columns, rows = parse_dataset(proc.stdout)
        assert columns[:3] == ["t", "E_in_re", "E_in_im"]
        assert len(rows) == 801
        assert 0.93 < float(header["efficiency"]) < 0.95

    @pytest.mark.parametrize("argv", [
        ("n_samples=64",), ("n_samples=128", "duration=4.2"),
        ("n_samples=101", "duration=1"), ("n_samples=16", "duration=15"),
        ("n_samples=199", "duration=2.7666"),
    ])
    def test_unresolved_sample_count_exits_2(self, argv):
        """Each of these failed the storage bookkeeping when it ran."""
        proc = run_cli("storage", *(f"--set={item}" for item in argv))
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            b"config error: n_samples: must lie in [200, 100000], got ")

    @pytest.mark.parametrize("duration", ["0.01", "2.7666", "3.5686",
                                          "50", "199"])
    def test_fewest_samples_run(self, duration):
        # 183 samples fail at 2.7666 and 3.5686
        run_cli("storage", "--set", "n_samples=200",
                "--set", f"duration={duration}", check=True)

    def test_infinite_purcell_exits_2(self):
        proc = run_cli("storage", "--set", "purcell=inf")
        assert proc.returncode == 2
        assert proc.stderr == (
            b"config error: purcell: must lie in [0.01, 1e+06], got inf\n")


class TestTransistor:
    def test_open_gate(self):
        proc = run_cli("transistor", "--set", "gate=0",
                       "--set", "trials=2000", check=True)
        _, columns, rows = parse_dataset(proc.stdout)
        row = dict(zip(columns, rows[0]))
        # no gate photon was sent, so none was stored
        assert row["storage_efficiency"] == 0.0
        assert row["gate_stored"] == 0.0
        assert row["gain_analytic"] == 20.0
        assert row["gain_mean"] == pytest.approx(20.0, rel=0.1)

    def test_closed_gate_stores_and_transmits(self):
        proc = run_cli("transistor", "--set", "gate=1", "--set", "trials=500",
                       "--set", "duration=20", "--seed", "0", check=True)
        _, columns, rows = parse_dataset(proc.stdout)
        row = dict(zip(columns, rows[0]))
        assert row["gate_stored"] == 1.0
        assert row["transmitted"] == 20.0
        assert row["reflected"] == 0.0

    @pytest.mark.parametrize("duration", ["0.01", "2.7666", "50", "4000"])
    def test_gate_samples_resolve_every_duration(self, duration):
        run_cli("transistor", "--set", "trials=10",
                "--set", f"duration={duration}", check=True)

    def test_rejects_branching_below_purcell(self):
        proc = run_cli("transistor", "--set", "branching=10")
        assert proc.returncode == 2
        assert b"config error" in proc.stderr

    @pytest.mark.parametrize("item, message", [
        ("branching=inf", b"branching: must lie in [0.01, 1e+06], got inf"),
        ("purcell=inf", b"purcell: must lie in [0.01, 1e+06], got inf"),
    ])
    def test_infinite_rate_exits_2(self, item, message):
        proc = run_cli("transistor", "--set", item)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"config error: " + message + b"\n"


class TestDuration:
    """storage and transistor take durations from 0.01/Gamma on, at a sample
    step that resolves the lifetime 1/Gamma."""

    @pytest.mark.parametrize("command", ["storage", "transistor"])
    @pytest.mark.parametrize("duration", ["inf", "nan", "1e-300", "1e6"])
    def test_out_of_range_duration_exits_2(self, command, duration):
        proc = run_cli(command, "--set", f"duration={duration}")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"config error: duration: ")

    @pytest.mark.parametrize("command, argv, longest", [
        ("storage", ("--set", "n_samples=1501"), "1500"),
        ("storage", ("--set", "n_samples=201"), "200"),
        ("transistor", ("--set", "trials=100"), "4000"),
    ])
    def test_step_of_one_lifetime_is_the_longest(self, command, argv,
                                                 longest):
        for duration in ("0.01", longest):
            run_cli(command, *argv, "--set", f"duration={duration}",
                    check=True)
        proc = run_cli(command, *argv, "--set", f"duration={longest}.5")
        assert proc.returncode == 2
        # the transistor's gate grid is fixed, so its domain holds the cap
        assert proc.stderr == (
            f"config error: duration: at most {longest} over "
            f"{int(longest) + 1} samples (a step of the lifetime 1/Gamma), "
            f"got {longest}.5\n" if command == "storage" else
            f"config error: duration: must lie in [0.01, {longest}], got "
            f"{longest}.5\n").encode()


def readme_commands():
    """The argv of every ``plasmonqed`` command line in README.md."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [shlex.split(line.partition("#")[0])[1:]
            for line in readme.read_text().splitlines()
            if line.startswith("plasmonqed ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_0(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(*argv, check=True)


def test_readme_key_table_lists_every_key():
    """README's command/key/default/domain table has one row per key of the
    CLI's key table, in its order, with its default and a domain."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        ).splitlines()
    start = lines.index("| command | key | default | domain |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.split("|")[1:-1]])
    pairs = [(command, key) for command, keys in KEY_TABLE.items()
             for key in keys]
    assert [(c.strip("`"), k.strip("`")) for c, k, _, _ in rows] == pairs
    for command, key, default, domain in rows:
        spec = KEY_TABLE[command.strip("`")][key.strip("`")]
        assert default == f"`{spec[0]}`"
        assert domain
        for bound in declared_domain(spec)[:2]:
            assert bound in domain, (command, key, bound)


def declared_domain(spec):
    """(lo, hi, message) of a key's interval, the bounds as its message
    prints them (with %g), or () for a key with no interval."""
    for _, message in spec[2:]:
        if message.startswith("must lie in ["):
            interval = message[len("must lie in ["):message.index("]")]
            return (*interval.split(", "), message)
    return ()


class TestImports:
    def test_no_subcommand_loads_scipy(self, tmp_path):
        """Every subcommand runs on numpy alone, storage and bloch's
        exceptional-point fallback (reflected g2 at omega = 1/8) included."""
        script = f"""
import sys
from plasmonqed.cli import main
loaded = ["scipy" in sys.modules]
for argv in (["scatter"], ["saturation"], ["g2"], ["jump"],
             ["oracle", "--set", "n_modes=250"], ["storage"],
             ["transistor", "--set", "gate=1"],
             ["g2", "--set", "branch=reflected", "--set", "omega=0.125"]):
    assert main(argv + ["--out", {str(tmp_path / "out.dat")!r}]) == 0, argv
    loaded.append("scipy" in sys.modules)
print(*loaded)
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"] * 9

    def test_import_loads_neither_oracle_nor_storage(self):
        """Only the subcommands that use them import oracle and storage, so
        every other CLI process skips building their dataclasses."""
        script = ("import sys, plasmonqed.cli; print("
                  "'plasmonqed.oracle' in sys.modules, "
                  "'plasmonqed.storage' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]


class TestPlumbing:
    def test_byte_determinism(self):
        args = ("scatter", "--set", "delta=-1:1:5")
        assert run_cli(*args, check=True).stdout == run_cli(
            *args, check=True).stdout

    def test_out_file_matches_stdout(self, tmp_path):
        out = tmp_path / "spectrum.dat"
        streamed = run_cli("scatter", "--set", "delta=-1:1:5", check=True)
        run_cli("scatter", "--set", "delta=-1:1:5", "--out", str(out),
                check=True)
        assert out.read_bytes() == streamed.stdout

    def test_unwritable_out_exits_2(self, tmp_path):
        out = tmp_path / "no-such-dir" / "spectrum.dat"
        proc = run_cli("scatter", "--set", "delta=-1:1:5", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode() == (
            f"config error: cannot write {out}: No such file or directory\n")

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("purcell = 5  # trailing comment\ndelta = -1:1:5\n")
        proc = run_cli("scatter", "--config", str(cfg), check=True)
        header, _, rows = parse_dataset(proc.stdout)
        assert header["purcell"] == "5"
        assert len(rows) == 5

    def test_set_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("purcell = 5\ndelta = -1:1:5\n")
        proc = run_cli("scatter", "--config", str(cfg),
                       "--set", "purcell=2", check=True)
        header, _, _ = parse_dataset(proc.stdout)
        assert header["purcell"] == "2"

    def test_unknown_key_exits_2(self):
        proc = run_cli("scatter", "--set", "bogus=1")
        assert proc.returncode == 2
        assert b"config error" in proc.stderr
        assert b"unknown config key" in proc.stderr

    def test_bad_value_exits_2(self):
        proc = run_cli("scatter", "--set", "purcell=abc")
        assert proc.returncode == 2
        assert b"expected a number" in proc.stderr

    def test_empty_range_exits_2(self):
        proc = run_cli("scatter", "--set", "delta=0:0:5")
        assert proc.returncode == 2

    def test_empty_list_or_nan_exits_2(self):
        for command, item in (("g2", "purcell="), ("saturation", "omega="),
                              ("jump", "omega="), ("oracle", "n_modes="),
                              ("scatter", "delta=nan"),
                              ("scatter", "delta=inf"),
                              ("scatter", "delta=0:inf:3"),
                              ("g2", "purcell=1,,2"),
                              ("scatter", "delta=1,2,"),
                              ("scatter", "delta=1:2:3:")):
            proc = run_cli(command, "--set", item)
            key = item.partition("=")[0]
            assert proc.returncode == 2, (command, item)
            assert b"config error: " + key.encode() in proc.stderr

    @pytest.mark.parametrize("command, key, cap", [
        ("g2", "n_times", 100_000),
        ("oracle", "n_modes", 20_000),
        ("storage", "n_samples", 100_000),
        ("transistor", "trials", 10_000_000),
    ])
    def test_size_caps_exit_2(self, command, key, cap, capsys):
        low = declared_domain(KEY_TABLE[command][key])[0]
        for value in (cap + 1, 10**11):
            assert main([command, "--set", f"{key}={value}"]) == 2
            assert capsys.readouterr().err == (
                f"config error: {key}: must lie in [{low}, {cap:g}], got "
                f"{value}\n")

    @pytest.mark.parametrize("command, key, cap, values", [
        ("scatter", "delta", 100_000, lambda n: f"0:1:{n}"),
        ("saturation", "omega", 10_000, lambda n: f"0.1:1:{n}"),
        ("jump", "omega", 10_000, lambda n: ",".join(["0.1"] * n)),
        ("g2", "purcell", 10, lambda n: ",".join(["2"] * n)),
        ("oracle", "n_modes", 10,
         lambda n: ",".join(str(250 + i) for i in range(n))),
    ])
    def test_value_count_caps_exit_2(self, command, key, cap, values, capsys):
        assert main([command, "--set", f"{key}={values(cap + 1)}"]) == 2
        assert capsys.readouterr().err == (
            f"config error: {key}: at most {cap} values allowed, "
            f"got {cap + 1}\n")

    def test_non_finite_row_writes_nothing(self, tmp_path):
        out = tmp_path / "table.dat"
        table = {"x": [0.5, 0.75], "a": [1.0, 1.0], "b": [2.0, math.inf]}
        with pytest.raises(InvariantViolation) as exc:
            _write_dataset(str(out), "test", {}, 0, table, ())
        assert exc.value.invariant == "dataset-non-finite"
        assert str(exc.value) == "dataset-non-finite: b = inf at x = 0.75"
        assert not out.exists()

    def test_first_non_finite_cell_in_row_order_is_named(self):
        table = {"x": [0.0, 1.0], "a": [1.0, math.nan], "b": [-math.inf, 2.0]}
        with pytest.raises(InvariantViolation) as exc:
            _write_dataset(None, "test", {}, 0, table, ())
        assert str(exc.value) == "dataset-non-finite: b = -inf at x = 0"

    def test_unequal_columns_write_nothing(self, tmp_path):
        out = tmp_path / "table.dat"
        table = {"x": [0.5, 0.75], "a": [1.0], "b": [math.inf, 2.0]}
        with pytest.raises(InvariantViolation) as exc:
            _write_dataset(str(out), "test", {}, 0, table, ())
        assert exc.value.invariant == "dataset-column-count"
        assert not out.exists()

    def test_cells_keep_their_text_form(self, capsys):
        """Integers up to 2**53 and bools print as integers, floats with 17
        significant digits, signed zero and subnormals included."""
        table = {"n": [0, 20000, 2**53], "flag": [True, False, np.True_],
                 "x": [-0.0, 5e-324, 1.7976931348623157e308]}
        _write_dataset(None, "test", {}, 0, table, ("total = 3",))
        assert capsys.readouterr().out.splitlines()[-5:] == [
            "# total = 3",
            "# columns: n flag x",
            "0 1 -0",
            "20000 0 4.9406564584124654e-324",
            "9007199254740992 1 1.7976931348623157e+308",
        ]

    def test_zero_workers_exits_2(self):
        for args in (("g2", "--set", "purcell=1,2", "--set", "n_times=5"),
                     ("scatter",)):
            proc = run_cli(*args, "--workers", "0")
            assert proc.returncode == 2, args
            assert b"--workers" in proc.stderr

    def test_negative_seed_exits_2(self):
        for command in _DEFAULTS:
            proc = run_cli(command, *_SMALL.get(command, []), "--seed", "-1")
            assert proc.returncode == 2, command
            assert proc.stdout == b""
            assert proc.stderr == b"config error: --seed must be >= 0\n"

    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.decode().startswith("plasmonqed ")


# Every key of every subcommand, set to one edge value at a time, at small
# sizes: a 250-mode oracle grid, 21 g2 delays and 1000 transistor trials.
_EDGE_VALUES = ["0", "-1", "1e-300", "1e-12", "0.5", "7", "1e6", "1e300",
                "-1e300", "inf", "-inf", "2.5e15", "nan"]
_SMALL = {"oracle": ["--set", "n_modes=250"], "g2": ["--set", "n_times=21"],
          "transistor": ["--set", "trials=1000"]}
_KEYS = [(command, key) for command in _DEFAULTS for key in _DEFAULTS[command]]
# further values: a long delay window, the open gate, and ranges and lists
# that leave a domain at one typed end
_EXAMPLES = [
    ("g2", "tmax", "1000"), ("transistor", "gate", "0"),
    ("scatter", "delta", "-1e308:1e308:3"), ("saturation", "omega", "0:1:3"),
    ("jump", "omega", "1e-3,1e5"), ("g2", "purcell", "1,inf"),
]


class TestContract:
    """Every config runs, or exits 2 or 3 with a message, and never writes
    a non-finite row or different bytes on a second call. An exit 2 opens
    with a key of its subcommand and names the key that was set. Of the
    edge values, only the oracle's launch window still exits 3 (t_peak = 7,
    inside the t_peak domain)."""

    def test_one_key_at_an_edge(self):
        for command, key in _KEYS:
            for value in _EDGE_VALUES:
                code = self.check(command, key, value)
                assert code != 3 or command == "oracle", (command, key, value)
        for example in _EXAMPLES:
            code = self.check(*example)
            assert code != 3 or example[0] == "oracle", example

    @staticmethod
    def check(command, key, value):
        argv = [command, *_SMALL.get(command, []), "--set", f"{key}={value}"]
        proc = run_cli(*argv)
        assert proc.returncode in (0, 2, 3), (argv, proc.returncode)
        if proc.returncode == 0:
            _, columns, rows = parse_dataset(proc.stdout)
            assert rows
            assert all(math.isfinite(v) for row in rows for v in row), argv
            if command == "saturation":
                for row in rows:
                    named = dict(zip(columns, row))
                    assert abs(named["T_numeric"] - named["T_closed"]) <= 1e-8
        else:
            assert proc.stdout == b""
            assert proc.stderr.count(b"\n") == 1 and proc.stderr.startswith(
                (b"config error: ", b"invariant violated: ")), proc.stderr
        if proc.returncode == 2:
            message = proc.stderr.decode()
            assert message.startswith(tuple(
                f"config error: {k}" for k in _DEFAULTS[command])), argv
            assert key in message, argv
        again = run_cli(*argv)
        assert (again.returncode, again.stdout, again.stderr) == (
            proc.returncode, proc.stdout, proc.stderr)
        return proc.returncode


# Bounds that run only with other keys moved: the oracle's grid must span
# 20 Gamma, hold the pulse and clear it before the box recurrence; the
# transistor's branching must reach purcell; gamma_es is at most
# 1/(1 + purcell).
_COMPANIONS = {
    ("g2", "n_times", "hi"): ("purcell=1",),
    ("oracle", "sigma", "lo"): ("n_modes=2000", "spacing=0.01",
                                "t_peak=300", "t_final=600"),
    ("oracle", "sigma", "hi"): ("n_modes=2000", "t_peak=5", "t_final=25"),
    ("oracle", "n_modes", "lo"): ("spacing=0.2", "sigma=1", "t_peak=4",
                                  "t_final=20"),
    ("oracle", "n_modes", "hi"): ("spacing=0.001",),
    ("oracle", "spacing", "lo"): ("n_modes=20000",),
    ("oracle", "spacing", "hi"): ("sigma=1", "t_peak=4", "t_final=20"),
    ("oracle", "t_peak", "lo"): ("n_modes=2000", "sigma=10", "t_final=16"),
    ("oracle", "t_peak", "hi"): ("n_modes=4000", "spacing=0.005",
                                 "t_final=1040"),
    ("oracle", "t_final", "lo"): ("n_modes=2000", "sigma=10", "t_peak=1"),
    ("oracle", "t_final", "hi"): ("n_modes=4000", "spacing=0.005",
                                  "t_peak=1000"),
    ("storage", "gamma_es", "hi"): ("purcell=0.01",),
    ("storage", "duration", "hi"): ("n_samples=100000",),
    ("transistor", "purcell", "hi"): ("branching=1e6",),
    ("transistor", "branching", "lo"): ("purcell=0.01",),
}


def _runnable(command, key, side):
    """The argv of a run at one bound of a key's domain: the companion keys
    that let it run, at the small sizes of the edge sweep."""
    argv = [command, *_SMALL.get(command, [])]
    for item in _COMPANIONS.get((command, key, side), ()):
        argv += ["--set", item]
    return argv


def _bounds():
    """Every declared bound: (command, key, side, bound, next value past
    it), the next double for a float key and the next integer for an
    integer key."""
    cases = []
    for command, keys in KEY_TABLE.items():
        for key, spec in keys.items():
            domain = declared_domain(spec)
            if not domain:
                continue
            integer = np.asarray(spec[1](spec[0], key)).dtype.kind == "i"
            for side, text, outward in (("lo", domain[0], -math.inf),
                                        ("hi", domain[1], math.inf)):
                bound = float(text)
                past = (int(bound) + int(math.copysign(1, outward))
                        if integer else float(np.nextafter(bound, outward)))
                bound = int(bound) if integer else bound
                cases.append(pytest.param(command, key, side, bound, past,
                                          id=f"{command}-{key}-{side}"))
    return cases


class TestDomains:
    """Every bound a key declares runs, and the next value past it exits 2
    with the key's domain; a range is checked at the ends typed."""

    @pytest.mark.parametrize("command, key, side, bound, past", _bounds())
    def test_bound_runs_and_the_next_value_exits_2(self, command, key, side,
                                                   bound, past, capsys):
        argv = _runnable(command, key, side)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # exit 0: the writer checked every cell finite
            assert main([*argv, "--set", f"{key}={bound!r}"]) == 0, \
                capsys.readouterr().err
            capsys.readouterr()
            assert main([*argv, "--set", f"{key}={past!r}"]) == 2
        message = declared_domain(KEY_TABLE[command][key])[2]
        assert capsys.readouterr().err == (
            f"config error: {key}: {message.format(value=past)}\n")

    @pytest.mark.parametrize("command, key, text, end", [
        ("scatter", "delta", "-1e308:1e308:3", -1e308),
        ("scatter", "delta", "0:2e4:5", 2e4),
        ("saturation", "omega", "1e-9:1:5", 1e-9),
        ("g2", "purcell", "1:2e6:3", 2e6),
    ])
    def test_range_ends_outside_the_domain_exit_2(self, command, key, text,
                                                  end, capsys):
        """The typed end is named, not a spread value: -1e308:1e308 used to
        spread to nan, inf, 1e308 and exit 2 as "must be finite"."""
        assert main([command, "--set", f"{key}={text}"]) == 2
        message = declared_domain(KEY_TABLE[command][key])[2]
        assert capsys.readouterr().err == (
            f"config error: {key}: {message.format(value=end)}\n")

    @pytest.mark.parametrize("command, key, text, value, extra", [
        # (P^2 - 1)^2 at t = 0 would overflow: no column is computed (was
        # dataset-non-finite, exit 3)
        pytest.param("g2", "purcell", "1,1e100", 1e100,
                     ["--set", "n_times=5"], id="g2-purcell-list"),
        # the drive's intensity square would underflow: the domain stops it
        # before g2's intensity check
        pytest.param("g2", "omega", "1e-80", 1e-80, ["--set", "n_times=5"],
                     id="g2-omega"),
        # past g2's drive-precision limit (at 1e16 and P = 0.6 the curve
        # decayed wrongly; from 1e50 numpy overflowed)
        *(pytest.param("g2", "omega", text, float(text), extra,
                       id=f"g2-omega-{text}")
          for text, extra in (
              ("1e16", ["--set", "purcell=0.6", "--set", "n_times=5"]),
              ("1e50", []), ("1e100", []))),
        # saturation's omega^2 would under- or overflow
        *(pytest.param("saturation", "omega", text, float(text), [],
                       id=f"saturation-omega-{text}")
          for text in ("1e-300", "1e-160", "1e160", "1e300")),
        # jump's omega^3 would underflow, its omega^2 overflow
        *(pytest.param("jump", "omega", text, float(text), [],
                       id=f"jump-omega-{text}")
          for text in ("1e-300", "1e-110", "1e-104", "1e160")),
    ])
    def test_value_far_outside_the_domain_exits_2(self, command, key, text,
                                                  value, extra, capsys):
        """A value where a layer's arithmetic would fail, alone or in a
        list, exits 2 with the key's domain, warns of nothing and writes
        nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--set", f"{key}={text}", *extra]) == 2
        message = declared_domain(KEY_TABLE[command][key])[2]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: {key}: {message.format(value=value)}\n")

    def test_largest_transmitted_purcell_keeps_its_column(self, capsys):
        """At the largest finite P of the domain the transmitted branch
        still writes its weak-field column, (P^2 - 1)^2 at t = 0."""
        assert main(["g2", "--set", "n_times=21", "--set", "purcell=1e6"]) == 0
        _, columns, rows = parse_dataset(capsys.readouterr().out.encode())
        assert columns == ["t", "g2_P1e+06", "analytic_P1e+06"]
        assert rows[0][2] == pytest.approx((1e12 - 1.0) ** 2, rel=1e-12)
