"""Every public name resolves, the CLI binds the layer functions that
the benchmark's tracer wraps under the CLI's own names (a name it cannot
find is not traced, and its span silently reads 0), and every name the
benchmark's workloads call stays public."""

import importlib

import pytest

from plasmonqed import bloch, cli, correlations, scatter

MODULES = ["core", "scatter", "bloch", "correlations", "oracle", "storage",
           "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"plasmonqed.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("layer, attr", [
    (scatter, "scatter_spectrum"),
    (correlations, "g2"),
    (correlations, "jump_state"),
    (bloch, "steady_state"),
    (bloch, "field_observables"),
])
def test_cli_binds_the_traced_layer_function(layer, attr):
    assert attr in layer.__all__
    assert getattr(cli, attr) is getattr(layer, attr)


@pytest.mark.parametrize("module, name", [
    ("oracle", "build_grid"),
    ("oracle", "convergence_report"),
    ("oracle", "golden_rule_rate"),
    ("storage", "matched_storage"),
    ("storage", "store_photon"),
    ("storage", "generate_photon"),
    ("storage", "run_transistor"),
    ("storage", "transistor_gain"),
    ("core", "params_from_purcell"),
    ("core", "gaussian_spectrum"),
])
def test_benchmark_calls_resolve(module, name):
    """perfbench/worker.py calls these; losing one would show only as
    failed benchmark operations."""
    assert name in importlib.import_module(f"plasmonqed.{module}").__all__


def test_benchmark_fields_resolve():
    from plasmonqed import oracle, storage

    assert "trajectory" in oracle.OracleResult.__dataclass_fields__
    assert callable(storage.ThreeLevelParams.with_control)
