"""Guards on the public API: stale names left behind by a deletion break
`from ergosmp.<module> import *` and tools that walk `__all__`."""

import ast
import dataclasses
import importlib
import inspect
import json

import pytest

import ergosmp

MODULES = ["model", "config", "forward", "adjoint", "ergodic_cost", "duality", "smp", "verify", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ergosmp.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"ergosmp.{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_are_public_names():
    imports = [
        node for node in ast.walk(ast.parse(inspect.getsource(ergosmp)))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ergosmp.{node.module}")
        for alias in node.names:
            assert hasattr(ergosmp, alias.asname or alias.name)
            assert alias.name in module.__all__, f"ergosmp.{node.module}.{alias.name} is re-exported but not in __all__"


def test_every_report_has_one_json_form():
    """Each report's to_dict() is schema_version plus every field, and is
    strict JSON: a statistic that cannot be computed is null, never NaN."""
    lq1 = ergosmp.ModelSpec.lq1()
    zero = lq1.zero_control()
    one = ergosmp.ControlLaw.constant([1.0], lq1.control_set)
    gain = ergosmp.ControlLaw.affine([[0.0]], [0.0], lq1.control_set)
    base = ergosmp.simulate_state(lq1, zero, [0.5], ergosmp.TimeGrid(dt=0.05, steps=20), 16, seed=1)
    reports = [
        ergosmp.check_dissipativity(lq1, probes=8, seed=1),
        ergosmp.estimate_ergodic_cost(lq1, zero, [0.0], 2.0, 16, 1, dt=0.05),
        ergosmp.verify_expansion_residual(lq1, zero, one, [0.5, 0.25], base),
        ergosmp.verify_duality_finite(lq1, zero, 0.0, 1.0, eta="one", M=16, seed=1, dt=0.05),
        ergosmp.check_truncation_consistency(lq1, zero, 0.5, 1.0, 0.05, 16, seed=1),
        *ergosmp.evaluate_variational_inequality(lq1, zero, [("one", one)], 2.0, 16, 1, dt=0.05, buffer=0.5),
        ergosmp.check_sufficiency(lq1, zero, 2.0, 16, 1, dt=0.05, buffer=0.5),
        ergosmp.optimize_control(lq1, gain, 0.5, 1, 2.0, 16, 1, dt=0.05, buffer=0.5),
    ]
    assert len({type(rep) for rep in reports}) == 8
    for rep in reports:
        obj = rep.to_dict()
        assert set(obj) == {"schema_version"} | {f.name for f in dataclasses.fields(rep)}, type(rep).__name__
        # SufficiencyReport is at 2 since it dropped probe_count, DualityReport since it gained ci
        assert obj["schema_version"] == (2 if isinstance(rep, (ergosmp.SufficiencyReport, ergosmp.DualityReport))
                                         else 1), type(rep).__name__
        json.dumps(obj, allow_nan=False)
