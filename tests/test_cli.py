import json

import pytest

import ergosmp.cli
import ergosmp.duality
from ergosmp import ConvexSet, ModelSpec, ensemble_from_binary, save_model_config, simulate_state
from ergosmp.cli import run_command


@pytest.fixture(scope="module")
def lq1_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "lq1.json"
    save_model_config(ModelSpec.lq1(), str(path))
    return str(path)


def _run(config, out_dir, *argv):
    return run_command([*argv, "--model", config, "--out-dir", str(out_dir)])


COMMON = ["--seed", "3", "--dt", "0.05", "--M", "64"]

# (argv, allowed exit codes): verdict commands may report a failed verdict (2).
SUBCOMMANDS = [
    (["simulate", *COMMON, "--T", "2", "--formats", "csv,bin"], {0}),
    (["cost", *COMMON, "--T", "4"], {0}),
    (["adjoint", *COMMON, "--T", "1", "--buffer", "1"], {0}),
    (["duality-check", *COMMON, "--T", "2", "--eta", "one", "--gamma-const", "1"], {0, 2}),
    (["duality-check", *COMMON, "--T", "2", "--infinite", "--buffer", "1", "--rho-channel", "0"], {0, 2}),
    (["smp-check", *COMMON, "--T", "4", "--buffer", "1"], {0, 2}),
    (["sufficiency", *COMMON, "--T", "4", "--buffer", "1", "--probes", "10"], {0, 2}),
    (["optimize", *COMMON, "--T", "4", "--buffer", "1", "--iters", "2"], {0}),
]


@pytest.mark.parametrize("argv,codes", SUBCOMMANDS, ids=[" ".join(a[:1] + a[-2:]) for a, _ in SUBCOMMANDS])
def test_subcommand_smoke(lq1_config, tmp_path, capsys, argv, codes):
    assert _run(lq1_config, tmp_path, *argv) in codes
    assert "Traceback" not in capsys.readouterr().err
    artifacts = sorted(p.name for p in tmp_path.iterdir())
    assert artifacts
    for name in artifacts:
        if name.endswith(".json"):
            obj = json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)
            assert obj.get("schema_version", 1) == 1, name
    if argv[0] == "simulate":
        assert ensemble_from_binary(str(tmp_path / "ensemble.bin")).n_paths == 64


UNSTABLE = ModelSpec.lq(A=[[1.0]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]], control_set=ConvexSet.box([-5.0], [5.0]))
CHECKS = {"derivative-fd", "projection-geometry", "dissipativity", "determinism-prefix", "moment-bound",
          "exponential-forgetting", "config-roundtrip"}


# (model, exit code, failed checks): A = +1 breaks every assumption that needs c_p < 0.
VERIFY_CASES = [
    ("lq1", 0, set()),
    ("cubic1", 0, set()),
    ("lq3", 0, set()),
    ("unstable", 2, {"dissipativity", "moment-bound", "exponential-forgetting"}),
]


@pytest.mark.parametrize("name,code,failed", VERIFY_CASES, ids=[case[0] for case in VERIFY_CASES])
def test_verify_checks_the_given_model(tmp_path, capsys, lq3, name, code, failed):
    model = {"lq1": ModelSpec.lq1(), "cubic1": ModelSpec.cubic1(), "lq3": lq3, "unstable": UNSTABLE}[name]
    config = tmp_path / "model.json"
    save_model_config(model, str(config))
    assert _run(str(config), tmp_path, "verify") == code
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert set(report) == {"schema_version", "checks"}
    assert {c["name"] for c in report["checks"]} == CHECKS
    assert {c["name"] for c in report["checks"] if not c["passed"]} == failed
    out = capsys.readouterr().out
    assert {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("FAIL")} == failed


def _patched_config(config, tmp_path, patch):
    with open(config) as fh:
        obj = json.load(fh)
    obj.update(patch)
    path = tmp_path / "patched.json"
    path.write_text(json.dumps(obj))
    return str(path)


# (id, argv, config patch or None): wrong values and wrong types alike.
BAD_INPUT = [
    ("x0-length", ["cost", *COMMON, "--T", "4", "--x0", "0.1,0.2"], None),
    ("cost-M1", ["cost", "--seed", "3", "--dt", "0.05", "--M", "1", "--T", "4"], None),
    ("smp-check-M1", ["smp-check", "--seed", "3", "--dt", "0.05", "--M", "1", "--T", "4", "--buffer", "1"], None),
    ("workers-removed", ["simulate", *COMMON, "--T", "1", "--workers", "2"], None),
    ("optimize-degree-removed", ["optimize", *COMMON, "--T", "4", "--buffer", "1", "--iters", "2", "--degree", "2"],
     None),
    ("optimize-ridge-removed", ["optimize", *COMMON, "--T", "4", "--buffer", "1", "--iters", "2", "--ridge", "1e-6"],
     None),
    ("adjoint-degree-removed", ["adjoint", *COMMON, "--T", "1", "--buffer", "1", "--degree", "2"], None),
    ("adjoint-ridge-removed", ["adjoint", *COMMON, "--T", "1", "--buffer", "1", "--ridge", "nan"], None),
    ("duality-check-degree-removed", ["duality-check", *COMMON, "--T", "2", "--eta", "one", "--degree", "2"], None),
    ("duality-check-ridge-removed", ["duality-check", *COMMON, "--T", "2", "--eta", "one", "--ridge", "1e-6"], None),
    ("smp-check-degree-removed", ["smp-check", *COMMON, "--T", "4", "--buffer", "1", "--degree", "2"], None),
    ("smp-check-ridge-removed", ["smp-check", *COMMON, "--T", "4", "--buffer", "1", "--ridge", "1e-6"], None),
    ("smp-check-window-removed", ["smp-check", *COMMON, "--T", "4", "--buffer", "1", "--window", "0.5"], None),
    ("sufficiency-degree-removed", ["sufficiency", *COMMON, "--T", "4", "--buffer", "1", "--degree", "2"], None),
    ("sufficiency-ridge-removed", ["sufficiency", *COMMON, "--T", "4", "--buffer", "1", "--ridge", "1e-6"], None),
    ("sufficiency-window-removed", ["sufficiency", *COMMON, "--T", "4", "--buffer", "1", "--window", "0.5"], None),
    ("cost-window-removed", ["cost", *COMMON, "--T", "4", "--window", "0.5"], None),
    ("verify-suite-removed", ["verify", "--suite", "all"], None),
    ("adjoint-too-few-paths", ["adjoint", "--seed", "3", "--dt", "0.05", "--M", "2", "--T", "1", "--buffer", "1"], None),
    ("x0-not-a-number", ["cost", *COMMON, "--T", "4", "--x0", "abc"], None),
    ("dt-nan", ["simulate", "--seed", "3", "--M", "16", "--T", "1", "--dt", "nan"], None),
    ("T-inf", ["simulate", *COMMON, "--T", "inf"], None),
    ("adjoint-buffer-nan", ["adjoint", *COMMON, "--T", "1", "--buffer", "nan"], None),
    ("optimize-gamma-nan", ["optimize", *COMMON, "--T", "4", "--buffer", "1", "--iters", "1", "--gamma", "nan"], None),
    ("duality-t-nan", ["duality-check", *COMMON, "--T", "2", "--eta", "one", "--t", "nan"], None),
    ("duality-threshold-nan", ["duality-check", *COMMON, "--T", "2", "--eta", "one", "--threshold", "nan"], None),
    ("config-n-string", ["cost", *COMMON, "--T", "4"], {"n": "x"}),
    ("config-n-list", ["cost", *COMMON, "--T", "4"], {"n": [1]}),
    ("config-m-list", ["cost", *COMMON, "--T", "4"], {"m": [0]}),
    ("config-p-null", ["cost", *COMMON, "--T", "4"], {"p": None}),
    ("config-A-object", ["cost", *COMMON, "--T", "4"], {"A": {"x": 1}}),
    ("control-value-object", ["cost", *COMMON, "--T", "4", "--control", '{"kind":"constant","value":{"a":1}}'], None),
    ("duality-infinite-gamma",
     ["duality-check", *COMMON, "--T", "2", "--infinite", "--buffer", "1", "--rho-channel", "0", "--gamma-const", "5"],
     None),
    ("duality-infinite-gamma-start",
     ["duality-check", *COMMON, "--T", "2", "--infinite", "--buffer", "1", "--rho-channel", "0", "--gamma-start", "0"],
     None),
    ("duality-gamma-reversed",
     ["duality-check", *COMMON, "--T", "2", "--eta", "one", "--gamma-const", "1", "--gamma-start", "1.5",
      "--gamma-end", "0.5"],
     None),
    ("duality-gamma-start-without-const", ["duality-check", *COMMON, "--T", "2", "--eta", "one", "--gamma-start", "1"], None),
    ("duality-gamma-end-without-const", ["duality-check", *COMMON, "--T", "2", "--eta", "one", "--gamma-end", "1"], None),
    ("duality-rho-start-without-channel", ["duality-check", *COMMON, "--T", "2", "--eta", "one", "--rho-start", "1"], None),
    ("duality-rho-value-without-channel", ["duality-check", *COMMON, "--T", "2", "--eta", "one", "--rho-value", "2"], None),
    ("duality-rho-end-without-channel", ["duality-check", *COMMON, "--T", "2", "--eta", "one", "--rho-end", "1"], None),
    ("duality-zero-data", ["duality-check", *COMMON, "--T", "2"], None),
    ("duality-zero-data-infinite", ["duality-check", *COMMON, "--T", "2", "--infinite", "--buffer", "1"], None),
]

NAN, INF = float("nan"), float("inf")
COST = ["cost", *COMMON, "--T", "4"]
DUALITY = ["duality-check", *COMMON, "--T", "2", "--eta", "one"]

# (id, argv, config patch or None, text the message must hold): a non-finite
# coefficient, control parameter or forcing input is rejected where it
# enters, by name.
NON_FINITE = [
    ("config-Q-inf", COST, {"Q": [[INF]]}, "Q must be finite"),
    ("config-R-inf", COST, {"R": [[-INF]]}, "R must be finite"),
    ("config-A-nan", COST, {"A": [[NAN]]}, "A must be finite"),
    ("config-B-nan", COST, {"B": [[NAN]]}, "B must be finite"),
    ("config-Sigma-nan", COST, {"Sigma": [[NAN]]}, "S (Sigma) must be finite"),
    ("config-cubic-nan", COST, {"family": "cubic", "cubic": [NAN]}, "alpha (cubic) must be finite"),
    ("control-constant-nan", [*COST, "--control", '{"kind":"constant","value":[NaN]}'], None,
     "constant law: value must be finite"),
    ("control-gain-inf", [*COST, "--control", '{"kind":"affine_feedback","gain":[[Infinity]],"offset":[0]}'], None,
     "affine law: gain must be finite"),
    ("control-offset-nan", [*COST, "--control", '{"kind":"affine_feedback","gain":[[-1]],"offset":[NaN]}'], None,
     "affine law: offset must be finite"),
    ("control-tabulated-nan",
     [*COST, "--control", '{"kind":"tabulated_feedback","edges":[-1,0,1],"values":[[NaN],[0]]}'], None,
     "tabulated law: values must be finite"),
    ("control-edges-nan",
     [*COST, "--control", '{"kind":"tabulated_feedback","edges":[-1,NaN,1],"values":[[1],[0]]}'], None,
     "tabulated law: edges must be finite"),
    ("duality-gamma-nan", [*DUALITY, "--gamma-const", "nan"], None, "gamma: value must be finite"),
    ("duality-rho-inf", [*DUALITY, "--rho-channel", "0", "--rho-value", "inf"], None,
     "rho: channel 0 value must be finite"),
    ("duality-gamma-end-nan", [*DUALITY, "--gamma-const", "1", "--gamma-end", "nan"], None,
     "forcing window [0.0, nan): bounds must be finite"),
    ("duality-rho-end-inf", [*DUALITY, "--rho-channel", "0", "--rho-end", "inf"], None,
     "forcing window [0.0, inf): bounds must be finite"),
]
CASES = [case + (None,) for case in BAD_INPUT] + NON_FINITE


@pytest.mark.parametrize("argv,patch,message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_bad_input_exits_1_without_traceback(lq1_config, tmp_path, capsys, argv, patch, message):
    config = lq1_config if patch is None else _patched_config(lq1_config, tmp_path, patch)
    assert _run(config, tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    if message is not None:
        assert message in err


def test_simulate_rejects_unknown_format_before_simulating(lq1_config, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simulated before validating --formats")

    monkeypatch.setattr(ergosmp.cli, "simulate_state", fail)
    assert _run(lq1_config, tmp_path, "simulate", *COMMON, "--T", "2", "--formats", "csv,parquet") == 1
    err = capsys.readouterr().err
    assert "error:" in err and "parquet" in err
    assert "Traceback" not in err


def test_infinite_duality_check_simulates_once(lq1_config, tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return simulate_state(*args, **kwargs)

    monkeypatch.setattr(ergosmp.cli, "simulate_state", counting)
    monkeypatch.setattr(ergosmp.duality, "simulate_state", counting)
    argv = ["duality-check", *COMMON, "--T", "2", "--infinite", "--buffer", "1", "--rho-channel", "0"]
    assert _run(lq1_config, tmp_path, *argv) in {0, 2}
    assert len(calls) == 1


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_infinite_duality_without_tail_bound_fails(tmp_path, capsys):
    # Dissipative only through the cubic term (sym(A) = 0.5 > 0), so no decay
    # rate is certified and the discarded tail is unbounded.
    model = ModelSpec.cubic(alpha=[1.0], A=[[0.5]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]],
                            control_set=ConvexSet.box([-5.0], [5.0]))
    config = str(tmp_path / "cubic.json")
    save_model_config(model, config)
    argv = ["duality-check", *COMMON, "--T", "2", "--infinite", "--buffer", "1", "--eta", "one",
            "--threshold", "0.1"]
    assert _run(config, tmp_path, *argv) == 2
    assert "tail_bound unavailable" in capsys.readouterr().out
    report = json.loads((tmp_path / "duality_report.json").read_text(), parse_constant=_reject_constant)
    assert report["tail_bound"] is None


def test_unknown_config_key_exits_1(lq1_config, tmp_path, capsys):
    with open(lq1_config) as fh:
        obj = json.load(fh)
    obj["sigma_typo"] = 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert _run(str(bad), tmp_path, "cost", *COMMON, "--T", "4") == 1
    err = capsys.readouterr().err
    assert "error:" in err and "sigma_typo" in err
    assert "Traceback" not in err
