import csv
import json
import struct
import tracemalloc

import numpy as np
import pytest

import ergosmp.cli
import ergosmp.duality
import ergosmp.forward
from ergosmp import ConvexSet, ModelSpec, SimulationError, ensemble_from_binary, model_config_dict, save_model_config
from ergosmp.cli import build_parser, run_command


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
    (["adjoint", *COMMON, "--T", "1"], {0}),
    (["duality-check", *COMMON, "--T", "2"], {0, 2}),
    (["duality-check", *COMMON, "--T", "2", "--infinite"], {0, 2}),
    (["smp-check", *COMMON, "--T", "4"], {0, 2}),
    (["sufficiency", *COMMON, "--T", "4"], {0, 2}),
    (["optimize", *COMMON, "--T", "4", "--iters", "2"], {0}),
]

# The JSON artifact of each command that discards a derived buffer.
BUFFERED = {"adjoint": "adjoint_coefficients.json", "smp-check": "smp_report.json",
            "sufficiency": "sufficiency_report.json", "optimize": "optimize_result.json"}

# Artifacts whose shape changed: one report per duality probe, no probe_count,
# no coef_q.
SCHEMA_VERSIONS = {"duality_report.json": 2, "sufficiency_report.json": 2, "adjoint_coefficients.json": 2}


@pytest.mark.parametrize("argv,codes", SUBCOMMANDS, ids=[" ".join(a[:1] + a[-2:]) for a, _ in SUBCOMMANDS])
def test_subcommand_smoke(lq1_config, tmp_path, capsys, argv, codes):
    assert _run(lq1_config, tmp_path, *argv) in codes
    assert "Traceback" not in capsys.readouterr().err
    artifacts = sorted(p.name for p in tmp_path.iterdir())
    assert artifacts
    for name in artifacts:
        if name.endswith(".json"):
            obj = json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)
            assert obj.get("schema_version", 1) == SCHEMA_VERSIONS.get(name, 1), name
    if argv[0] in BUFFERED or "--infinite" in argv:
        obj = json.loads((tmp_path / BUFFERED.get(argv[0], "duality_report.json")).read_text())
        assert obj["buffer"] == ModelSpec.lq1().forgetting_time(0.05) == 4.65
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
    ("smp-check-M1", ["smp-check", "--seed", "3", "--dt", "0.05", "--M", "1", "--T", "4"], None),
    ("workers-removed", ["simulate", *COMMON, "--T", "1", "--workers", "2"], None),
    ("optimize-degree-removed", ["optimize", *COMMON, "--T", "4", "--iters", "2", "--degree", "2"],
     None),
    ("optimize-ridge-removed", ["optimize", *COMMON, "--T", "4", "--iters", "2", "--ridge", "1e-6"],
     None),
    # optimize reads its initial law from --control, as the others read theirs.
    ("optimize-init-removed",
     ["optimize", *COMMON, "--T", "4", "--iters", "2", "--init", '{"kind":"affine_feedback","gain":[[-0.4]],'
      '"offset":[0.2]}'], None),
    ("adjoint-degree-removed", ["adjoint", *COMMON, "--T", "1", "--degree", "2"], None),
    ("adjoint-ridge-removed", ["adjoint", *COMMON, "--T", "1", "--ridge", "nan"], None),
    ("duality-check-degree-removed", ["duality-check", *COMMON, "--T", "2", "--degree", "2"], None),
    ("duality-check-ridge-removed", ["duality-check", *COMMON, "--T", "2", "--ridge", "1e-6"], None),
    ("smp-check-degree-removed", ["smp-check", *COMMON, "--T", "4", "--degree", "2"], None),
    ("smp-check-ridge-removed", ["smp-check", *COMMON, "--T", "4", "--ridge", "1e-6"], None),
    ("smp-check-window-removed", ["smp-check", *COMMON, "--T", "4", "--window", "0.5"], None),
    ("sufficiency-degree-removed", ["sufficiency", *COMMON, "--T", "4", "--degree", "2"], None),
    ("sufficiency-ridge-removed", ["sufficiency", *COMMON, "--T", "4", "--ridge", "1e-6"], None),
    ("sufficiency-window-removed", ["sufficiency", *COMMON, "--T", "4", "--window", "0.5"], None),
    ("cost-window-removed", ["cost", *COMMON, "--T", "4", "--window", "0.5"], None),
    ("verify-suite-removed", ["verify", "--suite", "all"], None),
    ("adjoint-too-few-paths", ["adjoint", "--seed", "3", "--dt", "0.05", "--M", "2", "--T", "1"], None),
    ("x0-not-a-number", ["cost", *COMMON, "--T", "4", "--x0", "abc"], None),
    ("dt-nan", ["simulate", "--seed", "3", "--M", "16", "--T", "1", "--dt", "nan"], None),
    ("T-inf", ["simulate", *COMMON, "--T", "inf"], None),
    ("formats-empty", ["simulate", *COMMON, "--T", "1", "--formats", ""], None),
    ("formats-comma", ["simulate", *COMMON, "--T", "1", "--formats", ","], None),
    ("optimize-gamma-nan", ["optimize", *COMMON, "--T", "4", "--iters", "1", "--gamma", "nan"], None),
    ("duality-threshold-nan", ["duality-check", *COMMON, "--T", "2", "--threshold", "nan"], None),
    ("config-A-object", ["cost", *COMMON, "--T", "4"], {"A": {"x": 1}}),
    ("control-value-object", ["cost", *COMMON, "--T", "4", "--control", '{"kind":"constant","value":{"a":1}}'], None),
    # What the model determines is no flag: the buffer and the duality forcing
    # flags are unknown arguments now (see test_derived_values_are_not_flags).
    ("adjoint-buffer-nan", ["adjoint", *COMMON, "--T", "1", "--buffer", "nan"], None),
    ("duality-infinite-gamma",
     ["duality-check", *COMMON, "--T", "2", "--infinite", "--rho-channel", "0", "--gamma-const", "5"],
     None),
    ("duality-infinite-gamma-start",
     ["duality-check", *COMMON, "--T", "2", "--infinite", "--rho-channel", "0", "--gamma-start", "0"],
     None),
    ("duality-gamma-start-without-const", ["duality-check", *COMMON, "--T", "2", "--gamma-start", "1"], None),
    ("duality-gamma-end-without-const", ["duality-check", *COMMON, "--T", "2", "--gamma-end", "1"], None),
    ("duality-rho-start-without-channel", ["duality-check", *COMMON, "--T", "2", "--rho-start", "1"], None),
    ("duality-rho-value-without-channel", ["duality-check", *COMMON, "--T", "2", "--rho-value", "2"], None),
    ("duality-rho-end-without-channel", ["duality-check", *COMMON, "--T", "2", "--rho-end", "1"], None),
    # No noise: the zero law keeps every state at x0 = 0, so the gradient fit
    # has nothing to regress on.
    ("optimize-singular-pool", ["optimize", "--seed", "1", "--M", "64", "--T", "2", "--iters", "2"],
     {"Sigma": [[0.0]]}),
]

NAN, INF = float("nan"), float("inf")
LQ3 = model_config_dict(ModelSpec.lq(
    A=[[-1, 0.4, 0], [0, -1.2, 0.4], [0, 0, -0.8]], B=[[1, 0], [0, 0], [0, 1]], S=[[0.6, 0], [0.3, 0.5], [0, 0.4]],
    Q=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], R=[[1, 0], [0, 1]], control_set=ConvexSet.box([-5, -5], [5, 5])))
COST = ["cost", *COMMON, "--T", "4"]

# (id, argv, config patch or None, text the message must hold): a non-finite
# coefficient, control parameter or forcing input is rejected where it
# enters, by name.
NON_FINITE = [
    ("config-Q-inf", COST, {"Q": [[INF]]}, "Q must be finite"),
    ("config-R-inf", COST, {"R": [[-INF]]}, "R must be finite"),
    ("config-A-nan", COST, {"A": [[NAN]]}, "A must be finite"),
    ("config-B-nan", COST, {"B": [[NAN]]}, "B must be finite"),
    ("config-Sigma-nan", COST, {"Sigma": [[NAN]]}, "S (Sigma) must be finite"),
    ("config-cubic-nan", COST, {"cubic": [NAN]}, "alpha (cubic) must be finite"),
    # Not finite, but just as wrong: 2 Q x is the gradient of <Q x, x> only
    # for a symmetric Q, so a Q off by more than round-off is rejected.
    ("config-Q-nearly-symmetric", COST, {**LQ3, "Q": [[2, 1 + 5e-6, 0], [1, 2, 0], [0, 0, 1]]}, "Q must be symmetric"),
    # A config states only the SDE and its cost; the keys it once also held
    # (family, dimensions, structural constants) are unknown now.
    ("config-old-keys", COST, {"family": "lq", "n": 1, "d": 1, "l": 1, "m": 0, "p": 6.0, "k": 3.0},
     "unknown key(s) ['d', 'family', 'k', 'l', 'm', 'n', 'p']"),
    # A badly typed value under one of those keys fails as an unknown key
    # too, before its value is read.
    ("config-n-string", COST, {"n": "x"}, "unknown key(s) ['n']"),
    ("config-n-list", COST, {"n": [1]}, "unknown key(s) ['n']"),
    ("config-m-list", COST, {"m": [0]}, "unknown key(s) ['m']"),
    ("config-p-null", COST, {"p": None}, "unknown key(s) ['p']"),
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
    # A gain must be a (l, n) matrix whose columns match the state.
    ("control-gain-1d", [*COST, "--control", '{"kind":"affine_feedback","gain":[1],"offset":[0]}'], None,
     "affine law: gain must be a 2-d (l, n) array, got shape (1,)"),
    ("control-gain-too-wide", [*COST, "--control", '{"kind":"affine_feedback","gain":[[1,2]],"offset":[0]}'], None,
     "affine law: a (1, 2) gain does not match state dimension 1"),
    ("control-gain-too-narrow-lq3",
     [*COST, "--control", '{"kind":"affine_feedback","gain":[[1],[2]],"offset":[0,0]}'], LQ3,
     "affine law: a (2, 1) gain does not match state dimension 3"),
    # optimize's initial law is --control: a bad one fails, not the default.
    ("optimize-control-garbage", ["optimize", *COMMON, "--T", "4", "--iters", "2", "--control", "garbage"], None,
     "error: control: invalid JSON"),
]
CASES = [case + (None,) for case in BAD_INPUT] + NON_FINITE
# A state that overflows exits 1 and names its step, on the plain LQ step and
# on the tamed cubic one alike.
BLOW_UP = "simulate_state: non-finite value at step"
CASES += [("cost-blow-up-lq", COST, {"Sigma": [[1e308]]}, BLOW_UP),
          ("cost-blow-up-cubic", COST, {"Sigma": [[1e308]], "cubic": [1.0]}, BLOW_UP)]


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


@pytest.mark.parametrize("argv,patch,message", [
    (["cost", "--T", "-1"], None, None),
    (["cost", "--T", "4", "--seed", "-1"], None, None),
    (["cost", "--T", "4", "--control", "garbage"], None, None),
    (["cost", "--T", "4", "--x0", "abc"], None, None),
    (["simulate", "--T", "1", "--formats", "parquet"], None, None),
    # sym(A) = 0.5 certifies no decay rate, so no buffer can be derived.
    (["adjoint", "--T", "1"], {"A": [[0.5]]}, None),
    # --T off the --dt grid is named as given, not as the buffered horizon.
    (["cost", "--T", "1", "--dt", "0.3"], None, "horizon 1.0 is not a multiple of dt=0.3"),
    (["simulate", "--T", "1", "--dt", "0.3"], None, "horizon 1.0 is not a multiple of dt=0.3"),
    (["adjoint", "--T", "1", "--dt", "0.3"], None, "horizon 1.0 is not a multiple of dt=0.3"),
    # One past the largest seed the noise stream reads.
    (["cost", "--T", "4", "--seed", "9223372036854775808"], None, "seed must be a nonnegative 63-bit integer"),
], ids=["T", "seed", "control", "x0", "formats", "buffer", "T-grid-cost", "T-grid-simulate", "T-grid-adjoint",
        "seed-63-bit"])
def test_bad_run_inputs_leave_no_out_dir(lq1_config, tmp_path, capsys, argv, patch, message):
    fresh = tmp_path / "fresh"
    config = lq1_config if patch is None else _patched_config(lq1_config, tmp_path, patch)
    assert _run(config, fresh, argv[0], *COMMON, *argv[1:]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert message is None or message in err
    assert not fresh.exists()


def test_dump_whose_paths_leave_its_x0_is_rejected(lq1_config, tmp_path):
    """x0 is read off the states, so a dump must start every path at the x0
    of its header (bytes 56-63 on lq1); the error names the lowest path that
    does not."""
    assert _run(lq1_config, tmp_path, "simulate", *COMMON, "--T", "2", "--formats", "bin") == 0
    path = tmp_path / "ensemble.bin"
    data = path.read_bytes()
    assert ensemble_from_binary(str(path)).x0.tolist() == [0.0]
    path.write_bytes(data[:56] + struct.pack("<d", 0.5) + data[64:])
    with pytest.raises(SimulationError, match="path 0 does not start at the header's x0"):
        ensemble_from_binary(str(path))
    start = 64 + 8 * 5 * 41  # path 5, step 0 of 41
    path.write_bytes(data[:start] + struct.pack("<d", 0.5) + data[start + 8:])
    with pytest.raises(SimulationError, match="path 5 does not start at the header's x0"):
        ensemble_from_binary(str(path))


def test_optimize_starts_from_the_control_law(lq1_config, tmp_path):
    law = '{"kind":"affine_feedback","gain":[[-0.4]],"offset":[0.2]}'
    assert _run(lq1_config, tmp_path, "optimize", *COMMON, "--T", "4", "--iters", "1", "--control", law) == 0
    header, first = (tmp_path / "optimize_trace.csv").read_text().splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert json.loads(row["gain"]) == [[-0.4]] and json.loads(row["offset"]) == [0.2]


def test_optimize_trace_keeps_its_columns(tmp_path):
    """lq3's gain (2, 3) and offset (2,) are one quoted JSON cell each, so
    every row of the trace parses to the header's width."""
    config = tmp_path / "lq3.json"
    config.write_text(json.dumps(LQ3))
    assert _run(str(config), tmp_path, "optimize", *COMMON, "--T", "2", "--iters", "1") == 0
    with open(tmp_path / "optimize_trace.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows and all(len(row) == len(header) for row in rows)
    cell = dict(zip(header, rows[0]))["gain"]
    gain = json.loads(cell)
    assert np.shape(gain) == (2, 3) and json.dumps(gain) == cell


def test_adjoint_exports_the_p_fit_and_its_derived_q(lq1_config, tmp_path, monkeypatch):
    """The JSON holds p's coefficients only, since q is their derivative, and
    the run draws its noise once, to simulate: the costate reads none."""
    streams = []
    _counting(monkeypatch, ergosmp.forward, "_noise_blocks", streams)
    assert _run(lq1_config, tmp_path, "adjoint", *COMMON, "--T", "1") == 0
    assert streams == ["_noise_blocks"]
    obj = json.loads((tmp_path / "adjoint_coefficients.json").read_text(), parse_constant=_reject_constant)
    assert set(obj) == {"schema_version", "degree", "ridge", "terminal", "sup_p_sq", "dt", "steps", "buffer"}
    assert obj["schema_version"] == 2 and len(obj["steps"]) == 20
    assert all(set(step) == {"t", "feature_mean", "feature_std", "coef_p"} for step in obj["steps"])
    lines = (tmp_path / "adjoint_paths.csv").read_text().splitlines()
    assert lines[0] == "path,step,t,p_1,q1_1" and len(lines) == 1 + 64 * 21


def test_unusable_out_dir_exits_1_before_estimating(lq1_config, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("estimated before making --out-dir")

    monkeypatch.setattr(ergosmp.cli, "estimate_ergodic_cost", fail)
    not_a_dir = tmp_path / "notadir"
    not_a_dir.write_text("")
    assert _run(lq1_config, not_a_dir, "cost", *COMMON, "--T", "2") == 1
    err = capsys.readouterr().err
    assert "error:" in err and "--out-dir" in err
    assert "Traceback" not in err


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_infinite_duality_check_simulates_once(lq1_config, tmp_path, monkeypatch):
    calls = []
    _counting(monkeypatch, ergosmp.cli, "simulate_state", calls)
    _counting(monkeypatch, ergosmp.duality, "simulate_state", calls)
    _counting(monkeypatch, ergosmp.duality, "_pathwise_dual_blocks", calls)  # the costate's regression sweep
    argv = ["duality-check", *COMMON, "--T", "2", "--infinite"]
    assert _run(lq1_config, tmp_path, *argv) in {0, 2}
    assert calls == ["simulate_state", "_pathwise_dual_blocks"]


def test_duality_check_pairs_every_probe_on_one_solve(tmp_path, capsys, monkeypatch):
    """One run simulates once and sweeps the costate once, then lists and
    prints one report per probe (lq3 has 2 noise channels)."""
    config = tmp_path / "lq3.json"
    config.write_text(json.dumps(LQ3))
    calls = []
    _counting(monkeypatch, ergosmp.duality, "simulate_state", calls)
    _counting(monkeypatch, ergosmp.duality, "_pathwise_dual_blocks", calls)
    assert _run(str(config), tmp_path, "duality-check", *COMMON, "--T", "2") in {0, 2}
    assert calls == ["simulate_state", "_pathwise_dual_blocks"]
    report = json.loads((tmp_path / "duality_report.json").read_text(), parse_constant=_reject_constant)
    probes = ["eta-one", "eta-state", "gamma", "rho-0", "rho-1"]
    assert [rep["probe"] for rep in report["reports"]] == probes and report["buffer"] is None
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == probes


def _optimal_law(model):
    """u = K* x, K* = -R^-1 B^T P with P = X2 X1^-1 from the stable invariant
    subspace [X1; X2] of the Riccati equation's Hamiltonian matrix."""
    w, V = np.linalg.eig(np.block([[model.A, -model.B @ np.linalg.solve(model.R, model.B.T)], [-model.Q, -model.A.T]]))
    P = np.real(V[model.n:, w.real < 0] @ np.linalg.inv(V[:model.n, w.real < 0]))
    gain = -np.linalg.solve(model.R, model.B.T @ P)
    return json.dumps({"kind": "affine_feedback", "gain": gain.tolist(), "offset": [0.0] * model.l})


@pytest.mark.parametrize("name", ["lq1", "cubic1", "lq3"])
@pytest.mark.parametrize("optimal", [False, True], ids=["zero", "Kstar"])
def test_duality_probes_pass_the_default_threshold(tmp_path, lq3, name, optimal):
    """Every probe of the finite form reads below the default threshold 0.05
    (T 4, seed 3, M 4096), at the zero law and at the LQ-optimal gain (that
    of lq1 on cubic1, whose linearization it is)."""
    model = {"lq1": ModelSpec.lq1(), "cubic1": ModelSpec.cubic1(), "lq3": lq3}[name]
    config = str(tmp_path / "model.json")
    save_model_config(model, config)
    law = ["--control", _optimal_law(ModelSpec.lq1() if name == "cubic1" else model)] if optimal else []
    assert _run(config, tmp_path, "duality-check", "--seed", "3", "--T", "4", *law) == 0


def test_derived_values_are_not_flags():
    """The buffer, the Hessian probes and the duality forcing are derived
    from the model, so no subcommand asks for them."""
    subparsers = build_parser()._subparsers._group_actions[0].choices
    flags = {name: {opt for action in sub._actions for opt in action.option_strings}
             for name, sub in subparsers.items()}
    common = flags["cost"] - {"--T"}
    for name, opts in flags.items():
        assert not opts & {"--buffer", "--probes"}, name
    assert flags["duality-check"] - common == {"--T", "--infinite", "--threshold"}
    assert flags["optimize"] - common == {"--T", "--iters", "--gamma"}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# A model dissipative only through its cubic term: sym(A) = 0.5 > 0, so no
# decay rate is certified, and neither a buffer nor the discarded tail is
# bounded.
UNCERTIFIED = ModelSpec.cubic(alpha=[1.0], A=[[0.5]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]],
                              control_set=ConvexSet.box([-5.0], [5.0]))


def test_infinite_duality_without_tail_bound_fails(tmp_path, capsys):
    config = str(tmp_path / "cubic.json")
    save_model_config(UNCERTIFIED, config)
    argv = ["duality-check", *COMMON, "--T", "2", "--infinite", "--threshold", "0.1"]
    assert _run(config, tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert "error: certified c_p=0.5 >= 0 gives no decay rate" in err and "Traceback" not in err
    assert not (tmp_path / "duality_report.json").exists()


# sym(A) = -0.01 certifies a rate, but ln(100)/0.01 = 460.5 of buffer: 9211
# steps at dt 0.05, 46052 at the default dt 0.01.
SLOW = ModelSpec.lq(A=[[-0.01]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]], control_set=ConvexSet.box([-5.0], [5.0]))


@pytest.mark.parametrize("model,message", [
    (UNCERTIFIED, "certified c_p=0.5 >= 0 gives no decay rate"),
    (SLOW, "certified c_p=-0.01 decays so slowly that the buffer would be 460.6 > 20"),
], ids=["uncertified", "slow"])
@pytest.mark.parametrize("argv", [["adjoint", "--T", "1"], ["smp-check", "--T", "2"], ["sufficiency", "--T", "2"],
                                  ["optimize", "--T", "2", "--iters", "1"],
                                  ["duality-check", "--T", "2", "--infinite"]], ids=lambda argv: argv[0])
def test_buffered_commands_need_a_certified_rate(tmp_path, capsys, argv, model, message):
    config = str(tmp_path / "model.json")
    save_model_config(model, config)
    tracemalloc.start()
    try:
        code = _run(config, tmp_path, *argv, *COMMON)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert peak < 1_000_000  # refused before any path array: one (64, 9211) array alone is 4.7 MB
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


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
