import json

import pytest

from ergosmp import ModelSpec, ensemble_from_binary, save_model_config
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
            obj = json.loads((tmp_path / name).read_text())
            assert obj.get("schema_version", 1) == 1, name
    if argv[0] == "simulate":
        assert ensemble_from_binary(str(tmp_path / "ensemble.bin")).n_paths == 64


def test_verify_suite_all_passes_and_writes_json(lq1_config, tmp_path, capsys):
    assert _run(lq1_config, tmp_path, "verify", "--suite", "all") == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["schema_version"] == 1
    assert all(c["passed"] is True for c in report["checks"])
    assert "determinism-prefix" in {c["name"] for c in report["checks"]}
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", *COMMON, "--T", "4", "--x0", "0.1,0.2"],
        ["cost", "--seed", "3", "--dt", "0.05", "--M", "1", "--T", "4"],
        ["smp-check", "--seed", "3", "--dt", "0.05", "--M", "1", "--T", "4", "--buffer", "1"],
        ["simulate", *COMMON, "--T", "1", "--workers", "2"],
    ],
    ids=["x0-length", "cost-M1", "smp-check-M1", "workers-removed"],
)
def test_bad_input_exits_1_without_traceback(lq1_config, tmp_path, capsys, argv):
    assert _run(lq1_config, tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


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
