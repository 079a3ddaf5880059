"""Benchmark of ergosmp: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each run starts fresh interpreters on
``src/``: three that only set up, for the median set-up time, and one that
sets up and then repeats the workload body for ``--seconds`` seconds.  The
last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json and ``--trace 1`` the per-layer ones.  The lines before it
record what ran and every correctness gate with its tolerance.  See
perfbench/README.md for the workloads, metrics and known defects.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_ONLY_RUNS = 3
CHILD_TIMEOUT_S = 170.0
# One BLAS/OpenMP thread: library default is workers=1 and the benchmark is
# the plain single-threaded baseline; more threads than cores adds noise.
THREADS = 1


class BenchError(RuntimeError):
    pass


def _git_commit():
    """Commit of the checkout from .git, without leaving the checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unavailable"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unavailable"


def _src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _child(args, workdir, extra):
    """Run child.py in a fresh interpreter; returns (parsed result, spawn time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", workdir] + extra
    spawned = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload {args.workload} exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload {args.workload} failed with exit code {proc.returncode}")
    return json.loads(lines[-1]), spawned


def _metric(name, unit, value):
    if value is None:
        raise BenchError(f"metric {name} was not measured")
    return {"value": value, "unit": unit}


def run(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not os.path.isdir(os.path.join(ROOT, "src", "ergosmp")):
        raise BenchError("src/ergosmp not found: run from a checkout of the repository")

    scratch = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                res, spawned = _child(args, workdir, ["--setup-only"])
                setups.append(res["ready"] - spawned)
        spans_out = os.path.join(scratch, f"spans-{args.workload}-{args.seed}.jsonl") if args.trace else None
        res, spawned = _child(args, workdir, ["--spans-out", spans_out] if spans_out else [])
        setups.append(res["ready"] - spawned)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        measured = res["per_layer"]
        wanted = spec["per_layer"]
    else:
        measured = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ci_halfwidth": res["ci_halfwidth"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: _metric(m["name"], m["unit"], measured.get(m["name"])) for m in wanted}

    record = {
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "src_lines": _src_lines(),
        "repetitions": len(res["walls"]) + len(res.get("traced_walls", [])),
        "walls_s": res["walls"],
        "setups_s": setups,
        **res["versions"],
    }
    if spans_out:
        record["spans"] = os.path.relpath(spans_out, ROOT)
    print("record " + json.dumps(record))
    print("gates " + json.dumps(res["gates"]))
    print("figures " + json.dumps(res["figures"]))
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="problem sizes; 'tiny' is for the smoke test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    try:
        run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
