"""One benchmark run of one workload in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last line of output.
``--setup-only`` stops once set-up is done, so ``run.py`` can time set-up in
several interpreters.  Otherwise the timed body is repeated until
``--seconds`` would be exceeded; with ``--trace 1`` untraced and traced
repetitions alternate, and the per-layer figures come from the traced
repetition of median wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import ergosmp
import spans
import workloads

HOOKS = {
    "forward.brownian_increments": lambda r, s, a, k, res: r.count("forward.noise_draws", res.size),
    "forward.simulate_state": lambda r, s, a, k, res: r.count("forward.path_steps", res.grid.steps * res.n_paths),
    "forward.simulate_perturbed": lambda r, s, a, k, res: r.count("forward.path_steps", res.grid.steps * res.n_paths),
    "forward.ensemble_to_csv": lambda r, s, a, k, res: r.count("forward.export_bytes", os.path.getsize(a[1])),
    "forward.ensemble_to_binary": lambda r, s, a, k, res: r.count("forward.export_bytes", os.path.getsize(a[1])),
    "adjoint.adjoint_to_csv": lambda r, s, a, k, res: r.count("adjoint.export_bytes", os.path.getsize(a[1])),
    "adjoint.solve_adjoint_finite": lambda r, s, a, k, res: (
        r.count("adjoint.solves"), r.count("adjoint.regression_steps", res.grid.steps)),
    "model.ControlLaw.evaluate": lambda r, s, a, k, res: r.count("model.evaluate_calls"),
    "smp.optimize_control": lambda r, s, a, k, res: r.count("smp.iterations", len(res.trace)),
    "cli.run_command": lambda r, s, a, k, res: r.count(f"cli.{a[0][0]}_s", s.duration),
}

# Figures the hooks measure at a call boundary (counts, and per-subcommand CLI times).
HOOKED = ("forward.noise_draws", "forward.path_steps", "forward.export_bytes", "adjoint.export_bytes",
          "adjoint.solves", "adjoint.regression_steps", "model.evaluate_calls", "smp.iterations",
          "cli.simulate_s", "cli.adjoint_s", "cli.cost_s")


def layer_metrics(rec, wall):
    """Per-layer figures of one traced repetition of wall time `wall`."""
    out = {key: rec.counts.get(key, 0) for key in HOOKED}
    for layer, self_s in rec.layer_self_times().items():
        out[f"{layer}.self_s"] = self_s
    out.update({
        "forward.noise_s": rec.self_time("forward.brownian_increments"),
        "forward.simulate_s": rec.self_time("forward.simulate_state", "forward.simulate_perturbed"),
        "forward.linearized_s": rec.self_time("forward.simulate_affine_dual", "forward.simulate_first_variation"),
        "forward.export_s": rec.self_time("forward.ensemble_to_csv", "forward.ensemble_to_binary"),
        "adjoint.solve_s": rec.self_time("adjoint.solve_adjoint_finite"),
        "adjoint.export_s": rec.self_time("adjoint.adjoint_to_csv", "adjoint.adjoint_coefficients_dict"),
        "model.evaluate_s": rec.self_time("model.ControlLaw.evaluate"),
        "smp.vi_self_s": rec.self_time("smp.evaluate_variational_inequality"),
        "smp.optimize_self_s": rec.self_time("smp.optimize_control"),
        "duality.verify_self_s": rec.self_time("duality.verify_duality_finite", "duality.verify_duality_infinite"),
        "ergodic_cost.report_s": rec.self_time("ergodic_cost.ergodic_report_from_ensemble"),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - rec.root_time(),
    })
    return out


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ergosmp": ergosmp.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tally = workloads.Tally()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    rec = spans.Recorder(HOOKS) if args.trace else None
    if rec is not None:
        rec.install()
    wl.setup()
    ready = time.time()
    result = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    config_load_s = 0.0
    if rec is not None:
        config_load_s = rec.total_time("config.load_model_config")
        rec.uninstall()
        rec.clear()

    walls, traced, fingerprints = [], [], []
    start = time.perf_counter()
    while True:
        tracing = rec is not None and len(walls) > len(traced)
        if tracing:
            rec.install()
        t0 = time.perf_counter()
        out = wl.run(tally)
        wall = time.perf_counter() - t0
        if tracing:
            rec.uninstall()
            traced.append((wall, layer_metrics(rec, wall), rec.spans))
            rec.clear()
        else:
            walls.append(wall)
        fingerprints.append(wl.fingerprint(out))
        longest = max(walls + [t[0] for t in traced])
        if time.perf_counter() - start + longest > args.seconds and (rec is None or traced):
            break
        wl.clean(out)
        del out  # so that the next repetition does not run beside this one's outputs

    # Peak memory of the workload itself, read before the gates allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ci = wl.check(out, tally)
    wl.clean(out)
    if len(fingerprints) > 1:
        # Repetitions on one seed must reproduce each other bit for bit.
        tally.gate("determinism", sum(f != fingerprints[0] for f in fingerprints[1:]), 0)

    result.update({
        "walls": walls,
        "ci_halfwidth": ci,
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.correct,
        "gates": tally.gates,
        "figures": tally.figures,
        "versions": versions(),
    })
    if rec is not None:
        traced.sort(key=lambda t: t[0])
        wall, metrics, median_spans = traced[(len(traced) - 1) // 2]
        metrics["config.load_s"] = config_load_s
        metrics["trace.overhead_s"] = statistics.median(t[0] for t in traced) - statistics.median(walls)
        result["per_layer"] = metrics
        result["traced_walls"] = [t[0] for t in traced]
        if args.spans_out:
            rec.spans = median_spans
            rec.dump(args.spans_out, t0=min(s.start for s in median_spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
