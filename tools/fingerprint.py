"""Fingerprint every numeric output of the library at fixed seeds.

Prints a JSON object mapping each output (ensembles, costates and their
regression coefficients, perturbed states, dual and first-variation sweeps,
raw Brownian increments, VI reports, duality sides, optimizer traces, the
state and cost expansions of a convex perturbation, serialized model
configs, CLI artifacts and `verify` verdicts) to a short SHA-256 of its
bytes, at small sizes (a few seconds), on lq1, cubic1, a 3-state LQ model,
the same model on a box that binds under its law and candidate battery, and a
2-state cubic model with a ball control set.  A refactor that must keep
outputs byte-identical runs it on both trees and diffs the results:

    PYTHONPATH=<old>/src python tools/fingerprint.py > old.json
    PYTHONPATH=<new>/src python tools/fingerprint.py > new.json
    diff old.json new.json

`tools/fingerprint.json` holds the hashes of the current tree, which
`tests/test_fingerprint.py` checks in tier-1 and regenerates when run.

With --values it prints the numbers behind each hash instead: arrays as
lists, reports as their dicts, JSON artifacts of the CLI parsed, its CSV
artifacts split into cells and its binary ensemble dumps decoded into their
header fields and arrays (other artifacts stay hashed).  When a change
reorders a sum, compare two trees at a tolerance: every number within
tol * max(1, |old|), everything else equal.  Two strings that are equal once
their number literals are masked (describe() strings, CLI stdout, CSV cells)
are compared number by number.

    PYTHONPATH=<old>/src python tools/fingerprint.py --values > old.json
    PYTHONPATH=<new>/src python tools/fingerprint.py --values > new.json
    python tools/fingerprint.py --compare old.json new.json --tol 1e-12

--compare lists every entry that is not identical with its largest scaled
difference, and exits 1 if any entry is beyond the tolerance.
"""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np


def _digest(obj) -> str:
    if isinstance(obj, np.ndarray):
        b = np.ascontiguousarray(obj).tobytes() + str(obj.shape).encode()
    else:
        b = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(b).hexdigest()[:16]


def _plain(obj):
    """JSON form of the numpy values the outputs hold."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return repr(obj)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:inf|nan)\b")


def _cell(text: str):
    """A CSV cell as a number where it is one."""
    try:
        return float(text)
    except ValueError:
        return text


def _gap(old, new) -> float:
    """Largest |old - new| / max(1, |old|) over the numbers of two values;
    inf when their structure or any non-number differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return math.inf
        return max((_gap(old[k], new[k]) for k in old), default=0.0)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return math.inf
        return max((_gap(a, b) for a, b in zip(old, new)), default=0.0)
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        if old == new or (math.isnan(old) and math.isnan(new)):
            return 0.0
        if not (math.isfinite(old) and math.isfinite(new)):
            return math.inf
        return abs(old - new) / max(1.0, abs(old))
    if isinstance(old, str) and isinstance(new, str) and old != new \
            and _NUMBER.sub("#", old) == _NUMBER.sub("#", new):
        return _gap([float(v) for v in _NUMBER.findall(old)], [float(v) for v in _NUMBER.findall(new)])
    return 0.0 if old == new else math.inf


def compare(old: dict, new: dict, tol: float) -> int:
    """Print each entry that is not identical with its scaled gap; 1 if any
    gap exceeds tol (or an entry is missing on one side), else 0."""
    beyond = 0
    for name in sorted(set(old) | set(new)):
        gap = _gap(old[name], new[name]) if name in old and name in new else math.inf
        if gap > 0.0:
            beyond += gap > tol
            print(f"{'FAIL' if gap > tol else 'ok  '} {name}: {gap:.3g}")
    print(f"{beyond} of {len(set(old) | set(new))} entries beyond tol={tol:g}")
    return 1 if beyond else 0


# The state-expansion fields of the expansion report; `expansion.cost_fields`
# holds the rest.
_EXPANSION_FIELDS = ("schema_version", "thetas", "sup_delta_sq", "sup_residual_sq", "scaling_slope",
                     "residual_decreasing", "residual_halved")


def _perturbed(E, model, law, alt, theta, ens) -> np.ndarray:
    """States under law + theta*(alt - law) evaluated along the ensemble's
    path, from the controls built here."""
    xb = ens.states[:, :-1]
    ub = law.evaluate(xb)
    return E.forward._perturbed_states(model, ens, ub + theta * (alt.evaluate(xb) - ub))


def _gateaux(E, model, law, alt) -> dict:
    """The theta = 0.1 directional derivative of the average cost on [0, 2]
    (64 paths, seed 4, dt 0.02, x0 0) from the expansion check, in the JSON
    form of the former `estimate_gateaux` report."""
    base = E.simulate_state(model, law, np.zeros(model.n), E.TimeGrid.from_horizon(2.0, 0.02), 64, 4)
    rep = E.verify_expansion_residual(model, law, alt, [0.1, 0.05], base)
    return {"schema_version": 1, "theta": 0.1, "finite_difference": rep.finite_difference[0],
            "linearized": rep.linearized, "gap": rep.gateaux_gap[0]}


def fingerprint(values: bool = False) -> dict:
    # Imported here so that --compare runs without the library on the path.
    import ergosmp as E
    from ergosmp import cli
    from ergosmp.ergodic_cost import _cost_sums_at, ergodic_report_from_ensemble
    from ergosmp.model import drift_jacU_apply

    out = {}
    cost_expansions = {}

    def h(name, obj):
        out[name] = obj if values else _digest(obj)

    lq1, cubic1 = E.ModelSpec.lq1(), E.ModelSpec.cubic1()
    lq3 = E.ModelSpec.lq(
        A=[[-1, 0.4, 0], [0, -1.2, 0.4], [0, 0, -0.8]], B=[[1, 0], [0, 0], [0, 1]],
        S=[[0.6, 0], [0.3, 0.5], [0, 0.4]], Q=np.eye(3), R=np.eye(2),
        control_set=E.ConvexSet.box([-5, -5], [5, 5]))
    K3 = np.array([[-0.4, -0.1, 0.0], [0.0, -0.05, -0.3]])
    box = E.ConvexSet.box([-0.3, -0.15], [0.25, 0.2])  # binds on both sides of both coordinates
    lq3box = E.ModelSpec.lq(A=lq3.A, B=lq3.B, S=lq3.S, Q=lq3.Q, R=lq3.R, control_set=box)
    ball = E.ConvexSet.ball([0.1, -0.1], 0.6)
    cubic2 = E.ModelSpec.cubic([1.0, 0.5], A=[[-1.0, 0.3], [0.0, -0.5]], B=[[1.0, 0.0], [0.5, 1.0]],
                               S=[[0.8, 0.0], [0.2, 0.6]], Q=np.eye(2), R=np.eye(2), control_set=ball)
    models = {
        "lq1": (lq1, E.ControlLaw.affine([[-0.4]], [0.1], lq1.control_set), E.ControlLaw.constant([1.0], lq1.control_set)),
        "cubic1": (cubic1, E.ControlLaw.tabulated([-1, 0, 1], [[0.3], [-0.3]], cubic1.control_set),
                   E.ControlLaw.affine([[-0.5]], [0.0], cubic1.control_set)),
        "lq3": (lq3, E.ControlLaw.affine(K3, [0.1, 0], lq3.control_set), E.ControlLaw.constant([1.0, -1.0], lq3.control_set)),
        "lq3box": (lq3box, E.ControlLaw.affine(K3, [0.1, 0], box), E.ControlLaw.constant([1.0, -1.0], box)),
        "cubic2ball": (cubic2, E.ControlLaw.affine([[-0.8, 0.2], [0.1, -0.6]], [0.05, 0.0], ball),
                       E.ControlLaw.constant([0.5, -0.5], ball)),
    }
    for name, (model, law, alt) in models.items():
        n = model.n
        h(f"{name}.config", E.model_config_dict(model))
        x0 = np.full(n, 0.7)
        grid = E.TimeGrid(dt=0.02, steps=150)
        ens = E.simulate_state(model, law, x0, grid, 96, seed=3)
        h(f"{name}.states", ens.states)
        h(f"{name}.incr", ens.increments)
        sol = E.solve_adjoint_finite(model, ens, law)
        h(f"{name}.p", sol.p)
        h(f"{name}.q", sol.q)
        h(f"{name}.coef_p", sol.coef_p)
        nu = np.full((96, n), 0.3)
        sol2 = E.solve_adjoint_finite(model, ens, law, nu=nu)
        h(f"{name}.p_nu", sol2.p)
        h(f"{name}.q_nu", sol2.q)
        xb = ens.states[:, :-1]
        v = alt.evaluate(xb) - law.evaluate(xb)
        for th in (0.0, 0.5):
            h(f"{name}.pert{th}", _perturbed(E, model, law, alt, th, ens))
        h(f"{name}.v", v)
        Y = E.simulate_affine_dual(model, ens, law, 0.0, np.zeros(n), gamma=drift_jacU_apply(model, v))
        h(f"{name}.Y", Y)
        gamma = E.build_gamma(ens, n, value=np.ones(n), t_start=0.5, t_end=2.0, state_matrix=np.eye(n) * 0.2)
        rho = E.build_rho(ens, n, model.d, {ch: np.ones(n) for ch in range(model.d)}, t_start=0.4, t_end=1.6)
        h(f"{name}.dual", E.simulate_affine_dual(model, ens, law, 0.4, np.ones(n), gamma=gamma, rho=rho))
        expansion = E.verify_expansion_residual(model, law, alt, [0.5, 0.25, 0.1], ens).to_dict()
        h(f"{name}.expansion", {key: expansion[key] for key in _EXPANSION_FIELDS})
        cost_expansions[name] = {key: expansion[key] for key in set(expansion) - set(_EXPANSION_FIELDS)}
        h(f"{name}.gateaux", _gateaux(E, model, law, alt))
        h(f"{name}.moment", E.estimate_moment(ens, 2, 3.0))
        h(f"{name}.ergrep", ergodic_report_from_ensemble(model, ens, law).to_dict())
        h(f"{name}.ergcost", E.estimate_ergodic_cost(model, law, x0, 3.0, 64, 5, dt=0.02).to_dict())
        # 330 steps of 512 paths cross the seams of 128-step time blocks, the
        # last one partial.
        h(f"{name}.ergcost_blocks", E.estimate_ergodic_cost(model, law, x0, 6.6, 512, 5, dt=0.02).to_dict())
        h(f"{name}.costT", float(_cost_sums_at(model, ens, law, [ens.grid.index_of(2.0)])[:, 0].mean()))
        bat = E.candidate_battery(model, law, seed=2)
        vi = E.evaluate_variational_inequality(model, law, bat, 2.0, 96, 6, dt=0.02, buffer=1.0, x0=x0)
        h(f"{name}.vi", [r.to_dict() for r in vi])
        vi2 = E.evaluate_variational_inequality(model, law, bat, 2.0, 96, 6, dt=0.02, buffer=1.0, adjoint=sol.restricted(2.0))
        h(f"{name}.vi_adj", [r.to_dict() for r in vi2])
        h(f"{name}.suff", E.check_sufficiency(model, law, 2.0, 96, 6, dt=0.02, buffer=1.0).to_dict())
        d = E.verify_duality_finite(model, law, 0.4, 3.0, eta="state", gamma=gamma, rho=rho, nu=nu, dt=0.02, base=ens)
        h(f"{name}.dualfin", [d.lhs, d.rhs, d.to_dict()])
        d = E.verify_duality_finite(model, law, 0.0, 2.0, eta="one", M=64, seed=9, dt=0.02)
        h(f"{name}.dualfin2", [d.lhs, d.rhs])
        gamma_c = E.build_gamma(ens, n, value=np.ones(n), t_start=0.5, t_end=2.0)  # no state feedback
        d = E.verify_duality_finite(model, law, 0.4, 3.0, eta="state", gamma=gamma_c, rho=rho, nu=nu, dt=0.02,
                                    base=ens)
        h(f"{name}.dualfin_gconst", [d.lhs, d.rhs, d.to_dict()])
        # Flows that share one ensemble's designs: the duality check on the
        # ensemble of an extended solve, and q read from restricted solutions.
        ext = E.extend_to_infinite(model, law, x0, 2.0, 1.0, 0.02, 96, 3)
        gamma_e = E.build_gamma(ext.ensemble, n, value=np.ones(n), t_start=0.5, t_end=1.5)
        d = E.verify_duality_finite(model, law, 0.0, 2.0, eta="one", gamma=gamma_e, dt=0.02, base=ext.ensemble)
        h(f"{name}.dualfin_ext", [d.lhs, d.rhs, d.to_dict()])
        h(f"{name}.q_ext", ext.q)
        short = sol.restricted(1.5)
        h(f"{name}.q_restricted", short.q)
        gi = E.TimeGrid.from_horizon(3.0, 0.02)
        probe = E.simulate_state(model, law, np.ones(n), gi, 64, 9)
        rho_i = E.build_rho(probe, n, model.d, {0: np.ones(n)}, t_start=0.2, t_end=1.0)
        d = E.verify_duality_infinite(model, law, 0.2, 1.0, eta="one", rho=rho_i, T_report=2.0, T_buffer=1.0, M=64, seed=9, dt=0.02)
        h(f"{name}.dualinf", [d.lhs, d.rhs, d.to_dict()])
        if model.n == 1:
            init = (E.ControlLaw.affine([[0.0]], [0.0], model.control_set) if name == "lq1"
                    else E.ControlLaw.tabulated([-1, 0, 1], [[0.0], [0.0]], model.control_set))
            res = E.optimize_control(model, init, 0.5, 3, 3.0, 128, 7, dt=0.02, buffer=1.0)
            h(f"{name}.opt", res.to_dict())
            # 256 paths take 256-step blocks of the dual sweep, so the pool of
            # [1, 6) spans three of them and its lowest row lies inside one.
            res = E.optimize_control(model, init, 0.5, 2, 6.0, 256, 7, dt=0.01, buffer=1.0)
            h(f"{name}.opt_blocks", res.to_dict())
        else:
            init = E.ControlLaw.affine(np.zeros((model.l, n)), np.zeros(model.l), model.control_set)
            res = E.optimize_control(model, init, 0.5, 2, 3.0, 128, 7, dt=0.02, buffer=1.0)
            h(f"{name}.opt", res.to_dict())
        h(f"{name}.diss", E.check_dissipativity(model, probes=64, seed=1).to_dict())
        h(f"{name}.incr_direct", E.forward.brownian_increments(11, 17, grid, model.d))
        ci = E.check_truncation_consistency(model, law, 1.0, 2.0, 0.02, 64, 3, x0=x0)
        h(f"{name}.trunc", ci.to_dict())

    h("expansion.cost_fields", cost_expansions)

    # Raw noise, so that a change to the increments shows on its own; 67
    # paths split unevenly into the noise chunks of either grid.
    for steps in (300, 600):
        h(f"noise.seed5.M67.d2.steps{steps}", E.forward.brownian_increments(5, 67, E.TimeGrid(dt=0.01, steps=steps), 2))

    # CLI artifacts
    with tempfile.TemporaryDirectory() as td:
        cfg = os.path.join(td, "m.json")
        E.save_model_config(cubic1, cfg)
        seeded = ["--seed", "3", "--dt", "0.02"]
        cmds = [
            ["simulate", "--T", "1", "--M", "16", "--formats", "csv,bin", *seeded],
            ["cost", "--T", "3", "--M", "32", *seeded],
            ["adjoint", "--T", "1", "--M", "32", *seeded],
            ["duality-check", "--T", "1", "--M", "32", *seeded],
            ["duality-check", "--T", "1", "--M", "32", "--infinite", *seeded],
            ["smp-check", "--T", "2", "--M", "32", *seeded],
            ["sufficiency", "--T", "2", "--M", "32", *seeded],
            ["optimize", "--T", "3", "--M", "32", "--iters", "2", *seeded],
            ["verify"],  # fixed seeds and grids of its own
            ["duality-check", "--T", "1", "--M", "32", "--x0", "0.5", "--threshold", "0.01", *seeded],
            ["optimize", "--T", "3", "--M", "32", "--iters", "2", *seeded,
             "--control", '{"kind":"affine_feedback","gain":[[-0.4]],"offset":[0.2]}'],
        ]
        for i, c in enumerate(cmds):
            od = os.path.join(td, f"o{i}")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run_command(c + ["--model", cfg, "--out-dir", od])
            h(f"cli.{c[0]}.{i}.code", [code, buf.getvalue()])
            for fn in sorted(os.listdir(od)):
                with open(os.path.join(od, fn), "rb") as fh:
                    data = fh.read()
                if values and fn.endswith(".json"):
                    h(f"cli.{c[0]}.{i}.{fn}", json.loads(data))
                elif values and fn.endswith(".csv"):
                    h(f"cli.{c[0]}.{i}.{fn}", [[_cell(v) for v in row.split(",")]
                                               for row in data.decode().splitlines()])
                elif values and fn.endswith(".bin"):
                    ens = E.ensemble_from_binary(os.path.join(od, fn))
                    h(f"cli.{c[0]}.{i}.{fn}", {
                        "M": ens.n_paths, "steps": ens.grid.steps, "n": ens.n, "d": ens.d, "seed": ens.seed,
                        "dt": ens.grid.dt, "x0": ens.x0, "states": ens.states, "increments": ens.increments})
                else:
                    out[f"cli.{c[0]}.{i}.{fn}"] = _digest(data.hex())

    # The cost pass on a noise stream of several blocks: 1024 paths of 2
    # channels on 1000 steps are 16 MB of increments.
    h("lq3.ergcost_noise_blocks", E.estimate_ergodic_cost(lq3, models["lq3"][1], np.full(3, 0.7), 10.0, 1024, 5,
                                                          dt=0.01).to_dict())
    # The state gather across the seams of the same four noise blocks.
    h("lq3.states_noise_blocks", E.simulate_state(lq3, models["lq3"][1], np.full(3, 0.7),
                                                  E.TimeGrid.from_horizon(10.0, 0.01), 1024, 5).states)
    # The duality probes, whose costate sweep pairs p with each forcing as it
    # fits it: 256 paths make 12-step sweep blocks, 5 on [0, 1] and 32 with
    # the buffer.
    from ergosmp.duality import verify_duality_probes
    h("lq3.probes_blocks", {form: {name: rep.to_dict() for name, rep in verify_duality_probes(
        lq3, models["lq3"][1], 1.0, M=256, seed=5, dt=0.02, x0=np.full(3, 0.7), infinite=form == "infinite").items()}
        for form in ("finite", "infinite")})

    return out


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--values", action="store_true", help="print the values behind each hash")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two --values outputs")
    ap.add_argument("--tol", type=float, default=1e-12, help="relative tolerance of --compare")
    args = ap.parse_args()
    if args.compare:
        with open(args.compare[0]) as f_old, open(args.compare[1]) as f_new:
            sys.exit(compare(json.load(f_old), json.load(f_new), args.tol))
    json.dump(fingerprint(args.values), sys.stdout, indent=1, sort_keys=True, default=_plain)
    sys.stdout.write("\n")
