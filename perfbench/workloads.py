"""The benchmark's workloads: set-up, timed body and correctness gates.

Every workload builds its model, writes it as a JSON config and loads it back
through ``ergosmp.config`` during set-up, and computes its oracle figures
there.  The timed body only calls the library, always through the ``ergosmp``
module attributes so that the traced run's wrappers see every call.

The gates compare the outputs with the oracles in ``oracle.py``.  A
statistical gate allows twice the run's own 95% CI half-width (about 3.9
standard errors) plus a stated allowance that the docstring of its check
derives; counts and recomputations must match exactly or to round-off.
Nothing is tuned to a measurement.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import ergosmp
import ergosmp.cli
import ergosmp.ergodic_cost
import oracle
from ergosmp import ControlLaw, ConvexSet, ModelSpec

DT = 0.01

# Problem sizes.  "full" is what the benchmark times; "tiny" exercises the
# same code paths in about a second for the smoke test.
SIZES = {
    "full": {
        "cli_export": {"sim_T": 10.0, "sim_M": 256, "adj_T": 6.0, "adj_M": 256, "cost_T": 20.0, "cost_M": 2048},
        "optimize_lq1": {"T": 10.0, "buffer": 2.0, "M": 1024, "iterations": 6},
        "check_lq3": {"T": 6.0, "buffer": 3.0, "M": 1024},
    },
    "tiny": {
        "cli_export": {"sim_T": 1.0, "sim_M": 16, "adj_T": 1.0, "adj_M": 64, "cost_T": 4.0, "cost_M": 256},
        "optimize_lq1": {"T": 4.0, "buffer": 1.0, "M": 256, "iterations": 2},
        "check_lq3": {"T": 4.0, "buffer": 1.0, "M": 256},
    },
}

# Three-state, two-noise, two-control LQ model of check_lq3.
LQ3 = {
    "A": np.array([[-1.0, 0.4, 0.0], [0.0, -1.2, 0.4], [0.0, 0.0, -0.8]]),
    "B": np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
    "S": np.array([[0.6, 0.0], [0.3, 0.5], [0.0, 0.4]]),
    "Q": np.eye(3),
    "R": np.eye(2),
}
LQ1 = {"A": -np.eye(1), "B": np.eye(1), "S": np.eye(1), "Q": np.eye(1), "R": np.eye(1)}


class Tally:
    """Operations attempted and failed, and the outcome of every gate.

    Each library call, CLI call and gate counts as one operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gates = {}
        self.figures = {}

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def cli(self, argv):
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = ergosmp.cli.run_command(argv)
        if code != 0:
            self.failed += 1
            raise RuntimeError(f"ergosmp {argv[0]} exited with code {code}")

    def gate(self, name, value, tolerance):
        """Pass when |value| <= tolerance."""
        passed = bool(math.isfinite(value) and abs(value) <= tolerance)
        self.attempted += 1
        self.failed += not passed
        self.gates[name] = {"value": float(value), "tolerance": float(tolerance), "passed": passed}

    def figure(self, name, value):
        """An accuracy figure reported as measured, without a gate."""
        self.figures[name] = value

    @property
    def correct(self):
        return self.failed == 0


def _save_and_load(model, path):
    ergosmp.save_model_config(model, path)
    return ergosmp.load_model_config(path)


def _count_lines(path):
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


class CliExport:
    """simulate, adjoint and cost subcommands on cubic1, default formats.

    Text export dominates; the taming branch of the forward step is active
    (cubic drift); ``cost`` is compute only.
    """

    def __init__(self, seed, size, workdir):
        self.seed, self.size, self.workdir = seed, SIZES[size]["cli_export"], workdir

    def setup(self):
        self.config = os.path.join(self.workdir, "cubic1.json")
        _save_and_load(ModelSpec.cubic1(), self.config)
        self.moment_T = oracle.cubic1_second_moment_at(self.size["sim_T"])
        self.cost_avg = oracle.cubic1_finite_horizon_average(self.size["cost_T"])
        self.rate = oracle.cubic1_weak_error_rate()
        self.out = os.path.join(self.workdir, "out")

    def _argv(self, command, T, M):
        return [command, "--model", self.config, "--seed", str(self.seed), "--T", repr(T),
                "--M", str(M), "--out-dir", self.out]

    def run(self, tally):
        s = self.size
        tally.cli(self._argv("simulate", s["sim_T"], s["sim_M"]))
        tally.cli(self._argv("adjoint", s["adj_T"], s["adj_M"]))
        tally.cli(self._argv("cost", s["cost_T"], s["cost_M"]))
        return self.out

    def _load(self, name):
        with open(os.path.join(self.out, name)) as fh:
            return json.load(fh)

    def check(self, out, tally):
        """Second moment at T and J_T/T against the cubic1 oracles.

        Allowance: relative tamed-Euler bias dt * E_pi|b'| of a second moment.
        CSV row counts and the coefficient step count must be exact.
        """
        s = self.size
        summary = self._load("simulate_summary.json")
        tally.gate("forward.second_moment_gap", summary["second_moment_at_T"] - self.moment_T,
                   2.0 * summary["second_moment_ci"] + DT * self.rate * self.moment_T)
        sim_steps, adj_steps = round(s["sim_T"] / DT), round(s["adj_T"] / DT)
        tally.gate("forward.csv_rows", _count_lines(os.path.join(out, "ensemble.csv"))
                   - (s["sim_M"] * (sim_steps + 1) + 1), 0)
        tally.gate("adjoint.csv_rows", _count_lines(os.path.join(out, "adjoint_paths.csv"))
                   - (s["adj_M"] * (adj_steps + 1) + 1), 0)
        coefs = self._load("adjoint_coefficients.json")
        tally.gate("adjoint.coefficient_steps", len(coefs["steps"]) - adj_steps, 0)
        report = self._load("cost_report.json")
        gap = report["checkpoints"][-1][1] - self.cost_avg
        tally.gate("ergodic_cost.cost_gap", gap, 2.0 * report["ci"] + DT * self.rate * self.cost_avg)
        return report["ci"]

    def fingerprint(self, out):
        report = self._load("cost_report.json")
        return [self._load("simulate_summary.json")["second_moment_at_T"],
                self._load("adjoint_coefficients.json")["sup_p_sq"], report["ci"], report["tail_max"]]

    def clean(self, out):
        for name in os.listdir(out):
            os.remove(os.path.join(out, name))


class OptimizeLq1:
    """Projected adjoint-gradient optimizer on lq1 from the zero affine law.

    Repeats the backward regression (4 features) on one noise realisation,
    regenerating the same Philox noise every iteration; no export.
    """

    def __init__(self, seed, size, workdir):
        self.seed, self.size, self.workdir = seed, SIZES[size]["optimize_lq1"], workdir

    def setup(self):
        self.model = _save_and_load(ModelSpec.lq1(), os.path.join(self.workdir, "lq1.json"))
        self.init = ControlLaw.affine([[0.0]], [0.0], self.model.control_set)
        K, P = oracle.kleinman(LQ1["A"], LQ1["B"], LQ1["Q"], LQ1["R"])
        self.K_star, self.J_star = float(K[0, 0]), oracle.ergodic_cost(LQ1["S"], P)

    def run(self, tally):
        s = self.size
        return tally.call(ergosmp.optimize_control, self.model, self.init, 0.5, s["iterations"], s["T"],
                          s["M"], self.seed, dt=DT, buffer=s["buffer"])

    def _excess_cost(self, gain):
        lq = LQ1
        P = oracle.cost_to_go(lq["A"], lq["B"], lq["Q"], lq["R"], np.array([[gain]]))
        return oracle.ergodic_cost(lq["S"], P) - self.J_star

    def check(self, result, tally):
        """Best gain against K* = -(sqrt(2) - 1), last iterate's cost ladder
        against the covariance-ODE oracle of its own affine law.

        The gain tolerance is the distance from K* at which the oracle excess
        cost reaches the best iterate's 2 CI plus the O(dt) allowance: closer
        gains cannot be told apart by the optimizer's cost comparisons.
        """
        s, lq = self.size, LQ1
        trace = result.trace
        tally.gate("smp.iterations", len(trace) - s["iterations"], 0)
        best_gain = float(result.best.gain[0, 0])
        best_row = next(r for r in trace if r["gain"] == result.best.gain.tolist())
        resolution = 2.0 * best_row["ci"] + DT * oracle.weak_error_rate(lq["A"], lq["B"], [[self.K_star]]) * self.J_star
        side = 1.0 if best_gain >= self.K_star else -1.0
        lo, hi = 0.0, 1.0 - self.K_star - 1e-9 if side > 0 else 5.0
        for _ in range(100):  # excess cost is increasing in |gain - K*| on each side
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if self._excess_cost(self.K_star + side * mid) <= resolution else (lo, mid)
        tally.gate("smp.gain_gap", best_gain - self.K_star, lo)

        last = trace[-1]
        K, c = np.array(last["gain"]), np.array(last["offset"])
        times, avg = oracle.average_cost_curve(lq["A"], lq["B"], lq["S"], lq["Q"], lq["R"], K, c,
                                               np.zeros(1), s["T"])
        tail_oracle = float(avg[times >= 0.75 * s["T"] - 1e-9].max())
        allowance = DT * oracle.weak_error_rate(lq["A"], lq["B"], K) * tail_oracle
        tally.gate("ergodic_cost.cost_gap", last["cost_tail"] - tail_oracle, 2.0 * last["ci"] + allowance)
        return last["ci"]

    def fingerprint(self, result):
        return [row["cost_tail"] for row in result.trace] + [result.best.describe()]

    def clean(self, result):
        pass


class CheckLq3:
    """Optimality-check pipeline on the 3-state LQ model at its Riccati-optimal
    feedback: costate solve (20 features), ergodic report, variational
    inequality over the 9-direction battery, and the finite duality check."""

    def __init__(self, seed, size, workdir):
        self.seed, self.size, self.workdir = seed, SIZES[size]["check_lq3"], workdir

    def setup(self):
        lq = LQ3
        model = ModelSpec.lq(A=lq["A"], B=lq["B"], S=lq["S"], Q=lq["Q"], R=lq["R"],
                             control_set=ConvexSet.box([-5.0, -5.0], [5.0, 5.0]))
        self.model = _save_and_load(model, os.path.join(self.workdir, "lq3.json"))
        self.K, self.P = oracle.kleinman(lq["A"], lq["B"], lq["Q"], lq["R"])
        self.law = ControlLaw.affine(self.K, np.zeros(2), self.model.control_set)
        times, avg = oracle.average_cost_curve(lq["A"], lq["B"], lq["S"], lq["Q"], lq["R"], self.K,
                                               np.zeros(2), np.zeros(3), self.size["T"])
        self.cost_T = float(avg[-1])
        self.rate = oracle.weak_error_rate(lq["A"], lq["B"], self.K)
        self.decay = -float(np.linalg.eigvals(lq["A"] + lq["B"] @ self.K).real.max())

    def run(self, tally):
        s, model, law = self.size, self.model, self.law
        sol = tally.call(ergosmp.extend_to_infinite, model, law, np.zeros(3), s["T"], s["buffer"], DT, s["M"], self.seed)
        report = tally.call(ergosmp.ergodic_cost.ergodic_report_from_ensemble, model, sol.ensemble, law)
        battery = tally.call(ergosmp.candidate_battery, model, law, seed=self.seed)
        vi = tally.call(ergosmp.evaluate_variational_inequality, model, law, battery, s["T"], s["M"], self.seed,
                        dt=DT, buffer=s["buffer"], adjoint=sol)
        base = sol.ensemble  # already restricted to [0, T]
        gamma = tally.call(ergosmp.build_gamma, base, 3, value=np.ones(3), t_start=1.0, t_end=4.0)
        dual = tally.call(ergosmp.verify_duality_finite, model, law, 0.0, s["T"], eta="one", gamma=gamma,
                          M=s["M"], seed=self.seed, dt=DT, base=base)
        return {"sol": sol, "report": report, "battery": battery, "vi": vi, "gamma": gamma, "dual": dual}

    def check(self, out, tally):
        """Cost, costate, duality and variational-inequality gates.

        The costate allowance is sqrt(K/M) for the projection noise of a
        K-feature least-squares fit on M paths, plus exp(-beta * buffer) for
        the zero terminal condition (beta: closed-loop decay rate), plus the
        O(dt) allowance.

        Both sides of the duality identity are recomputed: the left from the
        costate that verify_duality_finite pairs with, the right from an
        independent Euler recursion of the dual forward equation (deterministic
        here, because sigma is constant and the forcing is the same on every
        path).  The identity residual is held to the O(dt) allowance times the
        Cauchy-Schwarz scale of the pairing, sum_j dt ||2 P x_j|| ||gamma_j||.
        The relative residual is reported, not gated: from x0 = 0 both sides
        have mean zero, so it is a ratio of two small numbers.
        """
        s = self.size
        report, sol, dual = out["report"], out["sol"], out["dual"]
        tally.gate("ergodic_cost.cost_gap", report.checkpoints[-1][1] - self.cost_T,
                   2.0 * report.ci + DT * self.rate * self.cost_T)

        X = np.asarray(sol.ensemble.states)
        exact = 2.0 * X @ self.P
        p_err = math.sqrt(float(((sol.p - exact) ** 2).sum() / (exact**2).sum()))
        features = math.comb(3 + 3, 3)  # monomials of degree <= 3 in 3 variables
        allowance = math.sqrt(features / s["M"]) + math.exp(-self.decay * s["buffer"]) + DT * self.rate
        tally.gate("adjoint.p_rel_err", p_err, allowance)

        forcing = out["gamma"][0]  # the same on every path
        steps = sol.grid.steps
        p = ergosmp.solve_adjoint_finite(self.model, sol.ensemble, self.law).p
        eta = np.ones(3)
        lhs = (p[:, 0] @ eta).mean() + DT * (p[:, :steps] * forcing).sum(axis=-1).mean(axis=0).sum()
        Y = np.empty((steps, 3))
        y = eta
        for j in range(steps):
            Y[j] = y
            y = y + DT * (LQ3["A"] @ y + forcing[j])
        rhs = DT * ((2.0 * X[:, :steps] @ LQ3["Q"]) * Y).sum(axis=-1).mean(axis=0).sum()
        tally.gate("duality.lhs_recompute_err", dual.lhs - lhs, 1e-9)
        tally.gate("duality.rhs_recompute_err", dual.rhs - rhs, 1e-9)
        costate_norm = np.sqrt(((2.0 * X[:, :steps] @ self.P) ** 2).sum(axis=-1).mean(axis=0))
        scale = DT * float((costate_norm * np.linalg.norm(forcing, axis=-1)).sum())
        tally.gate("duality.abs_residual", dual.lhs - dual.rhs, DT * self.rate * scale)
        tally.figure("duality.rel_residual", dual.rel_residual)

        # Recompute every direction's pairing ladder from the solved costate.
        lo, hi = self.law.control_set.lower, self.law.control_set.upper
        Xs = X[:, :steps]
        u_bar = np.clip(Xs @ self.K.T, lo, hi)
        grad = sol.p[:, :steps] @ LQ3["B"] + 2.0 * u_bar @ LQ3["R"]
        worst = 0.0
        for (_, cand), rep in zip(out["battery"], out["vi"]):
            u = cand.const if cand.kind == "constant" else Xs @ cand.gain.T + cand.offset
            series = ((grad * (np.clip(u, lo, hi) - u_bar)).sum(axis=-1)).mean(axis=0)
            cum = np.concatenate([[0.0], np.cumsum(series)]) * DT
            ts = np.array([t for t, _ in rep.checkpoints])
            values = cum[np.round(ts / DT).astype(int)] / ts
            worst = max(worst, float(np.abs(values - [v for _, v in rep.checkpoints]).max()))
        # Float64 round-off of a reordered sum of ~1e3 terms is far below 1e-9.
        tally.gate("smp.vi_recompute_err", worst, 1e-9)
        tally.figure("smp.vi_violations", sum(r.verdict == "violated" for r in out["vi"]))
        tally.figure("smp.vi_worst_tail", min(r.tail_min for r in out["vi"]))
        return report.ci

    def fingerprint(self, out):
        return [out["report"].ci, out["report"].tail_max, out["dual"].rel_residual,
                out["sol"].sup_p_sq] + [r.tail_min for r in out["vi"]]

    def clean(self, out):
        pass


WORKLOADS = {"cli_export": CliExport, "optimize_lq1": OptimizeLq1, "check_lq3": CheckLq3}
