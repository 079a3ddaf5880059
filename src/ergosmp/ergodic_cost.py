"""Truncated and long-run average cost estimators.

The long-run functionals are asymptotic; the artifact tracks J_T / T at a
ladder of checkpoint horizons and reports min/max over the tail window as
liminf/limsup proxies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import (PathEnsemble, SimulationError, TimeGrid, _ci95_halfwidth, _path_integrals,
                      direction_from_laws, simulate_first_variation, simulate_perturbed, simulate_state)
from .model import ControlLaw, ModelSpec, cost_at, cost_grad_u, cost_grad_x

__all__ = [
    "ErgodicCostReport",
    "GateauxReport",
    "NullTestReport",
    "checkpoint_times",
    "estimate_cost_T",
    "estimate_ergodic_cost",
    "ergodic_report_from_ensemble",
    "estimate_gateaux",
    "local_perturbation_null_test",
]

CHECKPOINT_RATIO = 1.5  # growth factor of the checkpoint spacing
MIN_TAIL_CHECKPOINTS = 8


def checkpoint_times(T_max: float, dt: float, window: float = 0.25) -> np.ndarray:
    """Checkpoint horizons: spacing grows geometrically (ratio 1.5) from a
    small initial step, capped so the tail window [(1-window)T_max, T_max]
    always holds at least MIN_TAIL_CHECKPOINTS checkpoints."""
    if not 0.0 < window < 1.0:
        raise SimulationError("window must lie in (0, 1)")
    cap = max(dt, window * T_max / MIN_TAIL_CHECKPOINTS)
    spacing = max(dt, T_max / 512.0)
    ts = []
    t = 0.0
    while t < T_max - 1e-12:
        t = min(t + spacing, T_max)
        ts.append(t)
        spacing = min(spacing * CHECKPOINT_RATIO, cap)
    idx = sorted({int(round(t / dt)) for t in ts} | {int(round(T_max / dt))})
    idx = [j for j in idx if j >= 1]
    return np.asarray(idx, dtype=int) * dt


def _checkpoint_ladder(grid: TimeGrid, window: float):
    """Checkpoint times on `grid`, their grid indices and the tail-window mask.

    Raises SimulationError when fewer than 5 checkpoints fall in the tail
    window [(1-window)T, T], where no tail statistic is meaningful.
    """
    ts = checkpoint_times(grid.horizon, grid.dt, window)
    indices = np.round(ts / grid.dt).astype(int)
    tail_mask = ts >= (1.0 - window) * grid.horizon - 1e-9
    if tail_mask.sum() < 5:
        raise SimulationError(f"only {tail_mask.sum()} checkpoints fall in the tail window; increase T_max")
    return ts, indices, tail_mask


def _cost_sums_at(model, ensemble, control, indices) -> np.ndarray:
    """Per-path left-endpoint quadrature of the running cost at the given
    grid indices, shape (M, len(indices)): per-path running sums from
    `_path_integrals`, the summation order every time average shares."""
    dt = ensemble.grid.dt

    def running_cost(j):
        xj = ensemble.states[:, j]
        return cost_at(model, xj, control.evaluate(j * dt, xj))

    return _path_integrals(ensemble.grid, running_cost, indices, (ensemble.n_paths,))


def estimate_cost_T(model: ModelSpec, ensemble: PathEnsemble, control: ControlLaw, T: float) -> float:
    """Monte Carlo estimate of the truncated cost E int_0^T f(X_t, u_t) dt."""
    j = ensemble.grid.index_of(T)
    sums = _cost_sums_at(model, ensemble, control, [j])
    return float(sums[:, 0].mean())


@dataclass(frozen=True)
class ErgodicCostReport:
    checkpoints: tuple          # ((T, J_T/T), ...)
    tail_min: float
    tail_max: float
    tail_window: float
    ci: float                   # 95% half-width of J_T/T at the final horizon
    control_id: str
    seed: int

    def tail_values(self):
        t_cut = (1.0 - self.tail_window) * self.checkpoints[-1][0]
        return [v for (t, v) in self.checkpoints if t >= t_cut - 1e-9]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "checkpoints": [[t, v] for (t, v) in self.checkpoints],
            "tail_min": self.tail_min,
            "tail_max": self.tail_max,
            "tail_window": self.tail_window,
            "ci": self.ci,
            "control_id": self.control_id,
            "seed": self.seed,
        }


def ergodic_report_from_ensemble(
    model: ModelSpec,
    ensemble: PathEnsemble,
    control: ControlLaw,
    window: float = 0.25,
) -> ErgodicCostReport:
    """Checkpointed J_T/T ladder evaluated on an existing ensemble."""
    ts, indices, tail_mask = _checkpoint_ladder(ensemble.grid, window)
    sums = _cost_sums_at(model, ensemble, control, indices)
    values = sums.mean(axis=0) / ts
    ci = _ci95_halfwidth(sums[:, -1] / ts[-1])
    return ErgodicCostReport(
        checkpoints=tuple((float(t), float(v)) for t, v in zip(ts, values)),
        tail_min=float(values[tail_mask].min()),
        tail_max=float(values[tail_mask].max()),
        tail_window=window,
        ci=ci,
        control_id=ensemble.control_id,
        seed=ensemble.seed,
    )


def estimate_ergodic_cost(
    model: ModelSpec,
    control: ControlLaw,
    x0,
    T_max: float,
    M: int,
    seed: int,
    window: float = 0.25,
    dt: float = 0.01,
) -> ErgodicCostReport:
    """Simulate under `control` and report the J_T/T checkpoint ladder."""
    grid = TimeGrid.from_horizon(T_max, dt)
    ensemble = simulate_state(model, control, x0, grid, M, seed)
    return ergodic_report_from_ensemble(model, ensemble, control, window)


@dataclass(frozen=True)
class GateauxReport:
    theta: float
    finite_difference: float   # (J_T(u + theta v) - J_T(u)) / (theta T)
    linearized: float          # (1/T) E int <D_xf, Y> + <D_uf, v> dt
    gap: float

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "theta": self.theta,
            "finite_difference": self.finite_difference,
            "linearized": self.linearized,
            "gap": self.gap,
        }


def estimate_gateaux(
    model: ModelSpec,
    u_bar: ControlLaw,
    u_alt: ControlLaw,
    theta: float,
    T: float,
    M: int,
    seed: int,
    dt: float = 0.01,
    x0=None,
) -> GateauxReport:
    """Directional derivative of the truncated average cost, two ways.

    The finite difference perturbs the control along v = u_alt - u_bar on
    shared noise; the linearized value pairs the cost gradients with the
    first-variation process on the same paths.  The base cost, the perturbed
    cost and the pairing are per-path running sums of one three-row integrand.
    """
    if x0 is None:
        x0 = np.zeros(model.n)
    grid = TimeGrid.from_horizon(T, dt)
    base = simulate_state(model, u_bar, x0, grid, M, seed)
    pert = simulate_perturbed(model, u_bar, u_alt, theta, base)
    v = direction_from_laws(u_bar, u_alt, base)
    Y = simulate_first_variation(model, base, u_bar, v)

    def rows(j):
        xb = base.states[:, j]
        ub = u_bar.evaluate(j * dt, xb)
        return np.stack([
            cost_at(model, xb, ub),
            cost_at(model, pert.states[:, j], ub + theta * v[:, j]),
            (cost_grad_x(model, xb) * Y.states[:, j]).sum(axis=-1)
            + (cost_grad_u(model, ub) * v[:, j]).sum(axis=-1),
        ])

    j_base, j_pert, pairing = _path_integrals(grid, rows, [grid.steps], (3, M))[:, :, 0].mean(axis=1)
    fd = float((j_pert - j_base) / (theta * T))
    linear = float(pairing / T)
    return GateauxReport(theta=theta, finite_difference=fd, linearized=linear, gap=abs(fd - linear))


class _TimeSwitchLaw:
    """Control that follows `before` on [0, t_switch) and `after` afterwards."""

    def __init__(self, before: ControlLaw, after: ControlLaw, t_switch: float):
        self.before = before
        self.after = after
        self.t_switch = t_switch
        self.control_set = after.control_set

    def evaluate(self, t, x):
        law = self.before if t < self.t_switch - 1e-12 else self.after
        return law.evaluate(t, x)

    def describe(self) -> str:
        return (
            f"switch(before={self.before.describe()}, after={self.after.describe()}, "
            f"t={self.t_switch!r})"
        )


@dataclass(frozen=True)
class NullTestReport:
    tail_difference: float
    ci: float
    transient_estimate: float   # unnormalized cost offset measured at T_mid
    bound: float                # |tail_difference| must stay below this
    shrink_reference: float     # |difference| of J_T/T at T_mid
    verdict: bool
    baseline: ErgodicCostReport
    patched: ErgodicCostReport

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "tail_difference": self.tail_difference,
            "ci": self.ci,
            "transient_estimate": self.transient_estimate,
            "bound": self.bound,
            "shrink_reference": self.shrink_reference,
            "verdict": "pass" if self.verdict else "fail",
            "baseline": self.baseline.to_dict(),
            "patched": self.patched.to_dict(),
        }


def local_perturbation_null_test(
    model: ModelSpec,
    u_bar: ControlLaw,
    u_alt: ControlLaw,
    T0: float,
    T_max: float,
    M: int,
    seed: int,
    dt: float = 0.01,
    window: float = 0.25,
    x0=None,
) -> NullTestReport:
    """Check that replacing the control by u_alt on [0, T0] only leaves a
    transient: the long-run average cost is unchanged.

    Shared noise couples the two runs.  The verdict requires the tail
    difference of J_T/T to (a) be explainable by a bounded cost transient
    divided by T_max and (b) shrink relative to its value at T_max/4.
    """
    if not 0.0 < T0 <= T_max / 4.0:
        raise SimulationError("the patch must be local: need 0 < T0 <= T_max / 4")
    if x0 is None:
        x0 = np.zeros(model.n)
    grid = TimeGrid.from_horizon(T_max, dt)
    patched = _TimeSwitchLaw(u_alt, u_bar, T0)
    ens_base = simulate_state(model, u_bar, x0, grid, M, seed)
    ens_patch = simulate_state(model, patched, x0, grid, M, seed)

    rep_base = ergodic_report_from_ensemble(model, ens_base, u_bar, window)
    rep_patch = ergodic_report_from_ensemble(model, ens_patch, patched, window)

    t_mid = min(max(4.0 * T0, T_max / 4.0), T_max / 2.0)
    j_mid = min(int(round(t_mid / dt)), grid.steps)
    j_end = grid.steps
    sums_base = _cost_sums_at(model, ens_base, u_bar, [j_mid, j_end])
    sums_patch = _cost_sums_at(model, ens_patch, patched, [j_mid, j_end])
    diff_mid = sums_patch[:, 0] - sums_base[:, 0]
    diff_end = (sums_patch[:, 1] - sums_base[:, 1]) / T_max
    tail_difference = float(diff_end.mean())
    ci = _ci95_halfwidth(diff_end)
    transient = float(diff_mid.mean())
    ci_mid = _ci95_halfwidth(diff_mid)
    bound = 2.0 * ci + 1.5 * (abs(transient) + 2.0 * ci_mid) / T_max + 1e-6
    shrink_reference = abs(transient) / (j_mid * dt)
    shrink_ok = abs(tail_difference) <= max(0.5 * shrink_reference, 2.0 * ci + 1e-6)
    verdict = (abs(tail_difference) <= bound) and shrink_ok
    return NullTestReport(
        tail_difference=tail_difference,
        ci=ci,
        transient_estimate=transient,
        bound=bound,
        shrink_reference=shrink_reference,
        verdict=verdict,
        baseline=rep_base,
        patched=rep_patch,
    )
