"""Truncated and long-run average cost estimators.

The long-run functionals are asymptotic; the artifact tracks J_T / T at a
ladder of checkpoint horizons and reports min/max over one fixed tail window,
the last quarter [0.75 T, T] of the horizon, as liminf/limsup proxies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import (PathEnsemble, SimulationError, TimeGrid, _ci95_halfwidth, _path_integrals,
                      _require_base_under, _time_major, direction_from_laws, simulate_first_variation,
                      simulate_perturbed, simulate_state)
from .model import ControlLaw, ModelSpec, _dot, _Report, cost_at, cost_grad_u, cost_grad_x

__all__ = [
    "ErgodicCostReport",
    "GateauxReport",
    "checkpoint_times",
    "estimate_cost_T",
    "estimate_ergodic_cost",
    "ergodic_report_from_ensemble",
    "estimate_gateaux",
]

CHECKPOINT_RATIO = 1.5  # growth factor of the checkpoint spacing
MIN_TAIL_CHECKPOINTS = 8
TAIL_WINDOW = 0.25      # the tail [(1 - TAIL_WINDOW) T, T] read for liminf/limsup


def checkpoint_times(T_max: float, dt: float) -> np.ndarray:
    """Checkpoint horizons: spacing grows geometrically (ratio 1.5) from a
    small initial step, capped so the tail window [(1-TAIL_WINDOW)T_max,
    T_max] always holds at least MIN_TAIL_CHECKPOINTS checkpoints."""
    cap = max(dt, TAIL_WINDOW * T_max / MIN_TAIL_CHECKPOINTS)
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


def _checkpoint_ladder(grid: TimeGrid):
    """Checkpoint times on `grid`, their grid indices and the tail-window mask.

    Raises SimulationError when fewer than 5 checkpoints fall in the tail
    window, where no tail statistic is meaningful.
    """
    ts = checkpoint_times(grid.horizon, grid.dt)
    indices = np.round(ts / grid.dt).astype(int)
    tail_mask = ts >= (1.0 - TAIL_WINDOW) * grid.horizon - 1e-9
    if tail_mask.sum() < 5:
        raise SimulationError(f"only {tail_mask.sum()} checkpoints fall in the tail window; increase T_max")
    return ts, indices, tail_mask


def _cost_sums_at(model, ensemble, control, indices) -> np.ndarray:
    """Per-path left-endpoint quadrature of the running cost at the given
    grid indices, shape (M, len(indices)): per-path running sums from
    `_path_integrals`, the summation order every time average shares, with one
    evaluation of the law per time block.  The ensemble must be simulated
    under `control`, whose describe() the report carries as its control_id."""
    _require_base_under(ensemble, control, "cost")
    X = _time_major(ensemble.states)

    def running_cost(j0, j1):
        return cost_at(model, X[j0:j1], control.evaluate(X[j0:j1]))

    return _path_integrals(ensemble.grid, running_cost, indices, (ensemble.n_paths,))


def estimate_cost_T(model: ModelSpec, ensemble: PathEnsemble, control: ControlLaw, T: float) -> float:
    """Monte Carlo estimate of the truncated cost E int_0^T f(X_t, u_t) dt."""
    j = ensemble.grid.index_of(T)
    sums = _cost_sums_at(model, ensemble, control, [j])
    return float(sums[:, 0].mean())


@dataclass(frozen=True)
class ErgodicCostReport(_Report):
    checkpoints: tuple          # ((T, J_T/T), ...)
    tail_min: float
    tail_max: float
    tail_window: float
    ci: float                   # 95% half-width of J_T/T at the final horizon
    control_id: str
    seed: int


def ergodic_report_from_ensemble(
    model: ModelSpec,
    ensemble: PathEnsemble,
    control: ControlLaw,
) -> ErgodicCostReport:
    """Checkpointed J_T/T ladder evaluated on an existing ensemble."""
    ts, indices, tail_mask = _checkpoint_ladder(ensemble.grid)
    sums = _cost_sums_at(model, ensemble, control, indices)
    values = sums.mean(axis=0) / ts
    ci = _ci95_halfwidth(sums[:, -1] / ts[-1])
    return ErgodicCostReport(
        checkpoints=tuple((float(t), float(v)) for t, v in zip(ts, values)),
        tail_min=float(values[tail_mask].min()),
        tail_max=float(values[tail_mask].max()),
        tail_window=TAIL_WINDOW,
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
    dt: float = 0.01,
) -> ErgodicCostReport:
    """Simulate under `control` and report the J_T/T checkpoint ladder."""
    grid = TimeGrid.from_horizon(T_max, dt)
    ensemble = simulate_state(model, control, x0, grid, M, seed)
    return ergodic_report_from_ensemble(model, ensemble, control)


@dataclass(frozen=True)
class GateauxReport(_Report):
    theta: float
    finite_difference: float   # (J_T(u + theta v) - J_T(u)) / (theta T)
    linearized: float          # (1/T) E int <D_xf, Y> + <D_uf, v> dt
    gap: float


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
    cost and the pairing are per-path running sums of one three-row integrand,
    which reads the base-path controls of one whole-path evaluation.  `theta`
    must lie in (0, 1].
    """
    if not 0.0 < theta <= 1.0:
        raise SimulationError("theta must lie in (0, 1]")
    if x0 is None:
        x0 = np.zeros(model.n)
    grid = TimeGrid.from_horizon(T, dt)
    base = simulate_state(model, u_bar, x0, grid, M, seed)
    pert = simulate_perturbed(model, u_bar, u_alt, theta, base)
    v = direction_from_laws(u_bar, u_alt, base)
    Y = simulate_first_variation(model, base, u_bar, v)
    X, Xp, Ys = (_time_major(a) for a in (base.states, pert.states, Y))
    U, V = (_time_major(a) for a in (u_bar.evaluate(base.states[:, :-1]), v))

    def rows(j0, j1):
        xb, ub, vb = X[j0:j1], U[j0:j1], V[j0:j1]
        return np.stack([
            cost_at(model, xb, ub),
            cost_at(model, Xp[j0:j1], ub + theta * vb),
            _dot(cost_grad_x(model, xb), Ys[j0:j1]) + _dot(cost_grad_u(model, ub), vb),
        ], axis=1)

    j_base, j_pert, pairing = _path_integrals(grid, rows, [grid.steps], (3, M))[:, :, 0].mean(axis=1)
    fd = float((j_pert - j_base) / (theta * T))
    linear = float(pairing / T)
    return GateauxReport(theta=theta, finite_difference=fd, linearized=linear, gap=abs(fd - linear))
