"""Long-run average cost estimators and the convex-perturbation check.

The long-run functionals are asymptotic; the artifact tracks J_T / T at a
ladder of checkpoint horizons and reports min/max over one fixed tail window,
the last quarter [0.75 T, T] of the horizon, as liminf/limsup proxies.

`estimate_ergodic_cost` holds one block of the noise stream and one time
block of states, never the (M, steps, d) noise or the (M, steps+1, n) state
array: the cost's running sum reduces the blocks of the state recursion,
each priced with the controls its steps applied (one law evaluation per
state), and the report is bitwise the ensemble report.

`verify_expansion_residual` checks the two first-order expansions the
maximum principle is derived from, under u^theta = u_bar + theta v with
v = u_alt - u_bar: the state X^theta = X + theta Y + o(theta), Y the first
variation, and the cost J_T(u^theta) = J_T(u_bar)
+ theta E int <D_xf, Y> + <D_uf, v> dt + o(theta).  Both read one base
ensemble and one theta ladder, with each law evaluated once along the base
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import (PathEnsemble, SimulationError, TimeGrid, _ci95_halfwidth, _euler_blocks, _initial_state,
                      _noise_blocks, _path_integrals, _perturbed_states, _require_base_under, _time_blocks,
                      _time_major, simulate_affine_dual)
from .model import ControlLaw, ModelSpec, _dot, _Report, _slabs, cost_at, cost_grad_u, cost_grad_x, drift_jacU_apply

__all__ = [
    "ErgodicCostReport",
    "ExpansionReport",
    "checkpoint_times",
    "estimate_ergodic_cost",
    "ergodic_report_from_ensemble",
    "verify_expansion_residual",
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
    X, M = _time_major(ensemble.states), ensemble.n_paths
    blocks = ((j0, cost_at(model, X[j0:j1], control.evaluate(X[j0:j1])))
              for j0, j1 in _time_blocks(0, ensemble.grid.steps, 8 * M))
    return _path_integrals(ensemble.grid, blocks, indices, (M,))


@dataclass(frozen=True)
class ErgodicCostReport(_Report):
    checkpoints: tuple          # ((T, J_T/T), ...)
    tail_min: float
    tail_max: float
    tail_window: float
    ci: float                   # 95% half-width of J_T/T at the final horizon
    control_id: str
    seed: int


def _ladder_report(ts, tail_mask, sums, control_id: str, seed: int) -> ErgodicCostReport:
    """The report of per-path cost sums (M, len(ts)) at the checkpoints ts."""
    values = sums.mean(axis=0) / ts
    return ErgodicCostReport(
        checkpoints=tuple((float(t), float(v)) for t, v in zip(ts, values)),
        tail_min=float(values[tail_mask].min()),
        tail_max=float(values[tail_mask].max()),
        tail_window=TAIL_WINDOW,
        ci=_ci95_halfwidth(sums[:, -1] / ts[-1]),
        control_id=control_id,
        seed=seed,
    )


def ergodic_report_from_ensemble(
    model: ModelSpec,
    ensemble: PathEnsemble,
    control: ControlLaw,
) -> ErgodicCostReport:
    """Checkpointed J_T/T ladder evaluated on an existing ensemble."""
    ts, indices, tail_mask = _checkpoint_ladder(ensemble.grid)
    sums = _cost_sums_at(model, ensemble, control, indices)
    return _ladder_report(ts, tail_mask, sums, ensemble.control_id, ensemble.seed)


def estimate_ergodic_cost(
    model: ModelSpec,
    control: ControlLaw,
    x0,
    T_max: float,
    M: int,
    seed: int,
    dt: float = 0.01,
) -> ErgodicCostReport:
    """Simulate under `control` and report the J_T/T checkpoint ladder:
    bitwise `ergodic_report_from_ensemble` on the ensemble of `simulate_state`
    with these arguments, and a blow-up raises that call's SimulationError.

    It reads the noise as a stream (`_noise_blocks`) and holds one noise
    block and one time block of states, which it prices with the controls
    its steps applied: one law evaluation per state, and neither the
    (M, steps, d) noise nor the (M, steps+1, n) state array."""
    grid = TimeGrid.from_horizon(T_max, dt)
    x0 = _initial_state(model, x0)
    ts, indices, tail_mask = _checkpoint_ladder(grid)
    steps = _euler_blocks(model, x0, M, _noise_blocks(seed, M, grid, model.d), grid.dt,
                          lambda j, xj, out: control.evaluate(xj, out=out), "simulate_state")
    priced = ((j0, cost_at(model, rows[:-1], U)) for j0, rows, U in steps)
    sums = _path_integrals(grid, priced, indices, (M,))
    return _ladder_report(ts, tail_mask, sums, control.describe(), int(seed))


def _simulate_priced(model: ModelSpec, control: ControlLaw, x0: np.ndarray, grid: TimeGrid, dW: np.ndarray,
                     seed: int, horizon: float):
    """`simulate_state` on increments dW already drawn for (seed, grid), from
    a validated x0, with `ergodic_report_from_ensemble` of its restriction to
    [0, horizon]; both bitwise, from one evaluation of the law per state.
    The report's sums stop at the horizon, and the states past it follow."""
    ts, indices, tail_mask = _checkpoint_ladder(TimeGrid(dt=grid.dt, steps=grid.index_of(horizon)))
    M = dW.shape[0]
    X = _slabs((grid.steps + 1, M, model.n))
    steps = _euler_blocks(model, x0, M, dW, grid.dt, lambda j, xj, out: control.evaluate(xj, out=out),
                          "simulate_state", X)
    priced = ((j0, cost_at(model, rows[:-1], U)) for j0, rows, U in steps)
    sums = _path_integrals(grid, priced, indices, (M,))
    for _ in steps:
        pass
    ensemble = PathEnsemble(grid=grid, states=_time_major(X), seed=int(seed), control_id=control.describe(),
                            d=model.d, noise=dW)
    return ensemble, _ladder_report(ts, tail_mask, sums, ensemble.control_id, ensemble.seed)


@dataclass(frozen=True)
class ExpansionReport(_Report):
    """State and cost expansions of one convex perturbation over a theta ladder."""

    thetas: tuple
    sup_delta_sq: tuple      # sup_t mean |X^theta_t - X_t|^2 per theta
    sup_residual_sq: tuple   # sup_t mean |(X^theta_t - X_t)/theta - Y_t|^2 per theta
    scaling_slope: float     # log-log slope of sup_delta_sq against theta; NaN for a zero direction
    residual_decreasing: bool
    residual_halved: bool    # residual at the smallest theta < half the largest
    finite_difference: tuple  # (J_T(u^theta) - J_T(u_bar)) / (theta T) per theta
    linearized: float        # (1/T) E int <D_xf, Y> + <D_uf, v> dt
    gateaux_gap: tuple       # |finite_difference - linearized| per theta


def verify_expansion_residual(
    model: ModelSpec,
    u_bar: ControlLaw,
    u_alt: ControlLaw,
    thetas,
    base: PathEnsemble,
) -> ExpansionReport:
    """Couple the perturbed states, the base state and the first variation Y
    on the increments of `base`, an ensemble under u_bar, for each theta of a
    strictly decreasing ladder of at least 2 in (0, 1].

    Reports the quadratic scaling of X^theta - X, the residual of the state
    expansion, and the finite-difference and linearized directional
    derivatives of the truncated average cost on [0, T], T the end of the
    base grid.  u_bar and u_alt are evaluated once each along the base path
    (open-loop perturbation of the control process), and the base cost, the
    linearized pairing and each perturbed cost are rows of one per-path
    running sum."""
    thetas = [float(t) for t in thetas]
    if len(thetas) < 2:
        raise SimulationError(f"the expansion check compares at least 2 thetas, got {len(thetas)}")
    if any(not (0.0 < t <= 1.0) for t in thetas):
        raise SimulationError("thetas must lie in (0, 1]")
    if any(b >= a for a, b in zip(thetas, thetas[1:])):
        raise SimulationError("thetas must be strictly decreasing")
    _require_base_under(base, u_bar, "verify_expansion_residual")
    grid, M = base.grid, base.n_paths
    xb = base.states[:, :-1]
    ub = u_bar.evaluate(xb)
    v = u_alt.evaluate(xb) - ub
    Y = simulate_affine_dual(model, base, u_bar, 0.0, np.zeros(model.n), gamma=drift_jacU_apply(model, v))
    perturbed = [_perturbed_states(model, base, ub + theta * v) for theta in thetas]
    sup_delta, sup_resid = [], []
    for theta, Xp in zip(thetas, perturbed):
        delta = Xp - base.states
        resid = delta / theta - Y
        sup_delta.append(float(_dot(delta, delta).mean(axis=0).max()))
        sup_resid.append(float(_dot(resid, resid).mean(axis=0).max()))

    X, Ys, U, V = (_time_major(a) for a in (base.states, Y, ub, v))
    Xps = [_time_major(Xp) for Xp in perturbed]

    def rows(j0, j1):
        xj, uj, vj = X[j0:j1], U[j0:j1], V[j0:j1]
        return np.stack([
            cost_at(model, xj, uj),
            _dot(cost_grad_x(model, xj), Ys[j0:j1]) + _dot(cost_grad_u(model, uj), vj),
            *(cost_at(model, Xp[j0:j1], uj + theta * vj) for theta, Xp in zip(thetas, Xps)),
        ], axis=1)

    shape = (2 + len(thetas), M)
    blocks = ((j0, rows(j0, j1)) for j0, j1 in _time_blocks(0, grid.steps, 8 * shape[0] * M))
    j_base, pairing, *j_pert = _path_integrals(grid, blocks, [grid.steps], shape)[:, :, 0].mean(axis=1)
    T = grid.horizon
    fd = [float((j - j_base) / (theta * T)) for theta, j in zip(thetas, j_pert)]
    linear = float(pairing / T)
    slope = float("nan")  # unavailable when the direction moves no state
    if min(sup_delta) > 0.0:
        slope = float(np.polyfit(np.log(thetas), np.log(sup_delta), 1)[0])
    return ExpansionReport(
        thetas=tuple(thetas),
        sup_delta_sq=tuple(sup_delta),
        sup_residual_sq=tuple(sup_resid),
        scaling_slope=slope,
        residual_decreasing=all(b < a for a, b in zip(sup_resid, sup_resid[1:])),
        residual_halved=sup_resid[-1] < 0.5 * sup_resid[0],
        finite_difference=tuple(fd),
        linearized=linear,
        gateaux_gap=tuple(abs(f - linear) for f in fd),
    )
