"""Hamiltonian machinery: optimality checks and control optimization.

The Hamiltonian is H(x, u, p, q) = <b, p> + sum_i <sigma^i, q^i> + f.  An
optimal control makes the long-run average of <D_u H, u - u_bar> nonnegative
for every admissible direction; a strictly negative tail certifies
non-optimality.  The checks read the regression costate p; the optimizer
reads the pathwise dual psi, the same recursion without the fit.  Per step,
psi's path mean equals p's to round-off for an LQ model, and only to about 1%
with a cubic drift (cubic1, 512 paths, dt 0.02, 300 steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .adjoint import AdjointSolution, _forgetting_buffer, _pathwise_dual_blocks, extend_to_infinite
from .ergodic_cost import _checkpoint_ladder, _simulate_priced
from .forward import (SimulationError, TimeGrid, _ci95_halfwidth, _initial_state, _path_integrals,
                      _require_base_under, _require_grid, _time_blocks, _time_major, brownian_increments)
from .model import (
    ControlLaw,
    ModelSpec,
    _dot,
    _Report,
    cost_at,
    cost_grad_u,
    drift_at,
    drift_jacU_T_apply,
)

__all__ = [
    "SmpReport",
    "SufficiencyReport",
    "OptimizeResult",
    "hamiltonian",
    "candidate_battery",
    "evaluate_variational_inequality",
    "check_sufficiency",
    "optimize_control",
]


def hamiltonian(model: ModelSpec, x, u, p, q) -> float:
    """H(x, u, p, q) = <b, p> + sum_i <sigma^i, q^i> + f with q of shape (d, n).

    Defined for any real (x, u); no admissibility check is applied.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    u = np.atleast_1d(np.asarray(u, dtype=float))[None, :]
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.asarray(q, dtype=float).reshape(model.d, model.n)
    b = drift_at(model, x, u)[0]
    f = float(cost_at(model, x, u)[0])
    return float(b @ p + (model.S.T * q).sum() + f)


def _grad_u_batch(model, U, P) -> np.ndarray:
    """Batched D_u H = (D_u b)^T p + D_u f over (M, ...) arrays."""
    return drift_jacU_T_apply(model, P) + cost_grad_u(model, U)


@dataclass(frozen=True)
class SmpReport(_Report):
    """Checkpointed value of (1/T) E int <D_u H, u - u_bar> dt for one direction."""

    direction_id: str
    checkpoints: tuple          # ((T, value), ...)
    tail_min: float
    ci: float
    tolerance: float
    verdict: str                # "consistent" | "violated"


_BATTERY_RANDOM = 4  # random linear feedbacks in the candidate battery


def candidate_battery(
    model: ModelSpec,
    u_bar: ControlLaw,
    seed: int = 0,
) -> List[Tuple[str, ControlLaw]]:
    """Fixed battery of admissible directions: constant shifts, deterministic
    and _BATTERY_RANDOM random linear feedbacks (gains uniform on [-1, 1],
    drawn from `seed`), and the sign-flip of the current law."""
    cs = model.control_set
    rng = np.random.default_rng(seed)
    battery: List[Tuple[str, ControlLaw]] = []
    ones = np.ones(model.l)
    battery.append(("const(+1)", ControlLaw.constant(cs.project(ones), cs)))
    battery.append(("const(-1)", ControlLaw.constant(cs.project(-ones), cs)))
    eye = np.eye(model.l, model.n)
    battery.append(("gain(+0.5)", ControlLaw.affine(0.5 * eye, np.zeros(model.l), cs)))
    battery.append(("gain(-0.5)", ControlLaw.affine(-0.5 * eye, np.zeros(model.l), cs)))
    for i in range(_BATTERY_RANDOM):
        gain = rng.uniform(-1.0, 1.0, size=(model.l, model.n))
        battery.append((f"rand-gain-{i}", ControlLaw.affine(gain, np.zeros(model.l), cs)))
    battery.append(("sign-flip", u_bar.negated()))
    return battery


def evaluate_variational_inequality(
    model: ModelSpec,
    u_bar: ControlLaw,
    u_candidates: Sequence[Tuple[str, ControlLaw]],
    T_max: float,
    M: int,
    seed: int,
    dt: float = 0.01,
    buffer: Optional[float] = None,
    x0=None,
    adjoint: Optional[AdjointSolution] = None,
) -> List[SmpReport]:
    """Necessary-condition check against a battery of candidate directions.

    Per-path running sums of <D_u H, u_c - u_bar>, one row per candidate c,
    give each checkpoint value and the CI.  A tail value below -max(0.01,
    2 CI) certifies non-optimality of u_bar (contrapositive use of the
    variational inequality); nonnegative tails are merely consistent with
    optimality.  The buffer defaults to the model's forgetting time.  A
    supplied `adjoint` must lie on the grid of (T_max, dt) and be solved
    under u_bar; its ensemble then overrides M, seed, buffer and x0.
    """
    if x0 is None:
        x0 = np.zeros(model.n)
    if adjoint is None:
        adjoint = extend_to_infinite(model, u_bar, x0, T_max, buffer, dt, M, seed)
    else:
        _require_grid(adjoint.grid, T_max, dt, "costate")
        _require_base_under(adjoint.ensemble, u_bar, "evaluate_variational_inequality")
    grid = adjoint.grid
    ens = adjoint.ensemble
    ts, indices, tail_mask = _checkpoint_ladder(grid)
    candidates = [cand for _, cand in u_candidates]
    X, P = _time_major(ens.states), _time_major(adjoint.p)

    def pairings(j0, j1):
        x = X[j0:j1]
        ub = u_bar.evaluate(x)
        grad = _grad_u_batch(model, ub, P[j0:j1])
        return np.stack([_dot(grad, cand.evaluate(x) - ub) for cand in candidates], axis=1)

    blocks = ((j0, pairings(j0, j1)) for j0, j1 in _time_blocks(0, grid.steps, 8 * len(candidates) * ens.n_paths))
    sums = _path_integrals(grid, blocks, indices, (len(candidates), ens.n_paths))
    ladders = sums.mean(axis=1) / ts
    reports = []
    for (name, _), values, final in zip(u_candidates, ladders, sums[:, :, -1]):
        ci = _ci95_halfwidth(final / ts[-1])
        tail_min = float(values[tail_mask].min())
        tolerance = max(0.01, 2.0 * ci)
        verdict = "violated" if tail_min < -tolerance else "consistent"
        reports.append(
            SmpReport(
                direction_id=name,
                checkpoints=tuple((float(t), float(v)) for t, v in zip(ts, values)),
                tail_min=tail_min,
                ci=ci,
                tolerance=tolerance,
                verdict=verdict,
            )
        )
    return reports


@dataclass(frozen=True)
class SufficiencyReport(_Report):
    convexity_min_eigen: float
    minimality_tail: float
    tolerance: float
    eigen_tolerance: float
    verdict: str                # "certified" | "not-certified"

    schema_version: ClassVar[int] = 2  # 1 had probe_count


_SUFFICIENCY_TOLERANCE = 0.02  # largest admitted negative minimality tail
_EIGEN_TOLERANCE = 1e-3        # largest admitted negative Hessian eigenvalue


def _convexity_bound(model: ModelSpec, X, P) -> float:
    """min(lambda_min(2R), lambda_min(2Q) - 6 max alpha_k x_k p_k), the max over
    every k and state of X and P (..., n): the (x, u)-Hessian of H is
    diag(2Q - 6 diag(alpha*x*p), 2R), so by Weyl no eigenvalue lies below
    this bound, which is the exact minimum for alpha = 0 or n = 1."""
    top = max(float(a * (X[..., k] * P[..., k]).max()) if a else 0.0 for k, a in enumerate(model.alpha))
    return float(min(np.linalg.eigvalsh(2.0 * model.R).min(), np.linalg.eigvalsh(2.0 * model.Q).min() - 6.0 * top))


def check_sufficiency(
    model: ModelSpec,
    u_bar: ControlLaw,
    T_max: float,
    M: int,
    seed: int,
    dt: float = 0.01,
    buffer: Optional[float] = None,
    x0=None,
) -> SufficiencyReport:
    """Sufficient-condition check: `_convexity_bound` over every path and step
    after the transient min(1, T_max/4), plus the minimality tail over
    `candidate_battery`; the buffer defaults to the model's forgetting time.
    Certified when the bound is >= -_EIGEN_TOLERANCE and the minimality tail
    is >= -_SUFFICIENCY_TOLERANCE."""
    if x0 is None:
        x0 = np.zeros(model.n)
    adjoint = extend_to_infinite(model, u_bar, x0, T_max, buffer, dt, M, seed)
    reports = evaluate_variational_inequality(
        model, u_bar, candidate_battery(model, u_bar, seed=seed), T_max, M, seed,
        dt=dt, adjoint=adjoint,
    )
    minimality_tail = min(r.tail_min for r in reports)

    grid = adjoint.grid
    j_lo = int(round(min(1.0, grid.horizon / 4.0) / grid.dt))
    min_eig = _convexity_bound(model, adjoint.ensemble.states[:, j_lo:grid.steps], adjoint.p[:, j_lo:grid.steps])
    certified = (min_eig >= -_EIGEN_TOLERANCE) and (minimality_tail >= -_SUFFICIENCY_TOLERANCE)
    return SufficiencyReport(
        convexity_min_eigen=min_eig,
        minimality_tail=float(minimality_tail),
        tolerance=_SUFFICIENCY_TOLERANCE,
        eigen_tolerance=_EIGEN_TOLERANCE,
        verdict="certified" if certified else "not-certified",
    )


# ---------------------------------------------------------------------------
# Projected adjoint-gradient optimizer


@dataclass(frozen=True)
class OptimizeResult(_Report):
    best: ControlLaw
    trace: tuple                # one dict per iteration
    status: str                 # "completed" | "stalled"


_OPT_BURN_IN = 1.0   # gradient samples start here (at most T/2)
_OPT_PATIENCE = 8    # iterations without improvement before "stalled"


def _fit_affine_gradient(gram: np.ndarray, rhs: np.ndarray):
    """Least-squares fit G ~ W x + w over pooled samples, from the normal
    equations of their design rows [1, x]: gram = sum [1, x]^T [1, x]
    (n+1, n+1) and rhs = sum [1, x]^T G (n+1, l); returns (W, w)."""
    coef = np.linalg.solve(gram, rhs)     # (n+1, l)
    return coef[1:].T, coef[0]


def _pooled_gradient(model: ModelSpec, law: ControlLaw, ensemble, j_burn: int, j_top: int):
    """Sums of G_j = (D_u b)^T psi_{j+1} + D_u f(u_j), u_j = law(x_j), over
    the pool steps [j_burn, j_top) and the paths: an affine law's normal
    equations (gram, rhs) of the fit G ~ W x + w, or a tabulated law's
    per-bin sums (bins, l) and counts (bins,).

    The pathwise dual sweeps backward in time blocks and stops at
    psi_{j_burn+1}, the lowest row the pool reads.  Each block turns its psi
    rows into G rows and adds them to the sums at once, with a block-sized
    design [1, x] or one bincount per control column, so no psi, G or design
    array outlives its block, and the law sees each pooled state once."""
    n, l = model.n, model.l
    X = _time_major(ensemble.states)
    affine = law.kind == "affine_feedback"
    if affine:
        a, b = np.zeros((n + 1, n + 1)), np.zeros((n + 1, l))
    else:
        bins = len(law.bin_values)
        a, b = np.zeros((bins, l)), np.zeros(bins)
    top = j_top  # the highest psi row still to pool
    for j0, rows in _pathwise_dual_blocks(model, ensemble, j_burn + 1):
        if j0 > top:
            continue
        x = X[j0 - 1:top].reshape(-1, n)
        G = _grad_u_batch(model, law.evaluate(x), rows[:top - j0 + 1].reshape(-1, n))
        if affine:
            design = np.empty((len(x), n + 1))
            design[:, 0] = 1.0
            design[:, 1:] = x
            a += design.T @ design
            b += design.T @ G
        else:
            idx = law._bin_index(x[:, 0])
            for c in range(l):
                a[:, c] += np.bincount(idx, G[:, c], bins)
            b += np.bincount(idx, minlength=bins)
        top = j0 - 1
    return a, b


def _gradient_step(model: ModelSpec, law: ControlLaw, ensemble, j_burn: int, j_top: int, gamma_k: float):
    """One projected gradient step from `law`, whose run is `ensemble`: the
    next law, the gradient norm and the parameters stepped from.  It holds
    the sums of `_pooled_gradient` and no per-path array beyond the run's."""
    a, b = _pooled_gradient(model, law, ensemble, j_burn, j_top)
    if law.kind == "affine_feedback":
        W, w = _fit_affine_gradient(a, b)
        new_law = ControlLaw.affine(law.gain - gamma_k * W, law.offset - gamma_k * w, law.control_set)
        grad_norm = float(np.sqrt((W**2).sum() + (w**2).sum()))
        return new_law, grad_norm, {"gain": law.gain.tolist(), "offset": law.offset.tolist()}
    seen = b > 0
    means = a[seen] / b[seen, None]
    values = law.bin_values.copy()
    values[seen] = law.control_set.project(values[seen] - gamma_k * means)
    new_law = ControlLaw.tabulated(law.bin_edges, values, law.control_set)
    return new_law, float(np.abs(means).max(initial=0.0)), {"values": law.bin_values.tolist()}


def optimize_control(
    model: ModelSpec,
    u_init: ControlLaw,
    step_gamma: float,
    iterations: int,
    T: float,
    M: int,
    seed: int,
    dt: float = 0.01,
    buffer: Optional[float] = None,
    x0=None,
) -> OptimizeResult:
    """Projected adjoint-gradient descent over feedback laws.

    Each iteration simulates under the current law, pricing its cost report
    on [0, T) with the controls the steps applied, runs the pathwise dual
    psi, fits the conditional gradient E[D_u H | x] to the samples
    G_j = (D_u b)^T psi_{j+1} + D_u f(u_j) (least squares for affine laws,
    per-bin means for tabulated laws) and takes a projected step.  The step
    is halved and the iterate reverted whenever the ergodic-cost tail
    estimate worsens beyond its CI; the run stops early after _OPT_PATIENCE
    iterations without improvement.  G pools the steps from
    min(_OPT_BURN_IN, T/2) to T; paired with a direction v it is the
    linearized value of `verify_expansion_residual`, path by path.  All iterations
    share one noise realization (common random numbers), drawn once, so
    cost comparisons across iterates are systematic rather than noisy.  The
    buffer past T defaults to the model's forgetting time.

    A run holds that noise and one iterate's state array: psi, G and the
    fit's design live one time block at a time (`_pooled_gradient`), and an
    iterate's states are released before the next iterate is simulated.  A
    pool whose states span no affine direction (all at one point, as without
    noise) makes the affine fit singular and raises SimulationError.
    """
    if u_init.kind not in ("affine_feedback", "tabulated_feedback"):
        raise SimulationError("optimizer supports affine or tabulated feedback laws")
    if not step_gamma > 0:
        raise SimulationError("step_gamma must be positive")
    x0 = _initial_state(model, np.zeros(model.n) if x0 is None else x0)
    buffer = _forgetting_buffer(model, buffer, dt)
    grid_full = TimeGrid.from_horizon(T + buffer, dt)
    j_burn = grid_full.index_of(round(min(_OPT_BURN_IN, T / 2.0) / dt) * dt)
    j_top = grid_full.index_of(T)
    dW = brownian_increments(seed, M, grid_full, model.d)

    law = u_init
    gamma_k = step_gamma
    best_law, best_tail, best_ci = u_init, np.inf, 0.0
    since_best = 0
    trace = []
    status = "completed"

    for it in range(iterations):
        ensemble, report = _simulate_priced(model, law, x0, grid_full, dW, seed, T)
        try:
            new_law, grad_norm, params = _gradient_step(model, law, ensemble, j_burn, j_top, gamma_k)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(f"optimizer iteration {it}: the pooled states span no affine direction, "
                                  "so the gradient fit G ~ W x + w is singular") from exc
        del ensemble  # the next iterate's states take its place

        tail = report.tail_max
        trace.append(
            {
                "iteration": it,
                "cost_tail": tail,
                "ci": report.ci,
                "grad_norm": grad_norm,
                "gamma": gamma_k,
                **params,
            }
        )
        if tail < best_tail:
            best_law, best_tail, best_ci = law, tail, report.ci
            since_best = 0
        else:
            since_best += 1
            if tail > best_tail + max(best_ci, report.ci):
                # Cost got worse beyond noise: halve the step, restart from best.
                gamma_k *= 0.5
                new_law = best_law
        if since_best >= _OPT_PATIENCE:
            status = "stalled"
            break
        law = new_law

    return OptimizeResult(best=best_law, trace=tuple(trace), status=status)
