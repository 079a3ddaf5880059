"""Numerical verification of the costate/dual-forward pairing identity.

Both sides of the identity are evaluated under the same time discretization
and the same Brownian increments, so the reported residual measures solver
bias (regression + quadrature), not Monte Carlo noise between independent
runs.  The finite and infinite forms are one form (`_forms`); the infinite
form is the finite one on a longer grid, with the sides swapped and the
discarded tail bounded.  Both sides are per-path left-endpoint time
integrals (`_path_integrals`).  One regression sweep of the costate serves every
probe of a call (`_costate_sides`): it pairs each block's fitted p rows with
gamma and the q it fits on the block with rho, so no p or q array is
stored, only each forced probe's integrand rows on the steps where its
forcing is non-zero.  Each probe's dual process is streamed through its
recursion (`_pairing_sides`).

The quadrature leaves an O(dt) floor in the finite form: the forcing sum
pairs p_j with gamma_j, where the exact discrete adjoint of the dual Euler
step pairs p_{j+1} (see `adjoint._pathwise_dual`).  On lq1 under the zero law
from x0 = 1, gamma = 1 on [1, 3), T = 4, dt = 0.01, M = 4096 and seed 3,
rel_residual reads 0.0102 with p_j and 1.8e-16 with p_{j+1} (cubic1: 0.0147
and 0.0013), so a verdict on it needs a threshold above that floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Union

import numpy as np

from .adjoint import AdjointError, _feature_count, _forgetting_buffer, _pathwise_dual_blocks, _q_block, _sweep_inputs
from .forward import (PathEnsemble, SimulationError, TimeGrid, _affine_dual_blocks, _affine_dual_inputs,
                      _ci95_halfwidth, _initial_per_path, _path_integrals, _require_grid, _time_blocks, _time_major,
                      simulate_state)
from .model import ControlLaw, ModelSpec, _dot, _mat_vec, _Report, cost_grad_x

__all__ = [
    "DualityReport",
    "build_gamma",
    "build_rho",
    "verify_duality_finite",
    "verify_duality_infinite",
    "verify_duality_probes",
]


@dataclass(frozen=True)
class DualityReport(_Report):
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float  # NaN (unavailable) when both sides are exactly 0
    ci: float  # 95% half-width of the mean of the per-path lhs - rhs
    config: dict
    tail_bound: float = 0.0  # bound on the discarded tail (infinite form); inf if unavailable

    schema_version: ClassVar[int] = 2  # 1 had no ci


def _report(lhs_rows, rhs_rows, config: dict, tail_bound: float = 0.0) -> DualityReport:
    """Residuals of the identity from the per-path sides, whose means are lhs
    and rhs; rel_residual is NaN (unavailable) when both sides are exactly 0,
    i.e. when all-zero data left it unexercised."""
    lhs, rhs = float(lhs_rows.mean()), float(rhs_rows.mean())
    abs_res = abs(lhs - rhs)
    rel_res = float("nan") if lhs == rhs == 0.0 else abs_res / max(abs(lhs), abs(rhs), 1e-12)
    return DualityReport(
        lhs=lhs, rhs=rhs, abs_residual=abs_res, rel_residual=rel_res,
        ci=_ci95_halfwidth(lhs_rows - rhs_rows), config=config, tail_bound=tail_bound,
    )


def _build_eta(spec: Union[str, np.ndarray], base: PathEnsemble, t: float, n: int) -> np.ndarray:
    """Initial condition for the dual forward equation, measurable at time t.

    Accepts "zero", "one", "state" (the base state at t) or an explicit
    array of shape (n,) or (M, n).  Returns an (M, n) array, a view where it
    can be: `forward._affine_dual_inputs` copies it.
    """
    m = base.n_paths
    if isinstance(spec, str):
        if spec == "zero":
            return np.zeros((m, n))
        if spec == "one":
            return np.ones((m, n))
        if spec == "state":
            return base.states[:, base.grid.index_of(t)]
        raise SimulationError(f"unknown eta family {spec!r}")
    return _initial_per_path(spec, m, n)


def _window(grid: TimeGrid, t_start: float, t_end: Optional[float]) -> slice:
    """Grid steps of the forcing window [t_start, t_end), t_end defaulting to
    the horizon; an empty or reversed window raises instead of forcing nothing."""
    t_end = grid.horizon if t_end is None else t_end
    if not (np.isfinite(t_start) and np.isfinite(t_end)):
        raise SimulationError(f"forcing window [{t_start}, {t_end}): bounds must be finite")
    if not t_end > t_start:
        raise SimulationError(f"forcing window [{t_start}, {t_end}) is empty: t_end must exceed t_start")
    return slice(grid.index_of(t_start), grid.index_of(t_end))


def _finite(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise SimulationError(f"{name} must be finite")
    return arr


def build_gamma(
    base: PathEnsemble,
    n: int,
    value=None,
    t_start: float = 0.0,
    t_end: Optional[float] = None,
    state_matrix=None,
) -> Optional[np.ndarray]:
    """Drift forcing on [t_start, t_end), shape (M, steps, n): a constant
    vector plus a linear state feedback gamma_t = C X_t, either one optional,
    or None for no forcing.  Values and window bounds must be finite.

    Without a state feedback the forcing is the same on every path, and the
    result is one (steps, n) array broadcast to (M, steps, n): read-only, with
    no per-path copies.  With one it is a new dense array."""
    if value is None and state_matrix is None:
        return None
    window = _window(base.grid, t_start, t_end)
    forcing = np.zeros((base.grid.steps, n))
    if value is not None:
        forcing[window] = np.broadcast_to(_finite(value, "gamma: value"), (n,))
    gamma = np.broadcast_to(forcing, (base.n_paths,) + forcing.shape)
    if state_matrix is None:
        return gamma
    gamma = gamma.copy()
    gamma[:, window] += _mat_vec(_finite(state_matrix, "gamma: state_matrix"), base.states[:, window])
    return gamma


def build_rho(
    base: PathEnsemble,
    n: int,
    d: int,
    channel_values=None,
    t_start: float = 0.0,
    t_end: Optional[float] = None,
) -> Optional[np.ndarray]:
    """Noise forcing rho^i on [t_start, t_end), shape (M, steps, d, n):
    channel_values maps channel index -> n-vector (e.g. {0: [1.0]}); None for
    no forcing.  Values and window bounds must be finite.

    The forcing is the same on every path, so the result is one
    (steps, d, n) array broadcast to (M, steps, d, n): read-only, with no
    per-path copies."""
    if not channel_values:
        return None
    window = _window(base.grid, t_start, t_end)
    forcing = np.zeros((base.grid.steps, d, n))
    for ch, value in channel_values.items():
        if not 0 <= int(ch) < d:
            raise SimulationError(f"rho channel {ch} out of range")
        forcing[window, int(ch)] = np.broadcast_to(_finite(value, f"rho: channel {ch} value"), (n,))
    return np.broadcast_to(forcing, (base.n_paths,) + forcing.shape)


def _base_ensemble(model, u_bar, base, T, dt, M, seed, x0) -> PathEnsemble:
    """The base ensemble on [0, T]: simulated from x0 (default: ones) when
    `base` is None, otherwise checked to lie on the grid of (T, dt)."""
    if base is None:
        x0 = np.ones(model.n) if x0 is None else x0
        return simulate_state(model, u_bar, x0, TimeGrid.from_horizon(T, dt), M, seed)
    _require_grid(base.grid, T, dt, "base ensemble")
    return base


def _support_runs(j0: int, gamma, rho) -> list:
    """(first, end) of each run of consecutive steps j >= j0 where gamma_j or
    rho_j is non-zero on some path: where a probe's costate integrand can be
    non-zero.  A probe with no forcing has none."""
    forced = False
    for a in (gamma, rho):
        if a is not None:
            # One path stands for all when the forcing is broadcast over them.
            forced = forced | a[:1 if a.strides[0] == 0 else None, j0:].any(axis=(0, *range(2, a.ndim)))
    steps = np.flatnonzero(forced) + j0
    return [(int(run[0]), int(run[-1]) + 1) for run in np.split(steps, np.flatnonzero(np.diff(steps) != 1) + 1)
            if len(run)]


def _costate_sides(model, base, probes, nu):
    """The costate side of each probe (j0, eta, gamma, rho), inputs that
    `_affine_dual_inputs` checked: (<p_j0, eta> (M,), runs), runs a list of
    (first, end, rows), rows the (end - first, M) integrand
    <p_j, gamma_j> + sum_i <q^i_j, rho^i_j> on each run of `_support_runs`.
    The integrand is built and stored on those steps only; on the others it
    is an exact zero, which adds nothing to the running sum.

    One regression sweep of p from nu (None: 0) down to the lowest j0 serves
    every probe (`adjoint._pathwise_dual_blocks` with a fit): each block
    pairs its fitted rows, and fits q on its steps when a probe reads it
    (`adjoint._q_block`), so no p or q array is stored.  The pairings run
    with floating-point errors ignored: `_forms` checks them once the dual
    side has run, so a dual process that blows up is named first."""
    steps, M, n = base.grid.steps, base.n_paths, model.n
    sides = [[None, [(first, end, np.empty((end - first, M))) for first, end in _support_runs(j0, gamma, rho)]]
             for j0, _, gamma, rho in probes]
    fit_q = any(rho is not None for *_, rho in probes)
    stop = min(steps - 1, *(j0 for j0, *_ in probes))
    for b0, rows in _pathwise_dual_blocks(model, base, stop, nu, np.empty((0, _feature_count(n), n))):
        b1 = b0 + len(rows) - 1
        Q = _q_block(base, b0, b1, rows[1:])[1].reshape(b1 - b0, M, model.d, n) if fit_q else None
        with np.errstate(all="ignore"):
            for (j0, eta, gamma, rho), side in zip(probes, sides):
                if side[0] is None and b0 <= j0 <= b1:
                    side[0] = _dot(rows[j0 - b0], eta)
                for first, end, kept in side[1]:
                    a, b = max(b0, first), min(b1, end)
                    if a >= b:
                        continue
                    forcing = np.zeros((b - a, M))
                    if gamma is not None:
                        forcing = forcing + _dot(rows[a - b0:b - b0], _time_major(gamma)[a:b])
                    if rho is not None:
                        # <q, rho> sums d*n terms over two axes, one numpy reduction
                        forcing = forcing + (Q[a - b0:b - b0] * _time_major(rho)[a:b]).sum(axis=(-1, -2))
                    kept[a - first:b - first] = forcing
    return sides


def _pairing_sides(model, base, j0, eta, gamma, rho, nu):
    """The dual side of the pairing identity on [t, T], t at grid index j0
    and T the end of the base grid, from the inputs `_affine_dual_inputs`
    checked: (int <Ycal, Psi> + <nu, Ycal_T> per path (M,), the dual end
    state Ycal_T (M, n), max_j E|Psi_j|^2).

    The dual process Ycal is streamed: the integral reduces the blocks of
    its recursion (`forward._affine_dual_blocks`, the one
    `simulate_affine_dual` runs), each mapped to its integrand rows, so no
    (M, steps, n) array of it is stored."""
    grid = base.grid
    y = eta  # Ycal at the end of the last block read, Ycal_T after the last
    psi_sq = np.zeros(grid.steps)
    X = _time_major(base.states)

    def rows(b0, Ycal):
        nonlocal y
        b1, y = b0 + len(Ycal) - 1, Ycal[-1]
        psi = cost_grad_x(model, X[b0:b1])
        psi_sq[b0:b1] = _dot(psi, psi).mean(axis=-1)
        return _dot(Ycal[:-1], psi)

    blocks = ((b0, rows(b0, Ycal)) for b0, Ycal in _affine_dual_blocks(model, base, j0, eta, gamma, rho))
    pairing = _path_integrals(grid, blocks, [grid.steps], (base.n_paths,), start=j0)[:, 0]
    if nu is not None:
        pairing = pairing + _dot(nu, y)
    return pairing, y, float(psi_sq.max())


def verify_duality_finite(
    model: ModelSpec,
    u_bar: ControlLaw,
    t: float,
    T: float,
    eta="zero",
    gamma: Optional[np.ndarray] = None,
    rho: Optional[np.ndarray] = None,
    nu: Optional[np.ndarray] = None,
    M: int = 4096,
    seed: int = 0,
    dt: float = 0.01,
    x0=None,
    base: Optional[PathEnsemble] = None,
) -> DualityReport:
    """Check the finite-horizon pairing identity on shared noise:

        E int_t^T <p, gamma> + sum_i E int_t^T <q^i, rho^i> + E<p_t, eta>
            = E int_t^T <Ycal, Psi> + E<nu, Ycal_T>.

    `gamma`/`rho` are full-grid forcing arrays (see build_gamma/build_rho);
    `eta` is a family name or array; Psi = D_xf along the base path.
    Left-endpoint quadrature throughout, as per-path running sums.
    """
    base = _base_ensemble(model, u_bar, base, T, dt, M, seed, x0)
    return _forms(model, u_bar, base, {"T": T}, {"": (t, eta, gamma, rho)}, nu)[""]


def verify_duality_infinite(
    model: ModelSpec,
    u_bar: ControlLaw,
    t: float,
    T_support: float,
    eta="zero",
    rho: Optional[np.ndarray] = None,
    T_report: float = 8.0,
    T_buffer: Optional[float] = None,
    M: int = 4096,
    seed: int = 0,
    dt: float = 0.01,
    x0=None,
    base: Optional[PathEnsemble] = None,
) -> DualityReport:
    """Infinite-horizon pairing: E int_t^inf <Ycal, Psi> equals
    sum_i E int <q^i, rho^i> + E<eta, p_t> for rho supported in [t, T_support].

    This is the finite-horizon pairing on [t, T_report + T_buffer] with
    gamma = nu = 0; past T_support rho is zero, so its sum adds nothing.  The
    discarded tail is bounded analytically through the exponential decay of
    the dual process and reported as `tail_bound`, which is inf (unavailable,
    null in JSON) when the model certifies no decay rate.  T_buffer defaults to
    the model's forgetting time.  `base` reuses an ensemble on
    [0, T_report + T_buffer] instead of simulating one.
    """
    if T_support > T_report:
        raise SimulationError("rho support must end by T_report")
    T_buffer = _forgetting_buffer(model, T_buffer, dt)
    base = _base_ensemble(model, u_bar, base, T_report + T_buffer, dt, M, seed, x0)
    horizons = {"T_support": T_support, "T_report": T_report, "T_buffer": T_buffer}
    return _forms(model, u_bar, base, horizons, {"": (t, eta, None, rho)})[""]


def _forms(model, u_bar, base, horizons: dict, probes: dict, nu=None) -> Dict[str, DualityReport]:
    """The pairing identity of each named probe (t, eta, gamma, rho) on the
    base grid, reported with `horizons` in its config.  One costate sweep
    pairs every probe's costate side (`_costate_sides`), whose rows
    `_path_integrals` sums in time order; then each probe runs its dual
    process (`_pairing_sides`).  The finite form, horizons {"T"}, reports
    the costate side as lhs.  The infinite form, horizons {"T_support",
    "T_report", "T_buffer"} with no gamma or nu, first checks that rho is
    supported in [0, T_support), then reports the dual side as lhs with a
    bound on the discarded tail.  A non-finite costate side raises once its
    probe's dual process has run."""
    grid, M = base.grid, base.n_paths
    infinite = "T_support" in horizons
    checked_nu = _sweep_inputs(model, base, u_bar, nu)
    checked = []
    for t, eta, gamma, rho in probes.values():
        j0, eta_arr, gamma, rho = _affine_dual_inputs(model, base, u_bar, t, _build_eta(eta, base, t, model.n),
                                                      gamma, rho)
        if infinite and rho is not None and np.any(rho[:, grid.index_of(horizons["T_support"]):]):
            raise AdjointError("rho with support beyond T_support is rejected")
        checked.append((j0, eta_arr, gamma, rho))
    costate = _costate_sides(model, base, checked, checked_nu)

    reports = {}
    for (name, (t, eta, _, _)), (j0, eta_arr, gamma, rho), (eta_term, runs) in zip(probes.items(), checked, costate):
        pairing_rows, dual_end, psi_sup = _pairing_sides(model, base, j0, eta_arr, gamma, rho, checked_nu)
        with np.errstate(all="ignore"):
            blocks = ((first + a, rows[a:b]) for first, end, rows in runs
                      for a, b in _time_blocks(0, end - first, 8 * M))
            forcing = 0.0 if not runs else _path_integrals(grid, blocks, [runs[-1][1]], (M,), start=j0)[:, 0]
            p_rows = eta_term + forcing
        if not np.isfinite(p_rows).all():
            raise AdjointError(f"non-finite costate side on path {int(np.argmin(np.isfinite(p_rows)))}")
        config = {"t": t, **horizons, "M": M, "seed": base.seed, "dt": grid.dt,
                  "eta": eta if isinstance(eta, str) else "array"}
        forcings = {"rho": rho} if infinite else {"gamma": gamma, "rho": rho, "nu": nu}
        config.update((key, "zero" if value is None else "array") for key, value in forcings.items())
        if not infinite:
            reports[name] = _report(p_rows, pairing_rows, config)
            continue
        c_p = model.certified_dissipativity_bound()
        beta = -c_p if c_p < 0 else float("nan")
        y_end = float((dual_end**2).sum(axis=-1).mean())
        tail_bound = float(np.sqrt(y_end) * np.sqrt(psi_sup) / beta) if np.isfinite(beta) else float("inf")
        reports[name] = _report(pairing_rows, p_rows, config, tail_bound=tail_bound)
    return reports


def verify_duality_probes(
    model: ModelSpec,
    u_bar: ControlLaw,
    T: float,
    M: int = 4096,
    seed: int = 0,
    dt: float = 0.01,
    x0=None,
    infinite: bool = False,
) -> Dict[str, DualityReport]:
    """The identity holds for every (eta, gamma, rho), so this checks a fixed
    probe set, each probe's sides nonzero: "eta-one" (eta = 1 at t = 0),
    "eta-state" (eta = X_t at the mid-grid time of [0, T]), "gamma" (gamma = 1
    on [T/4, 3T/4) rounded to the grid, finite form only) and "rho-i" (rho^i
    = 1 on [0, T), per noise channel).  One base ensemble from x0 (default:
    ones) and one costate solve serve every probe.  The infinite form runs
    on [0, T + buffer], the buffer being the model's forgetting time."""
    buffer = _forgetting_buffer(model, None, dt) if infinite else None
    base = _base_ensemble(model, u_bar, None, T + buffer if infinite else T, dt, M, seed, x0)
    n, steps, ones = model.n, TimeGrid.from_horizon(T, dt).steps, np.ones(model.n)
    probes = {"eta-one": (0.0, "one", None, None), "eta-state": (steps // 2 * dt, "state", None, None)}
    if not infinite:
        probes["gamma"] = (0.0, "zero", build_gamma(base, n, ones, steps // 4 * dt, 3 * steps // 4 * dt), None)
    for i in range(model.d):
        probes[f"rho-{i}"] = (0.0, "zero", None, build_rho(base, n, model.d, {i: ones}, t_end=T))
    horizons = {"T_support": T, "T_report": T, "T_buffer": buffer} if infinite else {"T": T}
    return _forms(model, u_bar, base, horizons, probes)
