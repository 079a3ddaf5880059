"""Backward regression solver for the adjoint (costate) equation.

The costate pair (p, q^1..q^d) solves, on [0, T],

    p_j = E[ p_{j+1} + dt * (D_xb^T p_{j+1} + sum_i D_xsigma^i^T qhat^i_j
             + D_xf) | X_j ],
    q^i_j = E[ p_{j+1} * dW^i_j / dt | X_j ],

with conditional expectations estimated by ridge-regularized least squares on
polynomial features of the current state.  sigma is constant, so the
D_xsigma^T q term of the driver vanishes.  The infinite-horizon solution is
realized by solving with zero terminal data on an extended horizon and
discarding a buffer: the terminal layer decays exponentially under
dissipativity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import List, Optional

import numpy as np

from .forward import PathEnsemble, TimeGrid, _paths_to_csv, simulate_state
from .model import ControlLaw, ModelSpec, cost_grad_x, drift_jacT_apply

__all__ = [
    "AdjointError",
    "RegressionBasis",
    "AdjointSolution",
    "ConsistencyReport",
    "solve_adjoint_finite",
    "extend_to_infinite",
    "check_truncation_consistency",
    "adjoint_to_csv",
    "adjoint_coefficients_dict",
]


class AdjointError(RuntimeError):
    """Backward solve failed (singular regression or non-finite driver)."""


def _monomial_exponents(n: int, degree: int):
    exps = [(0,) * n]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n), deg):
            e = [0] * n
            for i in combo:
                e[i] += 1
            exps.append(tuple(e))
    return exps


@dataclass(frozen=True)
class RegressionBasis:
    """All state monomials up to the given total degree, standardized per step
    and fit with a small ridge penalty (intercept unpenalized)."""

    degree: int = 3
    ridge: float = 1e-8

    def __post_init__(self):
        if self.degree < 1:
            raise AdjointError("basis degree must be >= 1")
        if self.ridge < 0:
            raise AdjointError("ridge must be >= 0")

    def feature_count(self, n: int) -> int:
        return len(_monomial_exponents(n, self.degree))

    def features_t(self, X: np.ndarray) -> np.ndarray:
        """Monomial design matrix in (features, paths) layout."""
        X = np.atleast_2d(X)
        m, n = X.shape
        exps = _monomial_exponents(n, self.degree)
        out = np.empty((len(exps), m))
        out[0] = 1.0
        for col, e in enumerate(exps[1:], start=1):
            acc = None
            for i, power in enumerate(e):
                if power:
                    term = X[:, i] ** power
                    acc = term if acc is None else acc * term
            out[col] = acc
        return out

    def features(self, X: np.ndarray) -> np.ndarray:
        return self.features_t(X).T.copy()


@dataclass
class _StepFit:
    mean: np.ndarray    # (K,)
    std: np.ndarray     # (K,)
    coef_p: np.ndarray  # (K, n)
    coef_q: np.ndarray  # (d, K, n)


class _StepRegressor:
    """Shared per-step design matrix with its factorized normal equations.

    Works in (features, paths) layout: per-feature reductions then run over
    contiguous memory.
    """

    def __init__(self, basis: RegressionBasis, X: np.ndarray, step: int):
        ft = basis.features_t(X)
        mean = ft.mean(axis=1)
        mean[0] = 0.0
        centered = ft - mean[:, None]
        std = np.sqrt((centered * centered).mean(axis=1))
        std[0] = 1.0
        std[std < 1e-300] = 1.0
        self.Ft = centered / std[:, None]
        self.mean, self.std = mean, std
        k = ft.shape[0]
        gram = self.Ft @ self.Ft.T
        gram[np.arange(1, k), np.arange(1, k)] += basis.ridge
        try:
            self._chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise AdjointError(f"rank-deficient regression at step {step}") from exc
        self.step = step

    def fit(self, targets: np.ndarray):
        """Least-squares coefficients and fitted values for (M, c) targets."""
        rhs = self.Ft @ targets
        z = np.linalg.solve(self._chol, rhs)
        coef = np.linalg.solve(self._chol.T, z)
        if not np.isfinite(coef).all():
            raise AdjointError(f"non-finite regression coefficients at step {self.step}")
        return coef, self.Ft.T @ coef


@dataclass(frozen=True)
class AdjointSolution:
    """Per-step regression representations and pathwise costate evaluations."""

    grid: TimeGrid
    p: np.ndarray            # (M, steps+1, n)
    q: np.ndarray            # (M, steps, d, n)
    fits: List[_StepFit]
    basis: RegressionBasis
    terminal_id: str
    sup_p_sq: float          # max over steps of the mean squared costate norm
    ensemble: PathEnsemble

    def __post_init__(self):
        self.p.setflags(write=False)
        self.q.setflags(write=False)

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    def evaluate_p(self, step: int, X: np.ndarray) -> np.ndarray:
        """Fitted costate function of step `step` evaluated at states X."""
        if step >= len(self.fits):
            raise AdjointError("terminal step has no regression representation")
        fit = self.fits[step]
        raw = self.basis.features(np.atleast_2d(X))
        return ((raw - fit.mean) / fit.std) @ fit.coef_p

    def restricted(self, horizon: float) -> "AdjointSolution":
        j = self.grid.index_of(horizon)
        return AdjointSolution(
            grid=TimeGrid(dt=self.grid.dt, steps=j),
            p=self.p[:, : j + 1],
            q=self.q[:, :j],
            fits=self.fits[:j],
            basis=self.basis,
            terminal_id=self.terminal_id,
            sup_p_sq=self.sup_p_sq,
            ensemble=self.ensemble.restricted(horizon),
        )


def solve_adjoint_finite(
    model: ModelSpec,
    ensemble: PathEnsemble,
    u_bar: ControlLaw,
    basis: Optional[RegressionBasis] = None,
    nu: Optional[np.ndarray] = None,
) -> AdjointSolution:
    """Backward least-squares Monte Carlo solve on the ensemble horizon.

    `nu` is the terminal condition: None for zero, otherwise a per-path
    (M, n) array.  The terminal value is imposed exactly.
    """
    if ensemble.control_id != u_bar.describe():
        raise AdjointError(
            f"ensemble generated under {ensemble.control_id!r}, not {u_bar.describe()!r}"
        )
    basis = basis or RegressionBasis()
    grid = ensemble.grid
    M, steps, n, d = ensemble.n_paths, grid.steps, model.n, model.d
    dt = grid.dt
    Pbuf = np.empty((steps + 1, M, n))
    Qbuf = np.empty((steps, M, d, n))
    if nu is None:
        Pbuf[steps] = 0.0
        terminal_id = "zero"
    else:
        nu = np.asarray(nu, dtype=float)
        if nu.shape != (M, n):
            raise AdjointError(f"nu must have shape ({M}, {n})")
        Pbuf[steps] = nu
        terminal_id = "custom"
    fits: List[Optional[_StepFit]] = [None] * steps

    for j in range(steps - 1, -1, -1):
        Xj = ensemble.states[:, j]
        reg = _StepRegressor(basis, Xj, j)
        p_next = Pbuf[j + 1]

        # Martingale-increment targets for every noise channel at once.
        q_targets = (p_next[:, None, :] * (ensemble.increments[:, j, :, None] / dt)).reshape(M, d * n)
        coef_q, q_fit = reg.fit(q_targets)
        Qbuf[j] = q_fit.reshape(M, d, n)

        driver = drift_jacT_apply(model, Xj, p_next) + cost_grad_x(model, Xj)
        if not np.isfinite(driver).all():
            raise AdjointError(f"non-finite driver at step {j}")

        coef_p, p_fit = reg.fit(p_next + dt * driver)
        Pbuf[j] = p_fit
        fits[j] = _StepFit(
            mean=reg.mean, std=reg.std,
            coef_p=coef_p,
            coef_q=coef_q.reshape(-1, d, n).transpose(1, 0, 2).copy(),
        )

    sup_p_sq = float(max((Pbuf[j] ** 2).sum(axis=-1).mean() for j in range(steps + 1)))
    return AdjointSolution(
        grid=grid,
        p=Pbuf.transpose(1, 0, 2),
        q=Qbuf.transpose(1, 0, 2, 3),
        fits=fits, basis=basis,
        terminal_id=terminal_id, sup_p_sq=sup_p_sq, ensemble=ensemble,
    )


def extend_to_infinite(
    model: ModelSpec,
    u_bar: ControlLaw,
    x0,
    T_report: float,
    T_buffer: float,
    dt: float,
    M: int,
    seed: int,
    basis: Optional[RegressionBasis] = None,
) -> AdjointSolution:
    """Infinite-horizon costate on [0, T_report] via a buffered truncation.

    Solves with zero terminal data on [0, T_report + T_buffer] and discards
    the buffer, where the influence of the artificial terminal condition has
    decayed exponentially.  The buffer should span several multiples of the
    dissipation time 1/|c_p|.
    """
    if T_buffer <= 0:
        raise AdjointError("T_buffer must be positive")
    grid = TimeGrid.from_horizon(T_report + T_buffer, dt)
    ensemble = simulate_state(model, u_bar, x0, grid, M, seed)
    full = solve_adjoint_finite(model, ensemble, u_bar, basis=basis, nu=None)
    return full.restricted(T_report)


@dataclass(frozen=True)
class ConsistencyReport:
    """Exponential closeness of two zero-terminal truncations on shared noise."""

    times: np.ndarray          # grid times t <= N
    diff_sq: np.ndarray        # mean |p^N_t - p^M_t|^2
    noise_floor: float         # solver rerun distance on an independent seed
    beta: float                # fitted rate: diff ~ C * exp(-2 beta (N - t))
    prefactor: float
    horizon_short: float
    horizon_long: float
    far_field_max_ratio: float  # max diff/floor over t <= N/2

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "horizon_short": self.horizon_short,
            "horizon_long": self.horizon_long,
            "times": [float(t) for t in self.times],
            "diff_sq": [float(v) for v in self.diff_sq],
            "noise_floor": self.noise_floor,
            "beta": self.beta,
            "prefactor": self.prefactor,
            "far_field_max_ratio": self.far_field_max_ratio,
        }


def check_truncation_consistency(
    model: ModelSpec,
    u_bar: ControlLaw,
    horizon_short: float,
    horizon_long: float,
    dt: float,
    M: int,
    seed: int,
    basis: Optional[RegressionBasis] = None,
    x0=None,
    fit_span: float = 2.0,
) -> ConsistencyReport:
    """Compare zero-terminal solves at two horizons on shared noise.

    Away from the short terminal time the two solutions agree up to solver
    noise; inside the terminal layer the squared gap decays like
    C * exp(-2 beta (N - t)).  The noise floor is measured by re-solving the
    short horizon on an independent ensemble and comparing the fitted
    functions on common states.
    """
    if not 0 < horizon_short < horizon_long:
        raise AdjointError("need 0 < horizon_short < horizon_long")
    if x0 is None:
        x0 = np.zeros(model.n)
    basis = basis or RegressionBasis()
    grid_long = TimeGrid.from_horizon(horizon_long, dt)
    ens = simulate_state(model, u_bar, x0, grid_long, M, seed)
    sol_long = solve_adjoint_finite(model, ens, u_bar, basis=basis)
    ens_short = ens.restricted(horizon_short)
    sol_short = solve_adjoint_finite(model, ens_short, u_bar, basis=basis)

    j_n = ens_short.grid.steps
    diff = sol_short.p[:, : j_n + 1] - sol_long.p[:, : j_n + 1]
    diff_sq = (diff**2).sum(axis=-1).mean(axis=0)
    times = np.arange(j_n + 1) * dt

    # Independent-seed rerun measures the solver's own function-space noise.
    grid_short = TimeGrid(dt=dt, steps=j_n)
    ens_alt = simulate_state(model, u_bar, x0, grid_short, M, seed + 1)
    sol_alt = solve_adjoint_finite(model, ens_alt, u_bar, basis=basis)
    probe_steps = [j for j in range(0, j_n, max(1, j_n // 16))]
    floor_samples = []
    for j in probe_steps:
        xj = ens_short.states[:, j]
        gap = sol_alt.evaluate_p(j, xj) - sol_short.evaluate_p(j, xj)
        floor_samples.append((gap**2).sum(axis=-1).mean())
    noise_floor = float(np.median(floor_samples))

    # Fit the terminal layer on times within fit_span of the short horizon,
    # keeping only points safely above the noise floor.
    n_total = horizon_short
    mask = (times > n_total - fit_span) & (times < n_total) & (diff_sq > 30.0 * noise_floor)
    if mask.sum() >= 4:
        slope, intercept = np.polyfit(n_total - times[mask], np.log(diff_sq[mask]), 1)
        beta = float(-slope / 2.0)
        scale = np.exp(intercept)
        with np.errstate(over="ignore"):
            prefactor = float(np.max(diff_sq * np.exp(-slope * (n_total - times))))
        if not np.isfinite(prefactor):
            prefactor = float(scale)
    else:
        beta, prefactor = float("nan"), float("nan")

    far_mask = times <= n_total / 2.0 + 1e-12
    far_field_max_ratio = float(diff_sq[far_mask].max() / max(noise_floor, 1e-300))
    return ConsistencyReport(
        times=times,
        diff_sq=diff_sq,
        noise_floor=noise_floor,
        beta=beta,
        prefactor=prefactor,
        horizon_short=horizon_short,
        horizon_long=horizon_long,
        far_field_max_ratio=far_field_max_ratio,
    )


# ---------------------------------------------------------------------------
# Export


def adjoint_coefficients_dict(sol: AdjointSolution) -> dict:
    """Per-step regression coefficients (standardized feature space)."""
    steps = []
    for j, fit in enumerate(sol.fits):
        steps.append(
            {
                "t": j * sol.grid.dt,
                "feature_mean": fit.mean.tolist(),
                "feature_std": fit.std.tolist(),
                "coef_p": fit.coef_p.tolist(),
                "coef_q": fit.coef_q.tolist(),
            }
        )
    return {
        "schema_version": 1,
        "degree": sol.basis.degree,
        "ridge": sol.basis.ridge,
        "terminal": sol.terminal_id,
        "sup_p_sq": sol.sup_p_sq,
        "dt": sol.grid.dt,
        "steps": steps,
    }


def adjoint_to_csv(sol: AdjointSolution, path: str) -> None:
    """Pathwise dump: path, step, t, p_1..p_n, q^1_1..q^d_n (q blank at the
    terminal step)."""
    n, d = sol.p.shape[2], sol.q.shape[2]
    header = ["path", "step", "t"]
    header += [f"p_{i + 1}" for i in range(n)]
    header += [f"q{i + 1}_{k + 1}" for i in range(d) for k in range(n)]
    _paths_to_csv(path, header, sol.grid.dt, [sol.p, sol.q])
