"""Backward solvers for the adjoint (costate) equation.

The costate pair (p, q^1..q^d) solves, on [0, T],

    p_j = E[ p_{j+1} + dt * (D_xb^T p_{j+1} + sum_i D_xsigma^i^T qhat^i_j
             + D_xf) | X_j ],
    q^i_j = E[ p_{j+1} * dW^i_j / dt | X_j ].

`solve_adjoint_finite` estimates the conditional expectations by
ridge-regularized least squares on polynomial features of the current state
(Gobet, Lemor & Warin 2005).  The basis is fixed: every state monomial of
total degree <= 3, standardized per step, with ridge 1e-8 on all but the
intercept.  sigma is constant, so the D_xsigma^T q term vanishes and q does
not feed back into p: the backward sweep fits p alone, one n-column target
per step.  q_j depends only on X_j, dW_j and p_{j+1}, so its steps are
independent and one time block is fitted at a time (`_q_block`):
`AdjointSolution.q` fits them after the sweep, when first read, and the
duality check inside its sweep, from each block's rows.  A state-dependent
sigma would put q back into the sweep.

A step's design depends on its states alone, so its factors (feature mean
and std, the inverse Cholesky factor of its Gram matrix) are built once per
ensemble and kept in the ensemble's design store, (K^2 + 2K) floats and K
flags per step.  The q fit, the duality check's sweep, solves on
`restricted` views and later solves on the same states read them from there
and only re-form the features; no (K, M) design is kept.
`extend_to_infinite` sweeps its buffer on an ensemble and store of its own,
both released with the buffer's states, so the store it hands on holds the
steps of [0, T_report].

There is one backward recursion, `_pathwise_dual_blocks`.  It walks
backward in time blocks that fit `forward.BLOCK_BYTES`: D_xf and the designs
are stacked per block, and what reads the row above runs per step.  Without
a fit it is the pathwise dual psi (Giles & Glasserman 2006), the p recursion
per path, with p_j = E[psi_j | X_j].  With a fit it is the regression sweep:
each step's row is replaced by its regression on the step's design before
the next row reads it.  The optimizer only sums pairings over steps and
paths, so it reduces psi one block at a time: besides the noise and one
state array it holds block buffers only.  The regression serves the export
and the checks; the duality check also reduces its rows as they pass and
stores no p or q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from .forward import (PathEnsemble, TimeGrid, _block_steps, _check_finite, _paths_to_csv, _simulate_into,
                      _time_blocks, _time_major, simulate_state)
from .model import ControlLaw, ModelSpec, _dot, _Report, _slabs, cost_grad_x, drift_jacT_apply

__all__ = [
    "AdjointError",
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


_DEGREE = 3    # total degree of the state monomials
_RIDGE = 1e-8  # ridge penalty on the standardized non-intercept features
_FLAT = 1e-12  # a feature whose std is below this fraction of its mean is flat


@lru_cache(maxsize=None)
def _monomial_parents(n: int):
    """(earlier row, coordinate) for each monomial row after the constant one,
    in graded-lexicographic order of sorted index tuples.  The coordinate split
    off is the last one of exponent 1 where there is one, so a mixed monomial
    pairs its factors as the product of powers x_i^a * x_j^b does."""
    rows = {(): 0}
    parents = []
    for deg in range(1, _DEGREE + 1):
        for combo in combinations_with_replacement(range(n), deg):
            single = [c for c in combo if combo.count(c) == 1]
            i = single[-1] if single else combo[-1]
            rest = list(combo)
            rest.remove(i)
            parents.append((rows[tuple(rest)], i))
            rows[combo] = len(rows)
    return tuple(parents)


def _feature_count(n: int) -> int:
    return math.comb(n + _DEGREE, _DEGREE)


def _features_t(X: np.ndarray) -> np.ndarray:
    """Monomial design matrix in (features, paths) layout, where per-feature
    reductions run over contiguous memory.  States (M, n) give (K, M); a stack
    of steps (B, M, n) gives (B, K, M).  The degree-1 rows are the coordinate
    columns X[..., i], each one contiguous (..., M) slab of the library's
    component-outermost states (`model._slabs`), written straight into the
    design; every higher monomial is its parent's row times one of them."""
    X = np.atleast_2d(X)
    n = X.shape[-1]
    out = np.empty(X.shape[:-2] + (_feature_count(n), X.shape[-2]))
    out[..., 0, :] = 1.0
    for i in range(n):
        out[..., 1 + i, :] = X[..., i]
    for row, (parent, i) in enumerate(_monomial_parents(n)[n:], start=n + 1):
        np.multiply(out[..., parent, :], out[..., 1 + i, :], out=out[..., row, :])
    return out


def _block_design(ensemble: PathEnsemble, j0: int, j1: int):
    """Standardized ridge designs of the ensemble's steps j0 .. j1-1: the
    design stack Ft (B, K, M) and the inverses (B, K, K) of the Cholesky
    factors L of the Gram matrices Ft Ft^T + ridge (intercept unpenalized),
    so that a fit is coef = L^-T (L^-1 (Ft targets)).

    A step's factors are built once per ensemble (`_step_factors`) and kept
    in its design store; a stored step's design is its features standardized
    with the stored mean and std.  The factors of a step depend on its states
    alone, not on the block, so every fit keeps its bits.  A non-finite state
    builds silently; the solve names its step at the driver."""
    X = _time_major(ensemble.states)[j0:j1]
    store = ensemble._designs
    if "built" not in store:
        # Per step of the root ensemble: feature means, stds and flat flags
        # (steps, K), L^-1 (steps, K, K), and whether the step is built.
        steps, K = store["steps"], _feature_count(X.shape[-1])
        store.update(mean=np.empty((steps, K)), std=np.empty((steps, K)), flat=np.empty((steps, K), dtype=bool),
                     linv=np.empty((steps, K, K)), built=np.zeros(steps, dtype=bool))
    with np.errstate(all="ignore"):
        Ft = _features_t(X)
        new = np.flatnonzero(~store["built"][j0:j1])
        if len(new) == len(Ft):
            _step_factors(Ft, store, j0 + new)  # standardizes Ft in place
            return Ft, store["linv"][j0:j1]
        if len(new):
            _step_factors(Ft[new], store, j0 + new)
        Ft -= store["mean"][j0:j1, :, None]
        Ft /= store["std"][j0:j1, :, None]
        Ft[store["flat"][j0:j1]] = 0.0
    return Ft, store["linv"][j0:j1]


def _step_factors(Ft: np.ndarray, store: dict, steps: np.ndarray) -> None:
    """Build and store the design factors of the grid steps `steps` from
    their raw feature stack Ft (B, K, M), which is standardized in place.

    A feature is flat when its std is below _FLAT times |mean| (or 1e-300):
    its paths share one value up to round-off.  It gets a zero column and
    std 1, so its coefficient is 0; all K columns stay.  A Gram matrix that is not positive
    definite raises at the highest such step, the first one a backward walk
    reaches, and nothing is stored."""
    mean = Ft.mean(axis=-1)
    mean[:, 0] = 0.0
    Ft -= mean[..., None]
    std = np.sqrt((Ft * Ft).mean(axis=-1))
    std[:, 0] = 1.0
    flat = std < np.maximum(_FLAT * np.abs(mean), 1e-300)
    std[flat] = 1.0
    Ft /= std[..., None]
    Ft[flat] = 0.0
    diag = np.arange(1, Ft.shape[1])
    gram = Ft @ Ft.transpose(0, 2, 1)
    gram[:, diag, diag] += _RIDGE
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        for b in range(len(gram) - 1, -1, -1):
            try:
                np.linalg.cholesky(gram[b])
            except np.linalg.LinAlgError as exc:
                raise AdjointError(f"rank-deficient regression at step {steps[b]}") from exc
        raise
    store["mean"][steps], store["std"][steps], store["flat"][steps] = mean, std, flat
    store["linv"][steps] = np.linalg.inv(chol)
    store["built"][steps] = True


def _stored(ensemble: PathEnsemble, name: str, steps: int) -> np.ndarray:
    """Read-only view of the first `steps` rows of a stored design factor."""
    view = ensemble._designs[name][:steps]
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class AdjointSolution:
    """Per-step regression coefficients (standardized feature space) and
    pathwise costate evaluations.  The backward sweep fits p; q and its
    coefficients are fitted from p, the states and the increments when
    first read, and cached.  The grid and the standardization
    (`feature_mean`, `feature_std`) are read from the ensemble and its design
    store."""

    p: np.ndarray             # (M, steps+1, n)
    coef_p: np.ndarray        # (steps, K, n)
    terminal_id: str
    ensemble: PathEnsemble

    def __post_init__(self):
        self.p.setflags(write=False)

    @property
    def grid(self) -> TimeGrid:
        return self.ensemble.grid

    @property
    def feature_mean(self) -> np.ndarray:
        """(steps, K) feature means, a read-only view of the ensemble's design store."""
        return _stored(self.ensemble, "mean", self.grid.steps)

    @property
    def feature_std(self) -> np.ndarray:
        """(steps, K) feature stds, a read-only view of the ensemble's design store."""
        return _stored(self.ensemble, "std", self.grid.steps)

    @cached_property
    def sup_p_sq(self) -> float:
        """Max over this solution's steps of the mean squared costate norm."""
        return float(_dot(self.p, self.p).mean(axis=0).max())

    @cached_property
    def _q_fit(self):
        return _fit_q(self.ensemble, self.p)

    @property
    def q(self) -> np.ndarray:
        """(M, steps, d, n) martingale-increment fit, read-only."""
        return self._q_fit[0]

    @property
    def coef_q(self) -> np.ndarray:
        """(steps, d, K, n) coefficients of the q fit, read-only."""
        return self._q_fit[1]

    def evaluate_p(self, step: int, X: np.ndarray) -> np.ndarray:
        """Fitted costate function of step `step` evaluated at states X."""
        if step >= self.grid.steps:
            raise AdjointError("terminal step has no regression representation")
        ft = _features_t(X)
        Ft = (ft - self.feature_mean[step][:, None]) / self.feature_std[step][:, None]
        return Ft.T @ self.coef_p[step]

    def restricted(self, horizon: float) -> "AdjointSolution":
        """The solution on [0, horizon]; its q is fitted on its own steps."""
        j = self.grid.index_of(horizon)
        return replace(self, p=self.p[:, : j + 1], coef_p=self.coef_p[:j], ensemble=self.ensemble.restricted(horizon))


def solve_adjoint_finite(
    model: ModelSpec,
    ensemble: PathEnsemble,
    u_bar: ControlLaw,
    nu: Optional[np.ndarray] = None,
) -> AdjointSolution:
    """Backward least-squares Monte Carlo solve on the ensemble horizon.

    `nu` is the terminal condition: None for zero, otherwise a finite
    per-path (M, n) array.  The terminal value is imposed exactly.  Fewer
    paths M than features K raise AdjointError: every step's fit is
    rank-deficient.  The sweep is `_pathwise_dual_blocks` with a fit, whose
    rows are copied out of each block.
    """
    nu = _sweep_inputs(model, ensemble, u_bar, nu)
    steps, M, n = ensemble.grid.steps, ensemble.n_paths, model.n
    Pbuf, coef_p = _slabs((steps + 1, M, n)), np.empty((steps, _feature_count(n), n))
    for j0, rows in _pathwise_dual_blocks(model, ensemble, 0, nu, coef_p):
        Pbuf[j0:j0 + len(rows)] = rows
    return AdjointSolution(p=_time_major(Pbuf), coef_p=coef_p,
                           terminal_id="zero" if nu is None else "custom", ensemble=ensemble)


def _sweep_inputs(model: ModelSpec, ensemble: PathEnsemble, u_bar: ControlLaw, nu):
    """The checks of a regression sweep on `ensemble` from the terminal value
    `nu`: the ensemble ran under u_bar, it has at least K paths, and nu is
    None or a finite (M, n) array, returned as a float array."""
    if ensemble.control_id != u_bar.describe():
        raise AdjointError(
            f"ensemble generated under {ensemble.control_id!r}, not {u_bar.describe()!r}"
        )
    M, steps, n = ensemble.n_paths, ensemble.grid.steps, model.n
    K = _feature_count(n)
    if M < K:
        # The ridge would hide it: the centred design has rank at most M.
        raise AdjointError(f"rank-deficient regression from step {steps - 1}: M={M} paths for K={K} features")
    if nu is not None:
        nu = np.asarray(nu, dtype=float)
        if nu.shape != (M, n):
            raise AdjointError(f"nu must have shape ({M}, {n})")
        if not np.isfinite(nu).all():
            raise AdjointError("nu (terminal condition) must be finite")
    return nu


def _q_block(ensemble: PathEnsemble, j0: int, j1: int, p_next: np.ndarray, out: Optional[np.ndarray] = None):
    """The q fit of the steps j0 .. j1-1 from p_next, the costate rows
    p_j0+1 .. p_j1 (B, M, n) in time order: the (B, K, d*n) coefficients and
    the (B, M, d*n) fitted values, written into `out` when it is given.  The
    steps are independent, so the block reads its designs from the
    ensemble's store and fits all its steps with stacked products; a
    non-finite fit raises at its first step."""
    M, d, n, B = ensemble.n_paths, ensemble.d, ensemble.n, j1 - j0
    Ft, Linv = _block_design(ensemble, j0, j1)
    dW = _time_major(ensemble.increments)[j0:j1]
    with np.errstate(all="ignore"):  # checked below, by step
        # C-ordered whatever the layout of p and dW: so Ft @ targets keeps its bits.
        targets = np.multiply(p_next[:, :, None, :], dW[:, :, :, None] / ensemble.grid.dt, order="C")
        c = Linv.transpose(0, 2, 1) @ (Linv @ (Ft @ targets.reshape(B, M, d * n)))
    finite = np.isfinite(c).all(axis=(1, 2))
    if not finite.all():
        raise AdjointError(f"non-finite q regression at step {j0 + int(np.argmin(finite))}")
    return c, np.matmul(Ft.transpose(0, 2, 1), c, out=out)


def _fit_q(ensemble: PathEnsemble, p: np.ndarray):
    """q^i_j = E[p_{j+1} dW^i_j / dt | X_j] on every step of the ensemble,
    from the costate p (M, steps+1, n): the (M, steps, d, n) fitted values
    and the (steps, d, K, n) coefficients, both read-only, fitted per time
    block by `_q_block`."""
    M, steps, n, d = ensemble.n_paths, ensemble.grid.steps, ensemble.n, ensemble.d
    K = _feature_count(n)
    P_tm = _time_major(p)
    Qbuf = np.empty((steps, M, d, n))
    coef = np.empty((steps, K, d, n))
    for j0, j1 in _time_blocks(0, steps, 8 * K * M):
        c, _ = _q_block(ensemble, j0, j1, P_tm[j0 + 1:j1 + 1], Qbuf[j0:j1].reshape(j1 - j0, M, d * n))
        coef[j0:j1] = c.reshape(j1 - j0, K, d, n)
    q, coef_q = Qbuf.transpose(1, 0, 2, 3), coef.transpose(0, 2, 1, 3)
    q.setflags(write=False)
    coef_q.setflags(write=False)
    return q, coef_q


def _pathwise_dual(model: ModelSpec, ensemble: PathEnsemble) -> np.ndarray:
    """psi_j = psi_{j+1} + dt * (D_xb(X_j)^T psi_{j+1} + D_xf(X_j)), psi_N = 0,
    on a new time-major (steps+1, M, n) `_slabs` buffer.  It is the exact
    discrete adjoint of `simulate_affine_dual`: per path, <psi_j0, eta> +
    sum_{j>=j0} <psi_{j+1}, gamma_j dt + rho_j dW_j> = dt sum_{j>=j0}
    <Y_j, D_xf(X_j)>.

    The rows of `_pathwise_dual_blocks`, gathered into one array."""
    psi = _slabs(_time_major(ensemble.states).shape)
    psi[-1] = 0.0
    for j0, rows in _pathwise_dual_blocks(model, ensemble, 0):
        psi[j0:j0 + len(rows) - 1] = rows[:-1]
    return psi


def _pathwise_dual_blocks(model: ModelSpec, ensemble: PathEnsemble, stop: int, nu=None, coef=None):
    """The recursion of `_pathwise_dual` run backward in time blocks of
    BLOCK_BYTES of rows, from psi_N = nu (None: 0) down to row `stop`:
    yields (j0, rows) per block, rows (j1 - j0 + 1, M, n) holding psi_j0 ..
    psi_j1, where psi_j1 is carried from the block before.

    The rows are a view into one block buffer that the next block
    overwrites, so a reduction of psi holds (block + 1) rows.  Each row is
    built in place, one ufunc call per scalar operation:
    psi_j = D_xb^T psi_{j+1}, then += D_xf, *= dt, += psi_{j+1}.

    Given a (len, K, n) array `coef`, this is the regression sweep of
    `solve_adjoint_finite`: each row, the target p_{j+1} + dt * driver, is
    replaced in place by its ridge fit on the step's design before the next
    row reads it, and the coefficients of each block within len(coef) go to
    coef[j0:j1].  The blocks then hold (K, M) designs, as `_block_design`
    builds them.  Finiteness is checked once per block, on its coefficients:
    a non-finite driver makes its step's fit non-finite, so the highest
    failing step is the first one a per-step check would reach, and its
    driver, recomputed from the fitted row above it, names the cause in the
    AdjointError.  The rows are `_slabs` arrays, and the fit runs in the
    orientations that keep its bits: Ft @ row, and the fitted row as the
    (n, M) slab c^T Ft."""
    X, dt = _time_major(ensemble.states), np.asarray(ensemble.grid.dt)
    steps, (M, n) = len(X) - 1, X.shape[1:]
    block = _block_steps(8 * M * (n if coef is None else _feature_count(n)))
    buf = _slabs((min(block, steps - stop) + 1, M, n))
    buf[0] = 0.0 if nu is None else nu  # psi_N, carried into the first block's top row
    term = np.empty(M)
    if coef is not None:
        kept = np.empty((min(block, steps - stop), _feature_count(n), n))  # a block's coefficients not stored
    for j1 in range(steps, stop, -block):
        j0 = max(stop, j1 - block)
        rows = buf[:j1 - j0 + 1]
        rows[-1] = buf[0]
        if coef is not None:
            Ft, Linv = _block_design(ensemble, j0, j1)
            cs = coef[j0:j1] if j1 <= len(coef) else kept[:j1 - j0]
        grad_x = cost_grad_x(model, X[j0:j1])
        with np.errstate(all="ignore"):  # checked once per block, below
            for b in range(j1 - j0 - 1, -1, -1):
                row, nxt = rows[b], rows[b + 1]
                drift_jacT_apply(model, X[j0 + b], nxt, row, term)
                np.add(row, grad_x[b], row)
                np.multiply(row, dt, row)
                np.add(row, nxt, row)
                if coef is not None:
                    np.matmul(Linv[b].T, Linv[b] @ (Ft[b] @ row), out=cs[b])
                    np.matmul(cs[b].T, Ft[b], out=row.T)
        if coef is not None:
            _check_fit(model, X, rows, grad_x, cs, j0)
        _check_finite(rows[0], j0, "pathwise dual")
        Ft = Linv = grad_x = cs = None  # released before the next block's are made
        yield j0, rows


def _check_fit(model: ModelSpec, X, rows, grad_x, cs, j0: int) -> None:
    """Raise AdjointError at the highest step of a swept block whose
    coefficients cs (B, K, n) are non-finite: its driver D_xb^T p_j+1 + D_xf,
    recomputed from the fitted row above it, tells a non-finite driver from
    non-finite regression coefficients."""
    finite = np.isfinite(cs).all(axis=(1, 2))
    if finite.all():
        return
    b = int(np.flatnonzero(~finite)[-1])
    with np.errstate(all="ignore"):
        driver = drift_jacT_apply(model, X[j0 + b], rows[b + 1]) + grad_x[b]
    what = "regression coefficients" if np.isfinite(driver).all() else "driver"
    raise AdjointError(f"non-finite {what} at step {j0 + b}")


def _forgetting_buffer(model: ModelSpec, buffer: Optional[float], dt: float) -> float:
    """`buffer`, positive and finite, or for None `ModelSpec.forgetting_time`."""
    buffer = model.forgetting_time(dt) if buffer is None else buffer
    if not 0 < buffer < np.inf:
        raise AdjointError("T_buffer must be positive")
    return buffer


def extend_to_infinite(
    model: ModelSpec,
    u_bar: ControlLaw,
    x0,
    T_report: float,
    T_buffer: Optional[float],
    dt: float,
    M: int,
    seed: int,
) -> AdjointSolution:
    """Infinite-horizon costate on [0, T_report] via a buffered truncation.

    Solves with zero terminal data on [0, T_report + T_buffer] and discards
    the buffer, where the influence of the artificial terminal condition has
    decayed exponentially; None is `ModelSpec.forgetting_time`, ln(100)/|c_p|.
    The buffer is scaffolding that lives only through its own sweep: one
    noise stream runs the states of [0, T_report] and of the buffer into two
    arrays, the buffer's are swept on their own ensemble and design store
    down to the fitted p at T_report and released, and only then is [0,
    T_report] solved from that row.  Every stored bit is the full solve's
    restricted to [0, T_report] (a failure in the buffer's sweep names its
    step counted from T_report).  The solution's ensemble is the report
    ensemble; it holds no noise until its increments are read (the q fit
    reads them).
    """
    grid = TimeGrid.from_horizon(T_report + _forgetting_buffer(model, T_buffer, dt), dt)
    report_grid = TimeGrid(dt=grid.dt, steps=grid.index_of(T_report))
    head = _slabs((report_grid.steps + 1, M, model.n))
    tail = _slabs((grid.steps - report_grid.steps + 1, M, model.n))
    _simulate_into(model, u_bar, x0, grid, M, seed, (head, tail))
    # The buffer's ensemble is read for its states only: its seed's noise is
    # not the buffer's.  Its sweep stores no row but the fitted p at
    # T_report, and no coefficient.
    buffer = PathEnsemble(grid=TimeGrid(dt=grid.dt, steps=len(tail) - 1), states=_time_major(tail), seed=int(seed),
                          control_id=u_bar.describe(), d=model.d)
    _sweep_inputs(model, buffer, u_bar, None)
    for _, rows in _pathwise_dual_blocks(model, buffer, 0, None, np.empty((0, _feature_count(model.n), model.n))):
        pass
    p_T = rows[0].copy()
    del tail, buffer, rows  # the buffer's states and design store go before p is allocated
    report = PathEnsemble(grid=report_grid, states=_time_major(head), seed=int(seed), control_id=u_bar.describe(),
                          d=model.d)
    return replace(solve_adjoint_finite(model, report, u_bar, p_T), terminal_id="zero")


@dataclass(frozen=True)
class ConsistencyReport(_Report):
    """Exponential closeness of two zero-terminal truncations on shared noise."""

    times: np.ndarray          # grid times t <= N
    diff_sq: np.ndarray        # mean |p^N_t - p^M_t|^2
    noise_floor: float         # solver rerun distance on an independent seed
    beta: float                # fitted rate: diff ~ C * exp(-2 beta (N - t)); NaN if unfitted
    prefactor: float           # C; NaN (null in JSON) with beta
    horizon_short: float
    horizon_long: float
    far_field_max_ratio: float  # max diff/floor over t <= N/2


_FIT_SPAN = 2.0  # width of the terminal layer the decay rate is fitted on


def check_truncation_consistency(
    model: ModelSpec,
    u_bar: ControlLaw,
    horizon_short: float,
    horizon_long: float,
    dt: float,
    M: int,
    seed: int,
    x0=None,
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
    grid_long = TimeGrid.from_horizon(horizon_long, dt)
    ens = simulate_state(model, u_bar, x0, grid_long, M, seed)
    sol_long = solve_adjoint_finite(model, ens, u_bar)
    ens_short = ens.restricted(horizon_short)
    sol_short = solve_adjoint_finite(model, ens_short, u_bar)

    j_n = ens_short.grid.steps
    diff = sol_short.p[:, : j_n + 1] - sol_long.p[:, : j_n + 1]
    diff_sq = _dot(diff, diff).mean(axis=0)
    times = np.arange(j_n + 1) * dt

    # Independent-seed rerun measures the solver's own function-space noise.
    grid_short = TimeGrid(dt=dt, steps=j_n)
    ens_alt = simulate_state(model, u_bar, x0, grid_short, M, seed + 1)
    sol_alt = solve_adjoint_finite(model, ens_alt, u_bar)
    probe_steps = [j for j in range(0, j_n, max(1, j_n // 16))]
    floor_samples = []
    for j in probe_steps:
        xj = ens_short.states[:, j]
        gap = sol_alt.evaluate_p(j, xj) - sol_short.evaluate_p(j, xj)
        floor_samples.append((gap**2).sum(axis=-1).mean())
    noise_floor = float(np.median(floor_samples))

    # Fit the terminal layer on times within _FIT_SPAN of the short horizon,
    # keeping only points safely above the noise floor.
    n_total = horizon_short
    mask = (times > n_total - _FIT_SPAN) & (times < n_total) & (diff_sq > 30.0 * noise_floor)
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
    steps = [
        {
            "t": j * sol.grid.dt,
            "feature_mean": sol.feature_mean[j].tolist(),
            "feature_std": sol.feature_std[j].tolist(),
            "coef_p": sol.coef_p[j].tolist(),
            "coef_q": sol.coef_q[j].tolist(),
        }
        for j in range(sol.grid.steps)
    ]
    return {
        "schema_version": 1,
        "degree": _DEGREE,
        "ridge": _RIDGE,
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
