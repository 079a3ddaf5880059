import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from ergosmp import (
    AdjointError,
    ControlLaw,
    ConvexSet,
    ModelSpec,
    TimeGrid,
    build_gamma,
    build_rho,
    check_sufficiency,
    check_truncation_consistency,
    evaluate_variational_inequality,
    extend_to_infinite,
    simulate_state,
    solve_adjoint_finite,
    verify_duality_finite,
)
import ergosmp.adjoint
import ergosmp.duality
from ergosmp.adjoint import (_RIDGE, _feature_count, _features_t, _pathwise_dual, _pathwise_dual_blocks,
                             adjoint_coefficients_dict, adjoint_to_csv)
from ergosmp.ergodic_cost import verify_expansion_residual
from ergosmp.forward import _block_steps, _time_major, simulate_affine_dual
from ergosmp.model import cost_grad_u, cost_grad_x, drift_jacT_apply, drift_jacU_apply


def _zero_cost_model():
    return ModelSpec.lq(A=[[-1.0]], B=[[1.0]], S=[[1.0]], Q=[[0.0]], R=[[0.0]],
                        control_set=ConvexSet.box([-5.0], [5.0]))


def test_basis_feature_count():
    assert _feature_count(1) == 4
    assert _feature_count(2) == 10
    assert _feature_count(3) == 20
    feats = _features_t(np.array([[2.0]]))
    assert feats[:, 0].tolist() == [1.0, 2.0, 4.0, 8.0]


def test_basis_order_and_values_n2_degree3():
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    # graded-lexicographic order, exact on integer states
    assert _features_t(np.array([[2.0, 3.0]]))[:, 0].tolist() == [
        float(2**a * 3**b) for a, b in exps]
    X = np.random.default_rng(11).standard_normal((4096, 2)) * 2.0
    ref = np.array([np.prod([X[:, i] ** k for i, k in enumerate(e)], axis=0) for e in exps])
    ft = _features_t(X)
    assert ft.shape == (10, 4096)
    assert np.all(np.abs(ft - ref) <= np.spacing(np.abs(ref)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_features_of_a_stack_match_per_step_and_path_prefix(n):
    # built from a contiguous (..., n, M) copy: a time-major stack or a view
    # gives per-step features, and the first k paths equal the k-path call
    stack = np.random.default_rng(12).standard_normal((5, 97, n)) * 2.0
    for X in (stack, stack.transpose(1, 0, 2)[:, 1:4].transpose(1, 0, 2)):
        ft = _features_t(X)
        assert ft.tobytes() == np.stack([_features_t(x) for x in X]).tobytes()
        assert _features_t(X[:, :30]).tobytes() == ft[..., :30].tobytes()


def test_zero_cost_gives_zero_adjoint(lq1_zero, lq1_base8):
    model = _zero_cost_model()
    sol = solve_adjoint_finite(model, lq1_base8, lq1_zero)
    assert np.all(sol.p == 0.0)
    assert np.all(sol.q == 0.0)
    assert sol.sup_p_sq == 0.0


def test_terminal_condition_exact(lq1, lq1_zero, lq1_base8):
    sol = solve_adjoint_finite(lq1, lq1_base8, lq1_zero)
    assert np.all(sol.p[:, -1] == 0.0)
    nu = lq1_base8.states[:, -1].copy()
    sol2 = solve_adjoint_finite(lq1, lq1_base8, lq1_zero, nu=nu)
    assert np.array_equal(sol2.p[:, -1], nu)
    assert sol2.terminal_id == "custom"
    nu[3] = np.nan
    with pytest.raises(AdjointError, match=r"nu \(terminal condition\) must be finite"):
        solve_adjoint_finite(lq1, lq1_base8, lq1_zero, nu=nu)


def test_lq1_bounded_solution_oracle(lq1, lq1_zero, lq1_base8):
    # the bounded costate for u = 0 is p_t = X_t, q_t = 1
    sol = solve_adjoint_finite(lq1, lq1_base8, lq1_zero)
    p0 = sol.p[:, 0, 0].mean()
    assert abs(p0 - 1.0) < 0.05
    js = range(100, 700, 20)
    slopes = [np.cov(sol.p[:, j, 0], lq1_base8.states[:, j, 0])[0, 1]
              / np.var(lq1_base8.states[:, j, 0]) for j in js]
    qs = [sol.q[:, j, 0, 0].mean() for j in js]
    assert abs(np.mean(slopes) - 1.0) < 0.05
    assert abs(np.mean(qs) - 1.0) < 0.1


def test_riccati_feedback_slope(lq1, riccati_p):
    law = ControlLaw.affine([[-riccati_p]], [0.0], lq1.control_set)
    sol = extend_to_infinite(lq1, law, [0.0], 8.0, 4.0, 0.01, 4096, seed=15)
    ens = sol.ensemble
    js = range(100, 700, 20)
    slopes = [np.cov(sol.p[:, j, 0], ens.states[:, j, 0])[0, 1]
              / np.var(ens.states[:, j, 0]) for j in js]
    assert abs(np.mean(slopes) - 2 * riccati_p) < 0.05


def test_solver_requires_matching_control(lq1, lq1_one, lq1_base8):
    with pytest.raises(AdjointError):
        solve_adjoint_finite(lq1, lq1_base8, lq1_one)


def test_rank_deficiency_reports_step(lq1, lq1_zero, monkeypatch):
    # A positive ridge keeps the Gram matrix of centred features positive
    # definite, so only an unpenalized fit reaches the error.  M = K paths
    # pass the path-count check; at step 0 they all sit at x0, so the centred
    # features vanish and only that step's Gram matrix is singular.
    monkeypatch.setattr(ergosmp.adjoint, "_RIDGE", 0.0)
    tiny = simulate_state(lq1, lq1_zero, [1.0], TimeGrid(dt=0.1, steps=3), _feature_count(1), seed=1)
    with pytest.raises(AdjointError, match="rank-deficient regression at step 0$"):
        solve_adjoint_finite(lq1, tiny, lq1_zero)


@pytest.mark.parametrize("family,M", [("lq1", 2), ("lq1", 3), ("lq3", 19)])
def test_fewer_paths_than_features_raises(family, M, lq1, lq3):
    # The ridge keeps such a Gram matrix positive definite, so the solve
    # checks M against K = C(n + 3, 3) before it fits.
    model = {"lq1": lq1, "lq3": lq3}[family]
    law = model.zero_control()
    ens = simulate_state(model, law, np.full(model.n, 0.5), TimeGrid(dt=0.1, steps=3), M, seed=1)
    K = _feature_count(model.n)
    with pytest.raises(AdjointError, match=f"M={M} paths for K={K} features"):
        solve_adjoint_finite(model, ens, law)
    wide = simulate_state(model, law, np.full(model.n, 0.5), TimeGrid(dt=0.1, steps=3), K, seed=1)
    assert np.isfinite(solve_adjoint_finite(model, wide, law).p).all()


def _per_step_ridge_reference(model, ens):
    """Costate by one plain ridge least-squares fit per step, backward: the
    standardized monomials of X_j, normal equations solved by np.linalg.solve."""
    M, steps, n, d, dt = ens.n_paths, ens.grid.steps, model.n, model.d, ens.grid.dt
    p, q = np.zeros((M, steps + 1, n)), np.zeros((M, steps, d, n))
    for j in range(steps - 1, -1, -1):
        x, p_next = ens.states[:, j], p[:, j + 1]
        F = _features_t(x).T
        mean = F.mean(axis=0)
        mean[0] = 0.0
        std = np.sqrt(((F - mean) ** 2).mean(axis=0))
        std[0] = 1.0
        std[std < 1e-300] = 1.0
        F = (F - mean) / std
        penalty = _RIDGE * np.eye(F.shape[1])
        penalty[0, 0] = 0.0
        driver = p_next @ model.A - 3.0 * model.alpha * x**2 * p_next + 2.0 * x @ model.Q
        targets = np.concatenate([p_next[:, None, :] * ens.increments[:, j, :, None] / dt,
                                  (p_next + dt * driver)[:, None, :]], axis=1)
        coef = np.linalg.solve(F.T @ F + penalty, F.T @ targets.reshape(M, -1))
        fitted = (F @ coef).reshape(M, d + 1, n)
        q[:, j], p[:, j] = fitted[:, :d], fitted[:, d]
    return p, q


@pytest.mark.parametrize("family, M, steps, tol", [
    ("lq1", 512, 300, 1e-12), ("cubic1", 512, 300, 1e-12), ("lq3", 512, 60, 1e-6)])
def test_blocked_solve_matches_per_step_reference(family, M, steps, tol):
    if family == "lq3":
        model = ModelSpec.lq(A=[[-1.0, 0.4, 0.0], [0.0, -1.2, 0.4], [0.0, 0.0, -0.8]],
                             B=[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], S=[[0.6, 0.0], [0.3, 0.5], [0.0, 0.4]],
                             Q=np.eye(3), R=np.eye(2), control_set=ConvexSet.box([-5.0, -5.0], [5.0, 5.0]))
        law = ControlLaw.affine([[-0.4, -0.1, 0.0], [0.0, -0.05, -0.3]], [0.1, 0.0], model.control_set)
    else:
        model = getattr(ModelSpec, family)()
        law = ControlLaw.affine([[-0.4]], [0.1], model.control_set)
    ens = simulate_state(model, law, np.full(model.n, 0.7), TimeGrid(dt=0.02, steps=steps), M, seed=3)
    assert steps > 2 * _block_steps(8 * _feature_count(model.n) * M)  # several time blocks
    sol = solve_adjoint_finite(model, ens, law)
    p, q = _per_step_ridge_reference(model, ens)
    assert np.abs(sol.p - p).max() <= tol * max(1.0, np.abs(p).max())
    assert np.abs(sol.q - q).max() <= tol * max(1.0, np.abs(q).max())


def test_q_is_fitted_only_when_read(lq1, lq1_zero, monkeypatch):
    fits = []  # the steps of every q fit, one entry per step fitted
    q_block = ergosmp.adjoint._q_block

    def counting(ensemble, j0, j1, *args):
        fits.extend(range(j0, j1))
        return q_block(ensemble, j0, j1, *args)

    for module in (ergosmp.adjoint, ergosmp.duality):
        monkeypatch.setattr(module, "_q_block", counting)
    one = ControlLaw.constant([1.0], lq1.control_set)
    verify_duality_finite(lq1, lq1_zero, 0.0, 1.0, eta="one", M=64, seed=1, dt=0.05)
    evaluate_variational_inequality(lq1, lq1_zero, [("one", one)], 2.0, 64, 1, dt=0.05, buffer=0.5)
    check_sufficiency(lq1, lq1_zero, 2.0, 64, 1, dt=0.05, buffer=0.5)
    assert fits == []
    ens = simulate_state(lq1, lq1_zero, [1.0], TimeGrid(dt=0.05, steps=20), 64, seed=1)
    sol = solve_adjoint_finite(lq1, ens, lq1_zero)
    assert fits == []
    q, coef_q = sol.q, sol.coef_q
    assert sol.q is q and sol.coef_q is coef_q and sorted(fits) == list(range(20))
    assert q.shape == (64, 20, 1, 1) and coef_q.shape == (20, 1, 4, 1)
    assert not q.flags.writeable and not coef_q.flags.writeable
    # noise forcing pairs with q, so the duality check fits it in its sweep
    rho = build_rho(ens, 1, 1, {0: [1.0]})
    verify_duality_finite(lq1, lq1_zero, 0.0, 1.0, eta="one", rho=rho, base=ens, dt=0.05)
    assert sorted(fits) == sorted(2 * list(range(20)))


def test_non_finite_increment_fails_only_the_q_fit(lq1, lq1_zero):
    # p never reads the increments; q's targets do, and each step's fit is
    # its own, so the error names the first bad step of the block.
    ens = simulate_state(lq1, lq1_zero, [1.0], TimeGrid(dt=0.05, steps=20), 64, seed=2)
    dW = ens.increments.copy()
    dW[5, 12, 0] = np.inf
    dW[9, 7, 0] = np.nan
    sol = solve_adjoint_finite(lq1, dataclasses.replace(ens, noise=dW), lq1_zero)
    assert np.array_equal(sol.p, solve_adjoint_finite(lq1, ens, lq1_zero).p)
    with pytest.raises(AdjointError, match="non-finite q regression at step 7$"):
        sol.q


def test_martingale_residual_orthogonality(lq1, lq1_zero, lq1_base8):
    sol = solve_adjoint_finite(lq1, lq1_base8, lq1_zero)
    dt = lq1_base8.grid.dt
    for j in (150, 400):
        xj = lq1_base8.states[:, j]
        raw = _features_t(xj).T
        F = (raw - sol.feature_mean[j]) / sol.feature_std[j]
        p_next = sol.p[:, j + 1]
        driver = drift_jacT_apply(lq1, xj, p_next) + cost_grad_x(lq1, xj)
        resid = (p_next + dt * driver) - F @ sol.coef_p[j]
        moment = F.T @ resid  # normal equations: F^T r = ridge * D * coef
        expected = _RIDGE * sol.coef_p[j]
        expected[0] = 0.0
        assert np.max(np.abs(moment - expected)) < 1e-7
        # the q fit of the same step solves its own normal equations
        resid_q = p_next * (lq1_base8.increments[:, j, 0, None] / dt) - F @ sol.coef_q[j, 0]
        expected_q = _RIDGE * sol.coef_q[j, 0]
        expected_q[0] = 0.0
        assert np.max(np.abs(F.T @ resid_q - expected_q)) < 1e-7


def test_lq_regressions_are_affine(lq1, lq1_zero, lq1_base8):
    sol = solve_adjoint_finite(lq1, lq1_base8, lq1_zero)
    for j in range(200, 600, 40):
        c = sol.coef_p[j][:, 0]
        assert abs(c[2]) <= 0.05 * abs(c[1])
        assert abs(c[3]) <= 0.05 * abs(c[1])


def test_boundedness_no_growth_when_horizon_doubles(lq1, lq1_zero):
    e6 = simulate_state(lq1, lq1_zero, [1.0], TimeGrid(dt=0.01, steps=600), 2048, seed=6)
    e12 = simulate_state(lq1, lq1_zero, [1.0], TimeGrid(dt=0.01, steps=1200), 2048, seed=6)
    s6 = solve_adjoint_finite(lq1, e6, lq1_zero)
    s12 = solve_adjoint_finite(lq1, e12, lq1_zero)
    assert s12.sup_p_sq <= 1.15 * s6.sup_p_sq


# ---------------------------------------------------------------------------
# Infinite-horizon construction


def test_extend_zero_cost(lq1_zero):
    model = _zero_cost_model()
    sol = extend_to_infinite(model, lq1_zero, [1.0], 2.0, 1.0, 0.01, 256, seed=3)
    assert np.all(sol.p == 0.0)
    assert sol.grid.horizon == pytest.approx(2.0)


def test_extend_matches_bounded_solution(lq1, lq1_zero):
    sol = extend_to_infinite(lq1, lq1_zero, [1.0], 8.0, 4.0, 0.01, 8192, seed=5)
    probes = np.array([[-1.5], [-1.0], [0.5], [1.0], [1.5]])
    # probe only once the state distribution has spread over the probe range
    for x in probes:
        devs = [abs(sol.evaluate_p(j, x[None])[0, 0] - x[0])
                for j in range(100, sol.grid.steps, 20)]
        assert np.mean(devs) < 0.05
        assert max(devs) < 0.25
    # at t = 0 the paths sit at x0, where the fit must match the bounded solution
    assert abs(sol.evaluate_p(0, np.array([[1.0]]))[0, 0] - 1.0) < 0.05


def test_buffer_extension_decays(lq1, lq1_zero):
    long = simulate_state(lq1, lq1_zero, [1.0], TimeGrid(dt=0.01, steps=1200), 2048, seed=8)
    sols = {b: solve_adjoint_finite(lq1, long.restricted(8.0 + b), lq1_zero)
            for b in (1.0, 2.0, 4.0)}
    ref = sols[4.0]
    j_report = 801
    gaps = {}
    for b in (1.0, 2.0):
        gaps[b] = ((sols[b].p[:, :j_report] - ref.p[:, :j_report]) ** 2).sum(-1).mean(0).max()
    assert gaps[2.0] < gaps[1.0]
    rate = np.log(gaps[1.0] / gaps[2.0])  # per unit of added buffer
    assert rate > 0.0


def test_extend_validates_buffer(lq1, lq1_zero):
    with pytest.raises(AdjointError):
        extend_to_infinite(lq1, lq1_zero, [1.0], 2.0, 0.0, 0.01, 64, seed=3)


# ---------------------------------------------------------------------------
# Truncation consistency


def test_consistency_zero_cost(lq1_zero):
    model = _zero_cost_model()
    rep = check_truncation_consistency(model, lq1_zero, 2.0, 4.0, 0.02, 512, seed=3)
    assert np.all(rep.diff_sq == 0.0)
    # no terminal layer to fit: the rate is unavailable, written as null
    assert np.isnan(rep.beta)
    assert rep.to_dict()["beta"] is None and rep.to_dict()["prefactor"] is None


def test_consistency_lq_decay_rate(lq1, lq1_zero):
    rep = check_truncation_consistency(lq1, lq1_zero, 6.0, 12.0, 0.02, 4096, seed=3, x0=[1.0])
    # closed form: diff ~ (1-e^-12)^2 e^{-4(6-t)} E|X_t|^2, i.e. beta = 2
    assert 1.0 <= rep.beta <= 3.0
    assert rep.far_field_max_ratio <= 10.0
    assert rep.noise_floor > 0.0
    # fitted envelope dominates the measured decay on the fit window
    ts, diffs = rep.times, rep.diff_sq
    mask = ts > 4.0
    envelope = rep.prefactor * np.exp(-2 * rep.beta * (6.0 - ts[mask]))
    assert np.all(diffs[mask] <= envelope * (1 + 1e-9))


def test_consistency_validates_horizons(lq1, lq1_zero):
    with pytest.raises(AdjointError):
        check_truncation_consistency(lq1, lq1_zero, 6.0, 6.0, 0.01, 64, seed=3)


# ---------------------------------------------------------------------------
# Design store


def _lq3_law(lq3):
    return ControlLaw.affine([[-0.4, -0.1, 0.0], [0.0, -0.05, -0.3]], [0.1, 0.0], lq3.control_set)


def _solution_arrays(sol):
    return [sol.p, sol.coef_p, sol.q, sol.coef_q, sol.feature_mean, sol.feature_std]


def _assert_bitwise(a, b):
    for x, y in zip(_solution_arrays(a), _solution_arrays(b)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _count_builds(monkeypatch):
    """The grid steps whose design factors get built, one entry per build."""
    built = []
    step_factors = ergosmp.adjoint._step_factors

    def counting(Ft, store, steps):
        built.extend(steps.tolist())
        return step_factors(Ft, store, steps)

    monkeypatch.setattr(ergosmp.adjoint, "_step_factors", counting)
    return built


@pytest.mark.parametrize("restricted_first", [True, False])
def test_each_step_design_is_built_once_per_ensemble(restricted_first, lq3, monkeypatch):
    # 6-step time blocks, so the restricted solve on [0, 0.8] and the long one
    # on [0, 1.2] split blocks between built and unbuilt steps.
    law, M, dt = _lq3_law(lq3), 512, 0.02
    assert _block_steps(8 * _feature_count(3) * M) == 6
    built = _count_builds(monkeypatch)
    ens = simulate_state(lq3, law, np.full(3, 0.5), TimeGrid.from_horizon(1.2, dt), M, seed=4)
    if restricted_first:
        solve_adjoint_finite(lq3, ens.restricted(0.8), law)
    sol = solve_adjoint_finite(lq3, ens, law).restricted(1.0)
    sol.q
    gamma = build_gamma(sol.ensemble, 3, value=np.ones(3), t_start=0.2, t_end=0.6)
    verify_duality_finite(lq3, law, 0.0, 1.0, eta="one", gamma=gamma, dt=dt, base=sol.ensemble)
    solve_adjoint_finite(lq3, sol.ensemble.restricted(0.8), law).q
    assert sorted(built) == list(range(ens.grid.steps))


def test_extend_to_infinite_hands_on_its_built_designs(lq3, monkeypatch):
    # The report's 50 steps are built in its store, which the solution hands
    # on, and the buffer's 10 in a store of their own: every step of
    # [0, 1.2] is built exactly once.
    law, M, dt = _lq3_law(lq3), 512, 0.02
    builds = []  # (store, step) per build; the stores are held, so no id is reused
    step_factors = ergosmp.adjoint._step_factors

    def counting(Ft, store, steps):
        builds.extend((store, j) for j in steps.tolist())
        return step_factors(Ft, store, steps)

    monkeypatch.setattr(ergosmp.adjoint, "_step_factors", counting)
    sol = extend_to_infinite(lq3, law, np.full(3, 0.5), 1.0, 0.2, dt, M, seed=4)
    sol.q
    gamma = build_gamma(sol.ensemble, 3, value=np.ones(3), t_start=0.2, t_end=0.6)
    verify_duality_finite(lq3, law, 0.0, 1.0, eta="one", gamma=gamma, dt=dt, base=sol.ensemble)
    solve_adjoint_finite(lq3, sol.ensemble.restricted(0.8), law)
    report = sol.ensemble._designs
    others = [store for store, _ in builds if store is not report]
    assert sorted(j for store, j in builds if store is report) == list(range(50))
    assert all(store is others[0] for store in others)
    assert sorted(j for store, j in builds if store is not report) == list(range(10))


def test_extend_to_infinite_is_the_full_solve_restricted(lq3):
    # 6-step time blocks, so the reported horizon (step 50 of 65) falls
    # inside a block of the sweep.
    law, M, dt, x0 = _lq3_law(lq3), 512, 0.02, np.full(3, 0.5)
    sol = extend_to_infinite(lq3, law, x0, 1.0, 0.3, dt, M, seed=4)
    ens = simulate_state(lq3, law, x0, TimeGrid.from_horizon(1.3, dt), M, seed=4)
    full = solve_adjoint_finite(lq3, ens, law)
    _assert_bitwise(sol, full.restricted(1.0))
    assert sol.terminal_id == full.terminal_id == "zero"
    assert sol.grid.steps == sol.ensemble.grid.steps == len(sol.coef_p) == 50


def test_extend_to_infinite_keeps_no_noise_or_buffer_rows(lq3):
    # What stays alive is the states on [0, T], p on [0, T] and the report's
    # design store.  The noise (3.3 MB), the buffer's states (2.5 MB) and
    # its p rows (2.5 MB) would each exceed the 1 MB slack.
    law, M, dt = _lq3_law(lq3), 512, 0.01
    tracemalloc.start()
    try:
        sol = extend_to_infinite(lq3, law, np.full(3, 0.5), 2.0, 2.0, dt, M, seed=4)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    states = p = 8 * M * 201 * 3
    assert sol.p.nbytes == p and sol.ensemble.states.base.nbytes == states
    designs = sum(a.nbytes for a in sol.ensemble._designs.values() if isinstance(a, np.ndarray))
    assert kept <= states + p + designs + (1 << 20)


def test_extend_to_infinite_peaks_at_the_larger_of_its_phases(lq3):
    # The buffer's states live only through their own sweep, and p is made
    # after they are released: the peak is the larger of (report and buffer
    # states) and (report states and p), plus the design factors of all 800
    # steps and 1 MB.  Buffer states held through the report's sweep would
    # add 2.5 MB.
    law, M, dt = _lq3_law(lq3), 512, 0.01
    np.random.Philox  # numpy.random is imported before tracing
    tracemalloc.start()
    try:
        sol = extend_to_infinite(lq3, law, np.full(3, 0.5), 6.0, 2.0, dt, M, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report, buffer, p = 8 * M * 601 * 3, 8 * M * 201 * 3, sol.p.nbytes
    store = sum(a.nbytes for a in sol.ensemble._designs.values() if isinstance(a, np.ndarray))
    designs = store * 800 // 600  # the buffer's 200 steps had a store of the same size per step
    assert peak <= max(report + buffer, report + p) + designs + (1 << 20)


@pytest.mark.parametrize("family", ["lq1", "cubic1", "lq3"])
def test_shared_store_solves_equal_independent_ones(family, lq1, cubic1, lq3):
    model = {"lq1": lq1, "cubic1": cubic1, "lq3": lq3}[family]
    if family == "lq3":
        law, M = _lq3_law(lq3), 512
    else:
        law, M = ControlLaw.affine([[-0.4]], [0.1], model.control_set), 2048
    assert _block_steps(8 * _feature_count(model.n) * M) < 10  # several blocks
    ens = simulate_state(model, law, np.full(model.n, 0.7), TimeGrid(dt=0.02, steps=60), M, seed=3)
    # The short solve builds steps 0..44, so the long one meets blocks of
    # built and unbuilt steps; the last solve reads every step from the store.
    short_shared = solve_adjoint_finite(model, ens.restricted(0.9), law)
    long_shared = solve_adjoint_finite(model, ens, law)
    mid_shared = solve_adjoint_finite(model, ens.restricted(0.5), law)
    # dataclasses.replace starts an empty store, so each of these builds its own.
    own = [dataclasses.replace(ens, states=ens.states.copy()) for _ in range(3)]
    assert all(e._designs is not ens._designs for e in own)
    _assert_bitwise(short_shared, solve_adjoint_finite(model, own[0].restricted(0.9), law))
    long_own = solve_adjoint_finite(model, own[1], law)
    _assert_bitwise(long_shared, long_own)
    _assert_bitwise(long_shared.restricted(0.5), long_own.restricted(0.5))
    _assert_bitwise(mid_shared, solve_adjoint_finite(model, own[2].restricted(0.5), law))
    assert not long_shared.feature_mean.flags.writeable and not long_shared.feature_std.flags.writeable


def test_replaced_states_get_a_fresh_store(lq1, lq1_zero):
    grid = TimeGrid(dt=0.05, steps=20)
    ens = simulate_state(lq1, lq1_zero, [1.0], grid, 64, seed=1)
    other = simulate_state(lq1, lq1_zero, [-0.5], grid, 64, seed=2)
    solve_adjoint_finite(lq1, ens, lq1_zero).q  # fills ens's store
    swapped = dataclasses.replace(ens, states=other.states, noise=other.increments)
    _assert_bitwise(solve_adjoint_finite(lq1, swapped, lq1_zero), solve_adjoint_finite(lq1, other, lq1_zero))


def test_round_off_spread_is_a_flat_feature(lq1):
    # Every path starts at 0.7, so the step-0 features have stds of
    # round-off (1.1e-16, 5.6e-17); standardizing them would fit round-off.
    law = ControlLaw.affine([[-0.4]], [0.0], lq1.control_set)
    ens = simulate_state(lq1, law, [0.7], TimeGrid.from_horizon(2.0, 0.01), 96, seed=3)
    sol = solve_adjoint_finite(lq1, ens, law)
    assert np.all(sol.coef_p[0, 1:] == 0.0)
    assert np.all(sol.feature_std[0] == 1.0)
    fitted = sol.p[0, 0]
    assert np.all(sol.p[:, 0] == fitted)
    assert np.array_equal(sol.evaluate_p(0, np.array([[0.8], [0.7], [-3.0]])), np.tile(fitted, (3, 1)))
    assert np.all(sol.coef_p[1, 1:2] != 0.0)  # the paths spread from step 1 on
    assert np.all(sol.coef_q[0][..., 1:, :] == 0.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_state_fails_at_its_driver_without_warning(bad, lq1, lq1_zero):
    ens = simulate_state(lq1, lq1_zero, [1.0], TimeGrid(dt=0.05, steps=20), 64, seed=2)
    states = ens.states.copy()
    states[3, 12] = bad
    broken = dataclasses.replace(ens, states=states)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):  # the second solve reads the stored designs
            with pytest.raises(AdjointError, match="non-finite driver at step 12$"):
                solve_adjoint_finite(lq1, broken, lq1_zero)


@pytest.mark.parametrize("plant,message", [
    ({(3, 12): 1e200, (5, 5): np.inf}, "non-finite regression coefficients at step 12$"),
    ({(3, 12): 1e308, (5, 5): 1e200}, "non-finite driver at step 12$"),
], ids=["features-overflow", "driver-overflow"])
def test_planted_overflow_names_the_highest_failing_step(plant, message, lq1, lq1_zero):
    # The sweep checks its coefficients once per block (here one block of 20
    # steps), yet names the step and cause a per-step check would: 1e200
    # overflows the cubic features at step 12 with a finite driver, 1e308
    # overflows the driver 2 Q x, and the lower planted step is not reached.
    ens = simulate_state(lq1, lq1_zero, [1.0], TimeGrid(dt=0.05, steps=20), 64, seed=2)
    states = ens.states.copy()
    for index, value in plant.items():
        states[index] = value
    broken = dataclasses.replace(ens, states=states)
    with pytest.raises(AdjointError, match=message), np.errstate(over="ignore"):
        solve_adjoint_finite(lq1, broken, lq1_zero)


# ---------------------------------------------------------------------------
# Export and views


def test_restricted_solution_alignment(lq1, lq1_zero, lq1_base8):
    sol = solve_adjoint_finite(lq1, lq1_base8, lq1_zero)
    sub = sol.restricted(4.0)
    assert sub.grid.steps == 400
    assert np.array_equal(sub.p, sol.p[:, :401])
    assert np.array_equal(sub.q, sol.q[:, :400])
    assert len(sub.coef_p) == 400
    assert sub.ensemble.grid.steps == 400


def test_restricted_sup_p_sq_excludes_the_buffer(cubic1):
    sol = extend_to_infinite(cubic1, cubic1.zero_control(), [0.0], 6.0, 4.0, 0.01, 256, seed=2)
    own = float((sol.p ** 2).sum(axis=-1).mean(axis=0).max())
    assert sol.sup_p_sq == pytest.approx(own, rel=1e-12)
    assert adjoint_coefficients_dict(sol)["sup_p_sq"] == sol.sup_p_sq


def test_coefficient_export_and_csv(tmp_path, lq1, lq1_zero):
    ens = simulate_state(lq1, lq1_zero, [1.0], TimeGrid(dt=0.05, steps=10), 64, seed=2)
    sol = solve_adjoint_finite(lq1, ens, lq1_zero)
    obj = adjoint_coefficients_dict(sol)
    assert obj["schema_version"] == 1
    assert len(obj["steps"]) == 10
    assert len(obj["steps"][0]["coef_p"]) == 4
    path = tmp_path / "adj.csv"
    adjoint_to_csv(sol, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "path,step,t,p_1,q1_1"
    assert len(lines) == 1 + 64 * 11
    last = lines[-1].split(",")
    assert last[1] == "10" and last[-1] == ""  # terminal row has no q


# ---------------------------------------------------------------------------
# Pathwise dual


def _feedback(model, gain):
    return ControlLaw.affine(gain * np.eye(model.l, model.n), np.zeros(model.l), model.control_set)


@pytest.mark.parametrize("family", ["cubic1", "lq3"])
def test_pathwise_dual_is_the_adjoint_of_the_linearized_equation(family, cubic1, lq3):
    # Per path: <psi_j0, eta> + sum_{j>=j0} <psi_{j+1}, gamma_j dt + rho_j dW_j>
    #           = dt sum_{j>=j0} <Y_j, D_xf(X_j)>.
    model = cubic1 if family == "cubic1" else lq3
    law = _feedback(model, -0.3)
    grid = TimeGrid(dt=0.01, steps=300)
    M, n, d = 128, model.n, model.d
    ens = simulate_state(model, law, np.ones(n), grid, M, seed=3)
    psi_tm = _pathwise_dual(model, ens)
    assert psi_tm.shape == (grid.steps + 1, M, n) and psi_tm.transpose(2, 0, 1).flags.c_contiguous
    assert np.all(psi_tm[-1] == 0.0)
    psi = _time_major(psi_tm)
    rng = np.random.default_rng(17)
    eta = rng.standard_normal((M, n))
    gamma = rng.standard_normal((M, grid.steps, n))
    rho = rng.standard_normal((M, grid.steps, d, n))
    t0 = 0.5
    j0 = grid.index_of(t0)
    Y = simulate_affine_dual(model, ens, law, t0, eta, gamma=gamma, rho=rho)
    force = grid.dt * gamma + (rho * ens.increments[..., None]).sum(axis=2)
    lhs = (psi[:, j0] * eta).sum(axis=-1) + (psi[:, j0 + 1:] * force[:, j0:]).sum(axis=(1, 2))
    rhs = grid.dt * (Y[:, j0:-1] * cost_grad_x(model, ens.states[:, j0:-1])).sum(axis=(1, 2))
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


@pytest.mark.parametrize("family", ["cubic1", "lq3"])
def test_pathwise_dual_pairing_is_the_linearized_gateaux_value(family, cubic1, lq3):
    model = cubic1 if family == "cubic1" else lq3
    law, alt = _feedback(model, -0.3), ControlLaw.constant(np.ones(model.l), model.control_set)
    T, dt, M, seed = 3.0, 0.01, 128, 5
    x0 = np.ones(model.n)
    ens = simulate_state(model, law, x0, TimeGrid.from_horizon(T, dt), M, seed)
    report = verify_expansion_residual(model, law, alt, [0.5, 0.25], ens)
    psi = _time_major(_pathwise_dual(model, ens))
    U = law.evaluate(ens.states[:, :-1])
    v = alt.evaluate(ens.states[:, :-1]) - U
    pairing = (psi[:, 1:] * drift_jacU_apply(model, v)).sum(axis=-1) + (cost_grad_u(model, U) * v).sum(axis=-1)
    value = dt * pairing.sum(axis=1).mean() / T
    assert abs(value - report.linearized) <= 1e-12 * max(1.0, abs(report.linearized))


@pytest.mark.parametrize("family", ["lq1", "cubic1", "lq3", "cubic2"])
def test_pathwise_dual_matches_per_step_reference(family, lq1, cubic1, lq3):
    # psi_j = psi_{j+1} + dt * (D_xb(X_j)^T psi_{j+1} + D_xf(X_j)), psi_N = 0,
    # one step at a time in broadcast form: bitwise, sign bits too.  256
    # paths take 256 / n-step time blocks, so 300 steps cross a block seam.
    cubic2 = ModelSpec.cubic([1.0, 0.5], A=[[-1.0, 0.3], [0.0, -0.5]], B=[[1.0, 0.0], [0.5, 1.0]],
                             S=[[0.8, 0.0], [0.2, 0.6]], Q=np.eye(2), R=np.eye(2),
                             control_set=ConvexSet.ball([0.1, -0.1], 0.6))
    model = {"lq1": lq1, "cubic1": cubic1, "lq3": lq3, "cubic2": cubic2}[family]
    ens = simulate_state(model, _feedback(model, -0.3), np.ones(model.n), TimeGrid(dt=0.02, steps=300), 256, seed=4)
    X, dt = _time_major(ens.states), ens.grid.dt
    ref = np.empty(X.shape)
    ref[-1] = 0.0
    for j in range(len(X) - 2, -1, -1):
        x, nxt = X[j], ref[j + 1]
        jac_t = nxt @ model.A
        if model.has_cubic:
            jac_t = jac_t - 3.0 * model.alpha * x**2 * nxt
        ref[j] = nxt + dt * (jac_t + 2.0 * (model.Q * x[:, None, :]).sum(axis=-1))
    psi = _pathwise_dual(model, ens)
    assert np.array_equal(psi, ref)
    assert np.array_equal(np.signbit(psi), np.signbit(ref))


@pytest.mark.parametrize("family", ["cubic1", "lq3"])
def test_pathwise_dual_path_prefix_bitwise(family, cubic1, lq3):
    model = cubic1 if family == "cubic1" else lq3
    law = _feedback(model, -0.3)
    grid = TimeGrid(dt=0.01, steps=200)
    full = _pathwise_dual(model, simulate_state(model, law, np.ones(model.n), grid, 1000, seed=9))
    for k in (1, 37):
        part = _pathwise_dual(model, simulate_state(model, law, np.ones(model.n), grid, k, seed=9))
        assert np.array_equal(part, full[:, :k])


@pytest.mark.parametrize("stop", [0, 37, 299])
def test_pathwise_dual_blocks_carry_the_array_rows_bitwise(stop, lq3):
    # 256 paths of lq3 take 85-step blocks, so 300 steps give four; each
    # block's top row is the one carried from the block before.
    ens = simulate_state(lq3, _feedback(lq3, -0.3), np.ones(3), TimeGrid(dt=0.02, steps=300), 256, seed=4)
    psi = _pathwise_dual(lq3, ens)
    seen = []
    for j0, rows in _pathwise_dual_blocks(lq3, ens, stop):
        assert np.array_equal(rows, psi[j0:j0 + len(rows)])
        seen.append((j0, j0 + len(rows) - 1))
    assert seen[0][1] == 300 and seen[-1][0] == stop
    assert all(lo == hi for (lo, _), (_, hi) in zip(seen, seen[1:]))


@pytest.mark.parametrize("family", ["lq1", "lq3"])
def test_fitted_and_pathwise_recursions_share_path_means(family, lq1, lq3):
    # Tower property: the LQ driver is affine in (p, x) and each fit has an
    # unpenalized intercept, so at every step the path mean of the fitted p
    # equals that of psi, to round-off.  A cubic drift breaks the first
    # condition (about 1e-2 on cubic1 at this size).
    model = lq1 if family == "lq1" else lq3
    ens = simulate_state(model, _feedback(model, -0.3), np.ones(model.n), TimeGrid(dt=0.02, steps=300), 512, seed=4)
    p_mean = solve_adjoint_finite(model, ens, _feedback(model, -0.3)).p.mean(axis=0)
    psi_mean = _pathwise_dual(model, ens).mean(axis=1)
    assert np.abs(p_mean - psi_mean).max() <= 1e-12 * np.abs(psi_mean).max()
