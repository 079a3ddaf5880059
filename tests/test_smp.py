import tracemalloc

import numpy as np
import pytest

from ergosmp import (
    ControlLaw,
    ConvexSet,
    ModelSpec,
    SimulationError,
    TimeGrid,
    candidate_battery,
    check_sufficiency,
    evaluate_variational_inequality,
    extend_to_infinite,
    hamiltonian,
    optimize_control,
    simulate_state,
    verify_duality_infinite,
)
from ergosmp import adjoint, ergodic_cost, forward, smp
from ergosmp.adjoint import AdjointError
from ergosmp.duality import verify_duality_probes
from ergosmp.ergodic_cost import ergodic_report_from_ensemble
from ergosmp.forward import _block_steps, _time_major
from ergosmp.model import cost_grad_u, drift_jacU_T_apply
from ergosmp.smp import _convexity_bound, _grad_u_batch


def _zero_cost_model():
    return ModelSpec.lq(A=[[-1.0]], B=[[1.0]], S=[[1.0]], Q=[[0.0]], R=[[0.0]],
                        control_set=ConvexSet.box([-5.0], [5.0]))


def test_hamiltonian_arithmetic(lq1):
    assert hamiltonian(lq1, [0.0], [0.0], [0.0], [[0.0]]) == 0.0
    assert hamiltonian(lq1, [1.0], [1.0], [1.0], [[0.0]]) == pytest.approx(2.0)
    assert hamiltonian(lq1, [1.0], [0.0], [1.0], [[1.0]]) == pytest.approx(1.0)


def test_grad_examples(lq1, riccati_p):
    # D_u H reads neither x nor q
    assert _grad_u_batch(lq1, np.array([[0.0]]), np.array([[1.0]]))[0, 0] == pytest.approx(1.0)
    # stationarity at the Riccati-consistent triple (p = 2 P x, u = -P x)
    xs = np.array([[-2.0], [0.7], [1.3]])
    g = _grad_u_batch(lq1, -riccati_p * xs, 2 * riccati_p * xs)
    assert np.abs(g).max() < 1e-12


@pytest.mark.parametrize("family", ["lq1", "cubic1"])
def test_grad_matches_finite_differences(family, lq1, cubic1):
    model = lq1 if family == "lq1" else cubic1
    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(100):
        x = 2 * rng.standard_normal(model.n)
        u = model.control_set.sample(rng, 1)[0]
        p = rng.standard_normal(model.n)
        q = rng.standard_normal((model.d, model.n))
        grad = _grad_u_batch(model, u[None, :], p[None, :])[0]
        for i in range(model.l):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd = (hamiltonian(model, x, up, p, q) - hamiltonian(model, x, um, p, q)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


def test_battery_is_admissible(lq1):
    ubar = ControlLaw.affine([[-0.4]], [0.0], lq1.control_set)
    battery = candidate_battery(lq1, ubar, seed=5)
    names = [name for name, _ in battery]
    assert "sign-flip" in names and "const(+1)" in names
    xs = np.linspace(-10, 10, 41)[:, None]
    for _, law in battery:
        u = law.evaluate(xs)
        assert np.all(u >= -5.0) and np.all(u <= 5.0)


def test_vi_zero_direction(lq1, lq1_zero):
    reports = evaluate_variational_inequality(
        lq1, lq1_zero, [("self", lq1_zero)], 6.0, 512, 3, dt=0.01, buffer=2.0)
    rep = reports[0]
    assert all(v == 0.0 for _, v in rep.checkpoints)
    assert rep.verdict == "consistent"


def test_vi_ladder_recomputed_from_costate(lq1):
    law = ControlLaw.affine([[-0.4]], [0.1], lq1.control_set)
    battery = candidate_battery(lq1, law, seed=2)
    T, dt, M = 3.0, 0.02, 256
    adjoint = extend_to_infinite(lq1, law, np.zeros(1), T, 1.0, dt, M, 6)
    reports = evaluate_variational_inequality(lq1, law, battery, T, M, 6, dt=dt, adjoint=adjoint)
    # lq1: D_u H = p + 2u on the box [-5, 5].
    X = np.asarray(adjoint.ensemble.states)[:, :-1]
    u_bar = np.clip(-0.4 * X + 0.1, -5.0, 5.0)
    grad = np.asarray(adjoint.p)[:, :-1] + 2.0 * u_bar
    for (name, cand), rep in zip(battery, reports):
        u = cand.const if cand.kind == "constant" else X @ cand.gain.T + cand.offset
        pairing = (grad * (np.clip(u, -5.0, 5.0) - u_bar)).sum(axis=-1)
        cum = np.concatenate([[0.0], np.cumsum(pairing.mean(axis=0))]) * dt
        ts = np.array([t for t, _ in rep.checkpoints])
        assert ts[-1] == pytest.approx(T)
        np.testing.assert_allclose([v for _, v in rep.checkpoints], cum[np.round(ts / dt).astype(int)] / ts,
                                   rtol=1e-12, atol=1e-12, err_msg=name)
        final = dt * pairing.sum(axis=1) / T
        assert rep.ci == pytest.approx(1.96 * final.std(ddof=1) / np.sqrt(M), rel=1e-12)


def test_vi_needs_tail_checkpoints(lq1, lq1_zero):
    with pytest.raises(SimulationError, match="tail window"):
        evaluate_variational_inequality(lq1, lq1_zero, [("self", lq1_zero)], 0.05, 64, 3, dt=0.01, buffer=0.5)


def test_vi_rejects_costate_off_the_grid(lq1, lq1_zero):
    # a costate on [0, 4] at dt 0.05 does not carry a ladder on [0, 100] at dt
    # 0.01, nor one on [0, 2] or at another dt on [0, 4]
    adjoint = extend_to_infinite(lq1, lq1_zero, np.zeros(1), 4.0, 1.0, 0.05, 64, 3)
    battery = [("self", lq1_zero)]
    for T_max, dt in ((100.0, 0.01), (4.0, 0.01), (2.0, 0.05)):
        with pytest.raises(SimulationError, match="grid"):
            evaluate_variational_inequality(lq1, lq1_zero, battery, T_max, 64, 3, dt=dt, adjoint=adjoint)
    reports = evaluate_variational_inequality(lq1, lq1_zero, battery, 4.0, 64, 3, dt=0.05, adjoint=adjoint)
    assert reports[0].checkpoints[-1][0] == pytest.approx(4.0)


def test_vi_rejects_costate_of_another_law(lq1, lq1_zero):
    # a costate solved under u = 0 is not the costate of u = -0.4142 x
    adjoint = extend_to_infinite(lq1, lq1_zero, np.zeros(1), 4.0, 1.0, 0.05, 64, 3)
    law = ControlLaw.affine([[-0.4142]], [0.0], lq1.control_set)
    with pytest.raises(SimulationError, match="generated under"):
        evaluate_variational_inequality(lq1, law, candidate_battery(lq1, law), 4.0, 64, 3, dt=0.05,
                                        adjoint=adjoint)


def test_vi_flags_suboptimal_zero_control(lq1, lq1_zero):
    battery = candidate_battery(lq1, lq1_zero, seed=5)
    reports = evaluate_variational_inequality(
        lq1, lq1_zero, battery, 12.0, 4096, 17, dt=0.01, buffer=3.0)
    by_name = {r.direction_id: r for r in reports}
    # oracle: direction K x pairs to K * E[X^2] = 0.5 K under p = X
    gain_neg = by_name["gain(-0.5)"]
    assert gain_neg.verdict == "violated"
    assert abs(gain_neg.tail_min - (-0.25)) < 0.08
    assert min(r.tail_min for r in reports) <= -0.1
    assert any(r.verdict == "violated" for r in reports)


def test_vi_consistent_at_riccati(lq1, riccati_p):
    law = ControlLaw.affine([[-riccati_p]], [0.0], lq1.control_set)
    battery = candidate_battery(lq1, law, seed=5)
    reports = evaluate_variational_inequality(
        lq1, law, battery, 12.0, 4096, 17, dt=0.01, buffer=3.0)
    assert min(r.tail_min for r in reports) >= -0.02
    assert all(r.verdict == "consistent" for r in reports)


def _cubic2ball(Q=np.eye(2)):
    return ModelSpec.cubic([1.0, 0.5], A=[[-1.0, 0.3], [0.0, -0.5]], B=[[1.0, 0.0], [0.5, 1.0]],
                           S=[[0.8, 0.0], [0.2, 0.6]], Q=Q, R=np.eye(2), control_set=ConvexSet.ball([0.1, -0.1], 0.6))


def _fd_min_eigen(model, x, u, p, h=1e-4):
    """Smallest eigenvalue of the central-difference (x, u)-Hessian of
    `hamiltonian` at (x, u, p) and a random q, which it must not read."""
    n, dim = model.n, model.n + model.l
    q = np.random.default_rng(41).standard_normal((model.d, n))
    z0 = np.concatenate([x, u])

    def H(z):
        return hamiltonian(model, z[:n], z[n:], p, q)

    fd = np.empty((dim, dim))
    for i in range(dim):
        for k in range(dim):
            ei, ek = np.eye(dim)[i] * h, np.eye(dim)[k] * h
            fd[i, k] = (H(z0 + ei + ek) - H(z0 + ei - ek) - H(z0 - ei + ek) + H(z0 - ei - ek)) / (4 * h * h)
    return float(np.linalg.eigvalsh(0.5 * (fd + fd.T)).min())


@pytest.mark.parametrize("family", ["lq1", "cubic1", "lq3", "cubic2ball", "cubic2ball-coupled"])
def test_exact_hessian_matches_central_differences(family, lq1, cubic1, lq3):
    """The closed-form convexity bound over a solved costate against the
    central-difference Hessian of `hamiltonian`: equal to its smallest
    eigenvalue at the extremal (path, step), the one of the largest
    alpha_k x_k p_k, where the bound is exact (LQ, n = 1), and never above
    the eigenvalue at any (path, step) otherwise (Weyl).  cubic2ball's
    Q = I still makes it exact at the extremal state; with a coupled Q it
    lies strictly below."""
    model = {"lq1": lq1, "cubic1": cubic1, "lq3": lq3, "cubic2ball": _cubic2ball(),
             "cubic2ball-coupled": _cubic2ball([[2.0, 0.5], [0.5, 1.0]])}[family]
    law = model.zero_control()
    sol = extend_to_infinite(model, law, np.ones(model.n), 2.0, 1.0, 0.02, 256, seed=5)
    X, P = sol.ensemble.states[:, :-1], sol.p[:, :-1]
    bound = _convexity_bound(model, X, P)
    score = (model.alpha * X * P).max(axis=-1)
    i, j = np.unravel_index(np.argmax(score), score.shape)
    u = np.zeros(model.l)
    extremal = _fd_min_eigen(model, X[i, j], u, P[i, j])
    if family == "cubic2ball-coupled":
        assert bound < extremal - 0.1
    else:
        assert abs(bound - extremal) < 1e-5
    rng = np.random.default_rng(7)
    for i, j in zip(rng.integers(0, 256, 8), rng.integers(0, X.shape[1], 8)):
        assert bound <= _fd_min_eigen(model, X[i, j], u, P[i, j]) + 1e-5


def test_buffers_default_to_the_forgetting_time(lq1, lq1_zero):
    buffer = lq1.forgetting_time(0.05)
    one, gain = ControlLaw.constant([1.0], lq1.control_set), ControlLaw.affine([[0.0]], [0.0], lq1.control_set)
    for fn, args in ((evaluate_variational_inequality, (lq1, lq1_zero, [("one", one)], 2.0, 64, 1)),
                     (check_sufficiency, (lq1, lq1_zero, 2.0, 64, 1)),
                     (optimize_control, (lq1, gain, 0.5, 1, 2.0, 64, 1))):
        derived, given = fn(*args, dt=0.05), fn(*args, dt=0.05, buffer=buffer)
        assert [r.to_dict() for r in np.atleast_1d(derived)] == [r.to_dict() for r in np.atleast_1d(given)]
    sol = extend_to_infinite(lq1, lq1_zero, [1.0], 2.0, None, 0.05, 64, 1)
    assert np.array_equal(sol.p, extend_to_infinite(lq1, lq1_zero, [1.0], 2.0, buffer, 0.05, 64, 1).p)
    rep = verify_duality_infinite(lq1, lq1_zero, 0.0, 1.0, eta="one", T_report=2.0, M=64, seed=1, dt=0.05)
    assert rep.config["T_buffer"] == buffer
    probes = verify_duality_probes(lq1, lq1_zero, 2.0, M=64, seed=1, dt=0.05, infinite=True)
    assert {rep.config["T_buffer"] for rep in probes.values()} == {buffer}


@pytest.mark.parametrize("buffer", [-0.5, 0.0, np.nan, np.inf])
def test_buffers_must_be_positive_and_finite(lq1, lq1_zero, buffer):
    # Every entry point that takes a buffer rejects one that is not positive
    # and finite, with one message, before simulating.
    gain = ControlLaw.affine([[0.0]], [0.0], lq1.control_set)
    one = ControlLaw.constant([1.0], lq1.control_set)
    calls = [
        lambda: extend_to_infinite(lq1, lq1_zero, [1.0], 2.0, buffer, 0.05, 64, 1),
        lambda: verify_duality_infinite(lq1, lq1_zero, 0.0, 1.0, T_report=2.0, T_buffer=buffer, M=64, seed=1,
                                        dt=0.05),
        lambda: optimize_control(lq1, gain, 0.5, 1, 2.0, 64, 1, dt=0.05, buffer=buffer),
        lambda: evaluate_variational_inequality(lq1, lq1_zero, [("one", one)], 2.0, 64, 1, dt=0.05, buffer=buffer),
        lambda: check_sufficiency(lq1, lq1_zero, 2.0, 64, 1, dt=0.05, buffer=buffer),
    ]
    for call in calls:
        with pytest.raises(AdjointError, match="^T_buffer must be positive$"):
            call()


def test_sufficiency_certifies_riccati(lq1, riccati_p):
    law = ControlLaw.affine([[-riccati_p]], [0.0], lq1.control_set)
    rep = check_sufficiency(lq1, law, 12.0, 4096, 17, dt=0.01, buffer=3.0)
    assert rep.verdict == "certified"
    assert abs(rep.convexity_min_eigen - 2.0) < 0.01  # Hessian of x^2+u^2 terms
    assert rep.minimality_tail >= -0.02


def test_sufficiency_horizon_quarter_off_grid(lq1, riccati_p):
    # T_max / 4 = 0.625 is not a multiple of dt = 0.01; the convexity
    # window starts at the nearest grid index instead.
    law = ControlLaw.affine([[-riccati_p]], [0.0], lq1.control_set)
    rep = check_sufficiency(lq1, law, 2.5, 256, 3, dt=0.01, buffer=1.0)
    assert abs(rep.convexity_min_eigen - 2.0) < 0.01


def test_sufficiency_affine_hamiltonian_passes(lq1_zero):
    model = _zero_cost_model()
    rep = check_sufficiency(model, lq1_zero, 4.0, 512, 3, dt=0.01, buffer=2.0)
    assert abs(rep.convexity_min_eigen) <= rep.eigen_tolerance
    assert rep.verdict == "certified"


def test_sufficiency_rejects_bad_cubic_feedback(cubic1):
    bad = ControlLaw.affine([[0.5]], [0.0], cubic1.control_set)
    rep = check_sufficiency(cubic1, bad, 10.0, 2048, 23, dt=0.01, buffer=3.0)
    assert rep.verdict == "not-certified"
    assert rep.minimality_tail < -rep.tolerance


# ---------------------------------------------------------------------------
# Optimizer


def test_optimizer_requires_feedback_law(lq1, lq1_one):
    with pytest.raises(SimulationError):
        optimize_control(lq1, lq1_one, 0.5, 2, 5.0, 64, 3, dt=0.01)
    zero_affine = ControlLaw.affine([[0.0]], [0.0], lq1.control_set)
    for gamma in (-0.5, np.nan):
        with pytest.raises(SimulationError):
            optimize_control(lq1, zero_affine, gamma, 1, 5.0, 64, 3, dt=0.01)


def test_optimizer_zero_gradient_keeps_params(lq1_zero):
    model = _zero_cost_model()
    init = ControlLaw.affine([[0.3]], [0.1], model.control_set)
    res = optimize_control(model, init, 0.5, 3, 4.0, 256, 3, dt=0.01, buffer=1.0)
    assert res.best.gain[0, 0] == 0.3
    assert res.best.offset[0] == 0.1
    assert all(row["grad_norm"] == 0.0 for row in res.trace)


def test_optimizer_stays_near_riccati_optimum(lq1, riccati_p):
    init = ControlLaw.affine([[-riccati_p]], [0.0], lq1.control_set)
    res = optimize_control(lq1, init, 0.5, 10, 10.0, 2048, 7, dt=0.01, buffer=2.0)
    assert abs(res.best.gain[0, 0] + riccati_p) < 0.03


def test_optimizer_converges_from_zero(lq1, riccati_p):
    init = ControlLaw.affine([[0.0]], [0.0], lq1.control_set)
    res = optimize_control(lq1, init, 0.5, 15, 12.0, 2048, 7, dt=0.01, buffer=2.0)
    assert abs(res.best.gain[0, 0] + riccati_p) < 0.05
    # contrapositive: the violated necessary condition at u = 0 guarantees
    # a strict improvement of the cost tail within 10 iterations
    starts = res.trace[0]
    within10 = min(row["cost_tail"] for row in res.trace[1:11])
    assert within10 < starts["cost_tail"] - max(starts["ci"], 1e-4)
    # descent sanity: running best is non-increasing up to CI
    best_so_far = np.inf
    for row in res.trace:
        assert row["cost_tail"] <= best_so_far + 2 * row["ci"] + 5e-3 or row["gamma"] < 0.5
        best_so_far = min(best_so_far, row["cost_tail"])


def test_optimizer_tabulated(lq1):
    edges = np.linspace(-3.0, 3.0, 13)
    init = ControlLaw.tabulated(edges, np.zeros((12, 1)), lq1.control_set)
    res = optimize_control(lq1, init, 0.4, 8, 10.0, 2048, 11, dt=0.01, buffer=2.0)
    assert res.best.kind == "tabulated_feedback"
    first = res.trace[0]["cost_tail"]
    assert min(row["cost_tail"] for row in res.trace) < first - 0.02
    # learned bin values approximate the optimal feedback inside the core bins
    centers = 0.5 * (edges[:-1] + edges[1:])
    core = np.abs(centers) <= 1.5
    fitted = res.best.bin_values[:, 0]
    slope = np.polyfit(centers[core], fitted[core], 1)[0]
    assert -0.6 < slope < -0.25


def test_optimizer_draws_noise_once(lq1, monkeypatch):
    # Every draw of the noise opens a stream of `_noise_blocks`, the whole
    # grid's at once or block by block.
    draws = []
    stream = forward._noise_blocks

    def counting(*args):
        draws.append(args)
        return stream(*args)

    for module in (forward, ergodic_cost):
        monkeypatch.setattr(module, "_noise_blocks", counting)
    init = ControlLaw.affine([[0.0]], [0.0], lq1.control_set)
    res = optimize_control(lq1, init, 0.5, 4, 3.0, 128, 7, dt=0.02, buffer=1.0)
    assert len(draws) == 1 and len(res.trace) == 4
    # Each iteration's cost row is the one of its law simulated afresh.
    grid = TimeGrid.from_horizon(4.0, 0.02)
    for row in res.trace:
        law = ControlLaw.affine(row["gain"], row["offset"], lq1.control_set)
        ens = simulate_state(lq1, law, [0.0], grid, 128, 7)
        report = ergodic_report_from_ensemble(lq1, ens.restricted(3.0), law)
        assert (row["cost_tail"], row["ci"]) == (report.tail_max, report.ci)


def test_optimizer_prices_each_iterate_in_its_own_pass(lq1, monkeypatch):
    # Per iteration the law sees each state of [0, T + buffer) once, as the
    # step applies it and the cost report reads it, and the pooled states of
    # [1, T) once more for the gradient: M * (60 + 20) rows at dt = 0.05.
    rows = []
    evaluate = ControlLaw.evaluate

    def counting(self, x, out=None):
        rows.append(np.prod(np.shape(x)[:-1]))
        return evaluate(self, x, out=out)

    monkeypatch.setattr(ControlLaw, "evaluate", counting)
    init = ControlLaw.affine([[0.0]], [0.0], lq1.control_set)
    res = optimize_control(lq1, init, 0.5, 2, 2.0, 16, 7, dt=0.05, buffer=1.0)
    assert sum(rows) == len(res.trace) * 16 * (60 + 20)


@pytest.mark.parametrize("gain", [0.0, -1.0])
def test_optimizer_gradient_slope_oracle(lq1, monkeypatch, gain):
    # Under u = Kx on lq1 the costate is p = 2x/(2 - K), so the pooled fit of
    # D_u H = p + 2u has slope W = 2/(2 - K) + 2K: 1 at K = 0, -4/3 at K = -1.
    fits = []
    fit = smp._fit_affine_gradient

    def recording(gram, rhs):
        fits.append(fit(gram, rhs))
        return fits[-1]

    monkeypatch.setattr(smp, "_fit_affine_gradient", recording)
    init = ControlLaw.affine([[gain]], [0.0], lq1.control_set)
    optimize_control(lq1, init, 0.5, 1, 10.0, 2048, 7, dt=0.01, buffer=2.0)
    (W, _), = fits
    assert abs(W[0, 0] - (2.0 / (2.0 - gain) + 2.0 * gain)) < 0.03


def test_optimizer_makes_no_regression(lq1, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the optimizer must not run the regression solve")

    for module in (adjoint, smp):
        monkeypatch.setattr(module, "solve_adjoint_finite", forbidden, raising=False)
    for init in (ControlLaw.affine([[0.0]], [0.0], lq1.control_set),
                 ControlLaw.tabulated(np.linspace(-2.0, 2.0, 5), np.zeros((4, 1)), lq1.control_set)):
        res = optimize_control(lq1, init, 0.5, 2, 3.0, 128, 7, dt=0.02, buffer=1.0)
        assert len(res.trace) == 2


def test_optimizer_singular_pool_is_a_typed_error(lq1):
    # Without noise, the zero law keeps every state at x0 = 0, so the pooled
    # design [1, x] has a zero column.
    still = ModelSpec.lq(A=lq1.A, B=lq1.B, S=[[0.0]], Q=lq1.Q, R=lq1.R, control_set=lq1.control_set)
    init = ControlLaw.affine([[0.0]], [0.0], lq1.control_set)
    with pytest.raises(SimulationError, match="iteration 0: the pooled states span no affine direction"):
        optimize_control(still, init, 0.5, 2, 2.0, 64, 1, dt=0.05, buffer=1.0)


def _pool_law(family, model):
    if family == "cubic1":
        return ControlLaw.tabulated(np.linspace(-1.5, 1.5, 7), np.linspace(0.3, -0.3, 6)[:, None], model.control_set)
    return ControlLaw.affine(-0.3 * np.eye(model.l, model.n), np.full(model.l, 0.1), model.control_set)


@pytest.mark.parametrize("family", ["lq1", "lq3", "cubic1"])
def test_streamed_pool_matches_the_materialized_one(family, lq1, lq3, cubic1):
    # The old pool: G from the full psi array, then one least-squares solve
    # or per-bin means over all of it.  The pool spans several time blocks
    # of the dual sweep, and its lowest row lies inside one.
    model = {"lq1": lq1, "lq3": lq3, "cubic1": cubic1}[family]
    law, n = _pool_law(family, model), model.n
    M, grid = 512, TimeGrid.from_horizon(6.0 + 2.0, 0.01)
    j_burn, j_top = grid.index_of(1.0), grid.index_of(6.0)
    block = _block_steps(8 * M * n)
    assert j_top - j_burn > 2 * block and (grid.steps - j_burn - 1) % block
    ens = simulate_state(model, law, np.zeros(n), grid, M, seed=5)
    a, b = smp._pooled_gradient(model, law, ens, j_burn, j_top)

    psi = adjoint._pathwise_dual(model, ens)
    x = _time_major(ens.states)[j_burn:j_top].reshape(-1, n)
    G = drift_jacU_T_apply(model, psi[j_burn + 1:j_top + 1].reshape(-1, n)) + cost_grad_u(model, law.evaluate(x))

    def close(got, ref):
        return np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    if law.kind == "affine_feedback":
        design = np.hstack([np.ones((len(x), 1)), x])
        coef = np.linalg.solve(design.T @ design, design.T @ G)
        W, w = smp._fit_affine_gradient(a, b)
        assert close(W, coef[1:].T) and close(w, coef[0])
    else:
        idx = law._bin_index(x[:, 0])
        assert np.array_equal(b, np.bincount(idx, minlength=len(law.bin_values)))
        seen = b > 0
        assert seen.sum() >= 4
        ref = np.array([G[idx == k].mean(axis=0) for k in np.flatnonzero(seen)])
        assert close(a[seen] / b[seen, None], ref)


@pytest.mark.parametrize("family", ["lq1", "cubic1"])
def test_optimizer_holds_the_noise_and_one_state_array(family, lq1, cubic1):
    # Beyond the noise and one state array, an iteration holds time blocks
    # only: no psi, G or design of the pool and no previous iterate's states.
    model = {"lq1": lq1, "cubic1": cubic1}[family]
    init = _pool_law(family, model)
    M, buffer, dt = 512, 2.0, 0.01
    optimize_control(model, init, 0.5, 1, 2.0, 64, 1, dt=dt, buffer=buffer)  # warm caches
    excess = []
    for T in (6.0, 12.0):
        tracemalloc.start()
        try:
            optimize_control(model, init, 0.5, 3, T, M, 7, dt=dt, buffer=buffer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps = round((T + buffer) / dt)
        excess.append(peak - (8 * M * steps * model.d + 8 * M * (steps + 1) * model.n))
    assert max(excess) <= 6 << 20
    assert excess[1] - excess[0] < 1 << 20


def test_multidim_smoke():
    model = ModelSpec.lq(
        A=[[-1.0, 0.1], [0.0, -1.5]], B=[[1.0, 0.0], [0.0, 1.0]],
        S=[[0.7, 0.0], [0.0, 0.7]], Q=np.eye(2), R=np.eye(2),
        control_set=ConvexSet.box([-4.0, -4.0], [4.0, 4.0]),
    )
    zero = model.zero_control()
    battery = candidate_battery(model, zero, seed=2)
    battery = battery[:6] + battery[-1:]  # two of the random gains, as drawn first
    reports = evaluate_variational_inequality(
        model, zero, battery, 4.0, 512, 5, dt=0.02, buffer=1.0, x0=np.zeros(2))
    assert len(reports) == len(battery)
    assert any(r.verdict == "violated" for r in reports)
    init = ControlLaw.affine(np.zeros((2, 2)), np.zeros(2), model.control_set)
    res = optimize_control(model, init, 0.4, 3, 4.0, 512, 5, dt=0.02, buffer=1.0)
    assert res.best.gain.shape == (2, 2)
    assert np.isfinite(res.best.gain).all()
