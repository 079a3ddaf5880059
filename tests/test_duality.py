import tracemalloc
import warnings

import numpy as np
import pytest

import ergosmp.ergodic_cost
import ergosmp.forward
from ergosmp import (
    AdjointError,
    ControlLaw,
    ConvexSet,
    ModelSpec,
    PathEnsemble,
    SimulationError,
    TimeGrid,
    build_gamma,
    build_rho,
    simulate_state,
    solve_adjoint_finite,
    verify_duality_finite,
    verify_duality_infinite,
)
from ergosmp.adjoint import _feature_count
from ergosmp.duality import _build_eta, verify_duality_probes
from ergosmp.forward import _block_steps, _path_integrals, _time_blocks, _time_major, simulate_affine_dual
from ergosmp.model import _dot, cost_grad_x


def test_all_zero_data(lq1, lq1_zero, lq1_base8):
    rep = verify_duality_finite(lq1, lq1_zero, 0.0, 8.0, eta="zero",
                                M=4096, seed=5, dt=0.01, base=lq1_base8)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.abs_residual == 0.0
    # unexercised identity: the relative residual is unavailable, not 0
    assert np.isnan(rep.rel_residual)
    assert rep.to_dict()["rel_residual"] is None


def test_eta_one_identity(lq1, lq1_zero, lq1_base8):
    rep = verify_duality_finite(lq1, lq1_zero, 0.0, 8.0, eta="one",
                                M=4096, seed=5, dt=0.01, base=lq1_base8)
    # oracle: lhs = E<p_0, 1> with p_0 = X_0 = 1; rhs = int 2 e^{-2s} ds -> 1
    assert abs(rep.lhs - 1.0) < 0.05
    assert abs(rep.rhs - 1.0) < 0.05
    assert rep.rel_residual < 0.05
    # the discrete scheme is exactly mean-consistent for deterministic duals
    assert rep.rel_residual < 1e-10


def test_gamma_forcing_identity(lq1, lq1_zero):
    grid = TimeGrid(dt=0.01, steps=800)
    base = simulate_state(lq1, lq1_zero, [1.0], grid, 4096, seed=7)
    gamma = build_gamma(base, 1, value=[1.0], t_start=0.0, t_end=2.0)
    rep = verify_duality_finite(lq1, lq1_zero, 0.0, 8.0, eta="zero", gamma=gamma,
                                M=4096, seed=7, dt=0.01, base=base)
    oracle = 1.0 - np.exp(-2.0)  # both sides, from the OU mean path
    assert abs(rep.lhs - oracle) < 0.06
    assert abs(rep.rhs - oracle) < 0.06
    assert rep.rel_residual < 0.05


def test_rho_forcing_identity(lq1, lq1_zero):
    grid = TimeGrid(dt=0.01, steps=800)
    base = simulate_state(lq1, lq1_zero, [1.0], grid, 4096, seed=1)
    rho = build_rho(base, 1, 1, {0: [1.0]}, t_start=0.0, t_end=1.0)
    rep = verify_duality_finite(lq1, lq1_zero, 0.0, 8.0, eta="zero", rho=rho,
                                M=4096, seed=1, dt=0.01, base=base)
    # oracle: lhs = E int <q, rho> = 1 (q = 1 on [0,1]); both sides near 1
    assert abs(rep.lhs - 1.0) < 0.08
    assert rep.rel_residual < 0.05


def test_terminal_data_enters_rhs(lq1, lq1_zero, lq1_base8):
    nu = lq1_base8.states[:, -1].copy()
    rep = verify_duality_finite(lq1, lq1_zero, 0.0, 8.0, eta="one", nu=nu,
                                M=4096, seed=5, dt=0.01, base=lq1_base8)
    assert rep.rel_residual < 0.05
    assert rep.config["nu"] == "array"


def test_eta_families(lq1, lq1_zero, lq1_base8):
    m = lq1_base8.n_paths
    assert np.all(_build_eta("zero", lq1_base8, 0.0, 1) == 0.0)
    assert np.all(_build_eta("one", lq1_base8, 0.0, 1) == 1.0)
    state = _build_eta("state", lq1_base8, 2.0, 1)
    assert np.array_equal(state, lq1_base8.states[:, 200])
    custom = _build_eta(np.array([0.5]), lq1_base8, 0.0, 1)
    assert custom.shape == (m, 1)
    with pytest.raises(SimulationError):
        _build_eta("typo", lq1_base8, 0.0, 1)


def test_bilinearity_in_eta(cubic1):
    # nonlinear state: the residual is nondegenerate, and both sides (hence
    # the residual) are exactly linear in eta on shared noise
    zero = cubic1.zero_control()
    grid = TimeGrid(dt=0.01, steps=600)
    base = simulate_state(cubic1, zero, [1.0], grid, 2048, seed=9)
    reps = {}
    for lam in (1.0, 2.0, 10.0):
        reps[lam] = verify_duality_finite(cubic1, zero, 0.0, 6.0, eta=lam * np.ones(1),
                                          M=2048, seed=9, dt=0.01, base=base)
    assert reps[1.0].abs_residual > 1e-6
    for lam in (2.0, 10.0):
        ratio = reps[lam].abs_residual / reps[1.0].abs_residual
        assert abs(ratio - lam) <= 0.1 * lam
        assert np.isclose(reps[lam].lhs, lam * reps[1.0].lhs, rtol=1e-10)
        assert np.isclose(reps[lam].rhs, lam * reps[1.0].rhs, rtol=1e-10)


def test_build_gamma_state_feedback_is_path_local():
    model = ModelSpec.lq(A=-np.eye(3), B=np.eye(3, 1), S=0.5 * np.eye(3), Q=np.eye(3), R=[[1.0]],
                         control_set=ConvexSet.box([-5.0], [5.0]))
    grid = TimeGrid(dt=0.05, steps=20)
    base = simulate_state(model, model.zero_control(), [1.0, -0.5, 0.2], grid, 64, seed=2)
    C = np.array([[0.2, -0.1, 0.0], [0.0, 0.3, 0.1], [0.5, 0.0, -0.4]])
    value = [1.0, 0.0, -1.0]
    gamma = build_gamma(base, 3, value=value, t_start=0.2, t_end=0.6, state_matrix=C)
    expected = np.zeros_like(gamma)
    for j in range(grid.index_of(0.2), grid.index_of(0.6)):
        expected[:, j] = value + base.states[:, j] @ C.T
    np.testing.assert_allclose(gamma, expected, rtol=1e-14, atol=1e-15)
    # the first k paths do not depend on how many paths are in the batch
    head = simulate_state(model, model.zero_control(), [1.0, -0.5, 0.2], grid, 5, seed=2)
    assert np.array_equal(build_gamma(head, 3, value=value, t_start=0.2, t_end=0.6, state_matrix=C), gamma[:5])


def test_build_gamma_without_feedback_is_one_read_only_row_per_step(lq1_base8):
    base = lq1_base8.restricted(2.0)
    gamma = build_gamma(base, 1, value=[1.5], t_start=0.5, t_end=1.25)
    dense = np.zeros((base.n_paths, base.grid.steps, 1))
    dense[:, 50:125] = 1.5
    assert gamma.shape == dense.shape and np.array_equal(gamma, dense)
    assert not gamma.flags.writeable
    assert gamma.strides[0] == 0  # no per-path copies
    fed = build_gamma(base, 1, value=[1.5], t_start=0.5, t_end=1.25, state_matrix=[[0.2]])
    assert fed.flags.writeable and fed.flags.c_contiguous
    dense[:, 50:125] += 0.2 * base.states[:, 50:125]
    assert np.array_equal(fed, dense)


def test_build_rho_is_one_read_only_row_per_step(lq1_base8):
    base = lq1_base8.restricted(2.0)
    rho = build_rho(base, 2, 3, {0: [1.0, -0.5], 2: [0.25, 2.0]}, t_start=0.4, t_end=1.6)
    dense = np.zeros((base.n_paths, base.grid.steps, 3, 2))
    dense[:, 40:160, 0] = [1.0, -0.5]
    dense[:, 40:160, 2] = [0.25, 2.0]
    assert rho.shape == dense.shape and np.array_equal(rho, dense)
    assert not rho.flags.writeable
    assert rho.strides[0] == 0  # no per-path copies
    # one call at the sizes of the check_lq3 workload (M 1024, 900 steps,
    # d 2, n 3) holds a (steps, d, n) row, not a 44 MB per-path array
    grid = TimeGrid(dt=0.01, steps=900)
    big = PathEnsemble(grid=grid, states=np.broadcast_to(np.zeros(3), (1024, 901, 3)),
                       noise=np.broadcast_to(np.zeros(2), (1024, 900, 2)), seed=0,
                       control_id="zero", d=2)
    tracemalloc.start()
    try:
        rho = build_rho(big, 3, 2, {0: np.ones(3), 1: np.ones(3)}, t_start=0.0, t_end=6.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.shape == (1024, 900, 2, 3) and peak < 1 << 20
    assert np.any(rho[:, 599:]) and not np.any(rho[:, 600:])


@pytest.mark.parametrize("infinite", [False, True])
def test_probes_draw_the_noise_once_after_simulating(infinite, lq3, monkeypatch):
    # The base ensemble keeps no noise: simulating streams it once, the q fit
    # of the rho probes draws it once more, and their dual processes read
    # that draw.  Every draw of the noise opens a stream of `_noise_blocks`.
    streams = []
    stream = ergosmp.forward._noise_blocks

    def counting(*args):
        streams.append(args[:4])  # (seed, M, grid, d)
        return stream(*args)

    for module in (ergosmp.forward, ergosmp.ergodic_cost):
        monkeypatch.setattr(module, "_noise_blocks", counting)
    reports = verify_duality_probes(lq3, lq3.zero_control(), 1.0, M=64, seed=3, dt=0.02, infinite=infinite)
    assert {"rho-0", "rho-1"} <= set(reports)
    assert len(streams) == 2 and streams[0] == streams[1]


def test_reversed_forcing_window_is_rejected(lq1_base8):
    # [1.5, 0.5) holds no step: forcing there would silently be no forcing
    with pytest.raises(SimulationError, match="window"):
        build_gamma(lq1_base8, 1, value=[1.0], t_start=1.5, t_end=0.5)
    with pytest.raises(SimulationError, match="window"):
        build_rho(lq1_base8, 1, 1, {0: [1.0]}, t_start=1.5, t_end=0.5)
    with pytest.raises(SimulationError, match="window"):
        build_rho(lq1_base8, 1, 1, {0: [1.0]}, t_start=1.0, t_end=1.0)


NAN, INF = float("nan"), float("inf")

# (id, call on a base ensemble on [0, 8] with dt 0.01, message): the input
# checks of the forcing builders and of grid times, by name.
FORCING_INPUTS = [
    ("duality-gamma-nan", lambda base: build_gamma(base, 1, value=[NAN]), "gamma: value must be finite"),
    ("duality-rho-inf", lambda base: build_rho(base, 1, 1, {0: [INF]}), "rho: channel 0 value must be finite"),
    ("duality-gamma-end-nan", lambda base: build_gamma(base, 1, value=[1.0], t_end=NAN),
     "forcing window [0.0, nan): bounds must be finite"),
    ("duality-rho-end-inf", lambda base: build_rho(base, 1, 1, {0: [1.0]}, t_end=INF),
     "forcing window [0.0, inf): bounds must be finite"),
    ("duality-gamma-reversed", lambda base: build_gamma(base, 1, value=[1.0], t_start=1.5, t_end=0.5),
     "forcing window [1.5, 0.5) is empty: t_end must exceed t_start"),
    ("duality-t-nan", lambda base: base.grid.index_of(NAN), "time nan is not on the grid (dt=0.01, steps=800)"),
]


@pytest.mark.parametrize("call,message", [case[1:] for case in FORCING_INPUTS],
                         ids=[case[0] for case in FORCING_INPUTS])
def test_forcing_inputs_are_checked(lq1_base8, call, message):
    with pytest.raises(SimulationError) as info:
        call(lq1_base8)
    assert str(info.value) == message


@pytest.mark.parametrize("infinite", [False, True], ids=["finite", "infinite"])
def test_probe_reports_equal_single_checks(lq1, infinite):
    """A probe's report is its single check's: the shared base ensemble and
    costate solve change no bit.  Every probe exercises the identity."""
    law, kw = ControlLaw.affine([[-0.4]], [0.1], lq1.control_set), dict(M=128, seed=4, dt=0.02)
    probes = verify_duality_probes(lq1, law, 2.0, infinite=infinite, **kw)
    horizon = 2.0 + lq1.forgetting_time(0.02) if infinite else 2.0
    base = simulate_state(lq1, law, [1.0], TimeGrid.from_horizon(horizon, 0.02), 128, seed=4)
    singles = {"eta-one": (0.0, "one", {}), "eta-state": (1.0, "state", {}),
               "rho-0": (0.0, "zero", {"rho": build_rho(base, 1, 1, {0: [1.0]}, t_end=2.0)})}
    if not infinite:
        singles["gamma"] = (0.0, "zero", {"gamma": build_gamma(base, 1, value=[1.0], t_start=0.5, t_end=1.5)})
    assert sorted(probes) == sorted(singles)
    for name, (t, eta, forcing) in singles.items():
        single = (verify_duality_infinite(lq1, law, t, 2.0, eta, T_report=2.0, T_buffer=None, **forcing, **kw)
                  if infinite else verify_duality_finite(lq1, law, t, 2.0, eta, **forcing, **kw))
        assert probes[name].to_dict() == single.to_dict(), name
        assert single.lhs != 0.0 and single.rhs != 0.0, name


def test_finite_sides_recomputed(lq1):
    law = ControlLaw.affine([[-0.4]], [0.1], lq1.control_set)
    grid = TimeGrid(dt=0.02, steps=150)
    dt, M, j0 = grid.dt, 128, 20
    base = simulate_state(lq1, law, [0.7], grid, M, seed=3)
    gamma = build_gamma(base, 1, value=[1.0], t_start=0.5, t_end=2.0, state_matrix=[[0.2]])
    rho = build_rho(base, 1, 1, {0: [1.0]}, t_start=0.4, t_end=1.6)
    nu = np.full((M, 1), 0.3)
    rep = verify_duality_finite(lq1, law, j0 * dt, 3.0, eta="state", gamma=gamma, rho=rho, nu=nu,
                                dt=dt, base=base)
    X = np.asarray(base.states)
    eta = X[:, j0]
    sol = solve_adjoint_finite(lq1, base, law, nu=nu)
    p, q = np.asarray(sol.p), np.asarray(sol.q)
    lhs = ((p[:, j0] * eta).sum(axis=-1).mean()
           + dt * (p[:, j0:-1] * gamma[:, j0:]).sum(axis=-1).mean(axis=0).sum()
           + dt * (q[:, j0:] * rho[:, j0:]).sum(axis=(-1, -2)).mean(axis=0).sum())
    # lq1 dual: dYcal = (-Ycal + gamma) dt + rho dW from Ycal = eta; Psi = 2x.
    Y = np.zeros_like(X)
    Y[:, j0] = eta
    for j in range(j0, grid.steps):
        Y[:, j + 1] = Y[:, j] + dt * (-Y[:, j] + gamma[:, j]) + rho[:, j, 0] * base.increments[:, j]
    rhs = dt * (Y[:, j0:-1] * 2.0 * X[:, j0:-1]).sum(axis=-1).mean(axis=0).sum() + (nu * Y[:, -1]).sum(axis=-1).mean()
    assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
    assert rep.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _stored_dual_sides(model, law, base, sol, t, eta, gamma=None, rho=None, nu=None):
    """Both pairing sides from the whole dual process that
    `simulate_affine_dual` returns, summed with the same per-step running
    sums as the check: (p side, Ycal side, Ycal_T, max_j E|Psi_j|^2)."""
    grid, j0 = base.grid, base.grid.index_of(t)
    eta = _build_eta(eta, base, t, model.n)
    dual = simulate_affine_dual(model, base, law, t, eta, gamma=gamma, rho=rho)
    X, Y, P = (_time_major(a) for a in (base.states, dual, sol.p))
    psi_sq = np.zeros(grid.steps)

    def rows(a, b):
        psi = cost_grad_x(model, X[a:b])
        psi_sq[a:b] = _dot(psi, psi).mean(axis=-1)
        forcing = np.zeros((b - a, base.n_paths))
        if gamma is not None:
            forcing = forcing + _dot(P[a:b], _time_major(gamma)[a:b])
        if rho is not None:
            forcing = forcing + (_time_major(sol.q)[a:b] * _time_major(rho)[a:b]).sum(axis=(-1, -2))
        return np.stack([forcing, _dot(Y[a:b], psi)], axis=1)

    blocks = ((a, rows(a, b)) for a, b in _time_blocks(j0, grid.steps, 8 * 2 * base.n_paths))
    forcing, pairing = _path_integrals(grid, blocks, [grid.steps], (2, base.n_paths), start=j0)[:, :, 0]
    if nu is not None:
        pairing = pairing + _dot(nu, dual[:, -1])
    p_side = float((_dot(sol.p[:, j0], eta) + forcing).mean())
    return p_side, float(pairing.mean()), dual[:, -1], float(psi_sq.max())


@pytest.mark.parametrize("family", ["lq1", "lq3"])
def test_streamed_dual_sides_equal_the_stored_dual(family, lq1, lq3):
    model = {"lq1": lq1, "lq3": lq3}[family]
    n, d = model.n, model.d
    law = ControlLaw.affine(np.full((model.l, n), -0.3), np.full(model.l, 0.1), model.control_set)
    grid = TimeGrid(dt=0.02, steps=150)
    M, t = 256, 0.4
    base = simulate_state(model, law, np.full(n, 0.7), grid, M, seed=3)
    rho = build_rho(base, n, d, {0: np.ones(n)}, t_start=0.4, t_end=1.6)
    nu = np.full((M, n), 0.3)
    for gamma in (build_gamma(base, n, value=np.ones(n), t_start=0.5, t_end=2.0),
                  build_gamma(base, n, value=np.ones(n), t_start=0.5, t_end=2.0, state_matrix=0.2 * np.eye(n))):
        rep = verify_duality_finite(model, law, t, 3.0, eta="state", gamma=gamma, rho=rho, nu=nu, dt=0.02, base=base)
        sol = solve_adjoint_finite(model, base, law, nu=nu)
        lhs, rhs, _, _ = _stored_dual_sides(model, law, base, sol, t, "state", gamma=gamma, rho=rho, nu=nu)
        assert (rep.lhs, rep.rhs) == (lhs, rhs)
    # The infinite form reads |Ycal_T| and max E|Psi|^2 for its tail bound.
    rep = verify_duality_infinite(model, law, t, 1.6, eta="one", rho=rho, T_report=2.0, T_buffer=1.0, dt=0.02,
                                  base=base)
    sol = solve_adjoint_finite(model, base, law)
    p_side, pairing, y_end, psi_sup = _stored_dual_sides(model, law, base, sol, t, "one", rho=rho)
    assert (rep.rhs, rep.lhs) == (p_side, pairing)
    beta = -model.certified_dissipativity_bound()
    assert rep.tail_bound == float(np.sqrt(float((y_end**2).sum(axis=-1).mean())) * np.sqrt(psi_sup) / beta)


def _lq3_law(lq3):
    return ControlLaw.affine([[-0.4, -0.1, 0.0], [0.0, -0.05, -0.3]], [0.1, 0.0], lq3.control_set)


@pytest.mark.parametrize("infinite", [False, True], ids=["finite", "infinite"])
def test_streamed_costate_sides_equal_the_stored_costate(infinite, lq3):
    """Each probe's sides are bitwise the stored-costate arithmetic on the
    p and q of `solve_adjoint_finite`: the one sweep pairs p and fits q per
    sweep block, over 5 blocks on [0, 1] (32 with the buffer), and eta-state
    reads p at step 25, inside the block of steps 14..26."""
    law, M, dt, T = _lq3_law(lq3), 256, 0.02, 1.0
    assert _block_steps(8 * _feature_count(3) * M) == 12
    probes = verify_duality_probes(lq3, law, T, M=M, seed=5, dt=dt, x0=np.full(3, 0.7), infinite=infinite)
    horizon = T + lq3.forgetting_time(dt) if infinite else T
    base = simulate_state(lq3, law, np.full(3, 0.7), TimeGrid.from_horizon(horizon, dt), M, seed=5)
    sol = solve_adjoint_finite(lq3, base, law)
    steps, ones = 50, np.ones(3)
    singles = {"eta-one": (0.0, "one", {}), "eta-state": (25 * dt, "state", {}),
               "rho-0": (0.0, "zero", {"rho": build_rho(base, 3, 2, {0: ones}, t_end=T)}),
               "rho-1": (0.0, "zero", {"rho": build_rho(base, 3, 2, {1: ones}, t_end=T)})}
    if not infinite:
        singles["gamma"] = (0.0, "zero", {"gamma": build_gamma(base, 3, ones, steps // 4 * dt, 3 * steps // 4 * dt)})
    assert sorted(probes) == sorted(singles)
    for name, (t, eta, forcing) in singles.items():
        p_side, pairing, _, _ = _stored_dual_sides(lq3, law, base, sol, t, eta, **forcing)
        rep = probes[name]
        sides = (rep.rhs, rep.lhs) if infinite else (rep.lhs, rep.rhs)
        assert sides == (p_side, pairing), name


def test_finite_check_holds_one_row_set(lq3):
    # Beyond its inputs and the design store it builds, the check holds the
    # (steps, M) integrand rows of its costate side and four BLOCK_BYTES
    # blocks (the sweep's design, the dual rows, and the integral's running
    # and integrand rows).  Storing p (4.9 MB) would exceed it.
    law, M, dt = _lq3_law(lq3), 512, 0.01
    base = simulate_state(lq3, law, np.full(3, 0.5), TimeGrid(dt=dt, steps=400), M, seed=4)
    gamma = build_gamma(base, 3, value=np.ones(3), t_start=1.0, t_end=3.0)
    np.random.Philox  # numpy.random is imported before tracing
    tracemalloc.start()
    try:
        verify_duality_finite(lq3, law, 0.0, 4.0, eta="one", gamma=gamma, dt=dt, base=base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    designs = sum(a.nbytes for a in base._designs.values() if isinstance(a, np.ndarray))
    assert peak <= designs + 8 * 400 * M + 4 * ergosmp.forward.BLOCK_BYTES


def test_probes_store_no_costate(lq3):
    # Beyond the states, the noise the q fit draws and the design store, the
    # probes hold their three (steps, M) integrand row sets (gamma, rho-0,
    # rho-1) and block buffers: less than the p (steps+1, M, 3) and
    # q (steps, M, 2, 3) a stored costate takes.
    law, M, dt, steps = _lq3_law(lq3), 512, 0.01, 200
    np.random.Philox
    tracemalloc.start()
    try:
        verify_duality_probes(lq3, law, 2.0, M=M, seed=3, dt=dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states, noise, p, q = 8 * M * (steps + 1) * 3, 8 * M * steps * 2, 8 * M * (steps + 1) * 3, 8 * M * steps * 6
    designs = steps * (8 * _feature_count(3) * (_feature_count(3) + 2) + _feature_count(3))
    assert peak - (states + noise + designs) < p + q


def test_infinite_rho_probe_stores_rows_only_where_it_forces(lq3):
    # rho forces [0, T), a fifth of the grid [0, T + buffer] of the infinite
    # form: the costate side builds and stores its integrand rows there only
    # (0.7 MB), so beyond the inputs and the design store and increments the
    # first call leaves, the check peaks below one full (steps, M) row set
    # (3.4 MB), which storing every row would exceed alone.
    law, M, dt, T = _lq3_law(lq3), 512, 0.01, 1.66
    grid = TimeGrid.from_horizon(T + lq3.forgetting_time(dt), dt)
    base = simulate_state(lq3, law, np.full(3, 0.5), grid, M, seed=4)
    rho = build_rho(base, 3, 2, {0: np.ones(3)}, t_end=T)
    assert grid.steps == 5 * grid.index_of(T)
    check = lambda: verify_duality_infinite(lq3, law, 0.0, T, rho=rho, T_report=T, dt=dt, base=base)
    check()
    tracemalloc.start()
    try:
        check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.steps * M


def test_non_finite_costate_side_is_reported(lq1):
    # <p, gamma> overflows at the step before last (p about nu = 10, gamma
    # 1e308) while the dual process and its pairing stay finite: the check
    # raises instead of reporting an infinite lhs.
    law, M, dt = ControlLaw.affine([[-0.4]], [0.1], lq1.control_set), 64, 0.02
    base = simulate_state(lq1, law, [0.5], TimeGrid(dt=dt, steps=50), M, seed=3)
    gamma = np.zeros((M, 50, 1))
    gamma[:, 48] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdjointError, match="non-finite costate side on path 0$"):
            verify_duality_finite(lq1, law, 0.0, 1.0, gamma=gamma, nu=np.full((M, 1), 10.0), dt=dt, base=base)


def test_base_grid_mismatch_rejected(lq1, lq1_zero, lq1_base8):
    with pytest.raises(SimulationError):
        verify_duality_finite(lq1, lq1_zero, 0.0, 4.0, eta="one",
                              M=4096, seed=5, dt=0.01, base=lq1_base8)
    with pytest.raises(SimulationError):
        verify_duality_finite(lq1, lq1_zero, 0.0, 8.0, eta="one",
                              M=4096, seed=5, dt=0.02, base=lq1_base8)


# ---------------------------------------------------------------------------
# Infinite-horizon form


def test_infinite_zero_case(lq1, lq1_zero):
    rep = verify_duality_infinite(lq1, lq1_zero, 0.0, 1.0, eta="zero", rho=None,
                                  T_report=4.0, T_buffer=2.0, M=512, seed=3, dt=0.01)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert np.isnan(rep.rel_residual)
    assert rep.to_dict()["rel_residual"] is None


def test_infinite_eta_one(lq1, lq1_zero):
    rep = verify_duality_infinite(lq1, lq1_zero, 0.0, 1.0, eta="one", rho=None,
                                  T_report=8.0, T_buffer=4.0, M=4096, seed=2, dt=0.01)
    assert abs(rep.lhs - 1.0) < 0.06
    assert rep.rel_residual < 0.05
    assert 0.0 <= rep.tail_bound < 0.01


def test_infinite_rho_indicator(lq1, lq1_zero):
    grid = TimeGrid(dt=0.01, steps=1200)
    probe = simulate_state(lq1, lq1_zero, [1.0], grid, 4096, seed=2)
    rho = build_rho(probe, 1, 1, {0: [1.0]}, t_start=0.0, t_end=1.0)
    rep = verify_duality_infinite(lq1, lq1_zero, 0.0, 1.0, eta="zero", rho=rho,
                                  T_report=8.0, T_buffer=4.0, M=4096, seed=2, dt=0.01)
    assert abs(rep.rhs - 1.0) < 0.08  # E int <q, rho> with q = 1
    assert rep.rel_residual < 0.05


def test_infinite_base_reuses_the_ensemble(lq1):
    law = ControlLaw.affine([[-0.4]], [0.1], lq1.control_set)
    grid = TimeGrid.from_horizon(3.0, 0.02)
    ens = simulate_state(lq1, law, [1.0], grid, 64, seed=9)
    rho = build_rho(ens, 1, 1, {0: [1.0]}, t_start=0.2, t_end=1.0)
    kwargs = dict(eta="one", rho=rho, T_report=2.0, T_buffer=1.0, dt=0.02)
    fresh = verify_duality_infinite(lq1, law, 0.2, 1.0, M=64, seed=9, **kwargs)
    reused = verify_duality_infinite(lq1, law, 0.2, 1.0, base=ens, **kwargs)
    assert reused.to_dict() == fresh.to_dict()
    assert (reused.lhs, reused.rhs) == (fresh.lhs, fresh.rhs)
    with pytest.raises(SimulationError):
        verify_duality_infinite(lq1, law, 0.2, 1.0, base=ens, eta="one", T_report=2.0, T_buffer=2.0, dt=0.02)


def test_infinite_rejects_late_support(lq1, lq1_zero):
    grid = TimeGrid(dt=0.01, steps=1200)
    probe = simulate_state(lq1, lq1_zero, [1.0], grid, 64, seed=2)
    rho = build_rho(probe, 1, 1, {0: [1.0]}, t_start=0.0, t_end=3.0)
    with pytest.raises(AdjointError):
        verify_duality_infinite(lq1, lq1_zero, 0.0, 1.0, eta="zero", rho=rho,
                                T_report=8.0, T_buffer=4.0, M=64, seed=2, dt=0.01)
    with pytest.raises(SimulationError):
        verify_duality_infinite(lq1, lq1_zero, 0.0, 9.0, eta="zero", rho=None,
                                T_report=8.0, T_buffer=4.0, M=64, seed=2, dt=0.01)


def test_rho_off_the_grid_is_rejected_by_the_dual_input_check(lq1, lq1_zero):
    """Both forms reject a rho that is not on the 40-step base grid where the
    dual's inputs are checked; the infinite form's support test reads the
    array that check returned."""
    kw = dict(eta="zero", M=64, seed=2, dt=0.02)
    infinite = dict(T_report=0.6, T_buffer=0.2, **kw)
    short = np.zeros((64, 30, 1, 1))
    with pytest.raises(SimulationError, match="rho must have shape"):
        verify_duality_finite(lq1, lq1_zero, 0.0, 0.8, rho=short, **kw)
    with pytest.raises(SimulationError, match="rho must have shape"):
        verify_duality_infinite(lq1, lq1_zero, 0.0, 0.4, rho=short, **infinite)
    late = np.zeros((64, 40, 1, 1))
    late[:, 30] = 1.0
    with pytest.raises(AdjointError, match="rho with support beyond T_support is rejected"):
        verify_duality_infinite(lq1, lq1_zero, 0.0, 0.4, rho=late.tolist(), **infinite)


def test_report_serialization(lq1, lq1_zero, lq1_base8):
    rep = verify_duality_finite(lq1, lq1_zero, 0.0, 8.0, eta="one",
                                M=4096, seed=5, dt=0.01, base=lq1_base8)
    obj = rep.to_dict()
    assert obj["schema_version"] == 2  # 1 had no ci
    assert obj["ci"] == rep.ci > 0.0
    assert obj["rel_residual"] == rep.rel_residual
    assert obj["config"]["eta"] == "one"


def test_ci_shrinks_as_one_over_root_m(lq1):
    """The CI is the half-width of the mean of the per-path lhs - rhs, so 16
    times the paths give about a quarter of it; the first 256 paths of the
    4096-path ensemble are the 256-path ensemble, so the two estimates share
    their first paths."""
    law = ControlLaw.affine([[-0.4]], [0.1], lq1.control_set)
    ci = {M: verify_duality_finite(lq1, law, 0.0, 2.0, eta="one", M=M, seed=3, dt=0.02).ci for M in (256, 4096)}
    assert 3.5 < ci[256] / ci[4096] < 4.5
