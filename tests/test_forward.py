import dataclasses
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from ergosmp import (
    ControlLaw,
    ConvexSet,
    ModelSpec,
    SimulationError,
    TimeGrid,
    ensemble_from_binary,
    ensemble_to_binary,
    ensemble_to_csv,
    estimate_ergodic_cost,
    estimate_moment,
    extend_to_infinite,
    simulate_affine_dual,
    simulate_state,
    solve_adjoint_finite,
    verify_duality_finite,
    verify_expansion_residual,
)
from ergosmp.adjoint import adjoint_to_csv
import ergosmp.forward
from ergosmp.forward import (
    _BINARY_HEADER,
    BLOCK_BYTES,
    _path_integrals,
    _paths_to_csv,
    _perturbed_states,
    _tamed_euler_blocks,
    _time_blocks,
    _time_major,
    brownian_increments,
)
from ergosmp.model import drift_jacU_apply


def test_grid_validation():
    grid = TimeGrid(dt=0.01, steps=100)
    assert grid.horizon == pytest.approx(1.0)
    assert grid.index_of(0.5) == 50
    for t in (0.505, np.nan, np.inf):
        with pytest.raises(SimulationError):
            grid.index_of(t)
    with pytest.raises(SimulationError):
        TimeGrid(dt=-0.1, steps=10)
    for horizon, dt in ((1.0, 0.3), (np.inf, 0.01), (1.0, np.nan)):
        with pytest.raises(SimulationError):
            TimeGrid.from_horizon(horizon, dt)


def test_deterministic_linear_decay(lq1, lq1_zero):
    noiseless = dataclasses.replace(lq1, S=[[0.0]])
    grid = TimeGrid(dt=1e-3, steps=1000)
    ens = simulate_state(noiseless, lq1_zero, [1.0], grid, 4, seed=0)
    x1 = ens.states[0, -1, 0]
    assert abs(x1 - np.exp(-1.0)) < 2e-3
    assert np.all(ens.states[:, -1, 0] == x1)


def test_ou_stationary_moments(lq1, lq1_zero):
    grid = TimeGrid(dt=0.01, steps=1000)
    ens = simulate_state(lq1, lq1_zero, [1.0], grid, 10_000, seed=3)
    mean_t = ens.states[:, -1, 0].mean()
    assert abs(mean_t) < 4.0 / np.sqrt(10_000)
    m2, ci2 = estimate_moment(ens, 2, 10.0)
    assert abs(m2 - 0.5) < 0.03
    m4, ci4 = estimate_moment(ens, 4, 10.0)
    assert abs(m4 - 3 * 0.5**2) < max(0.08, 2 * ci4)


def test_moment_deterministic_ensemble(lq1, lq1_zero):
    noiseless = dataclasses.replace(lq1, S=[[0.0]])
    ens = simulate_state(noiseless, lq1_zero, [1.0], TimeGrid(dt=1e-3, steps=1000), 8, seed=0)
    est, half = estimate_moment(ens, 2, 1.0)
    assert half == 0.0
    assert abs(est - np.exp(-2.0)) < 5e-3
    with pytest.raises(SimulationError):
        estimate_moment(ens, 3, 1.0)
    with pytest.raises(SimulationError):
        estimate_moment(ens, 2, 0.5001)


def test_cubic_enters_attractor_fast(cubic1):
    zero = cubic1.zero_control()
    # fine-grid reference as the oracle
    fine = simulate_state(cubic1, zero, [10.0], TimeGrid(dt=1e-4, steps=10_000), 256, seed=11)
    ref, _ = estimate_moment(fine, 2, 1.0)
    assert ref < 2.0
    coarse = simulate_state(cubic1, zero, [10.0], TimeGrid(dt=0.01, steps=100), 4096, seed=11)
    est, _ = estimate_moment(coarse, 2, 1.0)
    assert est < 2.0


def test_state_stays_finite_and_immutable(lq1, lq1_zero):
    ens = simulate_state(lq1, lq1_zero, [0.0], TimeGrid(dt=0.01, steps=50), 32, seed=1)
    assert np.isfinite(ens.states).all()
    with pytest.raises(ValueError):
        ens.states[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        ens.increments[0, 0, 0] = 1.0


@pytest.mark.parametrize("family", ["lq1", "lq3"])
def test_increments_are_the_seed_draw_read_only(family, lq1, lq3, tmp_path, monkeypatch):
    # An ensemble of simulate_state holds no noise: it draws it from its seed
    # when first read, once, and its views draw their own prefix or slice it.
    # Every draw of the noise opens a stream of `_noise_blocks`.
    model = {"lq1": lq1, "lq3": lq3}[family]
    law, x0, M, seed, dt = model.zero_control(), np.full(model.n, 0.5), 48, 6, 0.02
    draws = []
    stream = ergosmp.forward._noise_blocks
    seed_draws = {steps: brownian_increments(seed, M, TimeGrid(dt=dt, steps=steps), model.d)
                  for steps in (20, 30, 40, 60)}

    def counting(*args):
        draws.append(args)
        return stream(*args)

    def expect(ens, steps):
        assert ens.d == model.d
        assert ens.increments.tobytes() == seed_draws[steps].tobytes()
        assert not ens.increments.flags.writeable

    ens = simulate_state(model, law, x0, TimeGrid(dt=dt, steps=60), M, seed)
    early = ens.restricted(0.6)
    sol = extend_to_infinite(model, law, x0, 0.8, 0.4, dt, M, seed)
    monkeypatch.setattr(ergosmp.forward, "_noise_blocks", counting)
    assert ens.d == early.d == sol.ensemble.d == model.d and not draws
    expect(early, 30)
    expect(ens, 60)
    expect(sol.ensemble, 40)
    assert len(draws) == 3
    late = ens.restricted(0.4)  # the parent's noise is drawn: the view slices it
    expect(late, 20)
    assert np.shares_memory(late.increments, ens.increments) and ens.increments is ens.increments
    assert len(draws) == 3
    # An ensemble built on an array keeps it, and its views slice it unread.
    dW = np.array(ens.increments)
    built = dataclasses.replace(ens, noise=dW)
    assert np.shares_memory(built.restricted(0.4).increments, dW) and built.increments is dW
    path = str(tmp_path / "dump.bin")
    ensemble_to_binary(ens, path)
    back = ensemble_from_binary(path)
    assert back.increments is back.increments and np.array_equal(back.increments, dW)
    assert len(draws) == 3


def test_given_noise_must_have_the_ensemble_shape(lq1, lq1_zero):
    ens = simulate_state(lq1, lq1_zero, [0.3], TimeGrid(dt=0.02, steps=5), 4, seed=9)
    with pytest.raises(SimulationError, match=r"noise must have shape \(M, steps, d\) = \(4, 5, 1\)"):
        dataclasses.replace(ens, noise=np.zeros((4, 4, 1)))


def test_simulation_rejects_bad_x0(lq1, lq1_zero):
    grid = TimeGrid(dt=0.01, steps=10)
    with pytest.raises(SimulationError):
        simulate_state(lq1, lq1_zero, [np.nan], grid, 8, seed=0)
    with pytest.raises(SimulationError):
        simulate_state(lq1, lq1_zero, [0.0, 0.0], grid, 8, seed=0)


# ---------------------------------------------------------------------------
# Determinism


def _kernel_models():
    """lq1 and cubic1, lq3 on a box that binds under its law on both sides of
    both coordinates, and a 2-state cubic model on a ball, each with an
    affine and a constant law (a tabulated one too where n = 1)."""
    lq1, cubic1 = ModelSpec.lq1(), ModelSpec.cubic1()
    box = ConvexSet.box([-0.3, -0.15], [0.25, 0.2])
    lq3box = ModelSpec.lq(A=[[-1, 0.4, 0], [0, -1.2, 0.4], [0, 0, -0.8]], B=[[1, 0], [0, 0], [0, 1]],
                          S=[[0.6, 0], [0.3, 0.5], [0, 0.4]], Q=np.eye(3), R=np.eye(2), control_set=box)
    ball = ConvexSet.ball([0.1, -0.1], 0.6)
    cubic2ball = ModelSpec.cubic([1.0, 0.5], A=[[-1.0, 0.3], [0.0, -0.5]], B=[[1.0, 0.0], [0.5, 1.0]],
                                 S=[[0.8, 0.0], [0.2, 0.6]], Q=np.eye(2), R=np.eye(2), control_set=ball)
    cs = lq1.control_set  # cubic1's is the same box
    tabulated = ControlLaw.tabulated([-1, 0, 1], [[0.3], [-0.3]], cs)
    return {
        "lq1": (lq1, {"affine": ControlLaw.affine([[-0.4]], [0.1], cs), "constant": ControlLaw.constant([1.0], cs),
                      "tabulated": tabulated}),
        "cubic1": (cubic1, {"affine": ControlLaw.affine([[-0.5]], [-0.2], cs),
                            "constant": ControlLaw.constant([-0.7], cs), "tabulated": tabulated}),
        "lq3box": (lq3box, {"affine": ControlLaw.affine([[-0.4, -0.1, 0.0], [0.0, -0.05, -0.3]], [0.1, 0.0], box),
                            "constant": ControlLaw.constant([1.0, -1.0], box)}),
        "cubic2ball": (cubic2ball, {"affine": ControlLaw.affine([[-0.8, 0.2], [0.1, -0.6]], [0.05, 0.0], ball),
                                    "constant": ControlLaw.constant([0.5, -0.5], ball)}),
    }


KERNEL_CASES = [(name, kind) for name, (_, laws) in _kernel_models().items() for kind in laws]


def test_bitwise_determinism_across_runs_and_path_prefixes():
    grid = TimeGrid(dt=0.01, steps=120)
    for model, laws in _kernel_models().values():
        x0 = np.full(model.n, 0.5)
        for law in (model.zero_control(), *laws.values()):
            a = simulate_state(model, law, x0, grid, 96, seed=42)
            b = simulate_state(model, law, x0, grid, 24, seed=42)
            c = simulate_state(model, law, x0, grid, 96, seed=42)
            assert np.array_equal(a.states[:24], b.states)
            assert np.array_equal(a.increments[:24], b.increments)
            assert np.array_equal(a.states, c.states)
            assert np.array_equal(a.increments, c.increments)


def _reference_law(law, x):
    """The law at states x (M, n) in broadcast form, then projected by
    np.clip or the ball formula."""
    if law.kind == "affine_feedback":
        u = (law.gain * x[:, None, :]).sum(axis=-1) + law.offset
    elif law.kind == "constant":
        u = np.broadcast_to(law.const, (len(x), len(law.const)))
    else:
        bins = np.clip(np.searchsorted(law.bin_edges, x[:, 0], side="right") - 1, 0, len(law.bin_values) - 1)
        u = law.bin_values[bins]
    cs = law.control_set
    if cs.kind == "box":
        return np.clip(u, cs.lower, cs.upper)
    delta = u - cs.center
    norm = np.sqrt((delta * delta).sum(axis=-1))[:, None]
    return cs.center + delta * np.where(norm > cs.radius, cs.radius / np.where(norm > 0, norm, 1.0), 1.0)


def _reference_states(model, law, x0, dW, dt):
    """The tamed-Euler recursion one step at a time in broadcast form:
    x_j+1 = x_j + dt b / (|b| dt + 1) + S dW_j, b = A x + B u - alpha x^3."""
    M, steps, _ = dW.shape
    X = np.empty((M, steps + 1, model.n))
    X[:, 0] = x0
    for j in range(steps):
        x = X[:, j]
        u = _reference_law(law, x)
        b = (model.A * x[:, None, :]).sum(axis=-1) + (model.B * u[:, None, :]).sum(axis=-1)
        if model.has_cubic:
            b = b - model.alpha * (x * x * x)
        scale = np.sqrt((b * b).sum(axis=-1))
        X[:, j + 1] = x + (b * dt) / (scale * dt + 1.0)[:, None] + (model.S * dW[:, j, None, :]).sum(axis=-1)
    return X


@pytest.mark.parametrize("name,kind", KERNEL_CASES, ids=[f"{name}-{kind}" for name, kind in KERNEL_CASES])
def test_tamed_euler_matches_per_step_reference(name, kind):
    # 256 paths take 256 / n-step time blocks, so 300 steps cross at least
    # one block seam on every model.
    model, laws = _kernel_models()[name]
    law, M, grid = laws[kind], 256, TimeGrid(dt=0.02, steps=300)
    assert BLOCK_BYTES // (8 * M * model.n) < grid.steps
    x0 = np.linspace(-1.5, 1.5, model.n)
    ens = simulate_state(model, law, x0, grid, M, seed=13)
    ref = _reference_states(model, law, x0, ens.increments, grid.dt)
    assert np.array_equal(ens.states, ref)
    assert np.array_equal(np.signbit(ens.states), np.signbit(ref))
    if name == "lq3box" and kind == "affine":
        # the box binds on both sides of both coordinates
        U = law.evaluate(ens.states).reshape(-1, 2)
        assert (U == model.control_set.lower).any(axis=0).all() and (U == model.control_set.upper).any(axis=0).all()


def test_path_integrals_match_cumsum():
    # One block (unsorted, repeated indices, one equal to start), then a grid
    # whose rows span several blocks of BLOCK_BYTES.
    for steps, shape, indices in [(20, (2, 5), [17, 3, 9, 12, 9]), (70, (3, 2048), [3, 61, 30, 47, 61])]:
        grid = TimeGrid(dt=0.1, steps=steps)
        g = np.random.default_rng(4).standard_normal(shape + (grid.steps,))
        start = 3
        row_bytes = 8 * np.prod(shape)
        blocks = []

        def integrand(end):
            for j0, j1 in _time_blocks(start, end, row_bytes):
                blocks.append((j0, j1))
                yield j0, np.moveaxis(g[..., j0:j1], -1, 0)

        out = _path_integrals(grid, integrand(max(indices)), indices, shape, start=start)
        cum = np.concatenate([np.zeros(shape + (1,)), np.cumsum(grid.dt * g[..., start:], axis=-1)], axis=-1)
        assert out.shape == shape + (len(indices),)
        # The running sum acc + dt * g_j is np.cumsum's order, so the match is exact.
        np.testing.assert_array_equal(out, cum[..., np.asarray(indices) - start])
        assert np.all(out[..., np.asarray(indices) == start] == 0.0)
        # The blocks tile [start, max index) in order, each within the byte budget.
        assert blocks[0][0] == start and blocks[-1][1] == max(indices)
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all((j1 - j0) * row_bytes <= BLOCK_BYTES for j0, j1 in blocks)
        assert (len(blocks) > 1) == (row_bytes * (max(indices) - start) > BLOCK_BYTES)
        with pytest.raises(SimulationError):
            _path_integrals(grid, integrand(grid.steps), [2, 5], shape, start=start)
        with pytest.raises(SimulationError):
            _path_integrals(grid, integrand(grid.steps), [grid.steps + 1], shape)
    assert len(blocks) > 1


def test_path_integrals_pull_no_block_past_the_last_index():
    # Blocks of 8 steps over the whole grid: the sums at 21 and 5 read the
    # blocks up to [16, 24), so [24, 32) and later are never made, and the
    # rows of [16, 24) past step 21 are not read.
    grid, shape = TimeGrid(dt=0.5, steps=40), (3,)
    made = []

    def blocks():
        for j0 in range(0, grid.steps, 8):
            made.append(j0)
            rows = np.ones((8,) + shape)
            rows[max(0, 21 - j0):] = np.nan  # rows from step 21 on must not reach the sums
            yield j0, rows

    out = _path_integrals(grid, blocks(), [21, 5], shape)
    assert made == [0, 8, 16]
    np.testing.assert_array_equal(out, np.broadcast_to([10.5, 2.5], (3, 2)))
    made.clear()
    assert not _path_integrals(grid, blocks(), [0, 0], shape).any() and made == []


def test_increment_statistics(lq1):
    grid = TimeGrid(dt=0.04, steps=50)
    dw = brownian_increments(7, 2000, grid, 1)
    assert abs(dw.mean()) < 4 * np.sqrt(grid.dt / (2000 * 50))
    assert abs(dw.var() - grid.dt) < 0.002


def test_seed_must_be_a_nonnegative_63_bit_integer(lq1, lq1_zero):
    # A fractional seed is rejected, not truncated to its integer part.
    grid = TimeGrid(dt=0.1, steps=5)
    for seed in (-1, 2**63, 2.7):
        with pytest.raises(SimulationError, match="^seed must be a nonnegative 63-bit integer$"):
            simulate_state(lq1, lq1_zero, [0.0], grid, 4, seed)
        with pytest.raises(SimulationError, match="^seed must be a nonnegative 63-bit integer$"):
            brownian_increments(seed, 4, grid, 1)
    assert simulate_state(lq1, lq1_zero, [0.0], grid, 4, 2.0).seed == 2


def test_seed_changes_noise(lq1, lq1_zero):
    grid = TimeGrid(dt=0.01, steps=20)
    a = simulate_state(lq1, lq1_zero, [0.0], grid, 16, seed=1)
    b = simulate_state(lq1, lq1_zero, [0.0], grid, 16, seed=2)
    assert not np.array_equal(a.increments, b.increments)


# ---------------------------------------------------------------------------
# Coupled simulations


def _first_variation(model, base, law, v):
    """The first variation Y: the linearized equation from Y_0 = 0 forced by
    gamma = D_u b v."""
    return simulate_affine_dual(model, base, law, 0.0, np.zeros(model.n), gamma=drift_jacU_apply(model, v))


def test_perturbed_theta_zero_is_bitwise(lq1, lq1_zero, lq1_one, lq1_base8):
    xb = lq1_base8.states[:, :-1]
    ub = lq1_zero.evaluate(xb)
    pert = _perturbed_states(lq1, lq1_base8, ub + 0.0 * (lq1_one.evaluate(xb) - ub))
    assert np.array_equal(pert, lq1_base8.states)


def test_perturbed_step_response(lq1, lq1_zero, lq1_one):
    noiseless = dataclasses.replace(lq1, S=[[0.0]])
    grid = TimeGrid(dt=1e-3, steps=1000)
    base = simulate_state(noiseless, lq1_zero, [0.0], grid, 4, seed=0)
    pert = _perturbed_states(noiseless, base, lq1_one.evaluate(base.states[:, :-1]))
    assert abs(pert[0, -1, 0] - (1 - np.exp(-1.0))) < 5e-3


def test_perturbed_validates_base(lq1, lq1_zero, lq1_one, lq1_base8):
    base = lq1_base8.restricted(1.0)
    with pytest.raises(SimulationError, match="generated under"):
        verify_expansion_residual(lq1, lq1_one, lq1_zero, [0.5, 0.25], base)  # base was under zero
    with pytest.raises(SimulationError, match="theta"):
        verify_expansion_residual(lq1, lq1_zero, lq1_one, [1.5, 0.5], base)


def test_first_variation_zero_direction(lq1, lq1_zero, lq1_base8):
    v = np.zeros((lq1_base8.n_paths, lq1_base8.grid.steps, 1))
    fv = _first_variation(lq1, lq1_base8, lq1_zero, v)
    assert np.all(fv == 0.0)


def test_first_variation_deterministic_limit(lq1, lq1_zero, lq1_one):
    grid = TimeGrid(dt=1e-3, steps=1000)
    base = simulate_state(lq1, lq1_zero, [0.0], grid, 8, seed=2)
    xb = base.states[:, :-1]
    v = lq1_one.evaluate(xb) - lq1_zero.evaluate(xb)
    fv = _first_variation(lq1, base, lq1_zero, v)
    # D_x sigma = D_u sigma = 0, so Y is the deterministic response 1 - e^-t
    assert np.allclose(fv[:, -1, 0], 1 - np.exp(-1.0), atol=2e-3)
    sup_sq = (fv**2).sum(-1).mean(0).max()
    assert sup_sq <= 2.0 * np.max(np.abs(v)) ** 2  # bounded by K sup |v|^2 with small K


def test_affine_dual_zero_and_decay(lq1, lq1_zero, lq1_base8):
    m = lq1_base8.n_paths
    dual0 = simulate_affine_dual(lq1, lq1_base8, lq1_zero, 0.0, np.zeros((m, 1)))
    assert np.all(dual0 == 0.0)
    dual = simulate_affine_dual(lq1, lq1_base8, lq1_zero, 0.0, np.ones((m, 1)))
    ts = lq1_base8.grid.times()
    vals = dual[0, :, 0]
    assert np.allclose(vals, np.exp(-ts), atol=6e-3)
    assert np.allclose(dual[:, 300, 0], vals[300])  # deterministic across paths


def test_affine_dual_forced_second_moment(lq1, lq1_zero):
    grid = TimeGrid(dt=0.01, steps=200)
    base = simulate_state(lq1, lq1_zero, [0.0], grid, 4096, seed=13)
    m = base.n_paths
    rho = np.zeros((m, grid.steps, 1, 1))
    rho[:, :100, 0, 0] = 1.0  # noise forcing on [0, 1)
    dual = simulate_affine_dual(lq1, base, lq1_zero, 0.0, np.ones((m, 1)), rho=rho)
    # E|Y_2|^2 = e^-4 + (e^-2 - e^-4)/2 for the forced scalar equation
    oracle = np.exp(-4.0) + (np.exp(-2.0) - np.exp(-4.0)) / 2.0
    est = (dual[:, -1, 0] ** 2).mean()
    assert abs(est - oracle) < 0.01


def test_affine_dual_validates_shapes(lq1, lq1_zero, lq1_base8):
    m = lq1_base8.n_paths
    with pytest.raises(SimulationError):
        simulate_affine_dual(lq1, lq1_base8, lq1_zero, 0.0, np.ones((m, 2)))
    with pytest.raises(SimulationError):
        simulate_affine_dual(lq1, lq1_base8, lq1_zero, 0.0, np.ones((m, 1)),
                             gamma=np.zeros((m, 3, 1)))


@pytest.mark.parametrize("family", ["lq1", "cubic1", "lq3"])
def test_linearized_forward_matches_numpy_euler(family, lq1, cubic1, lq3):
    # dY = (D_x b Y + gamma)dt + sum_i rho^i dW^i, stepped per step in plain
    # numpy on the base states and increments: the dual from eta at t0 > 0
    # with both forcings, and the first variation from 0 with gamma = B v
    model = {"lq1": lq1, "cubic1": cubic1, "lq3": lq3}[family]
    n, d, l = model.n, model.d, model.l
    grid = TimeGrid(dt=0.02, steps=60)
    M, j0 = 32, 15
    law = model.zero_control()
    base = simulate_state(model, law, np.full(n, 0.7), grid, M, seed=3)
    X, dW = np.asarray(base.states), np.asarray(base.increments)
    rng = np.random.default_rng(8)
    eta = rng.standard_normal((M, n))
    gamma = rng.standard_normal((M, grid.steps, n))
    rho = rng.standard_normal((M, grid.steps, d, n))
    v = rng.standard_normal((M, grid.steps, l))

    def euler(y0, start, force, noise):
        Y = np.zeros((M, grid.steps + 1, n))
        Y[:, start] = y0
        for j in range(start, grid.steps):
            y, x = Y[:, j], X[:, j]
            jac_y = y @ model.A.T - 3.0 * model.alpha * x**2 * y
            Y[:, j + 1] = y + grid.dt * (jac_y + force[:, j]) + np.einsum("min,mi->mn", noise[:, j], dW[:, j])
        return Y

    dual = simulate_affine_dual(model, base, law, j0 * grid.dt, eta, gamma=gamma, rho=rho)
    np.testing.assert_allclose(dual, euler(eta, j0, gamma, rho), rtol=1e-13, atol=1e-13)
    assert np.all(dual[:, :j0] == 0.0)
    fv = _first_variation(model, base, law, v)
    np.testing.assert_allclose(fv, euler(0.0, 0, v @ model.B.T, np.zeros_like(rho)), rtol=1e-13, atol=1e-13)
    for out in (dual, fv):
        with pytest.raises(ValueError):
            out[0, -1, 0] = 1.0


# ---------------------------------------------------------------------------
# Expansion residual


def test_expansion_residual_lq_near_zero(lq1, lq1_zero, lq1_one):
    grid = TimeGrid(dt=0.01, steps=600)
    base = simulate_state(lq1, lq1_zero, [0.0], grid, 2048, seed=4)
    rep = verify_expansion_residual(lq1, lq1_zero, lq1_one, [0.2, 0.1], base)
    assert max(rep.sup_residual_sq) < 1e-3
    assert 1.9 <= rep.scaling_slope <= 2.1
    # one theta has nothing to compare: no slope, no decrease, no halving
    with pytest.raises(SimulationError, match="at least 2 thetas"):
        verify_expansion_residual(lq1, lq1_zero, lq1_one, [0.2], base)


def test_expansion_residual_cubic_monotone(cubic1):
    zero = cubic1.zero_control()
    one = ControlLaw.constant([1.0], cubic1.control_set)
    grid = TimeGrid(dt=0.005, steps=600)
    base = simulate_state(cubic1, zero, [0.0], grid, 1024, seed=21)
    rep = verify_expansion_residual(cubic1, zero, one, [0.2, 0.1, 0.05], base)
    assert rep.residual_decreasing
    assert rep.residual_halved
    assert 1.9 <= rep.scaling_slope <= 2.1
    with pytest.raises(SimulationError):
        verify_expansion_residual(cubic1, zero, one, [0.1, 0.2], base)


def test_exponential_forgetting(lq1, lq1_zero):
    grid = TimeGrid(dt=0.01, steps=300)
    a = simulate_state(lq1, lq1_zero, [0.0], grid, 512, seed=5)
    b = simulate_state(lq1, lq1_zero, [5.0], grid, 512, seed=5)
    diff = ((a.states - b.states) ** 2).sum(-1).mean(0)
    ts = grid.times()
    assert np.all(diff <= 25.0 * np.exp(-2.0 * ts) * 1.25 + 1e-12)
    mask = (ts > 0) & (ts <= 2.0)
    rate = -np.polyfit(ts[mask], np.log(diff[mask]), 1)[0]
    assert abs(rate - 2.0) <= 0.2


# ---------------------------------------------------------------------------
# Export


def test_binary_round_trip(tmp_path, lq1, lq1_zero):
    ens = simulate_state(lq1, lq1_zero, [0.3], TimeGrid(dt=0.02, steps=25), 16, seed=9)
    path = tmp_path / "dump.bin"
    ensemble_to_binary(ens, str(path))
    back = ensemble_from_binary(str(path))
    assert np.array_equal(back.states, ens.states)
    assert np.array_equal(back.increments, ens.increments)
    assert back.seed == ens.seed
    assert back.grid == ens.grid
    assert np.array_equal(back.x0, ens.x0)


def test_binary_rejects_truncated_dumps(tmp_path, lq1, lq1_zero):
    ens = simulate_state(lq1, lq1_zero, [0.3], TimeGrid(dt=0.02, steps=5), 4, seed=9)
    path = tmp_path / "dump.bin"
    ensemble_to_binary(ens, str(path))
    data = path.read_bytes()
    for cut, match in ((len(data) - 8, "implies"), (20, "header"), (2, "magic")):
        path.write_bytes(data[:cut])
        with pytest.raises(SimulationError, match=match):
            ensemble_from_binary(str(path))
    path.write_bytes(data + b"\0" * 8)
    with pytest.raises(SimulationError, match="implies"):
        ensemble_from_binary(str(path))
    # M, n or d = 0 in a header whose length matches: an empty axis
    version, m, steps, n, d, seed, dt = _BINARY_HEADER.unpack(data[4:4 + _BINARY_HEADER.size])
    x0 = data[4 + _BINARY_HEADER.size:][:8 * n]
    for m_, n_, d_ in ((0, n, d), (m, 0, d), (m, n, 0)):
        header = _BINARY_HEADER.pack(version, m_, steps, n_, d_, seed, dt)
        payload = x0[:8 * n_] + b"\0" * 8 * (m_ * (steps + 1) * n_ + m_ * steps * d_)
        path.write_bytes(data[:4] + header + payload)
        with pytest.raises(SimulationError, match="empty axis"):
            ensemble_from_binary(str(path))
    # a non-finite number in x0, the states or the increments
    body = 4 + _BINARY_HEADER.size
    for name, offset in (("x0", body), ("states", body + 8 * n + 8 * 7), ("increments", len(data) - 8)):
        for bad in (np.nan, np.inf):
            path.write_bytes(data[:offset] + struct.pack("<d", bad) + data[offset + 8:])
            with pytest.raises(SimulationError, match=f"non-finite value in its {name}"):
                ensemble_from_binary(str(path))


def test_csv_export(tmp_path, lq1, lq1_zero):
    ens = simulate_state(lq1, lq1_zero, [0.3], TimeGrid(dt=0.02, steps=5), 3, seed=9)
    path = tmp_path / "dump.csv"
    ensemble_to_csv(ens, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "path,step,t,x_1"
    assert len(lines) == 1 + 3 * 6
    row = lines[1].split(",")
    assert row[0] == "0" and row[1] == "0"
    assert float(row[3]) == 0.3


def _reference_csv(path, header, dt, blocks):
    """Plain per-row writer: every block's cells at step j, blank where a
    block has no step j (q at the terminal step)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(blocks[0].shape[0]):
            for j in range(blocks[0].shape[1]):
                cells = []
                for block in blocks:
                    width = int(np.prod(block.shape[2:]))
                    cells += [repr(v) for v in block[i, j].ravel().tolist()] if j < block.shape[1] else [""] * width
                fh.write(f"{i},{j},{j * dt!r}," + ",".join(cells) + "\n")


@pytest.mark.parametrize("family", ["lq1", "lq3"])
def test_csv_bytes_match_per_row_reference(tmp_path, family, lq1, lq3):
    model = {"lq1": lq1, "lq3": lq3}[family]
    law = ControlLaw.affine(-0.4 * np.ones((model.l, model.n)), 0.1 * np.ones(model.l), model.control_set)
    ens = simulate_state(model, law, np.full(model.n, 0.7), TimeGrid(dt=0.05, steps=20), 48, seed=3)
    sol = solve_adjoint_finite(model, ens, law)
    n, d = model.n, model.d
    cases = (
        (ensemble_to_csv, ens, ["path", "step", "t"] + [f"x_{k + 1}" for k in range(n)], [ens.states]),
        (adjoint_to_csv, sol,
         ["path", "step", "t"] + [f"p_{k + 1}" for k in range(n)]
         + [f"q{i + 1}_{k + 1}" for i in range(d) for k in range(n)],
         [sol.p, sol.q]),
    )
    for write, obj, header, blocks in cases:
        write(obj, str(tmp_path / "got.csv"))
        _reference_csv(str(tmp_path / "ref.csv"), header, 0.05, blocks)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_edge_values_match_reference(tmp_path):
    # Signed zero, the smallest subnormal, both sides of repr's switch to
    # exponent form, one ulp above 1 and a huge negative, in an n = 2 block
    # and a shorter two-channel block, over several paths.
    edge = [-0.0, 5e-324, 1e-5, 9.99e-5, 1e16, 1.0000000000000002, -1.5e300]
    M, steps = 3, 4
    p = np.resize(edge, (M, steps + 1, 2))
    q = np.resize(edge[::-1], (M, steps, 2, 1))
    header = ["path", "step", "t", "p_1", "p_2", "q1_1", "q2_1"]
    _paths_to_csv(str(tmp_path / "got.csv"), header, 0.1, [p, q])
    _reference_csv(str(tmp_path / "ref.csv"), header, 0.1, [p, q])
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert b",-0.0," in got and b"5e-324" in got and b"9.99e-05" in got and b"1e+16" in got


def test_noise_matches_per_path_philox_reference(monkeypatch):
    seed, M, d = 5, 10, 2
    grid = TimeGrid(dt=0.04, steps=30)
    # Chunks of 3 paths: 3, 3, 3 and a ragged 1.
    monkeypatch.setattr(ergosmp.forward, "BLOCK_BYTES", 3 * 8 * grid.steps * d)
    dW = brownian_increments(seed, M, grid, d)
    for i in range(M):
        ref = np.random.Generator(np.random.Philox(key=[seed, i])).standard_normal((grid.steps, d))
        assert dW[i].tobytes() == (ref * np.sqrt(grid.dt)).tobytes()
    # The (M, steps, d) view of a component-outermost (d, steps, M) buffer.
    assert dW.shape == (M, grid.steps, d)
    assert dW.strides == (8, 8 * M, 8 * M * grid.steps)
    # A grid twice as long (one path per chunk now) starts with these increments.
    longer = brownian_increments(seed, M, TimeGrid(dt=grid.dt, steps=2 * grid.steps), d)
    assert longer[:, : grid.steps].tobytes() == dW.tobytes()


@pytest.mark.parametrize("family", ["cubic1", "lq3"])
def test_streamed_noise_is_the_one_block_draw(family, cubic1, lq3, monkeypatch):
    # Noise blocks of 5 steps (the last of 4) drawn in chunks of 4 paths (the
    # last of 2), at d = 1 and d = 2: the stream is the one-block draw, and
    # the passes that read it block by block keep its bits, their time blocks
    # of states and costs cut at the seams of noise blocks.
    model = {"cubic1": cubic1, "lq3": lq3}[family]
    law = ControlLaw.affine(np.full((model.l, model.n), -0.3), np.full(model.l, 0.1), model.control_set)
    x0, M, seed, grid = np.full(model.n, 0.7), 10, 8, TimeGrid(dt=0.02, steps=59)
    one = brownian_increments(seed, M, grid, model.d)
    ens = simulate_state(model, law, x0, grid, M, seed)
    cost = estimate_ergodic_cost(model, law, x0, grid.horizon, M, seed, dt=grid.dt)
    monkeypatch.setattr(ergosmp.forward, "_NOISE_BYTES", 5 * 8 * M * model.d)
    monkeypatch.setattr(ergosmp.forward, "BLOCK_BYTES", 4 * 8 * 5 * model.d)
    blocks = [(j0, j1, dW.copy()) for j0, j1, dW in ergosmp.forward._noise_blocks(seed, M, grid, model.d)]
    assert [(j0, j1) for j0, j1, _ in blocks] == [(j, min(j + 5, 59)) for j in range(0, 59, 5)]
    assert np.concatenate([dW for *_, dW in blocks]).tobytes() == _time_major(one).tobytes()
    assert brownian_increments(seed, M, grid, model.d).tobytes() == one.tobytes()
    assert simulate_state(model, law, x0, grid, M, seed).states.tobytes() == ens.states.tobytes()
    assert estimate_ergodic_cost(model, law, x0, grid.horizon, M, seed, dt=grid.dt).to_dict() == cost.to_dict()


def test_simulate_state_holds_one_noise_block(cubic1):
    # The step loop reads the noise as a stream: beside the states it holds
    # one block of it, an eighth here.
    M, steps = 2048, 2000
    tracemalloc.start()
    try:
        simulate_state(cubic1, cubic1.zero_control(), [0.0], TimeGrid(dt=0.01, steps=steps), M, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise, states = 8 * M * steps, 8 * M * (steps + 1)
    assert peak < states + noise / 3


def test_state_gather_holds_no_control_block(cubic1):
    # A gather that never reads the controls has each step write them into
    # one (M, l) row: beside the states it holds the one noise block (all
    # 1000 steps here) and a time block of noise terms.  A (block, M, l)
    # control buffer would add another BLOCK_BYTES.
    M, steps = 256, 1000
    np.random.Philox  # numpy.random is imported before tracing
    tracemalloc.start()
    try:
        simulate_state(cubic1, cubic1.zero_control(), [0.0], TimeGrid(dt=0.01, steps=steps), M, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise, states = 8 * M * steps, 8 * M * (steps + 1)
    assert peak <= states + noise + 5 * ergosmp.forward.BLOCK_BYTES // 4


def test_affine_dual_runs_in_its_array(lq1):
    # The recursion writes each row into the returned array, with no block
    # buffer copied out of.
    law, M = lq1.zero_control(), 2048
    base = simulate_state(lq1, law, [0.5], TimeGrid(dt=0.01, steps=1000), M, 7)
    gamma = np.broadcast_to(np.ones((1000, 1)), (M, 1000, 1))
    tracemalloc.start()
    try:
        Y = simulate_affine_dual(lq1, base, law, 0.0, np.ones(1), gamma=gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= Y.nbytes + ergosmp.forward.BLOCK_BYTES // 4


def test_blocked_finiteness_names_first_step_and_lowest_path(lq1, monkeypatch):
    M, j = 6, 11
    grid = TimeGrid(dt=0.01, steps=40)
    monkeypatch.setattr(ergosmp.forward, "BLOCK_BYTES", 8 * 8 * M)  # 8 steps per block
    dW = brownian_increments(1, M, grid, 1)

    def control_at(k, xk, out):
        # Step j (in the second block) blows up paths 3 and 5, step j + 1 path 1.
        u = np.zeros((M, 1))
        if k == j:
            u[[3, 5]] = np.inf
        if k == j + 1:
            u[1] = np.inf
        return u

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SimulationError, match=f"^probe: non-finite value at step {j + 1}, path 3$"):
            for _ in _tamed_euler_blocks(lq1, np.zeros(1), M, dW, grid.dt, control_at, "probe"):
                pass
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_affine_dual_overflow_names_first_step_and_lowest_path(monkeypatch):
    # On an unstable linearization (D_x b = 14) a huge forcing of paths 9 and
    # 5 from step 7 overflows both at one step, past the first time block; a
    # per-step check names that step and path 5.
    model = ModelSpec.lq(A=[[14.0]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         control_set=ConvexSet.box([-1.0], [1.0]))
    law = model.zero_control()
    M, dt = 16, 0.05
    grid = TimeGrid(dt=dt, steps=80)
    monkeypatch.setattr(ergosmp.forward, "BLOCK_BYTES", 8 * 8 * M)  # 8 steps per block
    base = simulate_state(model, law, [0.0], grid, M, seed=1)
    gamma = np.zeros((M, grid.steps, 1))
    gamma[[9, 5], 7:] = 1e300
    y, j = np.zeros(M), 0
    with np.errstate(all="ignore"):
        while np.isfinite(y).all():
            y = y + (dt * (14.0 * y) + dt * gamma[:, j, 0])
            j += 1
    assert 16 < j < grid.steps and list(np.flatnonzero(~np.isfinite(y))) == [5, 9]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match=f"^simulate_affine_dual: non-finite value at step {j}, path 5$"):
            simulate_affine_dual(model, base, law, 0.0, np.zeros(1), gamma=gamma)
        # The duality check streams the same recursion through its integrals'
        # blocks; in one block it stops before any pairing overflows.
        monkeypatch.undo()
        with pytest.raises(SimulationError, match=f"^simulate_affine_dual: non-finite value at step {j}, path 5$"):
            verify_duality_finite(model, law, 0.0, grid.horizon, gamma=gamma, dt=dt, base=base)


def test_restricted_view(lq1, lq1_zero, lq1_base8):
    sub = lq1_base8.restricted(4.0)
    assert sub.grid.steps == 400
    assert np.array_equal(sub.states, lq1_base8.states[:, :401])
    assert sub.seed == lq1_base8.seed
