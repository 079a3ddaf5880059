import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import ergosmp.forward

from ergosmp import (
    ControlLaw,
    ConvexSet,
    ModelSpec,
    SimulationError,
    TimeGrid,
    estimate_ergodic_cost,
    simulate_state,
    verify_expansion_residual,
)
from ergosmp.ergodic_cost import _cost_sums_at, _simulate_priced, checkpoint_times, ergodic_report_from_ensemble
from ergosmp.forward import brownian_increments


def _free_model():
    # zero running cost
    return ModelSpec.lq(A=[[-1.0]], B=[[1.0]], S=[[1.0]], Q=[[0.0]], R=[[0.0]],
                        control_set=ConvexSet.box([-5.0], [5.0]))


def test_zero_cost_family(lq1_zero, lq1_base8):
    model = _free_model()
    assert np.all(_cost_sums_at(model, lq1_base8, lq1_zero, [100]) == 0.0)


def test_deterministic_cost_integral(lq1, lq1_zero):
    noiseless = dataclasses.replace(lq1, S=[[0.0]])
    ens = simulate_state(noiseless, lq1_zero, [1.0], TimeGrid(dt=0.01, steps=100), 4, seed=0)
    val = _cost_sums_at(noiseless, ens, lq1_zero, [100]).mean()  # E int_0^1 f dt
    assert abs(val - (1 - np.exp(-2.0)) / 2.0) < 0.02


def test_ou_cost_integral(lq1, lq1_zero):
    ens = simulate_state(lq1, lq1_zero, [0.0], TimeGrid(dt=0.01, steps=2000), 2048, seed=12)
    val = _cost_sums_at(lq1, ens, lq1_zero, [2000]).mean()  # E int_0^20 f dt
    oracle = 10.0 - (1 - np.exp(-40.0)) / 4.0  # integral of the OU variance
    assert abs(val - oracle) < 0.3


def test_cost_rejects_ensemble_of_another_law(lq1, lq1_base8):
    # lq1_base8 was simulated under u = 0; costing it under another law would
    # report that law's cost under the ensemble's control_id
    law = ControlLaw.affine([[-0.4]], [0.0], lq1.control_set)
    with pytest.raises(SimulationError, match="generated under"):
        ergodic_report_from_ensemble(lq1, lq1_base8, law)
    with pytest.raises(SimulationError, match="generated under"):
        _cost_sums_at(lq1, lq1_base8, law, [100])


def test_checkpoint_schedule_properties():
    ts = checkpoint_times(20.0, 0.01)
    assert ts[-1] == pytest.approx(20.0)
    assert np.all(np.diff(ts) > 0)
    tail = ts[ts >= 0.75 * 20.0 - 1e-9]
    assert len(tail) >= 8
    spacings = np.diff(ts)
    assert spacings.max() <= 0.25 * 20.0 / 8 + 0.01 + 1e-9  # cap, up to grid snapping
    # early spacings grow geometrically at ratio 1.5 until the cap
    early = spacings[:4]
    assert np.allclose(early[1:] / early[:-1], 1.5, rtol=0.3)


def test_ergodic_tails_ou_and_riccati(lq1, lq1_zero, riccati_p):
    rep = estimate_ergodic_cost(lq1, lq1_zero, [0.0], 40.0, 2048, 13, dt=0.01)
    assert rep.tail_min <= rep.tail_max
    assert abs(rep.tail_min - 0.5) < 0.03 and abs(rep.tail_max - 0.5) < 0.03
    assert all(v >= 0.0 for _, v in rep.checkpoints)  # cost bounded below by 0

    law = ControlLaw.affine([[-riccati_p]], [0.0], lq1.control_set)
    rep2 = estimate_ergodic_cost(lq1, law, [0.0], 40.0, 2048, 13, dt=0.01)
    assert abs(rep2.tail_max - riccati_p) < 0.02  # optimal cost = sigma^2 P


def _optimal_gain(model):
    """K* by Kleinman's policy iteration from K = 0, each P_K a Kronecker
    solve of (A + B K)^T P + P (A + B K) + Q + K^T R K = 0."""
    A, B, Q, R = model.A, model.B, model.Q, model.R
    eye, K = np.eye(model.n), np.zeros((model.l, model.n))
    for _ in range(30):
        Ac = A + B @ K
        P = np.linalg.solve(np.kron(eye, Ac.T) + np.kron(Ac.T, eye), -(Q + K.T @ R @ K).reshape(-1))
        K = -np.linalg.solve(R, B.T @ P.reshape(model.n, model.n))
    return K


def _discrete_lq_cost(model, K, c, x0, T, dt):
    """E J_T / T of the plain Euler chain under u = K x + c, exactly: the
    mean m_j+1 = F m_j + dt B c and covariance S_j+1 = F S_j F^T + dt S S^T,
    F = I + dt (A + B K), priced by the left-endpoint sum of the running cost.
    The law's box must not bind."""
    F, W = np.eye(model.n) + dt * (model.A + model.B @ K), model.Q + K.T @ model.R @ K
    m, cov, total = np.asarray(x0, dtype=float), np.zeros((model.n, model.n)), 0.0
    for _ in range(round(T / dt)):
        u = K @ m + c
        total += dt * (np.trace(W @ cov) + m @ model.Q @ m + u @ model.R @ u)
        m, cov = F @ m + dt * model.B @ c, F @ cov @ F.T + dt * model.S @ model.S.T
    return total / T


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", ["lq1", "lq3"])
def test_lq_cost_matches_the_discrete_oracle(family, seed, lq1, lq3):
    # The LQ step is plain Euler, so J_T / T has no scheme bias against the
    # chain's exact expectation: it sits within its own CI, with no O(dt)
    # allowance.
    model = lq1 if family == "lq1" else lq3
    K, c, x0, T, dt = _optimal_gain(model), np.zeros(model.l), np.zeros(model.n), 8.0, 0.01
    rep = estimate_ergodic_cost(model, ControlLaw.affine(K, c, model.control_set), x0, T, 4096, seed, dt=dt)
    assert rep.checkpoints[-1][0] == T
    assert abs(rep.checkpoints[-1][1] - _discrete_lq_cost(model, K, c, x0, T, dt)) <= rep.ci


def test_constant_cost_checkpoints(lq1_zero, lq1_base8):
    model = _free_model()
    rep = ergodic_report_from_ensemble(model, lq1_base8, lq1_zero)
    assert rep.tail_min == rep.tail_max == 0.0
    assert all(v == 0.0 for _, v in rep.checkpoints)


def test_tail_range_shrinks_with_horizon(lq1, lq1_zero):
    r1 = estimate_ergodic_cost(lq1, lq1_zero, [0.0], 15.0, 1024, 29, dt=0.01)
    r2 = estimate_ergodic_cost(lq1, lq1_zero, [0.0], 60.0, 1024, 29, dt=0.01)
    assert (r2.tail_max - r2.tail_min) < (r1.tail_max - r1.tail_min)


@pytest.mark.parametrize("family", ["lq1", "cubic1"])
def test_initial_condition_forgetting(family, lq1, cubic1):
    # the burn-in transient |x0|^2/(2T) dominates any honest CI, so the
    # agreement is asserted within a certified transient budget, and the
    # difference must halve when the horizon doubles.  The budget holds for
    # cubic1 too, whose extra damping only shortens the transient.  A control
    # patch on [0, T0] followed by the same law only moves X_T0, so this is
    # also the check that such a patch leaves the long-run cost unchanged.
    model = lq1 if family == "lq1" else cubic1
    zero = model.zero_control()
    budget = lambda T: 1.5 * 25.0 / (2.0 * 1.0 * T)
    diffs = {}
    for T in (40.0, 80.0):
        a = estimate_ergodic_cost(model, zero, [0.0], T, 1024, 13, dt=0.01)
        b = estimate_ergodic_cost(model, zero, [5.0], T, 1024, 13, dt=0.01)
        d = abs(b.tail_min - a.tail_min)
        assert d <= budget(T) + 2 * (a.ci + b.ci)
        diffs[T] = d
    assert diffs[80.0] < 0.75 * diffs[40.0]


def test_report_json_shape(lq1, lq1_zero):
    rep = estimate_ergodic_cost(lq1, lq1_zero, [0.0], 10.0, 256, 3, dt=0.01)
    obj = rep.to_dict()
    assert set(obj) >= {"checkpoints", "tail_min", "tail_max", "ci", "schema_version"}
    assert obj["checkpoints"][-1][0] == pytest.approx(10.0)


def test_tail_window_needs_checkpoints(lq1, lq1_zero):
    with pytest.raises(SimulationError):
        estimate_ergodic_cost(lq1, lq1_zero, [0.0], 0.05, 64, 3, dt=0.01)


# ---------------------------------------------------------------------------
# The streamed estimator


def _streamed_cases(lq1, cubic1, lq3):
    box = ConvexSet.box([-0.3, -0.15], [0.25, 0.2])  # binds on both sides of both coordinates
    lq3box = ModelSpec.lq(A=lq3.A, B=lq3.B, S=lq3.S, Q=lq3.Q, R=lq3.R, control_set=box)
    ball = ConvexSet.ball([0.1, -0.1], 0.6)
    cubic2ball = ModelSpec.cubic([1.0, 0.5], A=[[-1.0, 0.3], [0.0, -0.5]], B=[[1.0, 0.0], [0.5, 1.0]],
                                 S=[[0.8, 0.0], [0.2, 0.6]], Q=np.eye(2), R=np.eye(2), control_set=ball)
    K3 = [[-0.4, -0.1, 0.0], [0.0, -0.05, -0.3]]
    return {
        "lq1": (lq1, ControlLaw.affine([[-0.4]], [0.1], lq1.control_set)),
        "cubic1": (cubic1, ControlLaw.tabulated([-1, 0, 1], [[0.3], [-0.3]], cubic1.control_set)),
        "lq3box": (lq3box, ControlLaw.affine(K3, [0.1, 0.0], box)),
        "cubic2ball": (cubic2ball, ControlLaw.affine([[-0.8, 0.2], [0.1, -0.6]], [0.05, 0.0], ball)),
    }


@pytest.mark.parametrize("name", ["lq1", "cubic1", "lq3box", "cubic2ball"])
def test_streamed_cost_is_the_ensemble_report(name, lq1, cubic1, lq3):
    # 512 paths take 128-step time blocks, so 330 steps make two full blocks
    # and a partial one.
    model, law = _streamed_cases(lq1, cubic1, lq3)[name]
    x0 = np.full(model.n, 0.7)
    ens = simulate_state(model, law, x0, TimeGrid.from_horizon(6.6, 0.02), 512, 5)
    streamed = estimate_ergodic_cost(model, law, x0, 6.6, 512, 5, dt=0.02)
    assert streamed.to_dict() == ergodic_report_from_ensemble(model, ens, law).to_dict()


def test_streamed_cost_blow_up_names_the_step_of_simulate_state(monkeypatch):
    # Noise of scale S overflows the states, in 8-step time blocks and then
    # in time blocks nested in 13-step noise blocks.  The cost is zero, so
    # pricing a state that is not finite would warn of an invalid value.
    # - LQ, S = 1e308, the plain step x + dt (-x) + S dW: x / S is the AR(1)
    #   y_j+1 = 0.99 y_j + dW_j from 0, and x overflows once |y| exceeds
    #   DBL_MAX / S = 1.798.  Path 23 does so first, at step 98, which lies in
    #   [96, 104), and in [91, 99), the first time block of the noise block
    #   [91, 104).
    # - Cubic, S = 2e102, the tamed step: its drift increment is below 1 in
    #   magnitude (-0 once |b|^2 overflows), so x / S is the walk of the dW.
    #   Once |x| exceeds DBL_MAX^(1/3) = 5.64e102, x^3 overflows, b = -inf
    #   and the tamed increment is inf / inf = nan one step later.  Path 23
    #   first passes |W| > 2.82 at step 102, so the state is nan at step 103,
    #   which lies in [96, 104), and in [99, 104), the second time block of
    #   the noise block [91, 104).
    box = ConvexSet.box([-5.0], [5.0])
    cases = [(ModelSpec.lq(A=[[-1.0]], B=[[1.0]], S=[[1e308]], Q=[[0.0]], R=[[0.0]], control_set=box), 98),
             (ModelSpec.cubic([1.0], A=[[-1.0]], B=[[1.0]], S=[[2e102]], Q=[[0.0]], R=[[0.0]], control_set=box), 103)]
    M = 32
    for model, step in cases:
        monkeypatch.setattr(ergosmp.forward, "BLOCK_BYTES", 8 * 8 * M)
        law = model.zero_control()
        message = f"^simulate_state: non-finite value at step {step}, path 23$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match=message):
                simulate_state(model, law, [0.0], TimeGrid.from_horizon(4.0, 0.01), M, 0)
            with pytest.raises(SimulationError, match=message):
                estimate_ergodic_cost(model, law, [0.0], 4.0, M, 0, dt=0.01)
            monkeypatch.setattr(ergosmp.forward, "_NOISE_BYTES", 13 * 8 * M)
            with pytest.raises(SimulationError, match=message):
                simulate_state(model, law, [0.0], TimeGrid.from_horizon(4.0, 0.01), M, 0)
            with pytest.raises(SimulationError, match=message):
                estimate_ergodic_cost(model, law, [0.0], 4.0, M, 0, dt=0.01)
        monkeypatch.undo()


def test_priced_states_are_simulate_state(lq3, monkeypatch):
    # Time blocks of 8 steps: the report's sums stop inside the block of
    # T = 2.1 (step 105 of [104, 112)), and the states of the rest of the
    # block and of the buffer past T are gathered after them.
    M, seed, grid, x0 = 16, 7, TimeGrid(dt=0.02, steps=150), np.full(3, 0.7)
    law = ControlLaw.affine(np.full((2, 3), -0.3), [0.1, 0.0], lq3.control_set)
    monkeypatch.setattr(ergosmp.forward, "BLOCK_BYTES", 8 * 8 * M * lq3.n)
    ens = simulate_state(lq3, law, x0, grid, M, seed)
    priced, report = _simulate_priced(lq3, law, x0, grid, brownian_increments(seed, M, grid, lq3.d), seed, 2.1)
    assert priced.states.tobytes() == ens.states.tobytes()
    assert report.to_dict() == ergodic_report_from_ensemble(lq3, ens.restricted(2.1), law).to_dict()


def test_streamed_cost_keeps_no_state_array(cubic1):
    # Nor the noise: the pass holds one block of its stream, an eighth of it
    # here, beside the time blocks of its states and costs.
    M, steps = 2048, 2000
    zero = cubic1.zero_control()
    tracemalloc.start()
    try:
        estimate_ergodic_cost(cubic1, zero, [0.0], 20.0, M, 7, dt=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise = 8 * M * steps
    assert peak < noise / 3


def test_streamed_cost_evaluates_the_law_once_per_state(lq3, monkeypatch):
    rows = []
    evaluate = ControlLaw.evaluate

    def counting(self, x, out=None):
        rows.append(np.prod(np.shape(x)[:-1]))
        return evaluate(self, x, out=out)

    monkeypatch.setattr(ControlLaw, "evaluate", counting)
    law = ControlLaw.affine([[-0.4, -0.1, 0.0], [0.0, -0.05, -0.3]], [0.1, 0.0], lq3.control_set)
    estimate_ergodic_cost(lq3, law, np.zeros(3), 3.0, 64, 5, dt=0.02)
    assert sum(rows) == 64 * 150


# ---------------------------------------------------------------------------
# Cost expansion of the convex perturbation


def _base(model, law, T, dt, M, seed):
    return simulate_state(model, law, np.zeros(model.n), TimeGrid.from_horizon(T, dt), M, seed)


def test_gateaux_zero_direction(lq1, lq1_zero):
    rep = verify_expansion_residual(lq1, lq1_zero, lq1_zero, [0.5, 0.25], _base(lq1, lq1_zero, 5.0, 0.01, 256, 8))
    assert rep.finite_difference == (0.0, 0.0)
    assert rep.linearized == 0.0
    assert rep.sup_delta_sq == (0.0, 0.0)
    assert np.isnan(rep.scaling_slope)  # no state moves: the slope is unavailable
    assert rep.to_dict()["scaling_slope"] is None


def test_gateaux_lq_gap_linear_in_theta(lq1, lq1_zero, lq1_one):
    # affine-quadratic structure: gap(theta) = theta * (1/T) int (E|Y|^2 + |v|^2),
    # exactly, since the plain Euler step is linear and Y is its tangent
    base = _base(lq1, lq1_zero, 20.0, 0.01, 1024, 31)
    rep = verify_expansion_residual(lq1, lq1_zero, lq1_one, [0.004, 0.002], base)
    gap4, gap2 = rep.gateaux_gap
    fd4, fd2 = rep.finite_difference
    assert gap2 < 5e-3
    assert gap4 / 0.004 == pytest.approx(gap2 / 0.002, rel=1e-9)
    # theta -> 0 extrapolation of the finite difference hits the linearized value
    extrapolated = 2 * fd2 - fd4
    assert abs(extrapolated - rep.linearized) < 2e-3


def test_lq3_closed_loop_base_has_an_exact_tangent(lq3):
    # An open-loop constant perturbation of an affine feedback base whose box
    # does not bind: the perturbed plain Euler states are affine in theta, so
    # the state expansion holds to round-off and gap(theta) / theta is one
    # number on every theta.
    law = ControlLaw.affine([[-0.4, -0.1, 0.0], [0.0, -0.05, -0.3]], [0.1, 0.0], lq3.control_set)
    alt = ControlLaw.constant([1.0, -1.0], lq3.control_set)
    base = _base(lq3, law, 6.0, 0.01, 1024, 5)
    assert np.abs(law.evaluate(base.states)).max() < 5.0
    thetas = [0.2, 0.1, 0.05]
    rep = verify_expansion_residual(lq3, law, alt, thetas, base)
    assert max(rep.sup_residual_sq) <= 1e-24
    assert 1.9 <= rep.scaling_slope <= 2.1
    slopes = [gap / theta for gap, theta in zip(rep.gateaux_gap, thetas)]
    assert slopes == pytest.approx([slopes[0]] * len(thetas), rel=1e-9)


def test_gateaux_rejects_theta_outside_unit_interval(lq1, lq1_zero, lq1_one):
    # theta = 0 would divide the finite difference by zero
    base = _base(lq1, lq1_zero, 1.0, 0.01, 16, 8)
    for thetas in ([0.5, 0.0], [1.5, 0.5]):
        with pytest.raises(SimulationError, match="theta"):
            verify_expansion_residual(lq1, lq1_zero, lq1_one, thetas, base)


def test_gateaux_evaluates_each_law_once_per_path(lq1, monkeypatch):
    u_bar = ControlLaw.affine([[-0.4]], [0.1], lq1.control_set)
    u_alt = ControlLaw.constant([1.0], lq1.control_set)
    base = _base(lq1, u_bar, 1.0, 0.01, 64, 8)
    ladders = ([0.1, 0.05], [0.4, 0.2, 0.1, 0.05])
    references = [verify_expansion_residual(lq1, u_bar, u_alt, thetas, base) for thetas in ladders]
    evaluate = ControlLaw.evaluate
    for thetas, reference in zip(ladders, references):
        calls = {}

        def counting(self, x):
            calls[self.describe()] = calls.get(self.describe(), 0) + 1
            return evaluate(self, x)

        monkeypatch.setattr(ControlLaw, "evaluate", counting)
        rep = verify_expansion_residual(lq1, u_bar, u_alt, thetas, base)
        # one whole-path call per law, whatever the ladder length
        assert calls == {u_bar.describe(): 1, u_alt.describe(): 1}
        assert rep == reference


def test_gateaux_cubic_gap_shrinks(cubic1):
    zero = cubic1.zero_control()
    one = ControlLaw.constant([1.0], cubic1.control_set)
    rep = verify_expansion_residual(cubic1, zero, one, [0.1, 0.05], _base(cubic1, zero, 10.0, 0.005, 2048, 31))
    assert rep.gateaux_gap[0] / rep.gateaux_gap[1] >= 1.5
