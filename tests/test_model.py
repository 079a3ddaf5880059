import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosmp import (
    ControlLaw,
    ConvexSet,
    ModelError,
    ModelSpec,
    check_dissipativity,
    model_config_dict,
)
from ergosmp.model import (_dot, _mat_vec, cost_at, cost_grad_u, cost_grad_x, drift_at, drift_jac_apply,
                           drift_jac_x, drift_jacT_apply)


def test_eval_lq1_at_origin(lq1):
    x, u = np.zeros((1, 1)), np.zeros((1, 1))
    assert drift_at(lq1, x, u)[0, 0] == 0.0
    assert cost_at(lq1, x, u)[0] == 0.0
    assert drift_jac_x(lq1, x)[0, 0, 0] == -1.0
    assert lq1.B[0, 0] == 1.0
    assert cost_grad_x(lq1, x)[0, 0] == 0.0


def test_eval_cubic1(cubic1):
    x, u = np.full((1, 1), 2.0), np.zeros((1, 1))
    assert drift_at(cubic1, x, u)[0, 0] == -10.0
    assert drift_jac_x(cubic1, x)[0, 0, 0] == -13.0


def test_eval_lq1_cost(lq1):
    x, u = np.ones((1, 1)), np.full((1, 1), 3.0)
    assert cost_at(lq1, x, u)[0] == 10.0
    assert cost_grad_u(lq1, u)[0, 0] == 6.0


def test_eval_shapes_multidim():
    model = ModelSpec.lq(
        A=[[-1.0, 0.2], [0.0, -2.0]], B=[[1.0, 0.0], [0.5, 1.0]],
        S=[[1.0, 0.0], [0.0, 0.5]], Q=np.eye(2), R=np.eye(2),
        control_set=ConvexSet.box([-3.0, -3.0], [3.0, 3.0]),
    )
    X, U = np.array([[0.3, -0.2]] * 5), np.array([[0.1, 0.2]] * 5)
    assert drift_at(model, X, U).shape == (5, 2)
    assert drift_jac_x(model, X).shape == (5, 2, 2)
    assert cost_grad_x(model, X).shape == (5, 2)
    assert cost_grad_u(model, U).shape == (5, 2)
    f = cost_at(model, X, U)
    assert f.shape == (5,) and np.isfinite(f).all()


@pytest.mark.parametrize("family", ["lq1", "cubic1"])
def test_derivatives_match_finite_differences(family, lq1, cubic1):
    model = lq1 if family == "lq1" else cubic1
    rng = np.random.default_rng(99)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        x = 2.0 * rng.standard_normal((1, model.n))
        u = model.control_set.sample(rng, 1)
        # (point, exact Jacobian with one column per coordinate, function)
        exact = (
            (x, drift_jac_x(model, x)[0], lambda z: drift_at(model, z, u)[0]),
            (x, cost_grad_x(model, x), lambda z: cost_at(model, z, u)),
            (u, model.B, lambda z: drift_at(model, x, z)[0]),
            (u, cost_grad_u(model, u), lambda z: cost_at(model, x, z)),
        )
        for z, jac, fun in exact:
            for i in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[0, i] += h
                zm[0, i] -= h
                fd = (fun(zp) - fun(zm)) / (2 * h)
                worst = max(worst, np.max(np.abs(fd - jac[:, i]) / np.maximum(1.0, np.abs(jac[:, i]))))
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# Projection


def test_projection_examples():
    box = ConvexSet.box([-5.0], [5.0])
    assert box.project([3.0])[0] == 3.0
    assert box.project([7.0])[0] == 5.0
    ball = ConvexSet.ball([0.0, 0.0], 1.0)
    assert np.allclose(ball.project([3.0, 4.0]), [0.6, 0.8], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
    b=st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
    ball=st.booleans(),
)
def test_projection_idempotent_nonexpansive(a, b, ball):
    cs = ConvexSet.ball([0.5, -1.0], 2.0) if ball else ConvexSet.box([-2.0, 0.0], [1.0, 4.0])
    a, b = np.asarray(a), np.asarray(b)
    pa, pb = cs.project(a), cs.project(b)
    assert np.allclose(cs.project(pa), pa, atol=1e-12)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


# ---------------------------------------------------------------------------
# Structural constants and construction errors


def test_structural_constants_rejected():
    # m, p and k follow from alpha and the constant sigma, so no builder takes them.
    data = dict(A=[[-1.0]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]], control_set=ConvexSet.box([-5.0], [5.0]))
    with pytest.raises(TypeError):
        ModelSpec.lq(**data, p=6.0)
    with pytest.raises(TypeError):
        ModelSpec.cubic([1.0], **data, m=1)
    with pytest.raises(TypeError):
        ModelSpec(**data, alpha=[0.0], k=3.0)


def test_bad_coefficients_rejected():
    box = ConvexSet.box([-5.0], [5.0])
    with pytest.raises(ModelError):
        ConvexSet.box([5.0], [-5.0])
    with pytest.raises(ModelError):
        ModelSpec.cubic(alpha=[-1.0], A=[[-1.0]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        control_set=box)
    with pytest.raises(ModelError):
        ModelSpec.lq(A=[[-1.0]], B=[[1.0]], S=[[1.0]], Q=[[-1.0]], R=[[1.0]], control_set=box)


def test_nearly_symmetric_cost_rejected():
    # 2 Q x is the gradient (Q + Q^T) x of <Q x, x> only for a symmetric Q:
    # at x = (1, 2) this Q's asymmetry 5e-6 would move it by 1e-5.
    box = ConvexSet.box([-5.0, -5.0], [5.0, 5.0])
    data = dict(A=-np.eye(2), B=np.eye(2), S=np.eye(2), Q=np.eye(2), R=np.eye(2), control_set=box)
    for name in ("Q", "R"):
        with pytest.raises(ModelError, match=f"{name} must be symmetric"):
            ModelSpec.lq(**{**data, name: [[2.0, 1.0 + 5e-6], [1.0, 2.0]]})
    # an asymmetry of one ulp passes, at any scale
    for scale in (1.0, 1e8):
        Q = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
        Q[0, 1] = np.nextafter(Q[0, 1], np.inf)
        ModelSpec.lq(**{**data, "Q": Q})


def test_control_dim_checked():
    with pytest.raises(ModelError):
        ModelSpec.lq(A=[[-1.0]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]],
                     control_set=ConvexSet.box([-1.0, -1.0], [1.0, 1.0]))


# ---------------------------------------------------------------------------
# One coefficient form


LQ3 = dict(A=[[-1.0, 0.4, 0.0], [0.0, -1.2, 0.4], [0.0, 0.0, -0.8]], B=[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
           S=[[0.6, 0.0], [0.3, 0.5], [0.0, 0.4]], Q=np.eye(3), R=np.eye(2))


def test_model_spec_is_one_coefficient_form():
    names = [f.name for f in dataclasses.fields(ModelSpec)]
    assert names == ["A", "B", "S", "Q", "R", "alpha", "control_set"]
    model = ModelSpec.lq(**LQ3, control_set=ConvexSet.box([-5.0, -5.0], [5.0, 5.0]))
    assert (model.n, model.l, model.d) == (3, 2, 2)
    wide = dataclasses.replace(model, S=np.ones((3, 4)))
    assert wide.d == 4 and wide.alpha.tolist() == [0.0, 0.0, 0.0]
    assert dataclasses.replace(ModelSpec.cubic1(), S=[[0.5]]).has_cubic


def _wide_range(rng, shape):
    return rng.standard_normal(shape) * np.exp(3.0 * rng.standard_normal(shape))


def test_mat_vec_matches_broadcast_sum():
    # row by row on (..., M) columns, left to right, offset added last: bitwise
    # the broadcast sum plus offset for 1-7 rows and 1-7 columns, on states,
    # step stacks and per-path matrices; the first k paths of a batch equal the
    # k-path call, and one call on a step stack equals per-step calls
    rng = np.random.default_rng(8)
    M, k = 257, 40
    for rows in range(1, 8):
        for cols in range(1, 8):
            stack = _wide_range(rng, (3, M, cols))
            cases = [(_wide_range(rng, (rows, cols)), _wide_range(rng, (M, cols)), None),
                     (_wide_range(rng, (1, rows, cols)), stack, _wide_range(rng, rows)),
                     (_wide_range(rng, (M, rows, cols)), _wide_range(rng, (M, cols)), _wide_range(rng, (M, rows)))]
            for mat, vec, offset in cases:
                expected = (mat * vec[..., None, :]).sum(axis=-1)
                if offset is not None:
                    expected = expected + offset
                got = _mat_vec(mat, vec, offset)
                assert got.tobytes() == expected.tobytes(), (rows, cols, mat.shape)
                if len(mat) == M:  # per-path matrices and offsets
                    mat, offset = mat[:k], offset[:k]
                assert _mat_vec(mat, vec[..., :k, :], offset).tobytes() == got[..., :k, :].tobytes()
            mat, _, offset = cases[1]
            per_step = np.stack([_mat_vec(mat, x, offset) for x in stack])
            assert _mat_vec(mat, stack, offset).tobytes() == per_step.tobytes()


def test_dot_matches_broadcast_sum():
    # left to right on (..., M) columns for 1-7 terms, numpy's reduction for
    # more: bitwise (a * b).sum(-1) either way
    rng = np.random.default_rng(21)
    for n in range(1, 10):
        for shape in ((257, n), (3, 257, n)):
            a, b = _wide_range(rng, shape), _wide_range(rng, shape)
            got = _dot(a, b)
            assert got.tobytes() == (a * b).sum(axis=-1).tobytes()
            assert _dot(a[..., :40, :], b[..., :40, :]).tobytes() == got[..., :40].tobytes()


# (lower, upper): one coordinate (np.clip) and two or three (maximum, then
# minimum, per coordinate), each with and without bounds at +-0.0.
BOXES = [([-1.5], [2.0]), ([-1.5, -1.0], [2.0, 1e-300]), ([-1.5, -1.0, -np.pi], [2.0, 3.0, 0.5]),
         ([-1.5, 0.0], [2.0, 0.0]), ([-0.0, -1.0], [2.0, 1.0]), ([0.0], [1.0]), ([-0.0], [0.0]),
         ([0.0, -0.0], [-0.0, 0.0]), ([-1.0, -2.0, 0.0], [-0.0, 2.0, 0.0])]


@pytest.mark.parametrize("lower,upper", BOXES, ids=[f"box{i}" for i in range(len(BOXES))])
def test_box_projection_matches_clip(lower, upper):
    box = ConvexSet.box(lower, upper)
    dim = box.dim
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e-300, 1.0])
    rng = np.random.default_rng(23)
    u = np.concatenate([rng.choice(special, (64, dim)), _wide_range(rng, (193, dim))])
    for stack in (u, u.reshape(1, 257, dim), np.stack([u, u[::-1]])):
        got = box.project(stack)
        assert got.tobytes() == np.clip(stack, box.lower, box.upper).tobytes()
        assert box.project(stack[..., :50, :]).tobytes() == got[..., :50, :].tobytes()


@pytest.mark.parametrize("family", ["lq1", "cubic1", "lq3"])
def test_drift_jac_apply_matches_jacobian(family, lq1, cubic1):
    if family == "lq3":
        model = ModelSpec.cubic([0.5, 0.0, 1.0], **LQ3, control_set=ConvexSet.box([-5.0, -5.0], [5.0, 5.0]))
    else:
        model = {"lq1": lq1, "cubic1": cubic1}[family]
    rng = np.random.default_rng(9)
    X, Z = rng.standard_normal((64, model.n)), rng.standard_normal((64, model.n))
    expected = (drift_jac_x(model, X) * Z[:, None, :]).sum(axis=-1)
    if model.has_cubic:
        np.testing.assert_allclose(drift_jac_apply(model, X, Z), expected, rtol=1e-13, atol=1e-13)
    else:
        assert drift_jac_apply(model, X, Z).tobytes() == expected.tobytes()


@pytest.mark.parametrize("family", ["cubic1", "cubic3"])
def test_cubic_drift_within_2_ulp_of_pow(family, cubic1):
    if family == "cubic3":
        model = ModelSpec.cubic([0.7, 0.0, 1.3], **LQ3, control_set=ConvexSet.box([-5.0, -5.0], [5.0, 5.0]))
    else:
        model = cubic1
    rng = np.random.default_rng(11)
    X = np.sign(rng.standard_normal((4096, model.n))) * 10.0 ** rng.uniform(-6.0, 5.0, (4096, model.n))
    X[:2] = [[1e5] * model.n, [-1e5] * model.n]
    U = model.control_set.sample(rng, 4096)
    cube = model.alpha * X**3
    ref = drift_at(dataclasses.replace(model, alpha=np.zeros(model.n)), X, U) - cube
    got = drift_at(model, X, U)
    # alpha * x^3 is within 2 ulp of the pow-based term; adding the linear
    # part rounds once more, by at most one ulp of the larger result.
    tol = 2 * np.spacing(np.abs(cube)) + np.spacing(np.maximum(np.abs(ref), np.abs(got)))
    assert np.all(np.abs(got - ref) <= tol)


CUBIC2 = dict(A=[[-1.0, 0.3], [0.2, -0.7]], B=[[1.0], [0.5]], S=[[0.5], [0.4]], Q=np.eye(2), R=np.eye(1))


@pytest.mark.parametrize("n", [2, 3])
def test_cubic_terms_match_broadcast_formulas(n):
    # the alpha terms run one coordinate column at a time, with the products
    # and their order of the broadcast formulas: bitwise equal, on states and
    # on step stacks
    data = CUBIC2 if n == 2 else LQ3
    l = np.shape(data["B"])[1]
    model = ModelSpec.cubic([0.7, 1.3, 0.4][:n], **data, control_set=ConvexSet.box([-5.0] * l, [5.0] * l))
    linear = dataclasses.replace(model, alpha=np.zeros(n))
    rng = np.random.default_rng(31)
    for shape in ((257, n), (3, 257, n)):
        X, Z = _wide_range(rng, shape), _wide_range(rng, shape)
        U = _wide_range(rng, shape[:-1] + (model.l,))
        assert drift_at(model, X, U).tobytes() == (
            drift_at(linear, X, U) - model.alpha * (X * X * X)).tobytes()
        assert drift_jac_apply(model, X, Z).tobytes() == (
            drift_jac_apply(linear, X, Z) - 3.0 * model.alpha * X**2 * Z).tobytes()
        assert drift_jacT_apply(model, X, Z).tobytes() == (
            drift_jacT_apply(linear, X, Z) - 3.0 * model.alpha * X**2 * Z).tobytes()


def test_constant_law_fills_like_broadcast():
    # per-coordinate fill of an l = 2 constant law: bitwise the broadcast copy
    for cs in (ConvexSet.box([-1.0, -0.5], [1.0, 2.0]), ConvexSet.ball([0.5, -0.5], 1.5)):
        law = ControlLaw.constant([0.3, -0.0], cs)
        for x in (np.zeros((257, 3)), np.zeros((4, 257, 1))):
            expected = cs.project(np.broadcast_to(law.const, x.shape[:-1] + (2,)).copy())
            assert law.evaluate(x).tobytes() == expected.tobytes()


def test_lq_equals_cubic_with_zero_alpha():
    cs = ConvexSet.box([-5.0, -5.0], [5.0, 5.0])
    lq = ModelSpec.lq(**LQ3, control_set=cs)
    cubic = ModelSpec.cubic(np.zeros(3), **LQ3, control_set=cs)
    rng = np.random.default_rng(4)
    X = 3.0 * rng.standard_normal((64, 3))
    U = rng.standard_normal((64, 2))
    P = rng.standard_normal((64, 3))
    for fn, args in ((drift_at, (X, U)), (drift_jac_x, (X,)), (drift_jacT_apply, (X, P))):
        assert fn(lq, *args).tobytes() == fn(cubic, *args).tobytes()
    assert model_config_dict(cubic) == model_config_dict(lq)
    assert "cubic" not in model_config_dict(lq)


# ---------------------------------------------------------------------------
# Dissipativity probing


def test_dissipativity_lq1(lq1):
    rep = check_dissipativity(lq1, probes=256, seed=0)
    assert rep.passed
    assert rep.sampled_max == -1.0
    assert rep.probe_count == 256


def test_dissipativity_cubic1(cubic1):
    rep = check_dissipativity(cubic1, probes=256, seed=0)
    assert rep.passed
    assert rep.sampled_max <= -1.0
    # the probe maximum never exceeds the certified tightest constant
    assert rep.sampled_max <= cubic1.certified_dissipativity_bound() + 1e-12


def test_dissipativity_unstable_model_fails():
    model = ModelSpec.lq(A=[[1.0]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         control_set=ConvexSet.box([-5.0], [5.0]))
    rep = check_dissipativity(model, probes=64, seed=1)
    assert not rep.passed
    assert rep.sampled_max > 0.0


def test_dissipativity_deterministic(lq1):
    a = check_dissipativity(lq1, probes=128, seed=3)
    b = check_dissipativity(lq1, probes=128, seed=3)
    assert a == b
    with pytest.raises(ModelError):
        check_dissipativity(lq1, probes=0, seed=3)


@pytest.mark.parametrize("name,c_p,buffer", [("lq1", -1.0, 4.61), ("cubic1", -1.0, 4.61), ("lq3", -0.6936, 6.64)])
def test_forgetting_time_is_the_derived_buffer(lq1, cubic1, lq3, name, c_p, buffer):
    # ln(100)/|c_p| = 4.605 and 6.640, rounded up to the grid of dt 0.01
    model = {"lq1": lq1, "cubic1": cubic1, "lq3": lq3}[name]
    assert model.certified_dissipativity_bound() == pytest.approx(c_p, abs=1e-4)
    t = model.forgetting_time(0.01)
    assert t == pytest.approx(buffer, abs=1e-12)
    j = round(t / 0.01)
    assert (j - 1) * 0.01 < np.log(100.0) / -c_p <= j * 0.01 + 1e-4
    assert model.forgetting_time(0.5) == (7.0 if name == "lq3" else 5.0)


def test_forgetting_time_needs_a_certified_rate():
    # dissipative only through the cubic term: no certified rate
    model = ModelSpec.cubic(alpha=[1.0], A=[[0.5]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]],
                            control_set=ConvexSet.box([-5.0], [5.0]))
    with pytest.raises(ModelError, match=r"certified c_p=0\.5 >= 0 gives no decay rate"):
        model.forgetting_time(0.01)


def test_forgetting_time_refuses_a_slow_rate():
    # ln(100)/0.23 = 20.02 is past the cap of 20; ln(100)/0.24 = 19.19 is not
    box = ConvexSet.box([-5.0], [5.0])
    slow, fast = (ModelSpec.lq(A=[[a]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]], control_set=box)
                  for a in (-0.23, -0.24))
    with pytest.raises(ModelError, match=r"certified c_p=-0\.23 decays so slowly that the buffer would be 20\.03 > 20"):
        slow.forgetting_time(0.01)
    assert fast.forgetting_time(0.01) == pytest.approx(19.19, abs=1e-12)


# ---------------------------------------------------------------------------
# Control laws


def test_control_law_projection(lq1):
    law = ControlLaw.affine([[2.0]], [0.0], lq1.control_set)
    u = law.evaluate(np.array([[4.0]]))
    assert u[0, 0] == 5.0  # 2*4 clipped into [-5, 5]


def test_tabulated_law():
    cs = ConvexSet.box([-5.0], [5.0])
    law = ControlLaw.tabulated([-1.0, 0.0, 1.0], [[-2.0], [2.0]], cs)
    x = np.array([[-0.5], [0.5], [-3.0], [3.0]])
    u = law.evaluate(x)
    assert u[:, 0].tolist() == [-2.0, 2.0, -2.0, 2.0]
    flipped = law.negated()
    assert flipped.evaluate(x)[:, 0].tolist() == [2.0, -2.0, 2.0, -2.0]
    with pytest.raises(ModelError):
        ControlLaw.tabulated([1.0, 0.0], [[0.0]], cs)


def test_control_law_describe_is_stable(lq1):
    law = ControlLaw.affine([[-0.5]], [0.1], lq1.control_set)
    assert law.describe() == ControlLaw.affine([[-0.5]], [0.1], lq1.control_set).describe()
    assert law.describe() != lq1.zero_control().describe()


_SETS = {"box": ConvexSet.box([-1.0, -0.5], [1.0, 2.0]), "ball": ConvexSet.ball([0.5, -0.5], 1.5)}


@pytest.mark.parametrize("set_name", sorted(_SETS))
@pytest.mark.parametrize("kind", ["constant", "affine", "tabulated"])
def test_path_stack_evaluation_matches_per_step(kind, set_name):
    # a feedback reads only the current state, so one call on an (M, steps, n)
    # stack, C-ordered or time-major as the ensembles store it, equals
    # per-step calls bitwise
    cs = _SETS[set_name]
    rng = np.random.default_rng(17)
    n = 1 if kind == "tabulated" else 3
    if kind == "constant":
        law = ControlLaw.constant([3.0, -2.5], cs)
    elif kind == "affine":
        law = ControlLaw.affine(rng.uniform(-2.0, 2.0, (2, n)), [0.3, -0.1], cs)
    else:
        law = ControlLaw.tabulated([-1.0, -0.2, 0.4, 1.0], rng.uniform(-3.0, 3.0, (3, 2)), cs)
    M, steps = 64, 40
    time_major = 2.0 * rng.standard_normal((steps, M, n)).transpose(1, 0, 2)
    for X in (np.ascontiguousarray(time_major), time_major):
        stacked = law.evaluate(X)
        assert stacked.shape == (M, steps, 2)
        per_step = np.stack([law.evaluate(X[:, j]) for j in range(steps)], axis=1)
        assert stacked.tobytes() == per_step.tobytes()
        assert np.allclose(cs.project(stacked), stacked, rtol=0.0, atol=1e-12)  # admissible
        # the out= path is the same routine: it fills and returns the buffer
        out = np.full((M, steps, 2), np.nan)
        assert law.evaluate(X, out=out) is out
        assert out.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("set_name", sorted(_SETS))
def test_projection_into_out_and_in_place(set_name):
    cs = _SETS[set_name]
    u = 3.0 * np.random.default_rng(5).standard_normal((257, 2))
    expected = cs.project(u)
    out = np.empty_like(u)
    assert cs.project(u, out=out) is out
    assert out.tobytes() == expected.tobytes()
    assert cs.project(u, out=u) is u
    assert u.tobytes() == expected.tobytes()
