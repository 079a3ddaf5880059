"""Built-in verification suites: identity checks and quantitative invariants.

Two suites back the `verify` CLI subcommand.  The "trivial" suite runs cheap
closed-form identities; the "invariants" suite runs the quantitative
contracts (derivative consistency, projection geometry, bitwise determinism
across reruns and path prefixes, the moment bound and the forgetting rate).
Both call the batched coefficient functions of `model` on one-row arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import model as mod
from .adjoint import RegressionBasis, solve_adjoint_finite
from .config import model_config_dict, parse_model_config
from .ergodic_cost import estimate_cost_T
from .forward import (
    TimeGrid,
    estimate_moment,
    simulate_affine_dual,
    simulate_first_variation,
    simulate_perturbed,
    simulate_state,
)
from .model import ControlLaw, ConvexSet, ModelSpec, check_dissipativity
from .smp import hamiltonian

__all__ = ["CheckResult", "run_suite", "SUITES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # Checks compute `passed` from numpy comparisons; numpy.bool_ is not
        # JSON-serializable.
        object.__setattr__(self, "passed", bool(self.passed))

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _close(a, b, tol):
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Trivial suite: closed-form identities


def _trivial_checks(model: ModelSpec) -> List[CheckResult]:
    checks: List[CheckResult] = []
    lq1 = ModelSpec.lq1()
    cubic1 = ModelSpec.cubic1()

    x, u = np.zeros((1, 1)), np.zeros((1, 1))
    ok = (
        mod.drift_at(lq1, x, u)[0, 0] == 0.0 and mod.cost_at(lq1, x, u)[0] == 0.0
        and mod.drift_jac_x(lq1, x)[0, 0, 0] == -1.0 and lq1.B[0, 0] == 1.0
        and mod.cost_grad_x(lq1, x)[0, 0] == 0.0
    )
    checks.append(CheckResult("eval-model-lq1-origin", ok, "b=0, f=0, D_xb=-1, D_ub=1"))

    x = np.full((1, 1), 2.0)
    b, jac = mod.drift_at(cubic1, x, u)[0, 0], mod.drift_jac_x(cubic1, x)[0, 0, 0]
    ok = b == -10.0 and jac == -13.0
    checks.append(CheckResult("eval-model-cubic1", ok, f"b={b}, D_xb={jac}"))

    x, u = np.ones((1, 1)), np.full((1, 1), 3.0)
    f, grad = mod.cost_at(lq1, x, u)[0], mod.cost_grad_u(lq1, u)[0, 0]
    ok = f == 10.0 and grad == 6.0
    checks.append(CheckResult("eval-model-lq1-cost", ok, f"f={f}, D_uf={grad}"))

    rep = check_dissipativity(lq1, probes=128, seed=0)
    checks.append(
        CheckResult("dissipativity-lq1", rep.passed and rep.estimated_c_p == -1.0,
                    f"estimated c_p={rep.estimated_c_p}")
    )
    rep = check_dissipativity(cubic1, probes=128, seed=0)
    checks.append(
        CheckResult("dissipativity-cubic1", rep.passed and rep.sampled_max <= -1.0,
                    f"sampled_max={rep.sampled_max:.4f}")
    )
    unstable = ModelSpec.lq(A=[[1.0]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]],
                            control_set=ConvexSet.box([-5.0], [5.0]))
    rep = check_dissipativity(unstable, probes=128, seed=0)
    checks.append(CheckResult("dissipativity-unstable", not rep.passed,
                              f"sampled_max={rep.sampled_max:.4f}"))

    box = ConvexSet.box([-5.0], [5.0])
    ball = ConvexSet.ball([0.0, 0.0], 1.0)
    ok = (
        mod.project_control(box, [3.0])[0] == 3.0
        and mod.project_control(box, [7.0])[0] == 5.0
        and np.allclose(mod.project_control(ball, [3.0, 4.0]), [0.6, 0.8], atol=1e-15)
    )
    checks.append(CheckResult("projection-cases", ok, "clamp and radial rescale"))

    grid = TimeGrid(dt=0.01, steps=100)
    zero = lq1.zero_control()
    one = ControlLaw.constant([1.0], lq1.control_set)
    base = simulate_state(lq1, zero, [1.0], grid, 64, seed=11)
    pert0 = simulate_perturbed(lq1, zero, one, 0.0, base)
    checks.append(CheckResult("perturbed-theta0-bitwise",
                              bool(np.array_equal(pert0.states, base.states)),
                              "theta=0 reproduces the base ensemble"))

    v0 = np.zeros((64, grid.steps, 1))
    fv = simulate_first_variation(lq1, base, zero, v0)
    checks.append(CheckResult("first-variation-zero-direction",
                              bool(np.all(fv == 0.0)), "v=0 gives Y=0"))

    dual = simulate_affine_dual(lq1, base, zero, 0.0, np.zeros((64, 1)))
    checks.append(CheckResult("dual-zero-data",
                              bool(np.all(dual == 0.0)), "eta=gamma=rho=0 gives Ycal=0"))

    free = ModelSpec.lq(A=[[-1.0]], B=[[1.0]], S=[[1.0]], Q=[[0.0]], R=[[0.0]],
                        control_set=ConvexSet.box([-5.0], [5.0]))
    cost = estimate_cost_T(free, base, zero, 1.0)
    checks.append(CheckResult("cost-zero-family", cost == 0.0, f"J_T={cost}"))

    sol = solve_adjoint_finite(free, base, zero, basis=RegressionBasis(degree=2))
    checks.append(CheckResult("adjoint-zero-gradient",
                              bool(np.all(sol.p == 0.0) and np.all(sol.q == 0.0)),
                              "zero cost gradient gives p=q=0"))

    h_checks = (
        _close(hamiltonian(lq1, [0.0], [0.0], [0.0], [[0.0]]), 0.0, 0.0),
        _close(hamiltonian(lq1, [1.0], [1.0], [1.0], [[0.0]]), 2.0, 1e-14),
        _close(hamiltonian(lq1, [1.0], [0.0], [1.0], [[1.0]]), 1.0, 1e-14),
    )
    checks.append(CheckResult("hamiltonian-arithmetic", all(h_checks), "three closed-form values"))

    noiseless = lq1.with_diffusion([[0.0]])
    det = simulate_state(noiseless, zero, [1.0], TimeGrid(dt=0.001, steps=1000), 8, seed=3)
    est, half = estimate_moment(det, 2, 1.0)
    ok = half == 0.0 and _close(est, np.exp(-2.0), 5e-3)
    checks.append(CheckResult("moment-deterministic", ok, f"E|X_1|^2={est:.6f} vs e^-2"))

    roundtrip = parse_model_config(model_config_dict(model))
    ok = model_config_dict(roundtrip) == model_config_dict(model)
    checks.append(CheckResult("config-roundtrip", ok, "serialize/parse is the identity"))
    return checks


# ---------------------------------------------------------------------------
# Invariants suite


def _derivative_check(model: ModelSpec, seed: int, probes: int = 100, h: float = 1e-5) -> CheckResult:
    """Central differences of b and f against D_x b, D_u b = B, D_x f and
    D_u f (sigma is constant, so its derivatives are zero by construction)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        x = 2.0 * rng.standard_normal((1, model.n))
        u = model.control_set.sample(rng, 1)
        exact = (
            (x, mod.drift_jac_x(model, x)[0], lambda z: mod.drift_at(model, z, u)[0]),
            (x, mod.cost_grad_x(model, x), lambda z: mod.cost_at(model, z, u)),
            (u, model.B, lambda z: mod.drift_at(model, x, z)[0]),
            (u, mod.cost_grad_u(model, u), lambda z: mod.cost_at(model, x, z)),
        )
        for z, jac, fun in exact:
            for i in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[0, i] += h
                zm[0, i] -= h
                fd = (fun(zp) - fun(zm)) / (2.0 * h)
                worst = max(worst, float(np.max(np.abs(fd - jac[:, i]) / np.maximum(1.0, np.abs(jac[:, i])))))
    name = f"derivative-fd-{'cubic' if model.has_cubic else 'lq'}"
    return CheckResult(name, worst <= 1e-6, f"max relative error {worst:.2e}")


def _projection_check(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    sets = [ConvexSet.box([-2.0, -1.0], [1.0, 3.0]), ConvexSet.ball([0.5, -0.5], 2.0)]
    ok = True
    worst = 0.0
    for cs in sets:
        a = 6.0 * rng.standard_normal((200, 2))
        b = 6.0 * rng.standard_normal((200, 2))
        pa, pb = cs.project(a), cs.project(b)
        ok &= bool(np.allclose(cs.project(pa), pa, atol=1e-12))
        expand = np.linalg.norm(pa - pb, axis=-1) - np.linalg.norm(a - b, axis=-1)
        worst = max(worst, float(expand.max()))
        ok &= bool(np.all(expand <= 1e-12))
    return CheckResult("projection-geometry", ok, f"max expansion {worst:.2e}")


def _determinism_check(model: ModelSpec) -> CheckResult:
    grid = TimeGrid(dt=0.01, steps=200)
    zero = model.zero_control()
    a = simulate_state(model, zero, np.zeros(model.n), grid, 128, seed=42)
    b = simulate_state(model, zero, np.zeros(model.n), grid, 32, seed=42)
    c = simulate_state(model, zero, np.zeros(model.n), grid, 128, seed=42)
    ok = (
        np.array_equal(a.states[:32], b.states)
        and np.array_equal(a.increments[:32], b.increments)
        and np.array_equal(a.states, c.states)
        and np.array_equal(a.increments, c.increments)
    )
    return CheckResult("determinism-prefix", ok, "reruns and the first 32 of 128 paths are bitwise identical")


def _moment_bound_check(model: ModelSpec, name: str) -> CheckResult:
    """E|X_t|^q <= e^(-q beta t)|x0|^q + K under a unit control: beta = -c_p > 0 as
    certified, K read off the first half of the grid, held on the second within 2 CI."""
    c_p = model.certified_dissipativity_bound()
    if c_p >= 0:
        return CheckResult(name, False, f"certified c_p={c_p:.3g} >= 0 gives no decay rate")
    q = int(model.p) if float(model.p).is_integer() and int(model.p) % 2 == 0 else 6
    grid = TimeGrid(dt=0.01, steps=600)
    law = ControlLaw.constant(np.ones(model.l), model.control_set)
    x0 = np.full(model.n, 5.0)
    ens = simulate_state(model, law, x0, grid, 512, seed=7)
    r = np.linalg.norm(ens.states, axis=-1) ** q
    h, ci = r.mean(axis=0), 1.96 * r.std(axis=0, ddof=1) / np.sqrt(len(r))
    excess = h - np.exp(q * c_p * grid.times()) * np.linalg.norm(x0) ** q
    half = len(h) // 2
    k_fit = float(excess[:half].max())
    ok = np.all(excess[half:] <= k_fit + 2.0 * ci[half:])
    return CheckResult(name, ok, f"beta={-c_p:.3f}, K={k_fit:.3g}, tail mean={h[-len(h) // 4:].mean():.3g}")


def _forgetting_check() -> CheckResult:
    lq1 = ModelSpec.lq1()
    zero = lq1.zero_control()
    grid = TimeGrid(dt=0.01, steps=300)
    a = simulate_state(lq1, zero, [0.0], grid, 512, seed=5)
    b = simulate_state(lq1, zero, [5.0], grid, 512, seed=5)
    diff = ((a.states - b.states) ** 2).sum(axis=-1).mean(axis=0)
    ts = grid.times()
    mask = (ts > 0) & (ts <= 2.0)
    rate = -np.polyfit(ts[mask], np.log(diff[mask]), 1)[0]
    envelope_ok = bool(np.all(diff <= 25.0 * np.exp(-2.0 * ts) * 1.25 + 1e-12))
    rate_ok = abs(rate - 2.0) <= 0.2
    return CheckResult("exponential-forgetting", envelope_ok and rate_ok,
                       f"fitted rate {rate:.3f}, envelope ok={envelope_ok}")


def _invariant_checks(model: ModelSpec) -> List[CheckResult]:
    checks = [
        _derivative_check(ModelSpec.lq1(), seed=1),
        _derivative_check(ModelSpec.cubic1(), seed=2),
        _projection_check(seed=3),
        _determinism_check(model),
        _moment_bound_check(ModelSpec.lq1(), "moment-bound-lq1"),
        _moment_bound_check(ModelSpec.cubic1(), "moment-bound-cubic1"),
        _forgetting_check(),
    ]
    return checks


SUITES = {"trivial": _trivial_checks, "invariants": _invariant_checks}


def run_suite(model: ModelSpec, suite: str) -> List[CheckResult]:
    """Run a named suite ("trivial", "invariants" or "all") against a model."""
    if suite == "all":
        return _trivial_checks(model) + _invariant_checks(model)
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from trivial, invariants, all")
    return SUITES[suite](model)
