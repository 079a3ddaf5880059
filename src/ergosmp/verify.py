"""The checks behind `ergosmp verify`: the paper's standing assumptions, read
off the model it is given.

The paper proves its SMP for controlled dissipative systems, so every costate,
duality and optimality verdict of this library assumes what `run_checks`
tests on the given model:

- ``derivative-fd``: the coefficients are C^1 in (x, u), and the analytic
  D_x b, D_u b = B, D_x f and D_u f that the costate equation and the
  Hamiltonian gradient read agree with central differences of b and f.
- ``projection-geometry``: the control set U is closed and convex, so its
  projection is idempotent and non-expansive.
- ``dissipativity``: joint dissipativity, <D_x b(x,u) y, y> <= c_p |y|^2
  with c_p < 0 (sigma is constant, so its k-weighted term vanishes for every
  k and the model carries no k); the sampled maximum must be negative and
  within the certified c_p.
- ``determinism-prefix``: the seed -> bytes contract of the forward
  ensembles, on which every pairing of two ensembles relies.
- ``moment-bound``: the moment bound that dissipativity implies,
  E|X_t|^q <= e^(-q beta t)|x0|^q + K with beta = -c_p, K read once the
  contraction has forgotten x0.  The order q is the smallest even order
  above max(4m+2, 4), the paper's bound on p, with the growth order m read
  off alpha: 1 with a cubic term and 0 without, so q is 8 or 6.
- ``exponential-forgetting``: two solutions on shared noise forget their
  initial states at the rate 2 c_p in mean square, which makes the ergodic
  cost independent of x0 and the dual process bounded on [0, infinity).
- ``config-roundtrip``: the model's config serializes and parses back to
  itself, so an artifact names the model that was checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import model as mod
from .config import model_config_dict, parse_model_config
from .forward import TimeGrid, simulate_state
from .model import ControlLaw, ModelSpec, _Report, check_dissipativity

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult(_Report):
    name: str
    passed: bool
    detail: str


def _derivative_check(model: ModelSpec, seed: int = 1, probes: int = 100, h: float = 1e-5) -> CheckResult:
    """Central differences of b and f against D_x b, D_u b = B, D_x f and
    D_u f (sigma is constant, so its derivatives are zero by construction).
    A non-finite error fails the check."""
    rng = np.random.default_rng(seed)
    errors = []
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
                errors.append(np.max(np.abs(fd - jac[:, i]) / np.maximum(1.0, np.abs(jac[:, i]))))
    worst = float(np.max(errors))  # NaN propagates, where max() would drop it
    return CheckResult("derivative-fd", worst <= 1e-6, f"max relative error {worst:.2e}")


def _projection_check(model: ModelSpec, seed: int = 3) -> CheckResult:
    cs = model.control_set
    rng = np.random.default_rng(seed)
    a = 6.0 * rng.standard_normal((200, cs.dim))
    b = 6.0 * rng.standard_normal((200, cs.dim))
    pa, pb = cs.project(a), cs.project(b)
    idempotent = np.allclose(cs.project(pa), pa, atol=1e-12)
    worst = float((np.linalg.norm(pa - pb, axis=-1) - np.linalg.norm(a - b, axis=-1)).max())
    return CheckResult("projection-geometry", bool(idempotent and worst <= 1e-12),
                       f"{cs.describe()}: idempotent={idempotent}, max expansion {worst:.2e}")


def _dissipativity_check(model: ModelSpec) -> CheckResult:
    rep = check_dissipativity(model)
    c_p = model.certified_dissipativity_bound()
    return CheckResult("dissipativity", rep.passed and rep.sampled_max <= c_p + 1e-12,
                       f"sampled max {rep.sampled_max:.4f} over {rep.probe_count} probes, certified c_p={c_p:.4f}")


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


def _no_rate(name: str, c_p: float) -> CheckResult:
    return CheckResult(name, False, f"certified c_p={c_p:.3g} >= 0 gives no decay rate")


def _moment_bound_check(model: ModelSpec) -> CheckResult:
    """E|X_t|^q <= e^(-q beta t)|x0|^q + K under a unit control, with beta =
    -c_p > 0 as certified.  By the forgetting time t_d = ln(100)/beta on the
    grid (the buffer of the infinite-horizon solves) the certified contraction
    has shrunk the pull of x0 to 1% of |x0|, so the envelope term has decayed
    and the moment is near its stationary value: K is read off [t_d, 1.5 t_d)
    and held on [1.5 t_d, 2 t_d] within 2 CI, 1.5 t_d rounded down to the
    grid.  t_d is capped at 10 to bound the grid; a slower rate leaves some
    transient in K, which only loosens the check."""
    c_p = model.certified_dissipativity_bound()
    if c_p >= 0:
        return _no_rate("moment-bound", c_p)
    m = 1 if model.has_cubic else 0  # the growth order of b
    q = 2 * (max(4 * m + 2, 4) // 2 + 1)  # the smallest even order above max(4m+2, 4)
    dt = 0.01
    # min(forgetting time, 10) on the grid; rates too slow to give a buffer take 10
    j_d = round((model.forgetting_time(dt) if c_p < -np.log(100.0) / 10.0 else 10.0) / dt)
    grid = TimeGrid(dt=dt, steps=2 * j_d)
    law = ControlLaw.constant(np.ones(model.l), model.control_set)
    x0 = np.full(model.n, 5.0)
    ens = simulate_state(model, law, x0, grid, 512, seed=7)
    r = np.linalg.norm(ens.states, axis=-1) ** q
    h, ci = r.mean(axis=0), 1.96 * r.std(axis=0, ddof=1) / np.sqrt(len(r))
    ts = grid.times()
    excess = h - np.exp(q * c_p * ts) * np.linalg.norm(x0) ** q
    held = slice(3 * j_d // 2, None)
    k_fit = float(excess[j_d:held.start].max())
    ok = bool(np.all(excess[held] <= k_fit + 2.0 * ci[held]))
    return CheckResult("moment-bound", ok, f"beta={-c_p:.3f}, K={k_fit:.3g}, tail mean={h[-len(h) // 4:].mean():.3g}")


def _forgetting_check(model: ModelSpec) -> CheckResult:
    """E|X_t - X'_t|^2 <= |x0 - x0'|^2 e^(2 c_p t) for zero-control solutions
    from 0 and 5*1 on shared noise, within 25%, and the rate fitted on (0, 2]
    at least -2 c_p - 0.2."""
    c_p = model.certified_dissipativity_bound()
    if c_p >= 0:
        return _no_rate("exponential-forgetting", c_p)
    zero = model.zero_control()
    grid = TimeGrid(dt=0.01, steps=300)
    x0 = np.full(model.n, 5.0)
    a = simulate_state(model, zero, np.zeros(model.n), grid, 512, seed=5)
    b = simulate_state(model, zero, x0, grid, 512, seed=5)
    diff = ((a.states - b.states) ** 2).sum(axis=-1).mean(axis=0)
    ts = grid.times()
    mask = (ts > 0) & (ts <= 2.0)
    rate = float(-np.polyfit(ts[mask], np.log(diff[mask]), 1)[0])
    ratio = float((diff / (x0 @ x0 * np.exp(2.0 * c_p * ts))).max())
    return CheckResult("exponential-forgetting", ratio <= 1.25 and rate >= -2.0 * c_p - 0.2,
                       f"fitted rate {rate:.3f} vs -2c_p={-2.0 * c_p:.3f}, envelope ratio {ratio:.3f}")


def _roundtrip_check(model: ModelSpec) -> CheckResult:
    config = model_config_dict(model)
    ok = model_config_dict(parse_model_config(config)) == config
    return CheckResult("config-roundtrip", ok, "serialize/parse is the identity")


def run_checks(model: ModelSpec) -> List[CheckResult]:
    """Run every check of the module docstring on `model`."""
    return [
        _derivative_check(model),
        _projection_check(model),
        _dissipativity_check(model),
        _determinism_check(model),
        _moment_bound_check(model),
        _forgetting_check(model),
        _roundtrip_check(model),
    ]
