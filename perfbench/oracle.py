"""Independent numpy-only oracles for the benchmark's correctness gates.

Nothing here imports ergosmp: each figure is computed from the model
coefficients alone.

* Linear-quadratic problems (dx = (A x + B u) dt + S dW, running cost
  x'Qx + u'Ru): Kleinman's policy iteration for the optimal feedback K*,
  Lyapunov solves by Kronecker vectorization for the cost-to-go matrix P_K of
  any stabilizing linear feedback, the ergodic cost tr(S' P_K S), and the
  finite-horizon cost J_T / T from the state-covariance ODE, so that the
  start-up transient from x0 is part of the oracle instead of scored as bias.
* The scalar cubic model dx = (-x^3 - x) dt + dW under u = 0: the stationary
  second moment by quadrature of the density proportional to
  exp(-x^4/2 - x^2), and the finite-horizon average from x0 = 0 through a
  spectral solve of the backward Kolmogorov equation.
"""

from __future__ import annotations

import numpy as np


def lyapunov(Ac, C):
    """P solving Ac' P + P Ac + C = 0, by a Kronecker-vectorized linear solve."""
    n = Ac.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, Ac.T) + np.kron(Ac.T, eye)
    P = np.linalg.solve(lhs, -C.reshape(-1)).reshape(n, n)
    return 0.5 * (P + P.T)


def cost_to_go(A, B, Q, R, K):
    """P_K for the linear feedback u = K x; p = 2 P_K x is the exact costate."""
    K = np.atleast_2d(K)
    Ac = A + B @ K
    if np.linalg.eigvals(Ac).real.max() >= 0.0:
        raise ValueError("feedback is not stabilizing")
    return lyapunov(Ac, Q + K.T @ R @ K)


def kleinman(A, B, Q, R, K0=None, tol=1e-13, max_iter=100):
    """Optimal feedback K* and Riccati solution P by policy iteration.

    Starts from K0 (default 0, which needs a stable A) and iterates
    K <- -R^{-1} B' P_K until the gain stops moving.
    """
    K = np.zeros((B.shape[1], A.shape[0])) if K0 is None else np.atleast_2d(K0)
    for _ in range(max_iter):
        P = cost_to_go(A, B, Q, R, K)
        K_next = -np.linalg.solve(R, B.T @ P)
        if np.abs(K_next - K).max() < tol:
            return K_next, cost_to_go(A, B, Q, R, K_next)
        K = K_next
    raise RuntimeError("Kleinman iteration did not converge")


def ergodic_cost(S, P):
    """Long-run average cost tr(S' P S) of a linear feedback with cost-to-go P."""
    return float(np.trace(S.T @ P @ S))


def affine_ergodic_cost(A, B, S, Q, R, K, c):
    """Long-run average cost under u = K x + c: the linear-feedback cost plus
    the cost of the stationary mean m = -(A + B K)^{-1} B c."""
    K = np.atleast_2d(K)
    c = np.atleast_1d(c)
    P = cost_to_go(A, B, Q, R, K)
    m = -np.linalg.solve(A + B @ K, B @ c)
    u_mean = K @ m + c
    return ergodic_cost(S, P) + float(m @ Q @ m + u_mean @ R @ u_mean)


def average_cost_curve(A, B, S, Q, R, K, c, x0, T, nodes_per_unit=200):
    """Times t and (1/t) E int_0^t (x'Qx + u'Ru) ds under u = K x + c from the
    deterministic x0, on a uniform grid of (0, T].

    Integrates the mean and second-moment ODEs
        dm/dt = Ac m + B c,
        dM/dt = Ac M + M Ac' + B c m' + m c' B' + S S'     (M = E x x')
    with classical RK4; the running cost tr((Q + K'RK) M) + 2 c'RK m + c'Rc is
    accumulated by the trapezoid rule.
    """
    K = np.atleast_2d(K)
    c = np.atleast_1d(np.asarray(c, dtype=float))
    Ac = A + B @ K
    Qk = Q + K.T @ R @ K
    D = S @ S.T
    Bc = B @ c
    steps = max(2, int(np.ceil(T * nodes_per_unit)))
    h = T / steps

    def rhs(m, M):
        cross = np.outer(Bc, m)
        return Ac @ m + Bc, Ac @ M + M @ Ac.T + cross + cross.T + D

    def rate(m, M):
        return float(np.trace(Qk @ M) + 2.0 * c @ R @ K @ m + c @ R @ c)

    m = np.asarray(x0, dtype=float).copy()
    M = np.outer(m, m)
    rates = [rate(m, M)]
    for _ in range(steps):
        k1 = rhs(m, M)
        k2 = rhs(m + 0.5 * h * k1[0], M + 0.5 * h * k1[1])
        k3 = rhs(m + 0.5 * h * k2[0], M + 0.5 * h * k2[1])
        k4 = rhs(m + h * k3[0], M + h * k3[1])
        m = m + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        M = M + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        rates.append(rate(m, M))
    rates = np.asarray(rates)
    times = h * np.arange(1, steps + 1)
    integral = np.cumsum(0.5 * h * (rates[1:] + rates[:-1]))
    return times, integral / times


def weak_error_rate(A, B, K):
    """||A + B K||_2: the stated O(dt) constant for Euler and taming bias of
    a linear closed loop (relative bias of a second moment <= dt * rate)."""
    return float(np.linalg.norm(A + B @ np.atleast_2d(K), 2))


def _cubic1_log_density(x):
    return -0.5 * x**4 - x**2


def cubic1_stationary_second_moment(half_width=8.0, nodes=20001):
    """E[x^2] under the density proportional to exp(-x^4/2 - x^2) (trapezoid
    rule; the integrand is negligible beyond |x| = 8)."""
    x = np.linspace(-half_width, half_width, nodes)
    w = np.exp(_cubic1_log_density(x))
    return float(np.trapezoid(x * x * w, x) / np.trapezoid(w, x))


def _cubic1_modes(half_width=5.0, cells=401):
    """Eigen-decomposition of the generator L f = f''/2 - (x^3 + x) f'.

    L is self-adjoint in L^2(pi), so a flux-form discretization on [-5, 5]
    is symmetrized by the stationary weights and diagonalized once (an odd
    cell count puts a node at x = 0).  Returns
    the eigenvalues and the weights w_k such that
    E[x_t^2 | x_0 = 0] = sum_k w_k exp(lam_k t).
    """
    x = np.linspace(-half_width, half_width, cells)
    h = x[1] - x[0]
    logpi = _cubic1_log_density(x)
    pi = np.exp(logpi - logpi.max())
    face = np.sqrt(pi[:-1] * pi[1:]) / (2.0 * h * h)
    L = np.zeros((cells, cells))
    idx = np.arange(cells - 1)
    L[idx, idx + 1] = face / pi[:-1]
    L[idx + 1, idx] = face / pi[1:]
    L[np.arange(cells), np.arange(cells)] = -L.sum(axis=1)
    root = np.sqrt(pi)
    sym = (root[:, None] * L) / root[None, :]
    lam, vec = np.linalg.eigh(0.5 * (sym + sym.T))
    zero = int(np.argmin(np.abs(x)))
    return lam, (vec.T @ (root * x * x)) * vec[zero] / root[zero]


def cubic1_second_moment_at(t):
    """E[x_t^2] for dx = (-x^3 - x) dt + dW from x0 = 0."""
    lam, w = _cubic1_modes()
    return float((w * np.exp(lam * t)).sum())


def cubic1_finite_horizon_average(T):
    """(1/T) E int_0^T x_t^2 dt for dx = (-x^3 - x) dt + dW from x0 = 0, each
    mode integrated exactly in time."""
    lam, w = _cubic1_modes()
    with np.errstate(divide="ignore", invalid="ignore"):
        integral = np.where(np.abs(lam) < 1e-12, T, np.expm1(lam * T) / lam)
    return float((w * integral).sum() / T)


def cubic1_weak_error_rate():
    """E_pi|b'(x)| = 1 + 3 E_pi[x^2]: the stated O(dt) constant for the tamed
    Euler bias of cubic1 (relative bias of a second moment <= dt * rate)."""
    return 1.0 + 3.0 * cubic1_stationary_second_moment()
