"""Tests of the benchmark's oracles against closed forms.

Run with: python3 -m pytest perfbench
"""

import numpy as np

import oracle

ONE = np.eye(1)
A1 = np.array([[-1.0]])


def test_lq1_riccati_gain_and_cost():
    K, P = oracle.kleinman(A1, ONE, ONE, ONE)
    assert abs(K[0, 0] + (np.sqrt(2.0) - 1.0)) < 1e-10
    assert abs(P[0, 0] - (np.sqrt(2.0) - 1.0)) < 1e-10
    assert abs(oracle.ergodic_cost(ONE, P) - (np.sqrt(2.0) - 1.0)) < 1e-10


def test_lq1_cost_to_go_under_zero_control():
    P = oracle.cost_to_go(A1, ONE, ONE, ONE, np.zeros((1, 1)))
    assert abs(P[0, 0] - 0.5) < 1e-12


def test_scalar_cost_to_go_closed_form():
    # Scalar Lyapunov: P_K = (1 + K^2) / (2 (1 - K)).
    for k in (-0.9, -0.3, 0.2, 0.7):
        P = oracle.cost_to_go(A1, ONE, ONE, ONE, np.array([[k]]))
        assert abs(P[0, 0] - (1 + k * k) / (2 * (1 - k))) < 1e-12


def test_lq3_riccati_residual():
    A = np.array([[-1, 0.4, 0], [0, -1.2, 0.4], [0, 0, -0.8]])
    B = np.array([[1.0, 0], [0, 0], [0, 1]])
    S = np.array([[0.6, 0], [0.3, 0.5], [0, 0.4]])
    K, P = oracle.kleinman(A, B, np.eye(3), np.eye(2))
    residual = A.T @ P + P @ A + np.eye(3) - P @ B @ B.T @ P
    assert np.abs(residual).max() < 1e-10
    assert abs(oracle.ergodic_cost(S, P) - 0.4280) < 5e-5
    assert abs(K[0, 0] + 0.4142) < 5e-5 and abs(K[1, 2] + 0.5025) < 5e-5


def test_average_cost_curve_ou_closed_form():
    # u = 0, dx = -x dt + dW from 0: E x_t^2 = (1 - e^{-2t}) / 2, so
    # (1/T) int_0^T = 1/2 - (1 - e^{-2T}) / (4T).
    times, avg = oracle.average_cost_curve(A1, ONE, ONE, ONE, ONE, np.zeros((1, 1)), [0.0], [0.0], 6.0)
    assert abs(times[-1] - 6.0) < 1e-12
    exact = 0.5 - (1 - np.exp(-12.0)) / 24.0
    assert abs(avg[-1] - exact) < 1e-6


def test_affine_cost_reaches_stationary_value():
    K, c = np.array([[-0.4]]), np.array([0.3])
    _, avg = oracle.average_cost_curve(A1, ONE, ONE, ONE, ONE, K, c, [0.0], 400.0, nodes_per_unit=20)
    stationary = oracle.affine_ergodic_cost(A1, ONE, ONE, ONE, ONE, K, c)
    assert abs(avg[-1] - stationary) < 2e-3


def test_cubic1_moments():
    stationary = oracle.cubic1_stationary_second_moment()
    assert abs(stationary - 0.28960) < 5e-6
    assert abs(oracle.cubic1_second_moment_at(30.0) - stationary) < 1e-5
    assert abs(oracle.cubic1_second_moment_at(0.0)) < 1e-6
    avg = oracle.cubic1_finite_horizon_average(20.0)
    # The start-up deficit is positive and below the OU bound m / (2 T).
    assert 0.0 < stationary - avg < stationary / 40.0
