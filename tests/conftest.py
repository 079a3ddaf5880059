import numpy as np
import pytest

from ergosmp import ControlLaw, ConvexSet, ModelSpec, TimeGrid, simulate_state


@pytest.fixture(scope="session")
def lq1():
    return ModelSpec.lq1()


@pytest.fixture(scope="session")
def cubic1():
    return ModelSpec.cubic1()


@pytest.fixture(scope="session")
def lq3():
    """3-state LQ model with 2 controls and 2 noise channels."""
    return ModelSpec.lq(
        A=[[-1, 0.4, 0], [0, -1.2, 0.4], [0, 0, -0.8]], B=[[1, 0], [0, 0], [0, 1]],
        S=[[0.6, 0], [0.3, 0.5], [0, 0.4]], Q=np.eye(3), R=np.eye(2),
        control_set=ConvexSet.box([-5, -5], [5, 5]))


@pytest.fixture(scope="session")
def riccati_p():
    """Stationary Riccati solution for the scalar benchmark: the positive root
    of 2aP - b^2 P^2 / r + q = 0 with a = -1, b = q = r = 1, i.e. of
    P^2 + 2P - 1 = 0.
    Optimal feedback u = -P x, optimal cost sigma^2 P."""
    return float(np.sqrt(2.0) - 1.0)


@pytest.fixture(scope="session")
def lq1_base8(lq1):
    """Shared LQ1 ensemble under u = 0 from x0 = 1 on [0, 8]."""
    grid = TimeGrid(dt=0.01, steps=800)
    return simulate_state(lq1, lq1.zero_control(), [1.0], grid, 4096, seed=5)


@pytest.fixture(scope="session")
def lq1_zero(lq1):
    return lq1.zero_control()


@pytest.fixture(scope="session")
def lq1_one(lq1):
    return ControlLaw.constant([1.0], lq1.control_set)
