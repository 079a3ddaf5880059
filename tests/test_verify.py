import dataclasses
import re

import numpy as np
import pytest

import ergosmp.model
import ergosmp.verify
from ergosmp import ConvexSet, ModelSpec
from ergosmp.verify import _derivative_check, _moment_bound_check


def test_moment_bound_cubic1_is_not_vacuous(cubic1):
    # beta comes from the certified c_p = -1, so the envelope has decayed long
    # before the second half and K must carry the stationary moment.
    check = _moment_bound_check(cubic1)
    assert check.passed
    beta, k_fit, tail = map(float, re.fullmatch(r"beta=(\S+), K=(\S+), tail mean=(\S+)", check.detail).groups())
    assert beta == 1.0
    assert k_fit >= tail


@pytest.mark.parametrize("name", ["lq1", "lq3"])
def test_moment_bound_reads_k_after_the_transient(name, lq1, lq3):
    # K read over the decay from x0 = 5*1 would be 100 times the stationary
    # moment on lq1; read after it, K is near the tail mean.
    check = _moment_bound_check({"lq1": lq1, "lq3": lq3}[name])
    assert check.passed
    k_fit, tail = map(float, re.fullmatch(r"beta=\S+, K=(\S+), tail mean=(\S+)", check.detail).groups())
    assert k_fit <= 3.0 * tail


def test_moment_bound_fails_when_the_tail_exceeds_k(lq1, monkeypatch):
    # States 1.25 times larger on the last quarter of the grid, where the
    # bound is held, raise the sixth moment 3.8-fold above the K read before.
    simulate = ergosmp.verify.simulate_state

    def grown(*args, **kwargs):
        ens = simulate(*args, **kwargs)
        states = np.array(ens.states)
        states[:, 3 * ens.grid.steps // 4:] *= 1.25
        return dataclasses.replace(ens, states=states)

    monkeypatch.setattr(ergosmp.verify, "simulate_state", grown)
    assert not _moment_bound_check(lq1).passed


def test_moment_bound_needs_a_certified_rate():
    # Dissipative through the cubic term, but sym(A) = 0.5 certifies no rate.
    model = ModelSpec.cubic(alpha=[1.0], A=[[0.5]], B=[[1.0]], S=[[1.0]], Q=[[1.0]], R=[[1.0]],
                            control_set=ConvexSet.box([-5.0], [5.0]))
    assert not _moment_bound_check(model).passed


def test_derivative_check_fails_on_nan(lq1, monkeypatch):
    assert _derivative_check(lq1).passed
    monkeypatch.setattr(ergosmp.model, "cost_at", lambda model, X, U: np.full(len(X), np.nan))
    check = _derivative_check(lq1)
    assert not check.passed
    assert check.detail == "max relative error nan"
