"""The layout contract: every path array the library builds is a view of one
C-contiguous component-outermost (n, steps+1, M) buffer, and no output
depends on the layout of the arrays it is given."""

import dataclasses

import numpy as np
import pytest

from ergosmp import (
    ControlLaw,
    TimeGrid,
    build_gamma,
    candidate_battery,
    ensemble_from_binary,
    ensemble_to_binary,
    evaluate_variational_inequality,
    extend_to_infinite,
    simulate_affine_dual,
    simulate_state,
    solve_adjoint_finite,
    verify_duality_finite,
)
from ergosmp.ergodic_cost import ergodic_report_from_ensemble
from ergosmp.forward import brownian_increments


def _lq3_law(lq3):
    return ControlLaw.affine([[-0.4, -0.1, 0.0], [0.0, -0.05, -0.3]], [0.1, 0.0], lq3.control_set)


def _has_component_slabs(arr) -> bool:
    """Whether a public (M, steps, k) array is the view of a C-contiguous
    (k, steps, M) buffer."""
    return arr.transpose(2, 1, 0).flags.c_contiguous


def test_library_path_arrays_have_contiguous_component_slabs(lq3, tmp_path):
    law, M, grid = _lq3_law(lq3), 64, TimeGrid(dt=0.02, steps=40)
    ens = simulate_state(lq3, law, np.full(3, 0.5), grid, M, seed=3)
    sol = solve_adjoint_finite(lq3, ens, law)
    infinite = extend_to_infinite(lq3, law, np.full(3, 0.5), 0.4, 0.2, grid.dt, M, seed=3)
    dual = simulate_affine_dual(lq3, ens, law, 0.2, np.ones(3), gamma=build_gamma(ens, 3, value=np.ones(3)))
    path = str(tmp_path / "ens.bin")
    ensemble_to_binary(ens, path)
    loaded = ensemble_from_binary(path)
    arrays = {"states": ens.states, "increments": ens.increments, "p": sol.p, "infinite states":
              infinite.ensemble.states, "infinite p": infinite.p, "dual": dual, "loaded states": loaded.states,
              "loaded increments": loaded.increments,
              "brownian_increments": brownian_increments(3, M, grid, lq3.d)}
    for name, arr in arrays.items():
        assert _has_component_slabs(arr), name
    # the dump keeps its (path, step, coordinate) order, so it reads back bitwise
    assert loaded.states.tobytes() == ens.states.tobytes()
    assert loaded.increments.tobytes() == ens.increments.tobytes()


def _reports(model, law, ens, T, dt):
    """The bytes of every output of the costate solve, the VI, the cost report
    and the finite duality check on `ens`."""
    sol = solve_adjoint_finite(model, ens, law)
    vi = evaluate_variational_inequality(model, law, candidate_battery(model, law, seed=1), T, ens.n_paths,
                                         ens.seed, dt=dt, adjoint=sol)
    cost = ergodic_report_from_ensemble(model, ens, law)
    gamma = build_gamma(ens, model.n, value=np.ones(model.n), t_start=0.5, t_end=1.5)
    dual = verify_duality_finite(model, law, 0.2, T, eta="state", gamma=gamma, dt=dt, base=ens)
    return {"p": sol.p.tobytes(), "coef_p": sol.coef_p.tobytes(), "q": sol.q.tobytes(),
            "coef_q": sol.coef_q.tobytes(), "vi": [r.to_dict() for r in vi], "cost": cost.to_dict(),
            "dual": (dual.lhs, dual.rhs, dual.ci)}


@pytest.mark.parametrize("given", ["states", "states and noise"])
def test_outputs_do_not_depend_on_the_layout_of_the_ensemble(given, lq3):
    # The library's own ensemble and one on a C-ordered (M, steps+1, n) copy
    # of its states (and of its increments) give the same bytes everywhere.
    law, M, T, dt = _lq3_law(lq3), 128, 2.0, 0.02
    ens = simulate_state(lq3, law, np.full(3, 0.5), TimeGrid.from_horizon(T, dt), M, seed=4)
    noise = np.ascontiguousarray(ens.increments) if given == "states and noise" else None
    copy = dataclasses.replace(ens, states=np.ascontiguousarray(ens.states), noise=noise)
    assert copy.states.flags.c_contiguous and not _has_component_slabs(copy.states)
    assert _reports(lq3, law, copy, T, dt) == _reports(lq3, law, ens, T, dt)
