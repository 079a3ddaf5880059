"""Ergodic stochastic control of dissipative SDEs.

Forward simulation on shared noise, backward-regression costate solvers,
duality verification, necessary/sufficient optimality checks and projected
adjoint-gradient optimization of feedback laws, validated against a
linear-quadratic Riccati oracle.
"""

from .adjoint import (
    AdjointError,
    AdjointSolution,
    ConsistencyReport,
    check_truncation_consistency,
    extend_to_infinite,
    solve_adjoint_finite,
)
from .config import ConfigError, load_model_config, model_config_dict, parse_control_law, save_model_config
from .duality import DualityReport, build_gamma, build_rho, verify_duality_finite, verify_duality_infinite
from .ergodic_cost import ErgodicCostReport, ExpansionReport, estimate_ergodic_cost, verify_expansion_residual
from .forward import (
    PathEnsemble,
    SimulationError,
    TimeGrid,
    ensemble_from_binary,
    ensemble_to_binary,
    ensemble_to_csv,
    estimate_moment,
    simulate_affine_dual,
    simulate_state,
)
from .model import (
    ControlLaw,
    ConvexSet,
    DissipativityReport,
    ModelError,
    ModelSpec,
    check_dissipativity,
)
from .smp import (
    OptimizeResult,
    SmpReport,
    SufficiencyReport,
    candidate_battery,
    check_sufficiency,
    evaluate_variational_inequality,
    hamiltonian,
    optimize_control,
)

__version__ = "0.1.0"
