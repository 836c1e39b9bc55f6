"""Risk-sensitive ergodic zero-sum game toolkit.

Solves the multiplicative dynamic-programming equation on truncated
countable-state games by domain laddering and nonlinear power iteration,
extracts saddle-point stationary strategies, and verifies the results by
assumption checkers and Monte Carlo simulation.
"""

from .birth_death import BirthDeathParams, build_birth_death, verify_stability_estimates
from .dirichlet import CollapseToZero, DirichletDomain, EigenPair, dirichlet_eigenpair
from .model import (GameModel, LyapunovData, StationaryStrategy,
                    check_irreducibility, check_lyapunov, check_reference_state,
                    make_model, model_from_json, model_to_json, validate_model)
from .saddle import LocalSaddle
from .simulate import (EstimatorReport, PathBatch, SimConfig, estimate_ergodic_cost,
                       simulate_paths, verify_saddle, verify_stochastic_representation)
from .solver import SolveReport, extract_selectors, residual, solve_ergodic_game

__all__ = [
    "BirthDeathParams",
    "CollapseToZero",
    "DirichletDomain",
    "EigenPair",
    "EstimatorReport",
    "GameModel",
    "LocalSaddle",
    "LyapunovData",
    "PathBatch",
    "SimConfig",
    "SolveReport",
    "StationaryStrategy",
    "build_birth_death",
    "check_irreducibility",
    "check_lyapunov",
    "check_reference_state",
    "dirichlet_eigenpair",
    "estimate_ergodic_cost",
    "extract_selectors",
    "make_model",
    "model_from_json",
    "model_to_json",
    "residual",
    "simulate_paths",
    "solve_ergodic_game",
    "validate_model",
    "verify_stability_estimates",
    "verify_saddle",
    "verify_stochastic_representation",
]

__version__ = "0.1.0"
