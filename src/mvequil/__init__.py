"""Time-consistent solutions of multi-period mean-variance portfolio selection.

Three notions of equilibrium for the mean-variance investor whose objective
Var_t(X_N) - (mu1 x + mu2) E_t X_N changes with the evaluation point: the
open-loop equilibrium control, the feedback equilibrium strategy, and the
mixed equilibrium that re-applies a chosen pure-feedback part while freezing
the rest. All three are solved by one backward scalar-weight recursion, which
differs only in the part re-applied after a deviation and solves each stage
by least norm on the range of its gain matrix, so a degenerate excess-return
covariance is fine; existence is governed by a per-stage range condition on
the mean excess return. The oracle module checks any claimed solution against exact costs on
moment-matched scenario trees and by Monte Carlo.
"""

from .feedback import solve_feedback
from .linalg import Eigenbasis, eigenbasis, is_psd_spectrum
from .market import (
    ExcessMoments,
    MarketSpec,
    PRESETS,
    ValidationError,
    derive_excess_moments,
    dump_market_spec,
    get_preset,
    load_market_spec,
    make_market_spec,
    resolve_market,
    with_initial_state,
)
from .mixed import solve_mixed, solve_mixed_batch
from .open_loop import equilibrium_wealth_coefficients, mean_wealth_path, solve_open_loop
from .oracle import (
    MAX_LEAF_PATHS,
    EquilibriumStructureError,
    ScenarioTree,
    SimulationSummary,
    VerificationResult,
    best_spike_deviation,
    build_matched_tree,
    evaluate_cost_exact,
    export_verification_jsonl,
    simulate_monte_carlo,
    spike_cost,
    verification_summary,
    verify_equilibrium,
)
from .policy import (
    AffinePolicy,
    FailingCondition,
    InternalInconsistencyError,
    NonexistenceReport,
    PolicyKind,
    PureFeedbackPart,
    load_pure_feedback,
    sample_pure_feedback,
    zero_pure_feedback,
)
from .recursion import EquilibriumSolution, RecursionTrace, backward_recursion, trace_csv

__version__ = "0.1.0"

__all__ = [
    "AffinePolicy",
    "EquilibriumSolution",
    "Eigenbasis",
    "EquilibriumStructureError",
    "ExcessMoments",
    "FailingCondition",
    "InternalInconsistencyError",
    "MAX_LEAF_PATHS",
    "MarketSpec",
    "NonexistenceReport",
    "PolicyKind",
    "PRESETS",
    "PureFeedbackPart",
    "RecursionTrace",
    "ScenarioTree",
    "SimulationSummary",
    "ValidationError",
    "VerificationResult",
    "backward_recursion",
    "best_spike_deviation",
    "build_matched_tree",
    "derive_excess_moments",
    "eigenbasis",
    "dump_market_spec",
    "equilibrium_wealth_coefficients",
    "evaluate_cost_exact",
    "export_verification_jsonl",
    "get_preset",
    "is_psd_spectrum",
    "load_market_spec",
    "load_pure_feedback",
    "make_market_spec",
    "mean_wealth_path",
    "resolve_market",
    "sample_pure_feedback",
    "simulate_monte_carlo",
    "solve_feedback",
    "solve_mixed",
    "solve_mixed_batch",
    "solve_open_loop",
    "spike_cost",
    "trace_csv",
    "verification_summary",
    "verify_equilibrium",
    "with_initial_state",
    "zero_pure_feedback",
]
