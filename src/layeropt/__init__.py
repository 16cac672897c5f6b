"""Reinsurance layer pricing and profit-over-risk optimization."""

from ._integrate import UnpurchasableCoverError
from .conditions import (
    AsymptoticRow,
    BalanceScanReport,
    ConditionReport,
    RegimeMap,
    ViolationInstance,
    ViolationSearchSpec,
    asymptotic_profit_gaps,
    attachment_balance,
    balance_concavity_scan,
    check_conditions,
    critical_attachment,
    find_tail_condition_violation,
    gamma_lower_exact,
    regime_map,
)
from .contracts import (
    IndemnitySchedule,
    Layer,
    full_cession,
    schedule_from_layers,
    truncated_stop_loss,
    zero_schedule,
)
from .kernels import (
    CappedLinearDistortion,
    DistortionCurve,
    PowerDistortion,
    PricingKernel,
    QuadraticCurve,
    from_distortion,
    quadratic_kernel,
)
from .losses import (
    DegenerateTailError,
    EmpiricalTable,
    Exponential,
    Gamma,
    InfiniteMeanError,
    Lognormal,
    Pareto,
    PortfolioNormal,
    portfolio_normal_model,
)
from .optimizer import (
    AttachmentResult,
    OptimResult,
    best_truncated_stop_loss,
    dinkelbach_optimize,
    discrete_bruteforce_oracle,
    lagrange_optimum,
    marginal_gain,
    solve_attachment_fixed_point,
)
from .valuation import (
    CVAR,
    VAR,
    MarketSpec,
    NonpositiveRiskError,
    Valuation,
    criterion,
    expected_profit,
    reinsurer_surplus,
    retained_risk,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticRow", "AttachmentResult", "BalanceScanReport", "CVAR", "CappedLinearDistortion",
    "ConditionReport", "DegenerateTailError", "DistortionCurve", "EmpiricalTable", "Exponential",
    "Gamma", "IndemnitySchedule", "InfiniteMeanError", "Layer", "Lognormal", "MarketSpec",
    "NonpositiveRiskError", "OptimResult", "Pareto", "PortfolioNormal", "PowerDistortion",
    "PricingKernel", "QuadraticCurve", "RegimeMap", "UnpurchasableCoverError", "VAR", "Valuation",
    "ViolationInstance", "ViolationSearchSpec", "asymptotic_profit_gaps", "attachment_balance",
    "balance_concavity_scan", "best_truncated_stop_loss", "check_conditions", "criterion",
    "critical_attachment", "dinkelbach_optimize", "discrete_bruteforce_oracle",
    "expected_profit", "find_tail_condition_violation", "from_distortion", "full_cession",
    "gamma_lower_exact", "lagrange_optimum", "marginal_gain", "portfolio_normal_model",
    "quadratic_kernel", "regime_map", "reinsurer_surplus", "retained_risk", "schedule_from_layers",
    "solve_attachment_fixed_point", "truncated_stop_loss", "zero_schedule",
]
