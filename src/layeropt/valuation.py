"""Valuation of a reinsurance arrangement: surplus, profit, retained risk, ratio.

The reinsurer's expected surplus for a schedule I is the kernel-weighted
cession mass, integral of K(F(x)) dI(x).  The cedent's expected profit is
gamma * E(X) minus that surplus (minus an optional cost-of-capital charge),
and the decision criterion is profit divided by the retained VaR or CVaR.
Raising the capital coefficient beta shifts the ratio down by exactly beta
for every schedule, so optimal schedules never depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import curve_cost
from .contracts import IndemnitySchedule

VAR = "var"
CVAR = "cvar"


class NonpositiveRiskError(ValueError):
    """Retained risk is not positive, so the profit-over-risk ratio is undefined."""


@dataclass(frozen=True)
class MarketSpec:
    """Primary loading, risk level and risk measure for the cedent's criterion."""

    gamma: float
    epsilon: float
    risk_measure: str = VAR
    beta: float = 0.0

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be a positive loading")
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError("epsilon must lie in (0, 0.5)")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError("beta must be finite and nonnegative")
        measure = str(self.risk_measure).lower()
        if measure not in (VAR, CVAR):
            raise ValueError("risk_measure must be 'var' or 'cvar'")
        object.__setattr__(self, "risk_measure", measure)


@dataclass(frozen=True, slots=True)
class Valuation:
    surplus: float
    profit: float
    risk: float
    ratio: float


def reinsurer_surplus(model, kernel, schedule: IndemnitySchedule, *, tol: float = 1e-10) -> float:
    """Expected surplus of the reinsurer: integral of K(F(x)) dI(x)."""
    total = 0.0
    for lo, hi, slope in schedule.segments():
        if slope > 0.0:
            total += slope * curve_cost(model, kernel, lo, hi, tol=tol)
    return total


def risk_ledger(model, market: MarketSpec, a, b):
    """Retained risk without cession, and its drop from ceding each layer [a, b).

    Retained VaR and CVaR are linear in the indemnity schedule, so a schedule
    paying slope s_i on layers [a_i, b_i) retains ``floor - s @ relief``.  A
    layer relieves its width below the VaR level and, under CVaR (the expected
    shortfall x_eps + E(X - x_eps)+ / epsilon), its tail integral above that
    level divided by epsilon.  The floor is the relief of full cession
    [0, inf), so ceding everything retains exactly 0.  ``a`` and ``b``
    broadcast; ``b`` may be infinite.  Returns ``(floor, relief)``.
    """
    x_eps = model.var_level(market.epsilon)
    cvar = market.risk_measure == CVAR
    ti_eps = float(model.tail_integral(x_eps)) if cvar else 0.0

    def beyond(t):
        # TI(max(t, x_eps)), 0 at infinity; every t up to the VaR level reads the one
        # value TI(x_eps), where vectorized and scalar evaluation may round apart
        inner = (t > x_eps) & np.isfinite(t)
        edge = np.where(np.isinf(t), 0.0, ti_eps)
        return np.where(inner, model.tail_integral(np.where(inner, t, x_eps)), edge) if inner.any() else edge

    def relief(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        width = np.minimum(b, x_eps) - np.minimum(a, x_eps)
        return width + (beyond(a) - beyond(b)) / market.epsilon if cvar else width

    return float(relief(0.0, math.inf)), relief(a, b)


def retained_risk(model, schedule: IndemnitySchedule, market: MarketSpec) -> float:
    """VaR or CVaR of the cedent's loss net of the schedule."""
    starts, ends, slopes = zip(*schedule.segments())
    floor, relief = risk_ledger(model, market, starts, ends)
    risk = float(floor - np.asarray(slopes) @ relief)
    if risk <= 0.0:
        raise NonpositiveRiskError(
            f"retained {market.risk_measure} is {risk:.3e}; the ratio criterion is undefined"
        )
    return risk


def expected_profit(model, kernel, schedule: IndemnitySchedule, market: MarketSpec, *, tol: float = 1e-10) -> float:
    """gamma * E(X) - reinsurer surplus - beta * retained risk."""
    value = market.gamma * model.mean - reinsurer_surplus(model, kernel, schedule, tol=tol)
    if market.beta > 0.0:
        value -= market.beta * retained_risk(model, schedule, market)
    return value


def criterion(model, kernel, schedule: IndemnitySchedule, market: MarketSpec, *, tol: float = 1e-10) -> Valuation:
    """Assemble the full valuation; raises NonpositiveRiskError when undefined."""
    risk = retained_risk(model, schedule, market)
    surplus = reinsurer_surplus(model, kernel, schedule, tol=tol)
    profit = market.gamma * model.mean - surplus - market.beta * risk
    return Valuation(surplus=surplus, profit=profit, risk=risk, ratio=profit / risk)
