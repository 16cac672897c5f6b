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
from typing import NamedTuple

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


# a named tuple: cheaper to define at import and to build than a dataclass
class RiskLedger(NamedTuple):
    """Retained risk of one model, epsilon and measure, priced once per solve.

    Retained VaR and CVaR are linear in the indemnity schedule, so a schedule
    paying slope s_i on layers [a_i, b_i) retains ``floor - s @ relief``.  A
    layer relieves its width below the VaR level ``x_eps`` and, under CVaR
    (the expected shortfall x_eps + E(X - x_eps)+ / epsilon), its tail
    integral above that level divided by epsilon.  The floor, the risk
    without cession, is the relief of full cession [0, inf) in closed form:
    x_eps + ``ti_eps`` / epsilon under CVaR, with ``ti_eps`` = TI(x_eps), and
    x_eps under VaR.  So ceding everything retains exactly 0.
    """

    model: object
    epsilon: float
    measure: str
    x_eps: float
    ti_eps: float
    floor: float

    def relief(self, a, b):
        """Drop in retained risk from ceding each layer [a, b); ``a`` and ``b``
        broadcast, and ``b`` may be infinite."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        x_eps = self.x_eps
        width = np.minimum(b, x_eps) - np.minimum(a, x_eps)
        if self.measure != CVAR:
            return width

        def beyond(t):
            # TI(max(t, x_eps)), 0 at infinity; every t up to the VaR level reads the one
            # value TI(x_eps), where vectorized and scalar evaluation may round apart
            inner = (t > x_eps) & np.isfinite(t)
            edge = np.where(np.isinf(t), 0.0, self.ti_eps)
            return np.where(inner, self.model.tail_integral(np.where(inner, t, x_eps)), edge) if inner.any() else edge

        return width + (beyond(a) - beyond(b)) / self.epsilon

    def retained(self, schedule: IndemnitySchedule) -> float:
        """Retained risk of ``schedule``, relieved over its ceded segments only,
        so no cession retains ``floor`` without a relief call."""
        ceded = [segment for segment in schedule.segments() if segment[2] > 0.0]
        if not ceded:
            return self.floor
        starts, ends, slopes = zip(*ceded)
        return float(self.floor - np.asarray(slopes) @ self.relief(starts, ends))

    def risk(self, schedule: IndemnitySchedule) -> float:
        """``retained``, refused with NonpositiveRiskError unless positive."""
        risk = self.retained(schedule)
        if risk <= 0.0:
            raise NonpositiveRiskError(f"retained {self.measure} is {risk:.3e}; the ratio criterion is undefined")
        return risk

    def valuation(self, kernel, schedule: IndemnitySchedule, market: MarketSpec, *, tol: float = 1e-10) -> Valuation:
        """The full valuation under ``market``, whose epsilon and measure are the ledger's."""
        risk = self.risk(schedule)
        surplus = reinsurer_surplus(self.model, kernel, schedule, tol=tol)
        profit = market.gamma * self.model.mean - surplus - market.beta * risk
        return Valuation(surplus=surplus, profit=profit, risk=risk, ratio=profit / risk)


def risk_ledger(model, market: MarketSpec) -> RiskLedger:
    """The ledger of ``model`` under ``market``'s epsilon and risk measure."""
    eps = market.epsilon
    x_eps = model.var_level(eps)
    if market.risk_measure == CVAR:
        ti_eps = float(model.tail_integral(x_eps))
        return RiskLedger(model, eps, CVAR, x_eps, ti_eps, x_eps + ti_eps / eps)
    return RiskLedger(model, eps, market.risk_measure, x_eps, 0.0, x_eps)


def retained_risk(model, schedule: IndemnitySchedule, market: MarketSpec) -> float:
    """VaR or CVaR of the cedent's loss net of the schedule."""
    return risk_ledger(model, market).risk(schedule)


def expected_profit(model, kernel, schedule: IndemnitySchedule, market: MarketSpec, *, tol: float = 1e-10) -> float:
    """gamma * E(X) - reinsurer surplus - beta * retained risk."""
    value = market.gamma * model.mean - reinsurer_surplus(model, kernel, schedule, tol=tol)
    if market.beta > 0.0:
        value -= market.beta * retained_risk(model, schedule, market)
    return value


def criterion(model, kernel, schedule: IndemnitySchedule, market: MarketSpec, *, tol: float = 1e-10) -> Valuation:
    """Assemble the full valuation; raises NonpositiveRiskError when undefined."""
    return risk_ledger(model, market).valuation(kernel, schedule, market, tol=tol)
