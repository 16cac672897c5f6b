"""Regime diagnostics: when is the best contract a single truncated stop loss?

Four conditions govern the answer for a (model, kernel, market) triple:

* loading: the reinsurance loading is at least the primary loading;
* quantile: the VaR level is at least the mean loss;
* solvency: ceding everything below the VaR level is not profitable
  (otherwise the ratio criterion is unbounded and optimization is moot);
* tail: the base-curve slope at zero times the tail integral beyond the VaR
  level does not exceed the base-curve mass below it.

Since K(1 - s) = (1 + gamma_r) * K0(1 - s) + gamma_r * s, three numbers of
the (model, base curve, epsilon) triple fix every condition at every
loading: C0, the integral of K0(F) over [0, x_eps); TI(x_eps), the tail
integral beyond the VaR level; and E X.  Ceding [0, x_eps) costs
(1 + gamma_r) * C0 + gamma_r * (E X - TI(x_eps)), so

* solvency = gamma * E X - (1 + gamma_r) * C0 - gamma_r * (E X - TI(x_eps)),
* the tail condition compares K0'(0) * TI(x_eps) with C0,

and the loading and quantile conditions need no integral.  One finite
quadrature prices C0 (``regime_map``), and a sweep over the loadings at
fixed epsilon reuses it for every cell.

When all four hold the optimum is a single layer detaching at the VaR level;
when the tail condition fails with both loadings close to their upper
threshold, strictly better multi-layer schedules exist.  This module
evaluates the conditions with signed margins, maps them on the loading
plane (``regime_map``), runs the supporting attachment-balance analysis,
checks the large-portfolio profit limit, and searches for tail-condition
violations usable as multi-layer fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._integrate import bisect_root, curve_cost, purchasable
from .kernels import BaseCurve, PricingKernel, QuadraticCurve
from .losses import Pareto, _loss_at, portfolio_normal_model
from .valuation import CVAR, VAR, MarketSpec

SINGLE_LAYER = "single-layer"
POSSIBLY_MULTI_LAYER = "possibly-multi-layer"
TRIVIAL_INFINITE_RATIO = "trivial-infinite-ratio"


@dataclass(frozen=True, slots=True)
class ConditionReport:
    loading_ok: bool
    loading_margin: float
    quantile_ok: bool
    quantile_margin: float
    solvency_ok: bool
    solvency_value: float
    tail_ok: bool
    tail_lhs: float
    tail_rhs: float
    gamma_upper: float
    gamma_lower: float
    predicted_shape: str

    @property
    def all_ok(self) -> bool:
        return self.loading_ok and self.quantile_ok and self.solvency_ok and self.tail_ok


@dataclass(frozen=True, slots=True)
class RegimeMap:
    """The conditions of a (model, base curve, epsilon) triple at every loading.

    Three numbers fix them: C0 (``base_cost``), the integral of K0(F) over
    [0, x_eps); TI(x_eps) (``tail_integral``); and E X (``mean``).  Ceding
    [0, x_eps) under the kernel loaded at gamma_r costs
    (1 + gamma_r) * C0 + gamma_r * (E X - TI(x_eps)) (``cost``).  On the
    (gamma_r, gamma) plane:

    * the loading condition holds on and below the line gamma = gamma_r
      (``loading_line``), the paper's prerequisite that reinsurance is not
      too cheap;
    * solvency holds on and below the line
      gamma = (1 + gamma_r) * C0 / E X + gamma_r * (E X - TI(x_eps)) / E X
      (``solvency_line``), which meets the loading line at ``crossing``;
    * the tail verdict K0'(0) * TI(x_eps) <= C0 (``tail_ok``) and the
      quantile condition x_eps >= E X (``quantile_ok``) hold or fail at
      every loading.

    Under CVaR ceding [0, x_eps) leaves the tail, so the ratio is unbounded
    only when full cession profits too.  It costs (1 + gamma_r) * ``full_cost``
    + gamma_r * E X, with ``full_cost`` the integral of K0(F) over [0, inf):
    inf when not purchasable, None for a map priced under VaR.  ``report``
    reads one cell's conditions off the map.
    """

    var_level: float
    base_cost: float
    tail_integral: float
    mean: float
    base_slope: float  # K0'(0)
    full_cost: float | None = None

    def cost(self, gamma_r: float) -> float:
        """Cost of ceding [0, x_eps) under the kernel loaded at gamma_r."""
        return (1.0 + gamma_r) * self.base_cost + gamma_r * (self.mean - self.tail_integral)

    @staticmethod
    def loading_line(gamma_r: float) -> float:
        """Largest primary loading gamma that keeps the loading condition at gamma_r."""
        return gamma_r

    def solvency_line(self, gamma_r: float) -> float:
        """Largest primary loading gamma that keeps the solvency condition at gamma_r."""
        return self.cost(gamma_r) / self.mean

    @property
    def crossing(self) -> float:
        """The solvency boundary at gamma = gamma_r, where gamma * (TI - C0) = C0; inf if the lines never meet."""
        c0, ti = self.base_cost, self.tail_integral
        return c0 / (ti - c0) if ti > c0 else math.inf

    @property
    def tail_lhs(self) -> float:
        return self.base_slope * self.tail_integral

    @property
    def tail_ok(self) -> bool:
        return self.tail_lhs <= self.base_cost

    @property
    def quantile_ok(self) -> bool:
        return self.var_level >= self.mean

    def report(self, kernel: PricingKernel, market: MarketSpec) -> ConditionReport:
        """The four conditions of one (gamma, gamma_r) cell, with signed margins; CVaR needs a CVaR map."""
        gamma, gamma_r = market.gamma, kernel.gamma_r
        solvency_value = gamma * self.mean - self.cost(gamma_r)
        loading_margin = gamma_r - gamma
        loading_ok = loading_margin >= 0.0
        solvency_ok = solvency_value <= 0.0

        if market.risk_measure == CVAR and self.full_cost is None:
            raise ValueError("a CVaR report needs a regime map priced under CVaR")
        if not solvency_ok:
            unbounded = market.risk_measure == VAR or (
                gamma * self.mean > (1.0 + gamma_r) * self.full_cost + gamma_r * self.mean)
            shape = TRIVIAL_INFINITE_RATIO if unbounded else POSSIBLY_MULTI_LAYER
        elif loading_ok and self.quantile_ok and self.tail_ok:
            shape = SINGLE_LAYER
        else:
            shape = POSSIBLY_MULTI_LAYER

        return ConditionReport(
            loading_ok=loading_ok,
            loading_margin=loading_margin,
            quantile_ok=self.quantile_ok,
            quantile_margin=self.var_level - self.mean,
            solvency_ok=solvency_ok,
            solvency_value=solvency_value,
            tail_ok=self.tail_ok,
            tail_lhs=self.tail_lhs,
            tail_rhs=self.base_cost,
            gamma_upper=kernel.gamma_upper(),
            gamma_lower=kernel.gamma_lower(market.epsilon),
            predicted_shape=shape,
        )


def regime_map(model, base: BaseCurve, epsilon: float, risk_measure: str = VAR, *, tol: float = 1e-10) -> RegimeMap:
    """C0, TI(x_eps) and E X of one triple: its loading line, solvency line and tail verdict.

    See ``RegimeMap`` for the identity that makes these three numbers fix
    every condition at every loading.  One finite quadrature, to the
    absolute tolerance ``tol``, prices C0.  Under CVaR the unbounded-layer
    quadrature also prices full cession's base cost (``full_cost``).
    """
    x_eps = model.var_level(epsilon)
    full = None
    if risk_measure == CVAR:
        full = curve_cost(model, base, 0.0, math.inf) if purchasable(model, base) else math.inf
    return RegimeMap(
        var_level=x_eps,
        base_cost=curve_cost(model, base, 0.0, x_eps, tol=tol),
        tail_integral=float(model.tail_integral(x_eps)),
        mean=model.mean,
        base_slope=base.slope_at_zero,
        full_cost=full,
    )


def check_conditions(model, kernel: PricingKernel, market: MarketSpec, *, tol: float = 1e-10) -> ConditionReport:
    """Evaluate all four hypotheses with signed margins and predict the shape (``RegimeMap.report``)."""
    return regime_map(model, kernel.base, market.epsilon, market.risk_measure, tol=tol).report(kernel, market)


def attachment_balance(a: float, gamma: float, model, base: BaseCurve, market: MarketSpec, *, tol: float = 1e-10) -> float:
    """Weighted cost a*K(F(a)) + integral of K(F) from a to the VaR level.

    The kernel is loaded with gamma_r equal to the primary loading gamma (the
    worst admissible case); the fixed-point attachment of the best stop loss
    is exactly where this quantity equals gamma * E X.
    """
    x_eps = model.var_level(market.epsilon)
    if not (0.0 <= a <= x_eps):
        raise ValueError("attachment must lie between 0 and the VaR level")
    kernel = PricingKernel(base, gamma)
    return a * float(kernel.survival_value(model.sf(a))) + curve_cost(model, kernel, a, x_eps, tol=tol)


def gamma_lower_exact(base: BaseCurve, epsilon: float) -> float:
    """Loading whose critical attachment sits exactly at the VaR level.

    ``PricingKernel.gamma_lower`` (the base-curve value at the retained
    quantile) is its small-epsilon approximation; scans over the loading
    interval use this exact endpoint so the closed-form endpoint identities
    hold to machine precision.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    s = float(base.survival_value(epsilon)) / (1.0 - epsilon)
    if s >= 1.0:
        raise ValueError("base curve too steep at the retained quantile")
    return s / (1.0 - s)


def critical_attachment(gamma: float, model, base: BaseCurve, epsilon: float) -> float:
    """The loss level where the loaded kernel falls back to the loading gamma.

    Loaded at gamma_r = gamma, K(1 - s) equals gamma at s = 1 and at one
    survival level below its peak, the lo of ``crossings(gamma)``, which maps
    to a loss through ``_loss_at``.  The attachment is zero when the kernel
    never rises above gamma (from the upper loading threshold on) and caps at
    the VaR level, the largest attachment of interest, at or below the exact
    lower endpoint.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    g_lo = float(base.survival_value(epsilon))
    g_hi = base.gamma_upper()
    if gamma < g_lo - 1e-12 or gamma > g_hi + 1e-12:
        raise ValueError(f"gamma={gamma:g} outside the loading interval [{g_lo:g}, {g_hi:g}]")
    s_root, _, _, top = PricingKernel(base, gamma).crossings(gamma)
    return 0.0 if top <= gamma else _loss_at(model, s_root, epsilon, model.var_level(epsilon))


@dataclass(frozen=True)
class BalanceScanReport:
    gammas: tuple[float, ...]
    attachments: tuple[float, ...]
    balances: tuple[float, ...]
    min_balance_margin: float
    max_concavity_defect: float
    attachments_monotone: bool
    endpoint_low: float
    endpoint_high: float
    upper_capped: bool


def balance_concavity_scan(
    model, base: BaseCurve, market: MarketSpec, n_points: int = 101, *, gamma_cap: float = 10.0
) -> BalanceScanReport:
    """Sample the balance at the critical attachment across the loading interval.

    Verifies the discrete midpoint concavity of gamma -> balance and reports
    the minimum of balance - gamma * E X, which scales with the loss like the
    balance; in the single-layer regime that minimum is nonnegative.  An
    infinite upper threshold is capped at ``gamma_cap``.
    """
    if n_points < 5:
        raise ValueError("need at least 5 scan points")
    eps = market.epsilon
    g_lo = gamma_lower_exact(base, eps)
    g_hi = base.gamma_upper()
    capped = not math.isfinite(g_hi) or g_hi > gamma_cap
    g_hi_eff = min(g_hi, gamma_cap)
    gammas = np.linspace(g_lo, g_hi_eff, n_points)
    attachments = np.array([critical_attachment(g, model, base, eps) for g in gammas])
    balances = np.array([attachment_balance(a, g, model, base, market, tol=1e-12) for a, g in zip(attachments, gammas)])
    margins = balances - gammas * model.mean
    interior = 0.5 * (balances[:-2] + balances[2:]) - balances[1:-1]
    return BalanceScanReport(
        gammas=tuple(gammas),
        attachments=tuple(attachments),
        balances=tuple(balances),
        min_balance_margin=float(np.min(margins)),
        max_concavity_defect=float(np.max(interior)) if len(interior) else 0.0,
        attachments_monotone=bool(np.all(np.diff(attachments) <= 1e-10)),
        endpoint_low=float(balances[0]),
        endpoint_high=float(balances[-1]),
        upper_capped=capped,
    )


@dataclass(frozen=True)
class AsymptoticRow:
    n: int
    mean: float
    profit_ratio: float
    gap: float
    gap_times_sqrt_n: float


def _portfolios(n_values, unit_mean: float, unit_sd: float) -> list:
    """(n, portfolio model) per size n >= 10; building the models loads no scipy."""
    sizes = [int(n) for n in n_values]
    if any(n < 10 for n in sizes):
        raise ValueError("the normal approximation needs n >= 10")
    return [(n, portfolio_normal_model(n, unit_mean, unit_sd)) for n in sizes]


def asymptotic_profit_gaps(n_values, unit_mean: float, unit_sd: float, kernel: PricingKernel, market: MarketSpec):
    """Profit of full cession below the VaR level, per unit of expected loss.

    For growing portfolios of iid risks this ratio approaches the loading
    difference gamma - gamma_r at rate one over the square root of the
    portfolio size; each row reports the remaining gap.
    """
    rows = []
    for n, model in _portfolios(n_values, unit_mean, unit_sd):
        cost = regime_map(model, kernel.base, market.epsilon, tol=1e-11).cost(kernel.gamma_r)
        mean = model.mean
        ratio = (market.gamma * mean - cost) / mean
        gap = abs(ratio - (market.gamma - kernel.gamma_r))
        rows.append(AsymptoticRow(n=n, mean=mean, profit_ratio=ratio, gap=gap, gap_times_sqrt_n=gap * math.sqrt(n)))
    return tuple(rows)


@dataclass(frozen=True)
class ViolationSearchSpec:
    """Family grids searched for tail-condition violations."""

    pareto_shapes: tuple[float, ...] = (1.2, 1.3, 1.4, 1.465, 1.47, 1.5, 2.0)
    kernel_cs: tuple[float, ...] = (0.25, 0.5)
    epsilons: tuple[float, ...] = (0.05,)
    risk_measure: str = VAR
    min_gamma_fraction: float = 0.95
    window_fraction: float = 0.6


@dataclass(frozen=True)
class ViolationInstance:
    model: Pareto
    kernel: PricingKernel
    market: MarketSpec
    report: ConditionReport
    window: tuple[float, float] | None

    @property
    def has_window(self) -> bool:
        return self.window is not None


def find_tail_condition_violation(search: ViolationSearchSpec = ViolationSearchSpec()):
    """Scan the grids for a tail-condition violation near the upper loading.

    Prefers instances where a whole loading window below the solvency
    boundary remains solvent while the single-layer bound already fails;
    placing both loadings inside that window makes the optimum provably
    multi-layer.  If no candidate admits such a window, the first raw
    violation is returned with the loading placed just below its upper
    threshold (possibly in the trivial infinite-ratio regime); returns None
    when the grids are exhausted without any violation.
    """
    fallback = None
    for shape, c, eps in product(search.pareto_shapes, search.kernel_cs, search.epsilons):
        model = Pareto.with_mean(shape, 1.0)
        base = QuadraticCurve(c)
        regime = regime_map(model, base, eps, search.risk_measure, tol=1e-13)
        if regime.tail_ok:
            continue
        g_hi = base.gamma_upper()
        if fallback is None:
            g_fb = 0.975 * g_hi if math.isfinite(g_hi) else 1.0
            kernel_fb = PricingKernel(base, g_fb)
            market_fb = MarketSpec(gamma=g_fb, epsilon=eps, risk_measure=search.risk_measure)
            fallback = ViolationInstance(model, kernel_fb, market_fb, regime.report(kernel_fb, market_fb), None)
        if not math.isfinite(g_hi):
            continue
        g_cap = regime.crossing
        if not (search.min_gamma_fraction * g_hi <= g_cap < g_hi):
            continue

        def margin(g: float) -> float:
            # balance - g * E X, with E X = 1 for every model of this search
            a = critical_attachment(g, model, base, eps)
            return attachment_balance(a, g, model, base, MarketSpec(g, eps), tol=1e-13) - g

        lo = 0.9 * g_cap
        if margin(lo) <= 0.0 or margin(g_cap) >= 0.0:
            continue
        g_c = bisect_root(margin, lo, g_cap, xtol=1e-15)
        g_star = g_c + search.window_fraction * (g_cap - g_c)
        if g_star < search.min_gamma_fraction * g_hi:
            continue
        kernel = PricingKernel(base, g_star)
        market = MarketSpec(gamma=g_star, epsilon=eps, risk_measure=search.risk_measure)
        report = regime.report(kernel, market)
        if report.tail_ok or not report.solvency_ok:
            continue
        return ViolationInstance(model, kernel, market, report, (g_c, g_cap))
    return fallback
