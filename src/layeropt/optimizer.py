"""Schedule optimization: multiplier analysis, fixed points, ratio maximization.

The ratio criterion is maximized by Dinkelbach iteration: for a fixed
multiplier mu the linearized objective profit - mu * risk is maximized by a
bang-bang schedule ceding exactly where the marginal gain of cession is
nonnegative, and the multiplier is then updated to the achieved ratio.  The
marginal gain at loss level x is mu (below the VaR level) minus the kernel
price K(F(x)), plus a tail credit above the VaR level under CVaR.  Because
the kernel is concave, the cession region below the VaR level is a union of
at most two intervals whose edges are the kernel's level crossings.  The
best truncated stop loss runs the same iteration over single layers, whose
multiplier step picks one of those intervals or their hull.

Every kernel price is taken in survival space, K(F(x)) as
``kernel.survival_value(model.sf(x))``: the one evaluation path, which keeps
its precision where F(x) rounds to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._integrate import bisect_root, curve_cost
from .contracts import (
    IndemnitySchedule,
    Layer,
    full_cession,
    schedule_from_layers,
    truncated_stop_loss,
    zero_schedule,
)
from .losses import _check_positive, _loss_at
from .valuation import CVAR, MarketSpec, NonpositiveRiskError, RiskLedger, Valuation, expected_profit, risk_ledger

_WIDTH_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class OptimResult:
    schedule: IndemnitySchedule
    valuation: Valuation
    mu_trace: tuple[float, ...]
    layer_count: int
    classification: str


@dataclass(frozen=True, slots=True)
class AttachmentResult:
    attachment: float
    ratio: float
    multiple_roots: bool


def _classify(layer_count: int) -> str:
    if layer_count == 0:
        return "no-cession"
    return "single-layer" if layer_count == 1 else "multi-layer"


def _finish(schedule: IndemnitySchedule, valuation: Valuation, mu_trace=()) -> OptimResult:
    lays = schedule.layers()
    return OptimResult(schedule, valuation, tuple(mu_trace), len(lays), _classify(len(lays)))


def marginal_gain(x, mu: float, model, kernel, market: MarketSpec):
    """Marginal Lagrangian value of ceding loss level x at multiplier mu."""
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    x_arr = np.asarray(x, dtype=float)
    x_eps = model.var_level(market.epsilon)
    sf = np.asarray(model.sf(x_arr))
    out = mu * (x_arr < x_eps) - np.asarray(kernel.survival_value(sf))
    if market.risk_measure == CVAR:
        out = out + (mu / market.epsilon) * sf * (x_arr >= x_eps)
    return float(out) if out.ndim == 0 else out


def lagrange_optimum(mu: float, model, kernel, market: MarketSpec) -> IndemnitySchedule:
    """Bang-bang schedule ceding exactly where the marginal gain is nonnegative.

    Edges are found in survival space s = 1 - F(x), where the kernel price is
    below mu exactly outside the interval ``kernel.crossings(mu)``, and map
    back to losses through ``model.isf``.  Under CVaR the layer through the
    VaR level detaches where the tail credit (mu / eps) * s stops paying.
    """
    return _cede_where_gain(mu, kernel, risk_ledger(model, market))


def _cede_where_gain(mu: float, kernel, ledger: RiskLedger) -> IndemnitySchedule:
    """``lagrange_optimum`` on the VaR level of ``ledger``."""
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    model, eps, x_eps = ledger.model, ledger.epsilon, ledger.x_eps
    lo, hi, _, top = kernel.crossings(mu)

    if top <= 0.0:
        # identically zero kernel: cession is free, ties resolve to full cession
        return full_cession()

    # cede the survival levels above hi and from lo down to eps
    ranges = [(1.0, eps)] if top <= mu else [(1.0, hi), (lo, eps)]
    edges = [
        (_loss_at(model, s_top, eps, x_eps), _loss_at(model, s_bottom, eps, x_eps)) for s_top, s_bottom in ranges
    ]
    layers = [Layer(a, b) for a, b in edges if b - a > _WIDTH_TOL * max(1.0, x_eps)]

    if ledger.measure == CVAR and layers and layers[-1].detachment >= x_eps - _WIDTH_TOL:
        if mu > kernel.survival_value(eps):
            _, s_stop, _, tail_top = kernel.crossings(0.0, mu / eps)
            detach = math.inf if tail_top <= 0.0 else float(model.isf(s_stop))
            layers[-1] = Layer(layers[-1].attachment, detach)

    return schedule_from_layers(layers)


def solve_attachment_fixed_point(model, kernel, market: MarketSpec, *, tol_root: float = 1e-9) -> AttachmentResult:
    """Attachment where the kernel price equals the achieved ratio of the
    stop loss that detaches at the VaR level.

    The balance residual K(F(a)) * r(a) - g(a), with r and g the retained
    risk and the profit of the layer [a, x_eps), has derivative
    r(a) * d/da K(F(a)), because r' = 1 and g' = K(F(a)).  As r > 0, the
    residual rises with the kernel up to the loss level of its peak (from
    ``kernel.crossings(0.0)``) and falls after it: at most one root on each
    side.  Its signs at 0, that level and x_eps bracket them, and bisection
    finds the first.  Returns the VaR level itself (with the no-cession
    ratio) when the balance equation has no root; flags when it has two, in
    which case the smaller root is reported.
    """
    market0 = _without_beta(market)
    ledger = risk_ledger(model, market0)
    x_eps, floor = ledger.x_eps, ledger.floor
    gain = market0.gamma * model.mean

    def resid(a: float) -> float:
        g = gain - curve_cost(model, kernel, a, x_eps, tol=1e-12)
        r = float(floor - ledger.relief(a, x_eps))
        return float(kernel.survival_value(model.sf(a))) * r - g

    _, _, peak, _ = kernel.crossings(0.0)
    points = (0.0, _loss_at(model, peak, market0.epsilon, x_eps), x_eps)
    sign = np.sign([resid(a) for a in points])
    brackets = [points[i : i + 2] for i in range(2) if sign[i] != sign[i + 1] and sign[i] != 0.0]
    if not brackets:
        return AttachmentResult(x_eps, gain / floor, False)
    lo, hi = brackets[0]
    a_hat = bisect_root(resid, lo, hi, xtol=tol_root)
    ratio = ledger.valuation(kernel, truncated_stop_loss(a_hat, x_eps), market0).ratio
    return AttachmentResult(a_hat, ratio, len(brackets) > 1)


def _without_beta(market: MarketSpec) -> MarketSpec:
    return market if market.beta == 0.0 else replace(market, beta=0.0)


def _dinkelbach(step, model, kernel, market: MarketSpec, mu0, tol: float, max_iter: int) -> OptimResult:
    """Dinkelbach iteration over the schedules ``step(mu, kernel, ledger)`` may return.

    The ledger, built once, prices x_eps, TI(x_eps) and the no-cession risk
    for every iterate.
    """
    _check_positive(tol, "multiplier tolerance")
    market0 = _without_beta(market)
    ledger = risk_ledger(model, market0)
    no_cession = ledger.valuation(kernel, zero_schedule(), market0)
    floor = no_cession.ratio
    mu = floor if mu0 is None else float(mu0)
    trace = [mu]
    restarted = False
    step_size = math.inf
    for _ in range(max_iter):
        schedule, value = step(mu, kernel, ledger), None
        try:
            value = no_cession if schedule.is_zero else ledger.valuation(kernel, schedule, market0)
        except NonpositiveRiskError as exc:
            profit = expected_profit(model, kernel, schedule, market0)
            if profit > 0.0:
                raise NonpositiveRiskError(
                    f"iterate at mu={mu:.6g} cedes all retained risk with positive profit "
                    f"({schedule.describe()}): infinite-ratio regime, solvency condition violated"
                ) from exc
            if restarted or mu <= floor:
                raise
            restarted = True
            mu = floor
            trace.append(mu)
            continue
        new_mu = value.ratio
        trace.append(new_mu)
        step_size = abs(new_mu - mu)
        if step_size < tol * max(1.0, abs(mu)):
            break
        mu = new_mu
    else:
        raise ValueError(f"Dinkelbach iteration did not converge in {max_iter} iterations; last step {step_size:.3e}")
    # the last iterate's valuation is the result's unless beta shifts it
    if market.beta != 0.0:
        value = ledger.valuation(kernel, schedule, market)
    return _finish(schedule, value, trace)


def dinkelbach_optimize(
    model, kernel, market: MarketSpec, mu0: float | None = None, *,
    tol: float = 1e-10, max_iter: int = 100,
) -> OptimResult:
    """Maximize the ratio criterion over all admissible schedules.

    Alternates the multiplier problem (solved exactly by ``lagrange_optimum``)
    with the ratio update until the multiplier is stationary.  Started from
    the no-cession ratio the multiplier trace is nondecreasing.  An iterate
    with nonpositive retained risk aborts with ``NonpositiveRiskError`` when
    its profit is positive (the trivial infinite-ratio regime); when its
    profit is nonpositive the multiplier merely overshot (possible only with
    a custom ``mu0``) and the iteration restarts from the no-cession ratio.

    The cost-of-capital coefficient shifts every ratio by the same constant,
    so the search runs with it removed and only the reported valuation
    reflects it.  The iteration stops once the multiplier moves by less than
    ``tol`` times max(1, |mu|), so a large ratio stops at its own rounding.
    Raises ``ValueError`` unless ``tol`` is positive and finite, and when
    ``max_iter`` iterations pass without such a step.
    """
    return _dinkelbach(_cede_where_gain, model, kernel, market, mu0, tol, max_iter)


def _best_single_layer(mu: float, kernel, ledger: RiskLedger) -> IndemnitySchedule:
    """The single layer maximizing mu * relief - cost, a maximum-subarray problem.

    The marginal gain is positive exactly on the at most two runs of
    ``lagrange_optimum(mu)``, so the best interval is one run or their hull.
    """
    schedule = _cede_where_gain(mu, kernel, ledger)
    runs = schedule.layers()
    if len(runs) < 2:
        return schedule
    (a1, b1), (a2, b2) = ((run.attachment, run.detachment) for run in runs)
    c1, c_gap, c2 = (curve_cost(ledger.model, kernel, lo, hi) for lo, hi in ((a1, b1), (b1, a2), (a2, b2)))
    relief = ledger.relief([a1, a2, a1], [b1, b2, b2])
    best = int(np.argmax(mu * relief - np.array([c1, c2, c1 + c_gap + c2])))
    return truncated_stop_loss(*((a1, b1), (a2, b2), (a1, b2))[best])


def best_truncated_stop_loss(model, kernel, market: MarketSpec, *, tol: float = 1e-10) -> OptimResult:
    """Maximize the ratio over single layers [a, b) and no cession.

    Dinkelbach iteration restricted to single layers (``_best_single_layer``),
    so interior edges meet the first-order conditions, e.g. K(F(a)) = ratio.
    ``tol`` is the multiplier tolerance, relative to the multiplier once it
    exceeds 1, as in ``dinkelbach_optimize``.  Raises ``NonpositiveRiskError``
    in the infinite-ratio regime (solvency fails: a layer cedes all retained
    risk at a profit) and ``ValueError`` unless ``tol`` is positive and
    finite, or when 100 iterations pass without a step below it.
    """
    return _dinkelbach(_best_single_layer, model, kernel, market, None, tol, 100)


def discrete_bruteforce_oracle(
    model, kernel, market: MarketSpec, n_cells: int = 12, x_max: float | None = None
) -> OptimResult:
    """Exhaustive search over bang-bang schedules on an equal-width cell grid.

    Enumerates all 2**n_cells slope assignments with exact per-cell costs, so
    it is an independent check on the continuous optimizer.  Refuses more
    than 20 cells.
    """
    n = int(n_cells)
    if not (1 <= n <= 20):
        raise ValueError("n_cells must lie in 1..20 (enumeration cost guard)")
    if x_max is None:
        x_max = float(model.quantile(1.0 - market.epsilon / 10.0))
    edges = np.linspace(0.0, float(x_max), n + 1)
    cost = np.array([curve_cost(model, kernel, lo, hi, tol=1e-12) for lo, hi in zip(edges, edges[1:])])
    ledger = risk_ledger(model, market)
    floor, relief = ledger.floor, ledger.relief(edges[:-1], edges[1:])

    best_ratio = -math.inf
    best_mask = 0
    powers = np.arange(n, dtype=np.uint32)
    for start in range(0, 1 << n, 1 << 16):
        stop = min(start + (1 << 16), 1 << n)
        masks = np.arange(start, stop, dtype=np.uint32)
        bits = ((masks[:, None] >> powers[None, :]) & 1).astype(np.float64)
        risk = floor - bits @ relief
        profit = market.gamma * model.mean - bits @ cost
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(risk > 1e-12, profit / risk, -np.inf)
        k = int(np.argmax(ratios))
        if ratios[k] > best_ratio:
            best_ratio = float(ratios[k])
            best_mask = int(masks[k])

    # adjacent ceded cells merge into one layer
    cells = [Layer(lo, hi) for i, (lo, hi) in enumerate(zip(edges, edges[1:])) if (best_mask >> i) & 1]
    schedule = schedule_from_layers(cells)
    return _finish(schedule, ledger.valuation(kernel, schedule, market))
