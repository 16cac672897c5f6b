"""Schedule optimization: multiplier analysis, fixed points, ratio maximization.

The ratio criterion is maximized by Dinkelbach iteration: for a fixed
multiplier mu the linearized objective profit - mu * risk is maximized by a
bang-bang schedule ceding exactly where the marginal gain of cession is
nonnegative, and the multiplier is then updated to the achieved ratio.  The
marginal gain at loss level x is mu (below the VaR level) minus the kernel
price K(F(x)), plus a tail credit above the VaR level under CVaR.  Because
the kernel is concave, the cession region below the VaR level is a union of
at most two intervals whose edges are found by bracketed bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._integrate import bisect_root, cumulative_kernel_cost, kernel_cost, purchasable
from .contracts import (
    IndemnitySchedule,
    Layer,
    full_cession,
    schedule_from_layers,
    truncated_stop_loss,
    zero_schedule,
)
from .losses import _check_positive
from .valuation import CVAR, MarketSpec, NonpositiveRiskError, Valuation, criterion, expected_profit, risk_ledger

_WIDTH_TOL = 1e-12


@dataclass(frozen=True)
class OptimResult:
    schedule: IndemnitySchedule
    valuation: Valuation
    mu_trace: tuple[float, ...]
    layer_count: int
    classification: str


@dataclass(frozen=True)
class AttachmentResult:
    attachment: float
    ratio: float
    multiple_roots: bool


def _classify(layer_count: int) -> str:
    if layer_count == 0:
        return "no-cession"
    return "single-layer" if layer_count == 1 else "multi-layer"


def _finish(schedule: IndemnitySchedule, model, kernel, market, mu_trace=(), *, tol=1e-10) -> OptimResult:
    valuation = criterion(model, kernel, schedule, market, tol=tol)
    lays = schedule.layers()
    return OptimResult(schedule, valuation, tuple(mu_trace), len(lays), _classify(len(lays)))


def marginal_gain(x, mu: float, model, kernel, market: MarketSpec):
    """Marginal Lagrangian value of ceding loss level x at multiplier mu."""
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    x_arr = np.asarray(x, dtype=float)
    x_eps = model.var_level(market.epsilon)
    cdf = np.asarray(model.cdf(x_arr))
    out = mu * (x_arr < x_eps) - np.asarray(kernel.k(cdf))
    if market.risk_measure == CVAR:
        out = out + (mu / market.epsilon) * (1.0 - cdf) * (x_arr >= x_eps)
    return float(out) if out.ndim == 0 else out


def _kernel_level_roots(kernel, mu: float, u_peak: float, k_peak: float):
    """Roots of K(u) = mu on the rising and falling branches (None if absent)."""
    k = kernel.k
    up = None
    if mu >= kernel.gamma_r and k_peak > mu and u_peak > 0.0:
        if k(0.0) == mu:
            up = 0.0
        else:
            up = bisect_root(lambda u: k(u) - mu, 0.0, u_peak, xtol=1e-15)
    down = None
    if k_peak > mu:
        down = bisect_root(lambda u: k(u) - mu, u_peak, 1.0, xtol=1e-15)
    return up, down


def _cvar_detachment(kernel, mu: float, eps: float):
    """Where the tail credit stops paying for the kernel price, or inf.

    Above the VaR level the marginal gain has the sign of
    mu/eps - K(u)/(1-u), and K(u)/(1-u) is nondecreasing for concave kernels,
    so there is at most one sign change.
    """
    u_top = 1.0 - 1e-13

    def h(u):
        return mu / eps - kernel.k(u) / (1.0 - u)

    if h(u_top) >= 0.0:
        return None  # stays profitable arbitrarily far out
    return bisect_root(h, 1.0 - eps, u_top, xtol=1e-15)


def lagrange_optimum(mu: float, model, kernel, market: MarketSpec) -> IndemnitySchedule:
    """Bang-bang schedule ceding exactly where the marginal gain is nonnegative.

    Interval edges are located in probability space (where the kernel's
    concavity guarantees at most two crossings of any level) and mapped back
    through the quantile function.
    """
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    eps = market.epsilon
    u_eps = 1.0 - eps
    x_eps = model.var_level(eps)
    u_peak, k_peak = kernel.k_max()

    if k_peak <= 0.0:
        # identically zero kernel: cession is free, ties resolve to full cession
        return full_cession()

    layers_u: list[tuple[float, float]] = []
    if mu >= k_peak:
        layers_u.append((0.0, u_eps))
    else:
        up, down = _kernel_level_roots(kernel, mu, u_peak, k_peak)
        if up is not None and up > 0.0:
            layers_u.append((0.0, up))
        if down is not None and down < u_eps:
            layers_u.append((max(down, up or 0.0), u_eps))
        elif up is not None and up >= u_eps:
            layers_u = [(0.0, u_eps)]

    layers: list[Layer] = []
    for u_lo, u_hi in layers_u:
        x_lo = 0.0 if u_lo <= 0.0 else float(model.quantile(u_lo))
        x_hi = x_eps if u_hi >= u_eps else float(model.quantile(u_hi))
        if x_hi - x_lo > _WIDTH_TOL * max(1.0, x_eps):
            layers.append(Layer(x_lo, min(x_hi, x_eps)))

    if market.risk_measure == CVAR and layers and layers[-1].detachment >= x_eps - _WIDTH_TOL:
        if mu > kernel.k(u_eps):
            u_stop = _cvar_detachment(kernel, mu, eps)
            detach = math.inf if u_stop is None else float(model.quantile(u_stop))
            layers[-1] = Layer(layers[-1].attachment, detach)

    return schedule_from_layers(layers)


def solve_attachment_fixed_point(model, kernel, market: MarketSpec, *, tol_root: float = 1e-9) -> AttachmentResult:
    """Attachment where the kernel price equals the achieved ratio of the
    stop loss that detaches at the VaR level.

    Returns the VaR level itself (with the no-cession ratio) when the balance
    equation has no root; flags when several sign changes are bracketed, in
    which case the smallest root is reported.
    """
    market0 = replace(market, beta=0.0)
    x_eps = model.var_level(market0.epsilon)
    gain = market0.gamma * model.mean

    grid = np.linspace(0.0, x_eps, 513)
    grid_full = np.unique(np.concatenate([grid, [t for t in model.cdf_knots if 0.0 < t < x_eps]]))
    cum = cumulative_kernel_cost(model, kernel, grid_full)
    profit = gain - (cum[-1] - cum)
    floor, relief = risk_ledger(model, market0, grid_full, x_eps)
    price = np.asarray(kernel.k(model.cdf(grid_full)))
    resid_grid = price * (floor - relief) - profit

    def resid(a: float) -> float:
        g = gain - kernel_cost(model, kernel, a, x_eps, tol=1e-12)
        r = float(floor - risk_ledger(model, market0, a, x_eps)[1])
        return float(kernel.k(model.cdf(a))) * r - g

    sign = np.sign(resid_grid)
    brackets = [
        (grid_full[i], grid_full[i + 1])
        for i in range(len(grid_full) - 1)
        if sign[i] != sign[i + 1] and sign[i] != 0.0
    ]
    if not brackets:
        return AttachmentResult(x_eps, gain / floor, False)
    lo, hi = brackets[0]
    a_hat = bisect_root(resid, lo, hi, xtol=tol_root)
    ratio = criterion(model, kernel, truncated_stop_loss(a_hat, x_eps), market0).ratio
    return AttachmentResult(a_hat, ratio, len(brackets) > 1)


def best_truncated_stop_loss(
    model, kernel, market: MarketSpec, *, grid_size: int = 200, tol: float = 1e-6
) -> OptimResult:
    """Maximize the ratio over single layers by coarse grid plus local refinement.

    The grid covers attachments up to the VaR level and detachments beyond it
    (including an unbounded-detachment column when unbounded cover is
    purchasable); the winning cell is refined by a zoomed grid and
    coordinate-wise bounded searches to ``tol``.  Under CVaR a layer reaching
    the VaR level then takes the first-order detachment of its ratio, which
    may lie past the grid, alternating with the attachment search.
    """
    market0 = replace(market, beta=0.0)
    eps = market0.epsilon
    x_eps = model.var_level(eps)
    gain = market0.gamma * model.mean
    floor = risk_ledger(model, market0, 0.0, 0.0)[0]
    b_max = max(2.0 * x_eps, float(model.quantile(1.0 - eps / 10.0)))
    unbounded = purchasable(model, kernel)

    def ratio_grid(a_vals, b_vals, include_inf: bool):
        pts = np.unique(
            np.concatenate(
                [a_vals, b_vals, [x_eps], [t for t in model.cdf_knots if 0.0 < t < b_vals[-1]]]
            )
        )
        cum = cumulative_kernel_cost(model, kernel, pts)
        ia = np.searchsorted(pts, a_vals)
        ib = np.searchsorted(pts, b_vals)
        cost = cum[ib][None, :] - cum[ia][:, None]
        if include_inf:
            tail_cost = kernel_cost(model, kernel, pts[-1], math.inf, tol=1e-12)
            cost_inf = (cum[-1] + tail_cost) - cum[ia]
            cost = np.concatenate([cost, cost_inf[:, None]], axis=1)
            b_all = np.concatenate([b_vals, [math.inf]])
        else:
            b_all = b_vals
        a_col = a_vals[:, None]
        b_row = b_all[None, :]
        risk = floor - risk_ledger(model, market0, a_col, b_row)[1]
        profit = gain - cost
        valid = (b_row - a_col > 1e-9) & (risk > 1e-12)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(valid, profit / risk, -np.inf)
        return ratios, b_all

    def panel_ratio(a: float, b: float) -> float:
        # fixed Gauss-Legendre panels: machine accurate for the smooth integrands here
        if not b > a + 1e-12:
            return -math.inf
        if math.isinf(b):
            if not unbounded:
                return -math.inf
            cost = kernel_cost(model, kernel, a, b, tol=1e-12)
        else:
            grid = np.unique(np.concatenate(
                [np.linspace(a, b, 9), [t for t in model.cdf_knots if a < t < b]]
            ))
            cost = cumulative_kernel_cost(model, kernel, grid)[-1]
        risk = float(floor - risk_ledger(model, market0, a, b)[1])
        if risk <= 1e-12:
            return -math.inf
        return (gain - cost) / risk

    from scipy.optimize import minimize_scalar

    a_vals = np.linspace(0.0, x_eps, grid_size)
    b_vals = np.unique(np.concatenate([np.linspace(x_eps / grid_size, b_max, grid_size), [x_eps]]))
    ratios, b_all = ratio_grid(a_vals, b_vals, include_inf=unbounded)
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    a_best, b_best = float(a_vals[i]), float(b_all[j])
    da = float(a_vals[1] - a_vals[0])

    if math.isinf(b_best):
        best_val = panel_ratio(a_best, b_best)  # only CVaR can prefer inf; the loop below refines it
    else:
        db = float(b_vals[1] - b_vals[0]) if len(b_vals) > 1 else da
        for step_a, step_b, n_pts in ((da, db, 65), (da / 16.0, db / 16.0, 33)):
            za = np.linspace(max(0.0, a_best - step_a), min(x_eps, a_best + step_a), n_pts)
            zb = np.linspace(max(b_best - step_b, 1e-9), b_best + step_b, n_pts)
            zr, zb_all = ratio_grid(za, zb, include_inf=False)
            zi, zj = np.unravel_index(int(np.argmax(zr)), zr.shape)
            a_best, b_best = float(za[zi]), float(zb_all[zj])
        step = max(da / 128.0, 8.0 * tol)
        best_val = panel_ratio(a_best, b_best)
        res = minimize_scalar(lambda a: -panel_ratio(a, b_best),
                              bounds=(max(0.0, a_best - step), min(min(x_eps, b_best - 1e-9), a_best + step)),
                              method="bounded", options={"xatol": tol * 1e-2, "maxiter": 100})
        if -res.fun >= best_val:
            a_best, best_val = float(res.x), -res.fun
        res = minimize_scalar(lambda b: -panel_ratio(a_best, b),
                              bounds=(max(a_best + 1e-9, b_best - step), b_best + step),
                              method="bounded", options={"xatol": tol * 1e-2, "maxiter": 100})
        if -res.fun >= best_val:
            b_best, best_val = float(res.x), -res.fun

    if market0.risk_measure == CVAR and b_best >= x_eps:
        # Above the VaR level the best detachment for a ratio mu solves
        # K(F(b)) = mu S(b) / eps; alternating that detachment with the
        # attachment search climbs to the optimum even where it detaches past
        # the grid's last column, or finitely where the grid chose inf.
        for _ in range(20):
            if best_val > kernel.k(1.0 - eps):
                u_stop = _cvar_detachment(kernel, best_val, eps)
                b_new = math.inf if u_stop is None else float(model.quantile(u_stop))
            else:
                b_new = x_eps
            res = minimize_scalar(lambda a: -panel_ratio(a, b_new),
                                  bounds=(max(0.0, a_best - da), min(x_eps, a_best + da)),
                                  method="bounded", options={"xatol": tol * 1e-2, "maxiter": 100})
            val, a_new = max((panel_ratio(a_best, b_new), a_best), (-res.fun, float(res.x)))
            if not val > best_val:
                break
            a_best, b_best, best_val = a_new, b_new, val

    # a layer that does not beat no cession is a degenerate sliver of the search
    if not best_val > gain / floor:
        return _finish(zero_schedule(), model, kernel, market)
    return _finish(truncated_stop_loss(a_best, b_best), model, kernel, market)


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
    reflects it.  Raises ``ValueError`` unless ``tol`` is positive and finite.
    """
    _check_positive(tol, "multiplier tolerance")
    market0 = replace(market, beta=0.0)
    floor = criterion(model, kernel, zero_schedule(), market0).ratio
    mu = floor if mu0 is None else float(mu0)
    trace = [mu]
    schedule = zero_schedule()
    restarted = False
    for _ in range(max_iter):
        schedule = lagrange_optimum(mu, model, kernel, market0)
        try:
            value = criterion(model, kernel, schedule, market0)
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
        if abs(new_mu - mu) < tol:
            mu = new_mu
            break
        mu = new_mu
    return _finish(schedule, model, kernel, market, trace)


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
    market0 = replace(market, beta=0.0)
    if x_max is None:
        x_max = float(model.quantile(1.0 - market0.epsilon / 10.0))
    edges = np.linspace(0.0, float(x_max), n + 1)
    cost = np.array([kernel_cost(model, kernel, lo, hi, tol=1e-12) for lo, hi in zip(edges, edges[1:])])
    floor, relief = risk_ledger(model, market0, edges[:-1], edges[1:])

    best_ratio = -math.inf
    best_mask = 0
    powers = np.arange(n, dtype=np.uint32)
    for start in range(0, 1 << n, 1 << 16):
        stop = min(start + (1 << 16), 1 << n)
        masks = np.arange(start, stop, dtype=np.uint32)
        bits = ((masks[:, None] >> powers[None, :]) & 1).astype(np.float64)
        risk = floor - bits @ relief
        profit = market0.gamma * model.mean - bits @ cost
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(risk > 1e-12, profit / risk, -np.inf)
        k = int(np.argmax(ratios))
        if ratios[k] > best_ratio:
            best_ratio = float(ratios[k])
            best_mask = int(masks[k])

    # canonical form merges runs of ceded cells into layers
    slopes = tuple(float((best_mask >> i) & 1) for i in range(n)) + (0.0,)
    return _finish(IndemnitySchedule(tuple(edges), slopes), model, kernel, market)
