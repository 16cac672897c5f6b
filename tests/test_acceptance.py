"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from layeropt import (
    CVAR,
    VAR,
    DistortionCurve,
    Exponential,
    Gamma,
    IndemnitySchedule,
    Lognormal,
    MarketSpec,
    PowerDistortion,
    PricingKernel,
    QuadraticCurve,
    asymptotic_profit_gaps,
    balance_concavity_scan,
    best_truncated_stop_loss,
    check_conditions,
    criterion,
    dinkelbach_optimize,
    discrete_bruteforce_oracle,
    find_tail_condition_violation,
    gamma_lower_exact,
    quadratic_kernel,
    solve_attachment_fixed_point,
)
from conftest import cumulative_kernel_cost

BASELINE_MODEL = Exponential(1.0)
BASELINE_BASE = QuadraticCurve(0.5)
BASELINE_KERNEL = quadratic_kernel(0.5, 0.1)
BASELINE_MARKET = MarketSpec(gamma=0.1, epsilon=0.05)
X_EPS = BASELINE_MODEL.var_level(0.05)


def _report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# criteria (the hypothesis_instances fixture comes from conftest.py)
# ---------------------------------------------------------------------------


def test_criterion_01_tail_condition_closed_forms():
    """Exponential losses with the quadratic base curve: tail-condition sides
    equal c*eps and c*(1-eps)^2/2 over a 10 x 10 parameter grid."""
    start = time.perf_counter()
    worst = 0.0
    for c in np.linspace(0.1, 1.0, 10):
        for eps in np.linspace(0.01, 0.25, 10):
            kernel = quadratic_kernel(float(c), 0.1)
            market = MarketSpec(gamma=0.1, epsilon=float(eps))
            report = check_conditions(BASELINE_MODEL, kernel, market)
            worst = max(worst, abs(report.tail_lhs - c * eps))
            worst = max(worst, abs(report.tail_rhs - c * (1 - eps) ** 2 / 2))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-9 and elapsed < 1.0,
            f"100 cells, max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_single_layer_bound(hypothesis_instances):
    """Best truncated stop loss never beats the reinsurance loading when the
    four hypotheses hold, for VaR and CVaR alike."""
    start = time.perf_counter()
    worst = -math.inf
    for model, kernel, market in hypothesis_instances:
        for measure in (VAR, CVAR):
            m = MarketSpec(gamma=market.gamma, epsilon=market.epsilon, risk_measure=measure)
            result = best_truncated_stop_loss(model, kernel, m)
            worst = max(worst, result.valuation.ratio - kernel.gamma_r)
    elapsed = time.perf_counter() - start
    _report(2, worst <= 1e-8 and elapsed < 60.0,
            f"50 instances x 2 measures, max ratio excess {worst:.2e}, {elapsed:.1f}s")


CRIT3_INSTANCES = [
    (Exponential(1.0), QuadraticCurve(0.30), 0.30, 0.05, VAR),
    (Exponential(1.0), QuadraticCurve(0.50), 0.25, 0.05, VAR),
    (Exponential(1.0), QuadraticCurve(0.40), 0.35, 0.10, VAR),
    (Lognormal.from_mean(1.0, 0.8), QuadraticCurve(0.30), 0.30, 0.05, VAR),
    (Lognormal.from_mean(1.0, 0.6), QuadraticCurve(0.50), 0.20, 0.05, VAR),
    (Gamma.from_mean(1.0, 2.0), QuadraticCurve(0.35), 0.30, 0.05, VAR),
    (Lognormal.from_mean(1.0, 0.7), DistortionCurve(PowerDistortion(0.75)), 0.30, 0.08, VAR),
    (Exponential(1.0), QuadraticCurve(0.15), 0.30, 0.10, CVAR),
    (Gamma.from_mean(1.0, 2.0), QuadraticCurve(0.10), 0.25, 0.10, CVAR),
    (Gamma.from_mean(1.0, 1.5), QuadraticCurve(0.15), 0.35, 0.10, CVAR),
]


def test_criterion_03_oracle_equivalence():
    """The exhaustive cell oracle reproduces the continuous optimum within
    grid resolution on ten hypothesis-satisfying instances, all single-layer."""
    start = time.perf_counter()
    ok = True
    details = []
    var_errors = {12: [], 16: []}
    for model, base, gamma, eps, measure in CRIT3_INSTANCES:
        kernel = PricingKernel(base, gamma)
        market = MarketSpec(gamma=gamma, epsilon=eps, risk_measure=measure)
        ok &= check_conditions(model, kernel, market).all_ok
        cont = dinkelbach_optimize(model, kernel, market)
        ok &= cont.layer_count == 1
        x_max = model.var_level(eps) if measure == VAR else float(model.quantile(1 - eps / 100.0))
        for n in (12, 16):
            oracle = discrete_bruteforce_oracle(model, kernel, market, n_cells=n, x_max=x_max)
            err = abs(oracle.valuation.ratio - cont.valuation.ratio)
            ok &= oracle.layer_count == 1 and err <= 2e-3
            if measure == VAR:
                var_errors[n].append(err)
            details.append(err)
    shrink = max(var_errors[16]) <= max(var_errors[12])
    ok &= shrink
    elapsed = time.perf_counter() - start
    _report(3, ok and elapsed < 300.0,
            f"10 instances, max oracle error {max(details):.2e}, "
            f"VaR errors shrink 12->16: {shrink}, {elapsed:.1f}s")


def test_criterion_04_baseline_fixed_point():
    """Baseline attachment fixed point against a dense-grid oracle."""
    result = solve_attachment_fixed_point(BASELINE_MODEL, BASELINE_KERNEL, BASELINE_MARKET)
    residual = abs(
        BASELINE_KERNEL.k(BASELINE_MODEL.cdf(result.attachment)) - result.ratio
    )
    # independent dense grid over attachments, step 1e-4
    grid = np.arange(1e-4, X_EPS, 1e-4)
    pts = np.concatenate([[0.0], grid, [X_EPS]])
    cum = cumulative_kernel_cost(BASELINE_MODEL, BASELINE_KERNEL, pts)
    cost_to_var = cum[-1] - cum[1:-1]
    ratios = (0.1 - cost_to_var) / grid
    i = int(np.argmax(ratios))
    ok = (
        abs(result.attachment - 2.9215) <= 0.005
        and abs(result.ratio - 0.033410) <= 5e-5
        and residual <= 1e-8
        and abs(grid[i] - result.attachment) <= 2e-4
        and abs(ratios[i] - result.ratio) <= 1e-6
    )
    _report(4, ok,
            f"attachment {result.attachment:.6f} (grid {grid[i]:.6f}), "
            f"ratio {result.ratio:.6f} (grid {ratios[i]:.6f}), residual {residual:.1e}")


def test_criterion_05_multi_layer_regime():
    """A tail-condition violation near the upper loading yields a strictly
    better multi-layer optimum."""
    inst = find_tail_condition_violation()
    ok = inst is not None and inst.has_window
    detail = "no windowed instance found"
    if ok:
        g_hi = inst.report.gamma_upper
        within = 0.95 * g_hi <= inst.market.gamma <= g_hi
        dink = dinkelbach_optimize(inst.model, inst.kernel, inst.market)
        tsl = best_truncated_stop_loss(inst.model, inst.kernel, inst.market)
        margin = dink.valuation.ratio - tsl.valuation.ratio
        ok = (
            within
            and not inst.report.tail_ok
            and inst.report.solvency_ok
            and dink.classification == "multi-layer"
            and margin > 1e-6
        )
        detail = (
            f"shape={inst.model.shape}, c={inst.kernel.base.c}, "
            f"gamma={inst.market.gamma:.6f} ({inst.market.gamma / g_hi:.4f} of upper), "
            f"{dink.layer_count} layers, margin {margin:.2e}"
        )
    _report(5, ok, detail)


def test_criterion_06_scale_invariance():
    """The ratio is invariant under joint rescaling of losses and schedule."""
    rng = np.random.default_rng(60)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(1, 5))
        bps = (0.0,) + tuple(np.sort(rng.uniform(0.05, 6.0, size=n)))
        slopes = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=n)) + (0.0,)
        schedule = IndemnitySchedule(bps, slopes)
        measure = VAR if i % 2 == 0 else CVAR
        market = MarketSpec(gamma=0.1, epsilon=0.05, risk_measure=measure)
        base_ratio = criterion(BASELINE_MODEL, BASELINE_KERNEL, schedule, market).ratio
        for scale in (0.5, 3.0, 10.0):
            scaled_ratio = criterion(
                BASELINE_MODEL.rescale(scale), BASELINE_KERNEL, schedule.rescale(scale), market
            ).ratio
            worst = max(worst, abs(scaled_ratio - base_ratio))
    _report(6, worst <= 1e-8, f"20 schedules x 3 scales x both measures, max drift {worst:.2e}")


def test_criterion_07_capital_charge_invariance():
    """The optimizer's schedule ignores the capital coefficient; the ratio
    shifts down by exactly that coefficient."""
    plain = dinkelbach_optimize(BASELINE_MODEL, BASELINE_KERNEL, BASELINE_MARKET)
    charged_market = MarketSpec(gamma=0.1, epsilon=0.05, beta=0.3)
    charged = dinkelbach_optimize(BASELINE_MODEL, BASELINE_KERNEL, charged_market)
    same_schedule = charged.schedule == plain.schedule
    shift = plain.valuation.ratio - charged.valuation.ratio
    ok = same_schedule and abs(shift - 0.3) <= 1e-10
    _report(7, ok, f"schedules identical: {same_schedule}, ratio shift {shift:.12f}")


def test_criterion_08_portfolio_asymptotics():
    """Full lower cession profit per unit mean approaches the loading
    difference at the square-root rate."""
    rows = asymptotic_profit_gaps((100, 1000, 10_000), 1.0, 1.0, BASELINE_KERNEL, BASELINE_MARKET)
    gaps = [r.gap for r in rows]
    scaled = [r.gap_times_sqrt_n for r in rows]
    ok = gaps[-1] <= 0.02 and gaps[-1] < gaps[0] and max(scaled) <= 3.0 * min(scaled)
    _report(8, ok,
            f"gaps {gaps[0]:.4f} -> {gaps[-1]:.4f}, sqrt-n scaled band "
            f"[{min(scaled):.4f}, {max(scaled):.4f}]")


def test_criterion_09_lower_band_bound(hypothesis_instances):
    """Ceding the band from zero up to any level below the VaR level never
    achieves a ratio above the reinsurance loading."""
    rng = np.random.default_rng(90)
    worst = -math.inf
    for model, kernel, market in hypothesis_instances:
        x_eps = model.var_level(market.epsilon)
        bs = np.sort(rng.uniform(0.0, 0.995, size=50)) * x_eps
        pts = np.unique(np.concatenate([[0.0], bs, [x_eps], [t for t in model.cdf_knots if 0 < t < x_eps]]))
        cum = cumulative_kernel_cost(model, kernel, pts)
        idx = np.searchsorted(pts, bs)
        profit = market.gamma * model.mean - cum[idx]
        risk_var = x_eps - bs
        tail_exp = float(model.tail_expectation(x_eps))
        risk_cvar = tail_exp - bs
        excess = max(
            float(np.max(profit / risk_var)), float(np.max(profit / risk_cvar))
        ) - kernel.gamma_r
        worst = max(worst, excess)
    _report(9, worst <= 1e-9, f"50 instances x 50 bands x both measures, max excess {worst:.2e}")


def test_criterion_10_balance_analysis():
    """Attachment-balance scan on the baseline family: the balance dominates
    the loading across the whole interval and matches the closed-form
    endpoint values."""
    scan = balance_concavity_scan(BASELINE_MODEL, BASELINE_BASE, BASELINE_MARKET, 101)
    g_lo = gamma_lower_exact(BASELINE_BASE, 0.05)
    low_expected = X_EPS * g_lo
    high_expected = 2.0 * 0.225625 - 1.0 * 0.05 + 1.0
    ok = (
        scan.min_balance_margin >= -1e-8
        and abs(scan.endpoint_low - low_expected) <= 1e-6
        and abs(scan.endpoint_high - high_expected) <= 1e-6
        and scan.max_concavity_defect <= 1e-8
    )
    _report(10, ok,
            f"min balance margin {scan.min_balance_margin:.2e}, endpoints "
            f"({scan.endpoint_low:.7f}, {scan.endpoint_high:.6f}) vs "
            f"({low_expected:.7f}, {high_expected:.6f})")
