"""Tests for the multiplier analysis and the ratio optimizers."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layeropt import (
    CVAR,
    VAR,
    AttachmentResult,
    CappedLinearDistortion,
    EmpiricalTable,
    Exponential,
    Gamma,
    IndemnitySchedule,
    Layer,
    Lognormal,
    MarketSpec,
    NonpositiveRiskError,
    OptimResult,
    Pareto,
    PortfolioNormal,
    PowerDistortion,
    Valuation,
    balance_concavity_scan,
    best_truncated_stop_loss,
    check_conditions,
    criterion,
    dinkelbach_optimize,
    discrete_bruteforce_oracle,
    find_tail_condition_violation,
    from_distortion,
    lagrange_optimum,
    marginal_gain,
    quadratic_kernel,
    retained_risk,
    solve_attachment_fixed_point,
    truncated_stop_loss,
    zero_schedule,
)
from conftest import cumulative_kernel_cost
from layeropt._integrate import curve_cost, purchasable
import layeropt.optimizer as optimizer_module
from layeropt.valuation import RiskLedger, risk_ledger

MODEL = Exponential(1.0)
KERNEL = quadratic_kernel(0.5, 0.1)
VAR_MARKET = MarketSpec(gamma=0.1, epsilon=0.05)
CVAR_MARKET = MarketSpec(gamma=0.1, epsilon=0.05, risk_measure="cvar")
X_EPS = MODEL.var_level(0.05)


class TestMarginalGain:
    def test_at_origin(self):
        assert marginal_gain(0.0, 0.0334, MODEL, KERNEL, VAR_MARKET) == pytest.approx(
            0.0334 - 0.1, abs=1e-12
        )

    def test_just_above_var_level(self):
        # -K(0.95) = -(0.1 + 0.45*0.95 - 0.55*0.9025), cross-checked against
        # the survival expansion 0.65 s - 0.55 s^2 at s = 0.05
        value = marginal_gain(X_EPS + 1e-12, 0.7, MODEL, KERNEL, VAR_MARKET)
        assert value == pytest.approx(-0.031125, abs=1e-6)

    def test_far_tail_approaches_zero_from_below(self):
        value = marginal_gain(40.0, 0.5, MODEL, KERNEL, VAR_MARKET)
        assert -1e-12 < value <= 0.0

    def test_cvar_tail_credit(self):
        value = marginal_gain(X_EPS, 0.05, MODEL, KERNEL, CVAR_MARKET)
        assert value == pytest.approx(-0.031125 + 0.05, abs=1e-7)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            marginal_gain(1.0, -0.1, MODEL, KERNEL, VAR_MARKET)

    @pytest.mark.parametrize("x, sign", [(40.0, 1.0), (41.5, 1.0), (42.5, -1.0), (45.0, -1.0)])
    def test_cvar_gain_keeps_its_sign_where_the_cdf_rounds_to_one(self, x, sign):
        # beyond the VaR level the gain is 1.6 s - 1.05 s**0.99 at s = exp(-x), which changes
        # sign at the detachment 100 ln(1.6 / 1.05) = 42.12, where F(x) = 1 - 5e-19 rounds to 1
        kernel = from_distortion(PowerDistortion(0.99), 0.05)
        value = marginal_gain(x, 0.03, MODEL, kernel, CVAR_MARKET)
        assert value * sign > 0.0


class TestLagrangeOptimum:
    def test_mu_above_peak_cedes_everything_below_var_level(self):
        # the kernel peaks at 0.192045, so 0.2 dominates it
        schedule = lagrange_optimum(0.2, MODEL, KERNEL, VAR_MARKET)
        assert schedule.layers() == [Layer(0.0, X_EPS)]

    def test_mu_zero_gives_no_cession(self):
        assert lagrange_optimum(0.0, MODEL, KERNEL, VAR_MARKET).is_zero

    def test_interior_mu_gives_single_upper_layer(self):
        schedule = lagrange_optimum(0.0334, MODEL, KERNEL, VAR_MARKET)
        layers = schedule.layers()
        assert len(layers) == 1
        assert layers[0].attachment == pytest.approx(2.92, abs=5e-3)
        assert layers[0].detachment == pytest.approx(X_EPS, abs=1e-9)

    def test_mu_between_loading_and_peak_gives_two_layers(self):
        schedule = lagrange_optimum(0.15, MODEL, KERNEL, VAR_MARKET)
        layers = schedule.layers()
        assert len(layers) == 2
        assert layers[0].attachment == 0.0
        assert layers[1].detachment == pytest.approx(X_EPS, abs=1e-9)
        # edges sit exactly where the kernel crosses the multiplier
        for edge in (layers[0].detachment, layers[1].attachment):
            assert KERNEL.k(MODEL.cdf(edge)) == pytest.approx(0.15, abs=1e-10)

    def test_cvar_extends_beyond_var_level(self):
        schedule = lagrange_optimum(0.05, MODEL, KERNEL, CVAR_MARKET)
        layers = schedule.layers()
        assert layers, "cession expected at this multiplier"
        assert layers[-1].detachment > X_EPS

    def test_cvar_detachment_balances_tail_credit(self):
        schedule = lagrange_optimum(0.05, MODEL, KERNEL, CVAR_MARKET)
        b = schedule.layers()[-1].detachment
        if math.isfinite(b):
            u = MODEL.cdf(b)
            assert KERNEL.k(u) / (1.0 - u) == pytest.approx(0.05 / 0.05, abs=1e-8)

    def test_var_gain_nonpositive_above_var_level(self):
        xs = np.linspace(X_EPS * 1.0001, 20.0, 500)
        gains = marginal_gain(xs, 0.7, MODEL, KERNEL, VAR_MARKET)
        assert np.all(gains <= 0.0)

    def test_maximizes_over_random_bang_bang_schedules(self):
        rng = np.random.default_rng(23)
        for market in (VAR_MARKET, CVAR_MARKET):
            for mu in (0.01, 0.0334, 0.08, 0.15):
                best = lagrange_optimum(mu, MODEL, KERNEL, market)
                best_value = _lagrange_value(best, mu, market)
                for _ in range(125):
                    n = rng.integers(1, 4)
                    bps = (0.0,) + tuple(np.sort(rng.uniform(0.05, 8.0, size=n)))
                    slopes = tuple(float(v) for v in rng.integers(0, 2, size=n + 1))
                    if market.risk_measure == "var":
                        slopes = slopes[:-1] + (0.0,)
                    trial = IndemnitySchedule(bps, slopes)
                    assert _lagrange_value(trial, mu, market) <= best_value + 1e-9


def _lagrange_value(schedule, mu, market):
    from layeropt import expected_profit

    profit = expected_profit(MODEL, KERNEL, schedule, market)
    x_eps = MODEL.var_level(market.epsilon)
    if market.risk_measure == "var":
        risk = x_eps - float(schedule.evaluate(x_eps))
    else:
        try:
            risk = retained_risk(MODEL, schedule, market)
        except NonpositiveRiskError:
            risk = 0.0
    return profit - mu * risk


class TestAttachmentFixedPoint:
    def test_baseline_solution(self):
        result = solve_attachment_fixed_point(MODEL, KERNEL, VAR_MARKET)
        assert result.attachment == pytest.approx(2.9215, abs=0.005)
        assert result.ratio == pytest.approx(0.033410, abs=5e-5)
        assert not result.multiple_roots

    def test_self_consistency_residual(self):
        result = solve_attachment_fixed_point(MODEL, KERNEL, VAR_MARKET)
        price = KERNEL.k(MODEL.cdf(result.attachment))
        assert abs(price - result.ratio) <= 1e-8

    def test_expensive_reinsurance_still_bounded_by_loading(self):
        kernel = quadratic_kernel(0.5, 0.5)
        result = solve_attachment_fixed_point(MODEL, kernel, VAR_MARKET)
        assert result.ratio <= 0.1 + 1e-12

    def test_risk_neutral_kernel_solvent_configuration(self):
        # flat-loading reinsurer charging more than the primary loading
        kernel = from_distortion(PowerDistortion(1.0), 0.12)
        result = solve_attachment_fixed_point(MODEL, kernel, VAR_MARKET)
        assert result.attachment < X_EPS
        price = kernel.k(MODEL.cdf(result.attachment))
        assert abs(price - result.ratio) <= 1e-8

    def test_near_double_root_inside_one_grid_cell(self):
        # the residual peaks at a = 0.3137 only 1e-6 above zero, so its two roots lie
        # about 0.003 apart, closer than a 513-point grid on [0, x_eps] can separate
        kernel = quadratic_kernel(0.5, 0.3)
        market = MarketSpec(gamma=0.9299753257179519, epsilon=0.05, risk_measure=CVAR)
        result = solve_attachment_fixed_point(MODEL, kernel, market)
        assert result.multiple_roots
        assert result.attachment == pytest.approx(0.31218, abs=1e-4)
        assert abs(kernel.survival_value(MODEL.sf(result.attachment)) - result.ratio) <= 1e-8

    @pytest.mark.parametrize(
        "c, gamma_r, gamma, measure",
        [(1.0, 0.3, 1.3, CVAR), (1.0, 0.2, 1.1, CVAR), (0.8, 0.1, 0.52, VAR), (0.5, 0.3, 0.58, VAR)],
    )
    def test_two_separated_roots_report_the_smaller(self, c, gamma_r, gamma, measure):
        kernel = quadratic_kernel(c, gamma_r)
        market = MarketSpec(gamma=gamma, epsilon=0.05, risk_measure=measure)
        result = solve_attachment_fixed_point(MODEL, kernel, market)
        # the residual has the sign of price - ratio, as the retained risk is positive
        grid = np.linspace(0.01, X_EPS - 0.01, 100)
        ratios = [criterion(MODEL, kernel, truncated_stop_loss(a, X_EPS), market).ratio for a in grid]
        gap = np.asarray(kernel.survival_value(MODEL.sf(grid))) - ratios
        changes = np.flatnonzero(np.diff(np.sign(gap)))
        assert len(changes) == 2 and changes[1] - changes[0] > 2
        assert result.multiple_roots
        assert grid[changes[0]] <= result.attachment <= grid[changes[0] + 1]
        assert abs(kernel.survival_value(MODEL.sf(result.attachment)) - result.ratio) <= 1e-8

    def test_risk_neutral_kernel_at_equal_loadings_has_no_root(self):
        # ceding the whole band below the VaR level is then profitable, the
        # solvency condition fails and the balance equation has no solution
        kernel = from_distortion(PowerDistortion(1.0), 0.1)
        result = solve_attachment_fixed_point(MODEL, kernel, VAR_MARKET)
        assert result.attachment == pytest.approx(X_EPS)
        zero_ratio = criterion(MODEL, kernel, zero_schedule(), VAR_MARKET).ratio
        assert result.ratio == pytest.approx(zero_ratio, abs=1e-12)


class TestBestTruncatedStopLoss:
    def test_baseline_matches_fixed_point(self):
        result = best_truncated_stop_loss(MODEL, KERNEL, VAR_MARKET)
        layer = result.schedule.layers()[0]
        assert layer.attachment == pytest.approx(2.9215, abs=0.005)
        assert layer.detachment == pytest.approx(X_EPS, abs=1e-4)
        assert result.valuation.ratio == pytest.approx(0.033410, abs=5e-5)

    def test_bounded_by_reinsurer_loading(self):
        result = best_truncated_stop_loss(MODEL, KERNEL, VAR_MARKET)
        assert result.valuation.ratio <= 0.1 + 1e-8

    def test_classification_fields(self):
        result = best_truncated_stop_loss(MODEL, KERNEL, VAR_MARKET)
        assert result.layer_count == 1
        assert result.classification == "single-layer"

    def test_no_cession_when_no_layer_beats_it(self):
        # under CVaR every layer of the baseline loses to no cession; a sliver
        # of a layer must not be reported as a single-layer optimum
        result = best_truncated_stop_loss(MODEL, KERNEL, CVAR_MARKET)
        assert result.classification == "no-cession"
        assert result.valuation.ratio == pytest.approx(0.1 / (X_EPS + 1.0), abs=1e-9)

    @pytest.mark.parametrize("kernel, want", [
        (quadratic_kernel(0.5, 0.1), (0.1, "no-cession")),
        (quadratic_kernel(0.2, 0.05), (0.1, "single-layer")),
        (quadratic_kernel(0.5, 0.1), (0.3, "single-layer")),
    ])
    def test_empirical_table_under_cvar(self, kernel, want):
        # a piecewise-linear cdf with an atom at zero and an exponential tail
        model = EmpiricalTable((0.0, 0.5, 2.0, 5.0), (0.1, 0.4, 0.8, 0.97))
        gamma, classification = want
        market = MarketSpec(gamma=gamma, epsilon=0.05, risk_measure="cvar")
        result = best_truncated_stop_loss(model, kernel, market)
        exact = dinkelbach_optimize(model, kernel, market)
        assert result.classification == classification
        assert result.valuation.ratio <= exact.valuation.ratio + 1e-9
        assert result.valuation.ratio == pytest.approx(exact.valuation.ratio, abs=1e-6)

    def test_matches_dinkelbach_single_layers_on_criterion2_draw(self, hypothesis_instances):
        # wherever Dinkelbach's optimum is one layer, the stop-loss search finds it,
        # including CVaR optima detaching finitely past the VaR level (instances 3 and 33)
        misses = []
        for i, (model, kernel, market) in enumerate(hypothesis_instances):
            for measure in ("var", "cvar"):
                m = MarketSpec(gamma=market.gamma, epsilon=market.epsilon, risk_measure=measure)
                exact = dinkelbach_optimize(model, kernel, m)
                if exact.layer_count != 1:
                    continue
                got = best_truncated_stop_loss(model, kernel, m).valuation.ratio
                want = exact.valuation.ratio
                if abs(got - want) > 1e-7 * abs(want):
                    misses.append((i, measure, got, want))
        assert misses == []

    @pytest.mark.parametrize("kernel, gamma, measure", [
        (quadratic_kernel(0.5, 0.01), 0.3, VAR),
        (quadratic_kernel(0.5, 0.01), 0.3, CVAR),
        (from_distortion(PowerDistortion(1.0), 0.05), 0.1, VAR),
    ])
    def test_raises_in_infinite_ratio_regime(self, kernel, gamma, measure):
        # solvency fails: a layer ceding all retained risk is profitable, so
        # no finite ratio is best and a sliver of retained risk is no answer
        from layeropt import check_conditions

        market = MarketSpec(gamma=gamma, epsilon=0.05, risk_measure=measure)
        assert check_conditions(MODEL, kernel, market).predicted_shape == "trivial-infinite-ratio"
        with pytest.raises(NonpositiveRiskError, match="infinite-ratio"):
            best_truncated_stop_loss(MODEL, kernel, market)

    @pytest.mark.parametrize("family, param, measure", [
        ("violation", None, VAR), ("violation", None, CVAR),
        *((fam, p, measure) for fam, p in (("pareto", 1.5), ("pareto", 3.0), ("lognormal", 1.5))
          for measure in (VAR, CVAR)),
        ("cheap-kernel", None, CVAR), ("criterion2", 3, CVAR), ("lower-band", None, VAR),
        ("hull", None, CVAR),
    ])
    def test_beats_dense_grid_and_meets_first_order_conditions(self, family, param, measure, hypothesis_instances):
        # a dense grid of layers is an independent lower bound; under VaR the
        # violation instance's unrestricted optimum has two layers, criterion-2
        # instance 3 detaches finitely past the VaR level, and the lower-band
        # instance's best layer is the lower of the two runs, [0, b), and the
        # hull instance's spans both runs and the gap between them
        model, kernel, market = _grid_case(family, param, measure, hypothesis_instances)
        result = best_truncated_stop_loss(model, kernel, market)
        ratio = result.valuation.ratio
        assert ratio >= _grid_best_ratio(model, kernel, market) * (1.0 - 1e-12)
        assert result.layer_count <= 1
        x_eps = model.var_level(market.epsilon)
        for layer in result.schedule.layers():
            a, b = layer.attachment, layer.detachment
            if a > 0.0:
                assert kernel.k(model.cdf(a)) == pytest.approx(ratio, abs=1e-8)
            if b < x_eps:
                assert kernel.k(model.cdf(b)) == pytest.approx(ratio, abs=1e-8)
            elif x_eps < b < math.inf:
                want = ratio * model.sf(b) / market.epsilon
                assert kernel.k(model.cdf(b)) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_tolerance_that_is_not_positive_and_finite(self, tol):
        # the multiplier tolerance of the shared Dinkelbach loop
        with pytest.raises(ValueError, match="tolerance"):
            best_truncated_stop_loss(MODEL, KERNEL, VAR_MARKET, tol=tol)

    def test_skips_unbounded_column_that_is_not_purchasable(self):
        # Pareto(1.2) tail with s**0.8: every unbounded layer has infinite cost
        model = Pareto.with_mean(1.2, 1.0)
        kernel = from_distortion(PowerDistortion(0.8), 0.1)
        market = MarketSpec(gamma=0.1, epsilon=0.05, risk_measure="cvar")
        result = best_truncated_stop_loss(model, kernel, market)
        exact = dinkelbach_optimize(model, kernel, market)
        assert all(math.isfinite(l.detachment) for l in result.schedule.layers())
        assert result.valuation.ratio <= exact.valuation.ratio + 1e-9


def _grid_case(family, param, measure, instances):
    if family == "criterion2":
        model, kernel, market = instances[param]
        return model, kernel, MarketSpec(gamma=market.gamma, epsilon=market.epsilon, risk_measure=measure)
    if family == "violation":
        inst = find_tail_condition_violation()
        return inst.model, inst.kernel, MarketSpec(
            gamma=inst.market.gamma, epsilon=inst.market.epsilon, risk_measure=measure
        )
    if family == "cheap-kernel":
        return MODEL, quadratic_kernel(0.15, 0.3), MarketSpec(gamma=0.3, epsilon=0.1, risk_measure=measure)
    if family == "lower-band":
        kernel = quadratic_kernel(0.6, 0.04)
        return Gamma.from_mean(1.0, 2.2), kernel, MarketSpec(gamma=0.19, epsilon=0.19, risk_measure=measure)
    if family == "hull":
        kernel = from_distortion(PowerDistortion(0.65), 0.05)
        return MODEL, kernel, MarketSpec(gamma=0.5, epsilon=0.12, risk_measure=measure)
    model = Pareto.with_mean(param, 1.0) if family == "pareto" else Lognormal.from_mean(1.0, param)
    return model, KERNEL, MarketSpec(gamma=0.1, epsilon=0.05, risk_measure=measure)


def _grid_best_ratio(model, kernel, market, n=400):
    """Best ratio over layers whose edges lie on a dense grid, priced without the solvers.

    Edges run to the VaR level and, under CVaR, on to survival epsilon / 100,
    plus an unbounded detachment when unbounded cover is purchasable.
    """
    x_eps = model.var_level(market.epsilon)
    top = float(model.isf(market.epsilon / 100.0)) if market.risk_measure == CVAR else x_eps
    pts = np.unique(np.concatenate([np.linspace(0.0, x_eps, n), np.linspace(x_eps, top, n), model.cdf_knots]))
    cum = cumulative_kernel_cost(model, kernel, pts)
    cost, b = cum[None, :] - cum[:, None], pts
    if purchasable(model, kernel):
        tail = cum[-1] + curve_cost(model, kernel, pts[-1], math.inf)
        cost, b = np.hstack([cost, tail - cum[:, None]]), np.append(pts, math.inf)
    ledger = risk_ledger(model, market)
    floor, relief = ledger.floor, ledger.relief(pts[:, None], b[None, :])
    ok = (b[None, :] > pts[:, None]) & (floor - relief > 0.0)
    ratios = (market.gamma * model.mean - cost) / np.where(ok, floor - relief, 1.0)
    return float(np.max(np.where(ok, ratios, -np.inf)))


class TestDinkelbach:
    def test_baseline_single_layer(self):
        result = dinkelbach_optimize(MODEL, KERNEL, VAR_MARKET)
        assert result.classification == "single-layer"
        layer = result.schedule.layers()[0]
        assert layer.attachment == pytest.approx(2.9215, abs=0.005)
        assert result.valuation.ratio == pytest.approx(0.033410, abs=5e-5)

    def test_matches_best_stop_loss_in_single_layer_regime(self):
        dink = dinkelbach_optimize(MODEL, KERNEL, VAR_MARKET)
        tsl = best_truncated_stop_loss(MODEL, KERNEL, VAR_MARKET)
        assert dink.valuation.ratio >= tsl.valuation.ratio - 1e-8
        assert dink.valuation.ratio == pytest.approx(tsl.valuation.ratio, abs=1e-6)

    def test_trace_monotone_and_improving(self):
        result = dinkelbach_optimize(MODEL, KERNEL, VAR_MARKET)
        trace = np.asarray(result.mu_trace)
        assert np.all(np.diff(trace) >= -1e-9)

    def test_each_iterate_nonnegative_lagrange_value(self):
        result = dinkelbach_optimize(MODEL, KERNEL, VAR_MARKET)
        for mu in result.mu_trace[:-1]:
            best = lagrange_optimum(mu, MODEL, KERNEL, VAR_MARKET)
            assert _lagrange_value(best, mu, VAR_MARKET) >= -1e-9

    def test_overshooting_start_recovers(self):
        default = dinkelbach_optimize(MODEL, KERNEL, VAR_MARKET)
        forced = dinkelbach_optimize(MODEL, KERNEL, VAR_MARKET, mu0=0.5)
        assert forced.valuation.ratio == pytest.approx(default.valuation.ratio, abs=1e-8)

    def test_cvar_baseline_prefers_no_cession(self):
        result = dinkelbach_optimize(MODEL, KERNEL, CVAR_MARKET)
        assert result.classification == "no-cession"
        assert result.valuation.ratio == pytest.approx(0.1 / (X_EPS + 1.0), abs=1e-9)

    def test_infinite_ratio_regime_aborts(self):
        # flat loading equal to the primary loading prices the lower band too
        # cheaply: ceding it is profitable at zero retained VaR
        kernel = from_distortion(PowerDistortion(1.0), 0.1)
        with pytest.raises(NonpositiveRiskError, match="infinite-ratio"):
            dinkelbach_optimize(MODEL, kernel, VAR_MARKET, mu0=1.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_tolerance_that_is_not_positive_and_finite(self, tol):
        # a NaN or nonpositive tolerance would run the iteration to its cap
        with pytest.raises(ValueError, match="tolerance"):
            dinkelbach_optimize(MODEL, KERNEL, VAR_MARKET, tol=tol)

    def test_running_out_of_iterations_raises(self):
        # one iteration moves the multiplier by about 3e-5, far above tol
        with pytest.raises(ValueError, match=r"did not converge in 1 iterations; last step [0-9.]+e-05"):
            dinkelbach_optimize(MODEL, KERNEL, VAR_MARKET, max_iter=1)


# CVaR cases where full cession [0, inf) is purchasable and profitable: each
# solver used to return it, or a layer nearly as wide, at a ratio near 1e14
CVAR_INFINITE_RATIO = {
    "gamma": (
        Gamma(shape=1.8494420605262951, scale=0.540703610750277),
        quadratic_kernel(0.11302736608346897, 0.08046656177258671),
        MarketSpec(gamma=0.2461356485438086, epsilon=0.23129999074563087, risk_measure="cvar"),
    ),
    "lognormal": (
        Lognormal(-1.4233529852141555, 1.687218412188627),
        from_distortion(PowerDistortion(0.9404836319957259), 0.114274445977603),
        MarketSpec(gamma=0.36892973261258327, epsilon=0.1557379137940649, risk_measure="cvar"),
    ),
}

# CVaR cases whose optimum is one layer tens of decades wide, which the
# finite-layer quadrature used to underprice: the first crashed with a
# negative multiplier, the second aborted as if it ceded all retained risk
CVAR_WIDE_LAYER = {
    "pareto-1.41": (
        Pareto(shape=1.4066806278807842, scale=0.2891065817075077),
        from_distortion(PowerDistortion(0.9815092290410041), 0.446291217277184),
        MarketSpec(gamma=0.4502033343738921, epsilon=0.02198471165499883, risk_measure="cvar"),
        0.257636,
    ),
    "pareto-2.00": (
        Pareto(shape=1.9976654304662929, scale=0.4994156755435363),
        from_distortion(PowerDistortion(0.9848931524741902), 0.511363550591426),
        MarketSpec(gamma=0.3410356655327275, epsilon=0.013585686500828989, risk_measure="cvar"),
        0.199257,
    ),
}


@pytest.mark.parametrize("solve", [dinkelbach_optimize, best_truncated_stop_loss], ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", CVAR_INFINITE_RATIO.values(), ids=CVAR_INFINITE_RATIO)
def test_cvar_infinite_ratio_regime_aborts(case, solve):
    model, kernel, market = case
    assert check_conditions(model, kernel, market).predicted_shape == "trivial-infinite-ratio"
    with pytest.raises(NonpositiveRiskError, match="infinite-ratio"):
        solve(model, kernel, market)


@pytest.mark.parametrize("solve", [dinkelbach_optimize, best_truncated_stop_loss], ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", CVAR_WIDE_LAYER.values(), ids=CVAR_WIDE_LAYER)
def test_cvar_wide_single_layer_optimum(case, solve):
    model, kernel, market, ratio = case
    result = solve(model, kernel, market)
    assert result.classification == "single-layer"
    assert result.schedule.layers()[0].detachment > 1e30
    assert result.valuation.ratio == pytest.approx(ratio, abs=1e-6)


@pytest.mark.parametrize("solve", [dinkelbach_optimize, best_truncated_stop_loss], ids=lambda f: f.__name__)
def test_large_ratio_converges_at_its_own_scale(solve):
    # the multiplier settles near 1156 to within its rounding, steps of about
    # 7e-9 that an absolute tolerance of 1e-10 never reached within max_iter
    model = PortfolioNormal(982.0, 84.76168746741412)
    kernel = from_distortion(PowerDistortion(0.3001857377466873), 0.4257855551972402)
    market = MarketSpec(gamma=0.5897126282375957, epsilon=0.2654562482662826, risk_measure="cvar")
    result = solve(model, kernel, market)
    (layer,) = result.schedule.layers()
    assert layer.attachment == 0.0
    assert layer.detachment == pytest.approx(1342.6160621727354, rel=1e-9)
    assert result.valuation.ratio == pytest.approx(1155.7125560256065, rel=1e-12)
    assert len(result.mu_trace) < 20


class TestDiscreteOracle:
    def test_refuses_large_grids(self):
        with pytest.raises(ValueError, match="cost guard"):
            discrete_bruteforce_oracle(MODEL, KERNEL, VAR_MARKET, n_cells=21)

    def test_single_cell_prefers_no_cession(self):
        result = discrete_bruteforce_oracle(MODEL, KERNEL, VAR_MARKET, n_cells=1, x_max=X_EPS)
        assert result.schedule.is_zero
        assert result.classification == "no-cession"

    def test_baseline_close_to_continuous_optimum(self):
        cont = dinkelbach_optimize(MODEL, KERNEL, VAR_MARKET)
        for n in (12, 16):
            orc = discrete_bruteforce_oracle(MODEL, KERNEL, VAR_MARKET, n_cells=n, x_max=X_EPS)
            assert abs(orc.valuation.ratio - cont.valuation.ratio) <= 2e-3

    def test_flat_kernel_at_equal_loadings_exposes_trivial_regime(self):
        # flat loading equal to the primary loading fails the solvency
        # condition; enumeration correctly finds near-degenerate layers that
        # beat no-cession (the ratio is unbounded in the continuum)
        from layeropt import check_conditions

        kernel = from_distortion(PowerDistortion(1.0), 0.1)
        report = check_conditions(MODEL, kernel, VAR_MARKET)
        assert report.predicted_shape == "trivial-infinite-ratio"
        result = discrete_bruteforce_oracle(MODEL, kernel, VAR_MARKET, n_cells=12)
        zero_ratio = criterion(MODEL, kernel, zero_schedule(), VAR_MARKET).ratio
        assert result.valuation.ratio > zero_ratio

    def test_flat_kernel_solvent_never_beats_continuous_optimum(self):
        kernel = from_distortion(PowerDistortion(1.0), 0.12)
        cont = dinkelbach_optimize(MODEL, kernel, VAR_MARKET)
        result = discrete_bruteforce_oracle(MODEL, kernel, VAR_MARKET, n_cells=12)
        assert result.valuation.ratio <= cont.valuation.ratio + 1e-9

    def test_wide_layer_instance_recovers_layer(self):
        kernel = quadratic_kernel(0.3, 0.3)
        market = MarketSpec(gamma=0.3, epsilon=0.05)
        cont = dinkelbach_optimize(MODEL, kernel, market)
        orc = discrete_bruteforce_oracle(MODEL, kernel, market, n_cells=12, x_max=X_EPS)
        assert orc.layer_count == 1
        assert abs(orc.valuation.ratio - cont.valuation.ratio) <= 2e-3

    def test_deterministic(self):
        a = discrete_bruteforce_oracle(MODEL, KERNEL, VAR_MARKET, n_cells=10)
        b = discrete_bruteforce_oracle(MODEL, KERNEL, VAR_MARKET, n_cells=10)
        assert a.schedule == b.schedule
        assert a.valuation == b.valuation


def test_optimizer_layer_edges_cross_kernel_exactly():
    result = dinkelbach_optimize(MODEL, KERNEL, VAR_MARKET)
    mu = result.mu_trace[-1]
    layer = result.schedule.layers()[0]
    assert KERNEL.k(MODEL.cdf(layer.attachment)) == pytest.approx(mu, abs=1e-8)


def _sign_mismatches(schedule, mu, model, kernel, market, n=10_000):
    """Grid points where the schedule's cession disagrees with the sign of the
    marginal gain, ignoring points within two grid steps of a layer edge or
    the VaR level and points where the gain is a near-tie."""
    x_eps = model.var_level(market.epsilon)
    hi = x_eps * 1.25 if market.risk_measure == VAR else float(model.quantile(1.0 - 1e-7))
    xs = np.linspace(0.0, hi, n)
    gain = np.asarray(marginal_gain(xs, mu, model, kernel, market))
    idx = np.clip(np.searchsorted(schedule.breakpoints, xs, side="right") - 1, 0, len(schedule.slopes) - 1)
    ceded = np.asarray(schedule.slopes)[idx] == 1.0
    scale = max(mu, kernel.gamma_r, 1e-6)
    mismatch = (gain > 1e-9 * scale) != ceded
    step = xs[1] - xs[0]
    edges = np.asarray(schedule.breakpoints + (x_eps,))
    near_edge = np.min(np.abs(xs[:, None] - edges[None, :]), axis=1) <= 2.0 * step
    near_tie = np.abs(gain) <= 1e-9 * scale
    return xs[mismatch & ~near_edge & ~near_tie]


@st.composite
def _lagrange_instances(draw):
    family = draw(st.sampled_from(["exponential", "lognormal", "gamma", "pareto", "empirical"]))
    if family == "empirical":
        # piecewise-linear cdf with kinks, an exponential tail and an optional atom at zero
        widths = draw(st.lists(st.floats(0.2, 2.0), min_size=2, max_size=4))
        xs = np.concatenate([[0.0], np.cumsum(widths)])
        atom = draw(st.sampled_from([0.0, draw(st.floats(0.05, 0.3))]))
        steps = np.cumsum(draw(st.lists(st.floats(0.2, 1.0), min_size=len(widths), max_size=len(widths))))
        ps = atom + (draw(st.floats(0.8, 0.99)) - atom) * steps / steps[-1]
        model = EmpiricalTable(tuple(xs), (atom,) + tuple(ps))
    elif family == "exponential":
        model = Exponential(draw(st.floats(0.5, 2.0)))
    elif family == "lognormal":
        model = Lognormal.from_mean(1.0, draw(st.floats(0.3, 1.5)))
    elif family == "gamma":
        model = Gamma.from_mean(1.0, draw(st.floats(0.5, 4.0)))
    else:
        model = Pareto.with_mean(draw(st.floats(1.5, 4.0)), 1.0)
    gamma_r = draw(st.floats(0.0, 0.5))
    curve = draw(st.sampled_from(["quadratic", "power", "capped-linear"]))
    if curve == "quadratic":
        kernel = quadratic_kernel(draw(st.floats(0.05, 1.0)), gamma_r)
    elif curve == "power":
        kernel = from_distortion(PowerDistortion(draw(st.floats(0.3, 0.99))), gamma_r)
    else:
        # peaks at the kink s = 1 / slope
        kernel = from_distortion(CappedLinearDistortion(draw(st.floats(1.0, 4.0))), gamma_r)
    market = MarketSpec(
        gamma=0.1, epsilon=draw(st.floats(0.01, 0.25)), risk_measure=draw(st.sampled_from([VAR, CVAR]))
    )
    mu = draw(st.floats(0.0, 1.2)) * kernel.k_max()[1]
    return model, kernel, market, mu


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_lagrange_instances())
def test_lagrange_optimum_cedes_exactly_where_gain_is_positive(instance):
    """Concavity of the kernel bounds the sign changes of the marginal gain,
    so the bracketed edges must reproduce its sign pattern on a fine grid."""
    model, kernel, market, mu = instance
    schedule = lagrange_optimum(mu, model, kernel, market)
    assert _sign_mismatches(schedule, mu, model, kernel, market).size == 0


def _value_types():
    schedule = truncated_stop_loss(1.0, 3.0)
    valuation = Valuation(surplus=0.05, profit=0.05, risk=2.5, ratio=0.02)
    return [
        OptimResult(schedule, valuation, (0.01, 0.02), 1, "single-layer"),
        AttachmentResult(1.0, 0.02, False),
        valuation,
        schedule,
        Layer(1.0, 3.0),
        check_conditions(MODEL, KERNEL, VAR_MARKET),
    ]


@pytest.mark.parametrize("value", _value_types(), ids=lambda v: type(v).__name__)
def test_result_types_are_slotted_values(value):
    assert not hasattr(value, "__dict__")
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert clone == value and type(clone) is type(value)
        assert hash(clone) == hash(value)


def test_unbounded_results_hold_python_floats():
    # the tail engine's geometric remainder is a numpy scalar; results must not carry it
    model, market = Pareto.with_mean(3.0, 1.0), MarketSpec(0.1, 0.05, "cvar")
    assert type(curve_cost(model, KERNEL, 1.0, math.inf)) is float
    result = best_truncated_stop_loss(model, KERNEL, market)
    assert result.schedule.slopes[-1] == 1.0  # an unbounded layer
    assert all(type(getattr(result.valuation, f.name)) is float for f in dataclasses.fields(result.valuation))
    assert all(type(mu) is float for mu in result.mu_trace)


@pytest.mark.parametrize("solve", [dinkelbach_optimize, best_truncated_stop_loss])
def test_returned_schedule_is_priced_once(monkeypatch, solve):
    calls = []
    valuation = RiskLedger.valuation

    def counted(*args, **kwargs):
        calls.append(args)
        return valuation(*args, **kwargs)

    monkeypatch.setattr(RiskLedger, "valuation", counted)
    counts = []
    for beta in (0.0, 0.3):
        market = dataclasses.replace(VAR_MARKET, beta=beta)
        calls.clear()
        result = solve(MODEL, KERNEL, market)
        counts.append(len(calls))
        assert result.valuation == criterion(MODEL, KERNEL, result.schedule, market)
    # beta shifts every ratio alike, so both runs take the same iterates; only beta > 0 prices the result again
    assert counts[0] == counts[1] - 1


class _CountingExponential(Exponential):
    """Exponential loss counting its VaR levels and its tail integrals at a scalar."""

    calls = {"var_level": 0, "tail_integral": 0}

    def var_level(self, epsilon):
        self.calls["var_level"] += 1
        return super().var_level(epsilon)

    def tail_integral(self, t):
        # the relief of a layer reaching past the VaR level integrates the tail at an array
        self.calls["tail_integral"] += np.ndim(t) == 0
        return super().tail_integral(t)


@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("measure", [VAR, CVAR])
@pytest.mark.parametrize(
    "solve", [dinkelbach_optimize, best_truncated_stop_loss, solve_attachment_fixed_point],
    ids=["dinkelbach", "stop-loss", "fixed-point"],
)
def test_one_var_level_per_solve(monkeypatch, solve, measure, beta):
    # x_eps and, under CVaR, TI(x_eps) are priced once per solve, however many iterates or
    # bisection residuals the solve prices
    model = _CountingExponential(1.0)
    calls = {"var_level": 0, "tail_integral": 0}
    monkeypatch.setattr(_CountingExponential, "calls", calls)
    costs = []  # the fixed point prices one layer per bisection residual
    counted = lambda *args, **kw: costs.append(args) or curve_cost(*args, **kw)  # noqa: E731
    monkeypatch.setattr(optimizer_module, "curve_cost", counted)
    result = solve(model, KERNEL, MarketSpec(gamma=0.15, epsilon=0.05, risk_measure=measure, beta=beta))
    if isinstance(result, OptimResult):
        assert len(result.mu_trace) > 3
    else:
        assert len(costs) > 10
    assert calls == {"var_level": 1, "tail_integral": int(measure == CVAR)}


@pytest.mark.parametrize("measure", [VAR, CVAR])
@pytest.mark.parametrize(
    "model",
    [Exponential(1.0), Pareto.with_mean(2.5, 1.0), Gamma.from_mean(1.0, 0.6)],
    ids=["exponential", "pareto-2.5", "gamma-0.6"],
)
def test_solvers_price_the_kernel_in_survival_space_only(monkeypatch, model, measure):
    """Every solver, valuation and condition path evaluates K(F(x)) as
    ``survival_value(sf(x))``, never through a probability level u = F(x)."""
    import layeropt.kernels as kernels
    import layeropt.losses as losses

    kernels_built = [
        quadratic_kernel(0.5, 0.1),
        from_distortion(PowerDistortion(0.7), 0.1),
        from_distortion(CappedLinearDistortion(1.5), 0.1),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("kernel evaluated at a probability level")

    for cls, name in [(kernels.PricingKernel, "k"), (kernels.PricingKernel, "k0"), (kernels.BaseCurve, "value")]:
        monkeypatch.setattr(cls, name, refuse)
    for family in losses.LossModel.__subclasses__():
        monkeypatch.setattr(family, "cdf", refuse)

    market = MarketSpec(gamma=0.1, epsilon=0.05, risk_measure=measure)
    for kernel in kernels_built:
        solve_attachment_fixed_point(model, kernel, market)
        dinkelbach_optimize(model, kernel, market)
        best_truncated_stop_loss(model, kernel, market)
        check_conditions(model, kernel, market)
        marginal_gain(np.linspace(0.0, 10.0, 21), 0.05, model, kernel, market)
        balance_concavity_scan(model, kernel.base, market, n_points=5)


def _power_kernel_cells(draws=40, seed=20261020):
    """Seeded exponential, lognormal and gamma cells under power kernels, each
    under VaR and CVaR; markets with a large gamma and a small epsilon reach
    the multi-layer and the nonpositive-risk regimes."""
    rng = np.random.default_rng(seed)
    cells = []
    for i in range(draws):
        family = ("exponential", "lognormal", "gamma")[i % 3]
        if family == "exponential":
            model = Exponential(1.0)
        elif family == "lognormal":
            model = Lognormal.from_mean(1.0, rng.uniform(0.4, 1.5))
        else:
            model = Gamma.from_mean(1.0, rng.uniform(0.5, 3.0))
        kernel = from_distortion(PowerDistortion(rng.uniform(0.3, 0.99)), rng.uniform(0.02, 0.2))
        gamma, eps = rng.uniform(0.1, 0.5), rng.uniform(0.01, 0.1)
        cells += [(model, kernel, MarketSpec(gamma, eps, measure)) for measure in (VAR, CVAR)]
    return cells


def _solve_or_nonpositive(solve, cell):
    try:
        return solve(*cell)
    except NonpositiveRiskError:
        return NonpositiveRiskError


def _same_edge(model, edge, bisected):
    # an edge is found in survival space: near s = 1 a unit in the last place of s moves a small
    # loss by more than 1e-12 relative, so agreement of the survival levels is accepted there
    return edge == pytest.approx(bisected, rel=1e-12) or abs(float(model.sf(edge)) - float(model.sf(bisected))) <= 1e-14


@pytest.mark.parametrize("solve", [dinkelbach_optimize, best_truncated_stop_loss], ids=lambda f: f.__name__)
def test_power_edges_by_newton_solve_as_the_bisection_default(monkeypatch, solve):
    """The power curve's level edges, solved by Newton, give the solvers what
    the bisection default gives them: the same classifications, layer counts
    and nonpositive-risk aborts, and the same layers."""
    from layeropt.kernels import BaseCurve, DistortionCurve

    cells = _power_kernel_cells()
    newton = [_solve_or_nonpositive(solve, cell) for cell in cells]
    monkeypatch.setattr(DistortionCurve, "level_edges", BaseCurve.level_edges)
    bisected = [_solve_or_nonpositive(solve, cell) for cell in cells]
    outcomes = []
    for (model, _, _), got, want in zip(cells, newton, bisected):
        if want is NonpositiveRiskError or got is NonpositiveRiskError:
            assert got is want
            outcomes.append("nonpositive")
            continue
        assert (got.classification, got.layer_count) == (want.classification, want.layer_count)
        for layer, reference in zip(got.schedule.layers(), want.schedule.layers()):
            assert _same_edge(model, layer.attachment, reference.attachment)
            assert _same_edge(model, layer.detachment, reference.detachment)
        outcomes.append(got.classification)
    # the draw reaches every regime the edges decide; the stop loss holds one layer at most
    regimes = {"nonpositive", "no-cession", "single-layer"}
    assert regimes | ({"multi-layer"} if solve is dinkelbach_optimize else set()) <= set(outcomes)
