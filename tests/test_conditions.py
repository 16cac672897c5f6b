"""Tests for the regime diagnostics."""

from itertools import product

import numpy as np
import pytest

from layeropt import (
    CappedLinearDistortion,
    DistortionCurve,
    Exponential,
    Gamma,
    Lognormal,
    MarketSpec,
    Pareto,
    PowerDistortion,
    QuadraticCurve,
    ViolationSearchSpec,
    asymptotic_profit_gaps,
    attachment_balance,
    balance_concavity_scan,
    check_conditions,
    critical_attachment,
    find_tail_condition_violation,
    gamma_lower_exact,
    quadratic_kernel,
)

MODEL = Exponential(1.0)
BASE = QuadraticCurve(0.5)
KERNEL = quadratic_kernel(0.5, 0.1)
MARKET = MarketSpec(gamma=0.1, epsilon=0.05)
X_EPS = MODEL.var_level(0.05)


class TestCheckConditions:
    def test_baseline_tail_sides(self):
        report = check_conditions(MODEL, KERNEL, MARKET)
        assert report.tail_lhs == pytest.approx(0.025, abs=1e-10)
        assert report.tail_rhs == pytest.approx(0.225625, abs=1e-10)
        assert report.tail_ok

    def test_baseline_solvency(self):
        report = check_conditions(MODEL, KERNEL, MARKET)
        assert report.solvency_value == pytest.approx(-0.2431875, abs=1e-6)
        assert report.solvency_ok

    def test_baseline_predicts_single_layer(self):
        report = check_conditions(MODEL, KERNEL, MARKET)
        assert report.all_ok
        assert report.predicted_shape == "single-layer"
        assert report.gamma_upper == pytest.approx(1.0)
        assert report.gamma_lower == pytest.approx(0.02375)

    def test_loading_failure_predicts_multi_layer_possibility(self):
        market = MarketSpec(gamma=0.2, epsilon=0.05)
        report = check_conditions(MODEL, KERNEL, market)
        assert not report.loading_ok
        assert report.loading_margin == pytest.approx(-0.1)
        assert report.predicted_shape == "possibly-multi-layer"

    def test_tail_sides_match_closed_forms_on_grid(self):
        # exponential losses with the quadratic curve have closed-form sides
        # c * eps and c * (1 - eps)^2 / 2
        for c in np.linspace(0.1, 1.0, 10):
            for eps in np.linspace(0.01, 0.25, 10):
                report = check_conditions(
                    MODEL, quadratic_kernel(c, 0.1), MarketSpec(gamma=0.1, epsilon=eps)
                )
                assert report.tail_lhs == pytest.approx(c * eps, abs=1e-9)
                assert report.tail_rhs == pytest.approx(c * (1 - eps) ** 2 / 2, abs=1e-9)


class TestCriticalAttachment:
    def test_upper_threshold_gives_zero(self):
        assert critical_attachment(1.0, MODEL, BASE, 0.05) == 0.0

    def test_first_order_lower_value_caps_at_var_level(self):
        a = critical_attachment(0.02375, MODEL, BASE, 0.05)
        assert a == pytest.approx(X_EPS, abs=1e-6)

    def test_interior_solution(self):
        # quadratic curve: 0.5 (1 - u) = gamma / (1 + gamma) at the root
        a = critical_attachment(0.1, MODEL, BASE, 0.05)
        assert a == pytest.approx(1.7047481, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="loading interval"):
            critical_attachment(1.5, MODEL, BASE, 0.05)
        with pytest.raises(ValueError, match="loading interval"):
            critical_attachment(0.001, MODEL, BASE, 0.05)


class TestAttachmentBalance:
    def test_at_zero_is_plain_cost_integral(self):
        from layeropt import PricingKernel, reinsurer_surplus, truncated_stop_loss

        for gamma in (0.1, 0.5, 1.0):
            kernel = PricingKernel(BASE, gamma)
            expected = reinsurer_surplus(MODEL, kernel, truncated_stop_loss(0.0, X_EPS))
            assert attachment_balance(0.0, gamma, MODEL, BASE, MARKET) == pytest.approx(
                expected, abs=1e-9
            )

    def test_upper_endpoint_closed_form(self):
        # (1 + g) * 0.225625 - g * 0.05 + g at g = 1
        value = attachment_balance(0.0, 1.0, MODEL, BASE, MARKET)
        assert value == pytest.approx(1.40125, abs=1e-6)

    def test_lower_endpoint_closed_form(self):
        g_lo = gamma_lower_exact(BASE, 0.05)
        value = attachment_balance(X_EPS, g_lo, MODEL, BASE, MARKET)
        assert value == pytest.approx(X_EPS * g_lo, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="attachment"):
            attachment_balance(X_EPS + 0.1, 0.1, MODEL, BASE, MARKET)


class TestGammaLowerExact:
    def test_exceeds_first_order_value(self):
        g_lo = gamma_lower_exact(BASE, 0.05)
        assert g_lo == pytest.approx(0.02375 / (0.95 - 0.02375), abs=1e-12)
        assert g_lo > KERNEL.gamma_lower(0.05)

    def test_critical_attachment_at_exact_lower_is_var_level(self):
        g_lo = gamma_lower_exact(BASE, 0.05)
        assert critical_attachment(g_lo, MODEL, BASE, 0.05) == pytest.approx(X_EPS, abs=1e-9)

    def test_critical_attachment_never_exceeds_var_level(self):
        # isf and the quantile behind the VaR level round differently: uncapped, the scan
        # at the end put its gamma-0.6 model's first attachment one rounding unit above x_eps
        models = [
            Exponential(1.0), Exponential(3.0), Pareto.with_mean(2.5, 1.0), Pareto.with_mean(1.5, 1.0),
            Lognormal.from_mean(1.0, 0.5), Lognormal.from_mean(1.0, 1.2), Gamma.from_mean(1.0, 0.6),
            Gamma.from_mean(1.0, 3.0),
        ]
        bases = [QuadraticCurve(0.25), QuadraticCurve(0.5), QuadraticCurve(1.0)] + [
            DistortionCurve(d)
            for d in (PowerDistortion(0.5), PowerDistortion(0.7), PowerDistortion(0.9),
                      CappedLinearDistortion(1.5), CappedLinearDistortion(2.0))
        ]
        for model, base, eps in product(models, bases, (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.45)):
            g_lo = gamma_lower_exact(base, eps)
            assert critical_attachment(g_lo, model, base, eps) <= model.var_level(eps)
        market = MarketSpec(gamma=0.1, epsilon=0.05)
        scan = balance_concavity_scan(Gamma.from_mean(1.0, 0.6), DistortionCurve(PowerDistortion(0.9)), market)
        assert scan.attachments[0] == Gamma.from_mean(1.0, 0.6).var_level(0.05)


class TestBalanceScan:
    def test_baseline_regime_margins(self):
        scan = balance_concavity_scan(MODEL, BASE, MARKET, 101)
        assert scan.min_balance_margin >= -1e-8
        assert scan.max_concavity_defect <= 1e-8
        assert scan.attachments_monotone
        assert not scan.upper_capped

    def test_endpoints_match_closed_forms(self):
        scan = balance_concavity_scan(MODEL, BASE, MARKET, 101)
        g_lo = gamma_lower_exact(BASE, 0.05)
        assert scan.endpoint_low == pytest.approx(X_EPS * g_lo, abs=1e-6)
        assert scan.endpoint_high == pytest.approx(1.40125, abs=1e-6)
        assert scan.attachments[0] == pytest.approx(X_EPS, abs=1e-9)
        assert scan.attachments[-1] == pytest.approx(0.0, abs=1e-9)

    def test_infinite_threshold_capped(self):
        scan = balance_concavity_scan(MODEL, QuadraticCurve(1.0), MARKET, 21)
        assert scan.upper_capped
        assert scan.gammas[-1] == pytest.approx(10.0)


class TestAsymptotics:
    def test_equal_loadings_gap_shrinks(self):
        rows = asymptotic_profit_gaps((100, 1000, 10000), 1.0, 1.0, KERNEL, MARKET)
        gaps = [r.gap for r in rows]
        assert gaps[-1] <= 0.02
        assert gaps[-1] < gaps[0]
        scaled = [r.gap_times_sqrt_n for r in rows]
        assert max(scaled) <= 3.0 * min(scaled)

    def test_rejects_tiny_portfolios(self):
        with pytest.raises(ValueError, match="n >= 10"):
            asymptotic_profit_gaps((5,), 1.0, 1.0, KERNEL, MARKET)


class TestJointShapePrediction:
    def test_hypotheses_imply_no_multi_layer_optimum(self):
        """When all four conditions hold the optimizer never needs a second
        layer; the optimum is a stop loss, possibly degenerate (no cession).
        The unrestricted optimum also never trails the best single layer.
        """
        from layeropt import best_truncated_stop_loss, dinkelbach_optimize

        from conftest import make_hypothesis_instances

        instances = make_hypothesis_instances(count=50, seed=31415)
        for i, (model, kernel, market) in enumerate(instances):
            report = check_conditions(model, kernel, market)
            assert report.predicted_shape == "single-layer"
            result = dinkelbach_optimize(model, kernel, market)
            assert result.layer_count <= 1, f"instance {i} produced {result.layer_count} layers"
            if i % 5 == 0:
                tsl = best_truncated_stop_loss(model, kernel, market)
                assert result.valuation.ratio >= tsl.valuation.ratio - 1e-8

    def test_balance_margin_nonnegative_across_families(self):
        # the margin is balance - gamma * E X, so margin / E X does not depend on the unit of money
        for unit in (Exponential(1.0), Gamma.from_mean(1.0, 2.0)):
            per_mean = []
            for model in (unit, unit.rescale(0.4), unit.rescale(0.5), unit.rescale(3.0)):
                scan = balance_concavity_scan(model, QuadraticCurve(0.7), MARKET, 31)
                assert scan.min_balance_margin >= -1e-8
                assert scan.endpoint_low >= scan.gammas[0] * model.mean - 1e-8
                assert scan.endpoint_high >= scan.gammas[-1] * model.mean - 1e-8
                per_mean.append(scan.min_balance_margin / model.mean)
            assert per_mean == pytest.approx([per_mean[0]] * len(per_mean), rel=1e-12)


class TestViolationSearch:
    def test_default_search_finds_windowed_instance(self):
        inst = find_tail_condition_violation()
        assert inst is not None and inst.has_window
        assert not inst.report.tail_ok
        assert inst.report.solvency_ok
        assert inst.market.gamma == inst.kernel.gamma_r
        g_hi = inst.report.gamma_upper
        assert 0.95 * g_hi <= inst.market.gamma < g_hi

    def test_raw_violation_on_coarse_grid(self):
        search = ViolationSearchSpec(pareto_shapes=(1.2, 1.5, 2.0), kernel_cs=(0.25, 0.5))
        inst = find_tail_condition_violation(search)
        assert inst is not None
        assert inst.report.tail_lhs > inst.report.tail_rhs
        assert not inst.has_window  # these shapes violate too hard to stay solvent

    def test_exponential_like_shapes_have_no_violation(self):
        search = ViolationSearchSpec(pareto_shapes=(3.0, 5.0, 10.0), kernel_cs=(0.5,))
        assert find_tail_condition_violation(search) is None

    def test_heavier_epsilon_grows_lhs(self):
        model = Pareto.with_mean(1.3, 1.0)
        lhs = []
        for eps in (0.05, 0.2, 0.4):
            market = MarketSpec(gamma=0.1, epsilon=eps)
            report = check_conditions(model, KERNEL, market)
            lhs.append(report.tail_lhs)
        assert lhs[0] < lhs[1] < lhs[2]
