"""Tests for the regime diagnostics."""

import math
from itertools import product

import numpy as np
import pytest

from layeropt import (
    CappedLinearDistortion,
    DistortionCurve,
    EmpiricalTable,
    Exponential,
    Gamma,
    Lognormal,
    MarketSpec,
    NonpositiveRiskError,
    Pareto,
    PowerDistortion,
    PricingKernel,
    QuadraticCurve,
    UnpurchasableCoverError,
    ViolationSearchSpec,
    asymptotic_profit_gaps,
    attachment_balance,
    balance_concavity_scan,
    check_conditions,
    critical_attachment,
    dinkelbach_optimize,
    find_tail_condition_violation,
    gamma_lower_exact,
    portfolio_normal_model,
    quadratic_kernel,
    regime_map,
)
from layeropt._integrate import curve_cost

from conftest import two_quadrature_conditions

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


# one model of each family, and one curve of each kernel family
FAMILIES = [
    Exponential(1.0),
    Pareto.with_mean(2.5, 1.0),
    Lognormal.from_mean(1.0, 1.0),
    Gamma.from_mean(1.0, 0.6),
    EmpiricalTable((0.0, 0.5, 2.0, 5.0), (0.1, 0.4, 0.8, 0.97)),
    portfolio_normal_model(100, 1.0, 1.0),
]
CURVES = [QuadraticCurve(0.5), DistortionCurve(PowerDistortion(0.7)), DistortionCurve(CappedLinearDistortion(1.5))]


class TestClosedFormConditions:
    @pytest.mark.parametrize("measure", ["var", "cvar"])
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2])
    @pytest.mark.parametrize("base", CURVES, ids=lambda b: b.family)
    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.family)
    def test_matches_two_quadrature_reference(self, model, base, eps, measure):
        for gamma_r, gamma in product((0.05, 0.3), (0.1, 0.4)):
            kernel, market = PricingKernel(base, gamma_r), MarketSpec(gamma, eps, measure)
            report = check_conditions(model, kernel, market)
            tail_lhs, tail_rhs, solvency, shape = two_quadrature_conditions(model, kernel, market)
            cost = gamma * model.mean - solvency
            assert abs(report.solvency_value - solvency) <= 1e-14 * (gamma * model.mean + cost)
            assert report.tail_rhs == tail_rhs
            assert report.tail_lhs == tail_lhs
            if measure == "var":
                assert report.predicted_shape == shape

    @pytest.mark.parametrize("measure", ["var", "cvar"])
    def test_one_finite_quadrature_per_check(self, finite_quadratures, measure):
        for model in FAMILIES:
            check_conditions(model, KERNEL, MarketSpec(0.1, 0.05, measure))
        assert len(finite_quadratures) == len(FAMILIES)


def _cvar_draw(rng, per_family):
    """(family, model, kernel, market) under CVaR: six families, three kernel families in turn."""
    draws = {
        "exponential": lambda: Exponential(rng.uniform(0.5, 2.0)),
        "pareto": lambda: Pareto.with_mean(rng.uniform(1.3, 5.0), rng.uniform(0.5, 2.0)),
        "lognormal": lambda: Lognormal.from_mean(rng.uniform(0.5, 2.0), rng.uniform(0.3, 2.0)),
        "gamma": lambda: Gamma.from_mean(rng.uniform(0.5, 2.0), rng.uniform(0.3, 4.0)),
        "empirical-table": lambda: EmpiricalTable(
            tuple(np.cumsum(np.concatenate([[0.0], rng.uniform(0.1, 1.0, 4)]))),
            tuple(np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.98, 4))])),
        ),
        "portfolio-normal": lambda: portfolio_normal_model(int(rng.integers(10, 1001)), 1.0, rng.uniform(0.5, 3.0)),
    }
    curves = [
        lambda: QuadraticCurve(rng.uniform(0.1, 1.0)),
        lambda: DistortionCurve(PowerDistortion(rng.uniform(0.3, 0.99))),
        lambda: DistortionCurve(CappedLinearDistortion(rng.uniform(1.0, 4.0))),
    ]
    for family, draw in draws.items():
        for i in range(per_family):
            model, base = draw(), curves[i % 3]()
            kernel = PricingKernel(base, rng.uniform(0.02, 0.6))
            yield family, model, kernel, MarketSpec(rng.uniform(0.02, 0.6), rng.uniform(0.01, 0.3), "cvar")


class TestCvarInfiniteRatio:
    """Under CVaR ceding [0, x_eps) at a profit still leaves the tail's risk:
    the ratio is unbounded only when full cession [0, inf) is profitable."""

    def test_exponential_closed_form(self):
        # ceding [0, x_eps) costs 1.1 * 0.225625 + 0.1 * 0.95 = 0.3431875 and
        # [0, inf) costs 1.1 * 0.25 + 0.1 = 0.375 for Exponential(1), c = 0.5, gamma_r = 0.1
        var, cvar = (check_conditions(MODEL, KERNEL, MarketSpec(0.36, 0.05, m)) for m in ("var", "cvar"))
        assert not var.solvency_ok and not cvar.solvency_ok
        assert cvar.solvency_value == var.solvency_value == pytest.approx(0.36 - 0.3431875, rel=1e-13)
        assert var.predicted_shape == "trivial-infinite-ratio"
        assert cvar.predicted_shape == "possibly-multi-layer"
        result = dinkelbach_optimize(MODEL, KERNEL, MarketSpec(0.36, 0.05, "cvar"))
        assert result.valuation.risk > 0.1 and math.isfinite(result.valuation.ratio)
        for measure in ("var", "cvar"):
            report = check_conditions(MODEL, KERNEL, MarketSpec(0.4, 0.05, measure))
            assert report.predicted_shape == "trivial-infinite-ratio"

    def test_gamma_case_with_profitable_full_cession(self):
        model = Gamma(shape=1.8494420605262951, scale=0.540703610750277)
        kernel = PricingKernel(QuadraticCurve(0.11302736608346897), 0.08046656177258671)
        market = MarketSpec(gamma=0.2461356485438086, epsilon=0.23129999074563087, risk_measure="cvar")
        profit = market.gamma * model.mean - curve_cost(model, kernel, 0.0, math.inf)
        assert profit == pytest.approx(0.1183, abs=1e-4)
        assert check_conditions(model, kernel, market).predicted_shape == "trivial-infinite-ratio"

    def test_seeded_draw_matches_full_cession_test(self):
        seen = {"trivial": 0, "cvar-only-finite": 0}
        for family, model, kernel, market in _cvar_draw(np.random.default_rng(2026), 30):
            report = check_conditions(model, kernel, market)
            try:
                full = curve_cost(model, kernel, 0.0, math.inf)
            except UnpurchasableCoverError:
                full = math.inf
            profit = market.gamma * model.mean - full
            if abs(profit) <= 1e-12 * market.gamma * model.mean:
                continue  # within rounding of the boundary either label is right
            assert (report.predicted_shape == "trivial-infinite-ratio") == (profit > 0.0), family
            seen["trivial"] += profit > 0.0
            seen["cvar-only-finite"] += profit < 0.0 and not report.solvency_ok
        assert min(seen.values()) >= 5, seen

    def test_seeded_draw_solver_raises_exactly_when_labelled(self):
        # full cession retains exactly 0, so Dinkelbach's nonpositive-risk abort
        # is the infinite-ratio regime; every other instance solves
        seen = {True: 0, False: 0}
        for family, model, kernel, market in _cvar_draw(np.random.default_rng(7), 50):
            labelled = check_conditions(model, kernel, market).predicted_shape == "trivial-infinite-ratio"
            try:
                dinkelbach_optimize(model, kernel, market)
                raised = False
            except NonpositiveRiskError:
                raised = True
            assert raised == labelled, (family, model, kernel, market)
            seen[labelled] += 1
        assert seen[True] >= 20 and seen[False] >= 200, seen


class TestRegimeMap:
    def test_exponential_closed_form(self):
        # C0 = c (1 - eps)**2 / 2 and TI = eps for Exponential(1)
        regime = regime_map(MODEL, BASE, 0.05)
        c0 = 0.5 * 0.95**2 / 2
        assert (regime.base_cost, regime.tail_integral) == (pytest.approx(c0, rel=1e-14), pytest.approx(0.05, rel=1e-14))
        for gamma_r in (0.0, 0.1, 0.3):
            assert regime.solvency_line(gamma_r) == pytest.approx(c0 + gamma_r * (c0 + 0.95), rel=1e-14)
        assert regime.crossing == math.inf
        assert regime.tail_ok and regime.quantile_ok
        assert regime.loading_line(0.3) == 0.3

    @pytest.mark.parametrize("eps", [0.05, 0.2])
    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.family)
    def test_agrees_with_check_conditions(self, model, eps):
        for base in CURVES:
            regime = regime_map(model, base, eps)
            report = check_conditions(model, PricingKernel(base, 0.2), MarketSpec(0.1, eps))
            assert regime.tail_ok == report.tail_ok
            assert regime.quantile_ok == report.quantile_ok
            line = regime.solvency_line(0.2)
            # solvency_value is gamma * E X minus the cost on the line, per unit of E X
            assert line * model.mean - 0.1 * model.mean == pytest.approx(-report.solvency_value, rel=1e-13, abs=1e-15)
            if math.isfinite(regime.crossing):
                assert regime.solvency_line(regime.crossing) == pytest.approx(regime.crossing, rel=1e-12)

    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.family)
    def test_full_cost_only_under_cvar(self, model):
        for base in CURVES:
            assert regime_map(model, base, 0.05).full_cost is None
            full = regime_map(model, base, 0.05, "cvar").full_cost
            assert full == curve_cost(model, base, 0.0, math.inf)
        # tail index 1.2 times survival exponent 0.5: full cession is not purchasable
        power = DistortionCurve(PowerDistortion(0.5))
        assert regime_map(Pareto.with_mean(1.2, 1.0), power, 0.05, "cvar").full_cost == math.inf

    @pytest.mark.parametrize("measure", ["var", "cvar"])
    def test_report_is_check_conditions(self, measure):
        for model, base in product(FAMILIES, CURVES):
            regime = regime_map(model, base, 0.05, measure)
            for gamma_r, gamma in product((0.05, 0.3), (0.1, 0.4)):
                kernel, market = PricingKernel(base, gamma_r), MarketSpec(gamma, 0.05, measure)
                assert regime.report(kernel, market) == check_conditions(model, kernel, market)

    def test_cvar_report_needs_a_cvar_map(self):
        with pytest.raises(ValueError, match="CVaR"):
            regime_map(MODEL, BASE, 0.05).report(KERNEL, MarketSpec(0.1, 0.05, "cvar"))

    def test_asymptotics_read_the_regime_cost(self, finite_quadratures):
        rows = asymptotic_profit_gaps((100, 1000), 1.0, 1.0, KERNEL, MARKET)
        # one base-curve quadrature per portfolio, and the loading identity
        # prices [0, x_eps) under the loaded kernel
        assert [args[1] for args in finite_quadratures] == [BASE, BASE]
        for row, n in zip(rows, (100, 1000)):
            model = portfolio_normal_model(n, 1.0, 1.0)
            cost = curve_cost(model, KERNEL, 0.0, model.var_level(0.05), tol=1e-11)
            want = (MARKET.gamma * model.mean - cost) / model.mean
            assert row.profit_ratio == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("measure", ["var", "cvar"])
    def test_violation_search_reports_from_its_regime(self, monkeypatch, measure):
        import layeropt.conditions as conditions

        monkeypatch.setattr(conditions, "check_conditions", None)
        for search in (ViolationSearchSpec(risk_measure=measure),
                       ViolationSearchSpec(pareto_shapes=(1.2,), kernel_cs=(0.25,), risk_measure=measure)):
            inst = find_tail_condition_violation(search)
            regime = regime_map(inst.model, inst.kernel.base, inst.market.epsilon, measure, tol=1e-13)
            assert inst.report == regime.report(inst.kernel, inst.market)

    def test_crossing_is_the_violation_search_boundary(self):
        inst = find_tail_condition_violation()
        regime = regime_map(inst.model, inst.kernel.base, inst.market.epsilon, tol=1e-13)
        assert inst.window[1] == regime.crossing
        assert not regime.tail_ok
