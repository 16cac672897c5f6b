"""Tests for the multiplier analysis and the ratio optimizers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layeropt import (
    CVAR,
    VAR,
    EmpiricalTable,
    Exponential,
    Gamma,
    IndemnitySchedule,
    Layer,
    Lognormal,
    MarketSpec,
    NonpositiveRiskError,
    Pareto,
    PowerDistortion,
    best_truncated_stop_loss,
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
    zero_schedule,
)
from layeropt._integrate import cumulative_kernel_cost, kernel_cost, purchasable
from layeropt.valuation import risk_ledger

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
        tail = cum[-1] + kernel_cost(model, kernel, pts[-1], math.inf)
        cost, b = np.hstack([cost, tail - cum[:, None]]), np.append(pts, math.inf)
    floor, relief = risk_ledger(model, market, pts[:, None], b[None, :])
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
    if draw(st.booleans()):
        kernel = quadratic_kernel(draw(st.floats(0.05, 1.0)), gamma_r)
    else:
        kernel = from_distortion(PowerDistortion(draw(st.floats(0.3, 0.99))), gamma_r)
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
