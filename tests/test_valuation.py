"""Tests for surplus, profit, retained risk and the ratio criterion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layeropt import (
    CVAR,
    EmpiricalTable,
    Exponential,
    Gamma,
    IndemnitySchedule,
    Layer,
    Lognormal,
    MarketSpec,
    NonpositiveRiskError,
    Pareto,
    criterion,
    expected_profit,
    full_cession,
    portfolio_normal_model,
    quadratic_kernel,
    reinsurer_surplus,
    retained_risk,
    schedule_from_layers,
    truncated_stop_loss,
    zero_schedule,
)
from layeropt.valuation import risk_ledger

MODEL = Exponential(1.0)
KERNEL = quadratic_kernel(0.5, 0.1)
VAR_MARKET = MarketSpec(gamma=0.1, epsilon=0.05)
CVAR_MARKET = MarketSpec(gamma=0.1, epsilon=0.05, risk_measure="cvar")
X_EPS = MODEL.var_level(0.05)


class TestMarketSpec:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError, match=r"\(0, 0.5\)"):
            MarketSpec(gamma=0.1, epsilon=0.7)

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            MarketSpec(gamma=0.0, epsilon=0.05)

    @pytest.mark.parametrize("beta", [-0.1, math.nan, math.inf])
    def test_beta_finite_and_nonnegative(self, beta):
        with pytest.raises(ValueError, match="beta"):
            MarketSpec(gamma=0.1, epsilon=0.05, beta=beta)

    def test_measure_normalized(self):
        assert MarketSpec(gamma=0.1, epsilon=0.05, risk_measure="CVaR").risk_measure == CVAR


class TestReinsurerSurplus:
    def test_zero_schedule_costs_nothing(self):
        assert reinsurer_surplus(MODEL, KERNEL, zero_schedule()) == 0.0

    def test_layer_to_var_level(self):
        # closed form: integral of 0.65 e^-x - 0.55 e^-2x over [0, x_eps]
        value = reinsurer_surplus(MODEL, KERNEL, truncated_stop_loss(0.0, X_EPS))
        assert value == pytest.approx(0.3431875, abs=1e-6)

    def test_full_cession(self):
        value = reinsurer_surplus(MODEL, KERNEL, truncated_stop_loss(0.0))
        assert value == pytest.approx(0.375, abs=1e-6)

    def test_fractional_slope_scales_linearly(self):
        half = IndemnitySchedule((0.0, X_EPS), (0.5, 0.0))
        full = truncated_stop_loss(0.0, X_EPS)
        assert reinsurer_surplus(MODEL, KERNEL, half) == pytest.approx(
            0.5 * reinsurer_surplus(MODEL, KERNEL, full), abs=1e-10
        )


class TestExpectedProfit:
    def test_no_cession_keeps_full_loading(self):
        assert expected_profit(MODEL, KERNEL, zero_schedule(), VAR_MARKET) == pytest.approx(0.1, abs=1e-12)

    def test_full_lower_cession_is_loss_making(self):
        value = expected_profit(MODEL, KERNEL, truncated_stop_loss(0.0, X_EPS), VAR_MARKET)
        assert value == pytest.approx(-0.2431875, abs=1e-6)
        assert value <= 0.0

    def test_capital_charge(self):
        market = MarketSpec(gamma=0.1, epsilon=0.05, beta=0.2)
        value = expected_profit(MODEL, KERNEL, zero_schedule(), market)
        assert value == pytest.approx(0.1 - 0.2 * X_EPS, abs=1e-9)


class TestRetainedRisk:
    def test_var_no_cession(self):
        assert retained_risk(MODEL, zero_schedule(), VAR_MARKET) == pytest.approx(X_EPS, abs=1e-12)

    def test_var_layer_caps_at_attachment(self):
        risk = retained_risk(MODEL, truncated_stop_loss(1.0, X_EPS), VAR_MARKET)
        assert risk == pytest.approx(1.0, abs=1e-12)

    def test_cvar_no_cession(self):
        risk = retained_risk(MODEL, zero_schedule(), CVAR_MARKET)
        assert risk == pytest.approx(X_EPS + 1.0, abs=1e-12)

    def test_cvar_unbounded_stop_loss(self):
        # everything above a is ceded, so the retained tail is flat at a
        risk = retained_risk(MODEL, truncated_stop_loss(1.0), CVAR_MARKET)
        assert risk == pytest.approx(1.0, abs=1e-10)

    def test_nonpositive_risk_raises(self):
        with pytest.raises(NonpositiveRiskError):
            retained_risk(MODEL, truncated_stop_loss(0.0, X_EPS), VAR_MARKET)

    def test_cvar_fractional_layers_on_both_sides_of_var_level(self):
        # exponential tail: E[X | X >= x_eps] = x_eps + 1, and a slope-s
        # segment [lo, hi) above x_eps cedes s * (e^-lo - e^-hi) / eps of it
        schedule = IndemnitySchedule((0.0, 1.0, 2.0, 3.5, 5.0, 6.0), (0.0, 0.5, 0.0, 1.0, 0.0, 0.3))
        tail_ceded = (math.exp(-3.5) - math.exp(-5.0) + 0.3 * math.exp(-6.0)) / 0.05
        want = X_EPS + 1.0 - 0.5 - tail_ceded
        assert retained_risk(MODEL, schedule, CVAR_MARKET) == pytest.approx(want, abs=1e-12)


class TestRiskLedger:
    @pytest.mark.parametrize("market", [VAR_MARKET, CVAR_MARKET])
    @pytest.mark.parametrize("model", [
        MODEL,
        # kinks, an atom at zero and an exponential tail beyond the last row
        EmpiricalTable((0.0, 0.5, 2.0, 5.0), (0.1, 0.4, 0.8, 0.97)),
    ])
    def test_broadcast_matches_single_layers(self, model, market):
        x_eps = model.var_level(market.epsilon)
        a = np.array([0.2, 1.0, 2.5, 3.2])
        b = np.array([0.5, 2.0, x_eps, x_eps + 1.0, math.inf])
        ledger = risk_ledger(model, market)
        floor, relief = ledger.floor, ledger.relief(a[:, None], b[None, :])
        assert floor == retained_risk(model, zero_schedule(), market)
        assert relief.shape == (4, 5)
        for i, lo in enumerate(a):
            for j, hi in enumerate(b):
                if hi > lo:
                    want = floor - retained_risk(model, truncated_stop_loss(lo, hi), market)
                    assert relief[i, j] == pytest.approx(want, abs=1e-12)


# one model of each family; the table's VaR level sits on its atom at zero
# for every epsilon above 0.03
ATOM_TABLE = EmpiricalTable((0.0, 1.0, 2.0), (0.97, 0.99, 1.0))
FAMILIES = [
    Exponential(1.0),
    Pareto.with_mean(2.5, 1.0),
    Lognormal.from_mean(1.0, 1.5),
    Gamma.from_mean(1.0, 0.6),
    portfolio_normal_model(100, 1.0, 1.0),
    EmpiricalTable((0.0, 0.5, 2.0, 5.0), (0.1, 0.4, 0.8, 0.97)),
    ATOM_TABLE,
]


class TestFullCession:
    @pytest.mark.parametrize("eps", [0.05, 0.2])
    @pytest.mark.parametrize("measure", ["var", "cvar"])
    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.family)
    def test_retains_exactly_nothing(self, model, measure, eps):
        market = MarketSpec(0.1, eps, measure)
        ledger = risk_ledger(model, market)
        assert ledger.relief(0.0, math.inf) == ledger.floor
        # the same within a batch, where the tail integral is vectorized
        batch = ledger.relief([0.5, 0.0, 0.0, 1.0], [2.0, math.inf, 1.0, math.inf])
        assert batch[1] == ledger.floor
        with pytest.raises(NonpositiveRiskError):
            retained_risk(model, full_cession(), market)
        if measure == "var":
            assert ledger.floor == model.var_level(eps)

    @pytest.mark.parametrize("eps, want", [(0.05, 0.5), (0.2, 0.125)])
    def test_no_cession_cvar_is_the_expected_shortfall_on_an_atom(self, eps, want):
        # x_eps = 0 and E(X - 0)+ = 0.025, so the expected shortfall is 0.025 / eps;
        # E(X | X >= 0) = 0.025 / 0.03 would read 0.8333 at every epsilon
        assert ATOM_TABLE.var_level(eps) == 0.0
        risk = retained_risk(ATOM_TABLE, zero_schedule(), MarketSpec(0.1, eps, "cvar"))
        assert abs(risk - want) <= 1e-15


def _drawn_model(family: int, param: float):
    """A model of one of the six families; ``param`` in [0, 1] sets its shape."""
    if family == 0:
        return Exponential(0.5 + 2.0 * param)
    if family == 1:
        return Pareto.with_mean(1.3 + 3.7 * param, 1.0)
    if family == 2:
        return Lognormal.from_mean(1.0, 0.3 + 1.7 * param)
    if family == 3:
        return Gamma.from_mean(1.0, 0.3 + 3.7 * param)
    if family == 4:
        return portfolio_normal_model(int(10 + 990 * param), 1.0, 1.0)
    return EmpiricalTable((0.0, 0.5, 2.0, 5.0), (0.1, 0.4, 0.8, 0.97)).rescale(0.5 + 2.0 * param)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.integers(0, 5),
    st.floats(0.0, 1.0),
    st.sampled_from(["var", "cvar"]),
    st.floats(0.01, 0.3),
    st.integers(0, 3).flatmap(lambda k: st.lists(st.floats(0.0, 4.0), min_size=2 * k, max_size=2 * k, unique=True)),
    st.booleans(),
)
def test_ledger_matches_the_all_segment_relief(family, param, measure, eps, edges, unbounded):
    """The closed-form floor is the relief of [0, inf) bit for bit, and relieving a bang-bang
    schedule over its ceded segments only retains exactly what the dot product over every
    segment does."""
    model = _drawn_model(family, param)
    ledger = risk_ledger(model, MarketSpec(0.1, eps, measure))
    assert ledger.x_eps == model.var_level(eps)
    assert ledger.floor == float(ledger.relief(0.0, math.inf))
    unit = max(ledger.x_eps, model.mean)
    edges = sorted(e * unit for e in edges)
    if unbounded and edges:
        edges[-1] = math.inf
    schedule = schedule_from_layers([Layer(a, b) for a, b in zip(edges[::2], edges[1::2]) if b > a])
    starts, ends, slopes = zip(*schedule.segments())
    every = float(ledger.floor - np.asarray(slopes) @ ledger.relief(starts, ends))
    assert ledger.retained(schedule) == every
    assert ledger.retained(full_cession()) == 0.0


class TestCriterion:
    def test_var_zero_schedule_ratio(self):
        value = criterion(MODEL, KERNEL, zero_schedule(), VAR_MARKET)
        assert value.ratio == pytest.approx(0.0333805, abs=1e-6)

    def test_cvar_zero_schedule_ratio(self):
        value = criterion(MODEL, KERNEL, zero_schedule(), CVAR_MARKET)
        assert value.ratio == pytest.approx(0.0250267, abs=1e-6)

    def test_fixed_point_layer_ratio(self):
        value = criterion(MODEL, KERNEL, truncated_stop_loss(2.9215, X_EPS), VAR_MARKET)
        assert value.ratio == pytest.approx(0.033410, abs=5e-5)

    def test_ratio_is_profit_over_risk(self):
        value = criterion(MODEL, KERNEL, truncated_stop_loss(1.0, X_EPS), VAR_MARKET)
        assert value.ratio == pytest.approx(value.profit / value.risk, rel=1e-15)


def _random_schedules(rng, count, bang_bang=False):
    out = []
    for _ in range(count):
        n = rng.integers(1, 5)
        bps = (0.0,) + tuple(np.sort(rng.uniform(0.05, 6.0, size=n)))
        if bang_bang:
            slopes = tuple(float(v) for v in rng.integers(0, 2, size=n + 1))
        else:
            slopes = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=n + 1))
        slopes = slopes[:-1] + (0.0,)  # keep the far tail retained
        out.append(IndemnitySchedule(bps, slopes))
    return out


class TestInvariants:
    def test_beta_shift_identity(self):
        rng = np.random.default_rng(7)
        for schedule in _random_schedules(rng, 10):
            base = criterion(MODEL, KERNEL, schedule, VAR_MARKET)
            shifted = criterion(MODEL, KERNEL, schedule, MarketSpec(gamma=0.1, epsilon=0.05, beta=0.25))
            assert shifted.ratio == pytest.approx(base.ratio - 0.25, abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for market in (VAR_MARKET, CVAR_MARKET):
            for schedule in _random_schedules(rng, 5):
                base = criterion(MODEL, KERNEL, schedule, market).ratio
                for scale in (0.5, 3.0):
                    scaled = criterion(
                        MODEL.rescale(scale), KERNEL, schedule.rescale(scale), market
                    ).ratio
                    assert scaled == pytest.approx(base, abs=1e-8)

    def test_cvar_dominates_var(self):
        rng = np.random.default_rng(13)
        for schedule in _random_schedules(rng, 8):
            var_risk = retained_risk(MODEL, schedule, VAR_MARKET)
            cvar_risk = retained_risk(MODEL, schedule, CVAR_MARKET)
            assert cvar_risk >= var_risk - 1e-10

    def test_loading_monotonicity_of_profit_and_ratio(self):
        rng = np.random.default_rng(17)
        schedules = _random_schedules(rng, 5)
        for schedule in schedules:
            prev_profit, prev_ratio = math.inf, math.inf
            for gamma_r in (0.05, 0.1, 0.2, 0.4):
                kernel = quadratic_kernel(0.5, gamma_r)
                value = criterion(MODEL, kernel, schedule, VAR_MARKET)
                assert value.profit <= prev_profit + 1e-12
                assert value.ratio <= prev_ratio + 1e-12
                prev_profit, prev_ratio = value.profit, value.ratio


def test_pareto_cvar_valuation_smoke():
    model = Pareto.with_mean(1.465, 1.0)
    kernel = quadratic_kernel(0.5, 0.3)
    market = MarketSpec(gamma=0.2, epsilon=0.05, risk_measure="cvar")
    value = criterion(model, kernel, truncated_stop_loss(1.0, 4.0), market)
    assert math.isfinite(value.ratio)
    assert value.risk > 0.0
