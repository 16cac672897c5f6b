"""Tests for the loss distribution families."""

import math

import numpy as np
import pytest

from layeropt import (
    DegenerateTailError,
    EmpiricalTable,
    Exponential,
    Gamma,
    InfiniteMeanError,
    Lognormal,
    Pareto,
    portfolio_normal_model,
)

ALL_MODELS = [
    Exponential(1.0),
    Exponential(3.5),
    Pareto(2.0, 1.0),
    Pareto.with_mean(1.465, 1.0),
    Lognormal.from_mean(1.0, 0.8),
    Gamma.from_mean(1.0, 2.0),
    Gamma(0.7, 2.0),
    EmpiricalTable((0.0, 1.0, 2.0), (0.0, 0.5, 1.0)),
    EmpiricalTable((0.0, 0.5, 2.0, 5.0), (0.1, 0.4, 0.8, 0.97)),
    portfolio_normal_model(100, 1.0, 1.0),
]


class TestExponential:
    def test_cdf_values(self):
        m = Exponential(1.0)
        assert m.cdf(0.0) == 0.0
        assert m.cdf(math.log(20.0)) == pytest.approx(0.95, abs=1e-12)
        assert m.cdf(1.0) == pytest.approx(0.6321206, abs=1e-7)

    def test_quantiles(self):
        m = Exponential(1.0)
        assert m.quantile(0.95) == pytest.approx(2.995732, abs=1e-6)
        assert m.quantile(0.5) == pytest.approx(0.6931472, abs=1e-7)

    def test_tail_integral(self):
        m = Exponential(1.0)
        x_eps = m.var_level(0.05)
        assert m.tail_integral(x_eps) == pytest.approx(0.05, abs=1e-12)
        assert m.tail_integral(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_tail_expectation_memoryless(self):
        m = Exponential(1.0)
        x_eps = m.var_level(0.05)
        assert m.tail_expectation(x_eps) == pytest.approx(x_eps + 1.0, abs=1e-12)
        assert m.tail_expectation(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        m = Exponential(1.0)
        with pytest.raises(ValueError):
            m.cdf(-0.5)
        with pytest.raises(ValueError):
            m.quantile(0.0)
        with pytest.raises(ValueError):
            m.quantile(1.0)


class TestPareto:
    def test_closed_forms(self):
        m = Pareto(2.0, 1.0)
        assert m.tail_integral(2.0) == pytest.approx(0.5, abs=1e-14)
        assert m.tail_expectation(2.0) == pytest.approx(4.0, abs=1e-12)
        assert m.mean == pytest.approx(2.0)

    def test_infinite_mean_rejected(self):
        with pytest.raises(InfiniteMeanError):
            Pareto(1.0, 1.0)
        with pytest.raises(InfiniteMeanError):
            Pareto.with_mean(0.9)

    def test_with_mean_normalization(self):
        m = Pareto.with_mean(1.5, 1.0)
        assert m.mean == pytest.approx(1.0, abs=1e-14)
        assert m.tail_integral(0.0) == pytest.approx(1.0, abs=1e-12)


class TestEmpiricalTable:
    def test_linear_interpolation_quantile(self):
        m = EmpiricalTable((0.0, 1.0, 2.0), (0.0, 0.5, 1.0))
        assert m.quantile(0.75) == pytest.approx(1.5, abs=1e-14)
        assert m.cdf(0.5) == pytest.approx(0.25, abs=1e-14)
        assert m.mean == pytest.approx(1.0, abs=1e-14)

    def test_exponential_tail_extension(self):
        m = EmpiricalTable((0.0, 1.0, 2.0), (0.0, 0.6, 0.9))
        # hazard of the last segment: slope 0.3 over survival 0.1
        h = 0.3 / 0.1
        assert m.cdf(3.0) == pytest.approx(1.0 - 0.1 * math.exp(-h), abs=1e-14)
        assert m.tail_integral(2.0) == pytest.approx(0.1 / h, abs=1e-14)
        p = 0.95
        assert m.cdf(m.quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_atom_at_zero(self):
        m = EmpiricalTable((0.0, 1.0), (0.3, 1.0))
        assert m.cdf(0.0) == pytest.approx(0.3)
        assert m.quantile(0.2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            EmpiricalTable((0.0, 1.0, 1.0), (0.0, 0.5, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            EmpiricalTable((0.0, 1.0, 2.0), (0.0, 0.5, 0.5))
        with pytest.raises(ValueError, match="probability 0"):
            EmpiricalTable((1.0, 2.0), (0.3, 1.0))

    def test_from_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,cdf\n0.0,0.0\n1.0,0.5\n2.0,1.0\n")
        m = EmpiricalTable.from_csv(path)
        assert m.quantile(0.75) == pytest.approx(1.5)

    def test_degenerate_tail(self):
        m = EmpiricalTable((0.0, 1.0, 2.0), (0.0, 0.5, 1.0))
        with pytest.raises(DegenerateTailError):
            m.tail_expectation(2.5)


DEEP_SURVIVAL = (1e-6, 1e-15, 1e-17, 1e-100, 1e-300)


class TestDeepTailExpectation:
    """The conditional tail mean divides by ``sf``, which stays exact where 1 - F(t) rounds to 0."""

    @pytest.mark.parametrize("s", DEEP_SURVIVAL)
    @pytest.mark.parametrize("model", [Exponential(1.0), Pareto.with_mean(2.5, 1.0), Pareto.with_mean(1.2, 1.0)],
                             ids=lambda m: f"{m.family}")
    def test_matches_closed_form(self, model, s):
        t = float(model.isf(s))
        want = t + model.mean if model.family == "exponential" else t * model.shape / (model.shape - 1.0)
        assert float(model.tail_expectation(t)) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("s", DEEP_SURVIVAL)
    @pytest.mark.parametrize("model", [
        Lognormal.from_mean(1.0, 1.5),
        Gamma.from_mean(1.0, 0.6),
        EmpiricalTable((0.0, 0.5, 2.0, 5.0), (0.1, 0.4, 0.8, 0.97)),
    ], ids=lambda m: f"{m.family}")
    def test_finite_and_above_threshold(self, model, s):
        t = float(model.isf(s))
        value = float(model.tail_expectation(t))
        assert math.isfinite(value) and value >= t


class TestPortfolioNormal:
    def test_quantile_matches_normal_theory(self):
        m = portfolio_normal_model(10_000, 1.0, 1.0)
        assert m.quantile(0.95) == pytest.approx(10_000 + 100 * 1.644854, abs=1e-3)

    def test_single_unit_nominal(self):
        m = portfolio_normal_model(1, 1.0, 1.0)
        assert m.nominal_mean == pytest.approx(1.0)
        assert m.spread == pytest.approx(1.0)

    def test_median_at_nominal_mean(self):
        m = portfolio_normal_model(100, 1.0, 1.0)
        assert m.cdf(100.0) == pytest.approx(0.5, abs=1e-9)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            portfolio_normal_model(0, 1.0, 1.0)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.family}")
class TestFamilyInvariants:
    def test_mean_equals_tail_integral_at_zero(self, model):
        assert model.tail_integral(0.0) == pytest.approx(model.mean, abs=1e-8)

    def test_quantile_cdf_round_trips(self, model):
        ps = np.linspace(0.001, 0.999, 1000)
        xs = np.asarray(model.quantile(ps))
        back = np.asarray(model.cdf(xs))
        assert np.all(back >= ps - 1e-9)

    def test_cdf_quantile_round_trips(self, model):
        hi = float(model.quantile(0.999))
        xs = np.linspace(0.0, hi, 1000)
        ps = np.asarray(model.cdf(xs))
        keep = (ps > 0.0) & (ps < 1.0)  # plateaus at 0 have no left inverse below them
        forward = np.asarray(model.quantile(ps[keep]))
        assert np.all(forward <= xs[keep] + 1e-8 * max(1.0, hi))

    def test_cdf_monotone(self, model):
        xs = np.linspace(0.0, float(model.quantile(0.999)), 500)
        vals = np.asarray(model.cdf(xs))
        assert np.all(np.diff(vals) >= -1e-13)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_tail_expectation_dominates_threshold(self, model):
        for q in (0.1, 0.5, 0.9):
            t = float(model.quantile(q))
            assert model.tail_expectation(t) >= t

    def test_rescale_round_trip(self, model):
        original_mean = model.mean
        big = model.rescale(3.0 * original_mean)
        assert big.mean == pytest.approx(3.0 * original_mean, rel=1e-12)
        back = big.rescale(original_mean)
        xs = np.linspace(0.0, float(model.quantile(0.995)), 200)
        np.testing.assert_allclose(np.asarray(back.cdf(xs)), np.asarray(model.cdf(xs)), atol=1e-10)

    def test_rescale_scales_cdf(self, model):
        scaled = model.rescale(2.0 * model.mean)
        xs = np.linspace(0.0, float(model.quantile(0.99)), 100)
        np.testing.assert_allclose(
            np.asarray(scaled.cdf(2.0 * xs)), np.asarray(model.cdf(xs)), atol=1e-10
        )

    def test_sf_is_one_minus_cdf(self, model):
        xs = np.linspace(0.0, float(model.quantile(0.999)), 500)
        np.testing.assert_allclose(np.asarray(model.sf(xs)), 1.0 - np.asarray(model.cdf(xs)), rtol=0, atol=1e-14)

    def test_isf_is_quantile_of_the_complement(self, model):
        s = np.linspace(0.001, 0.999, 500)
        scale = max(1.0, float(model.quantile(0.999)))
        np.testing.assert_allclose(np.asarray(model.isf(s)), np.asarray(model.quantile(1.0 - s)), rtol=0, atol=1e-9 * scale)


# models whose support is unbounded above, so S stays positive however far out
UNBOUNDED_MODELS = [m for m in ALL_MODELS if not (m.family == "empirical-table" and m.ps[-1] >= 1.0)]


@pytest.mark.parametrize("model", UNBOUNDED_MODELS, ids=lambda m: f"{m.family}")
def test_survival_round_trips_down_to_1e_300(model):
    s = 10.0 ** -np.arange(1.0, 301.0)
    x = np.asarray(model.isf(s))
    assert np.all(np.isfinite(x)) and np.all(np.diff(x) > 0.0)
    np.testing.assert_allclose(np.asarray(model.sf(x)), s, rtol=1e-12)
    np.testing.assert_allclose(np.asarray(model.isf(model.sf(x))), x, rtol=1e-12)


def test_tail_index():
    assert Pareto.with_mean(1.7, 1.0).tail_index == 1.7
    for light in (Exponential(1.0), Lognormal.from_mean(1.0, 2.0), Gamma(0.5, 1.0), portfolio_normal_model(4, 1.0, 1.0)):
        assert light.tail_index == math.inf


def test_rescale_identity_is_identity():
    m = Exponential(1.0)
    assert m.rescale(1.0) == m


def test_rescaled_exponential_quantile():
    m = Exponential(1.0).rescale(3.0)
    assert m.quantile(0.95) == pytest.approx(3.0 * math.log(20.0), rel=1e-12)
