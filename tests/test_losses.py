"""Tests for the loss distribution families."""

import math

import mpmath as mp
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
from layeropt.losses import LossModel

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
        for xs, ps in [((0.0, 1.0, 2.0), (0.0, 0.5, math.nan)), ((0.0, 1.0, math.nan), (0.0, 0.5, 0.9)),
                       ((0.0, 1.0, math.inf), (0.0, 0.5, 0.9)), ((0.0, 1.0, 2.0), (0.0, math.nan, 0.9))]:
            with pytest.raises(ValueError, match="finite"):
                EmpiricalTable(xs, ps)

    def test_from_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,cdf\n0.0,0.0\n1.0,0.5\n2.0,1.0\n")
        m = EmpiricalTable.from_csv(path)
        assert m.quantile(0.75) == pytest.approx(1.5)

    def test_degenerate_tail(self):
        m = EmpiricalTable((0.0, 1.0, 2.0), (0.0, 0.5, 1.0))
        with pytest.raises(DegenerateTailError):
            m.tail_expectation(2.5)

    @pytest.mark.parametrize(
        "xs, ps",
        [
            ((0.0, 0.5, 2.0, 5.0), (0.1, 0.4, 0.8, 0.97)),
            ((0.5, 1.0, 2.0, 4.0), (0.0, 0.3, 0.7, 0.9)),
            ((1.0, 2.0, 3.0), (0.0, 0.5, 1.0)),
        ],
        ids=["atom-at-zero", "no-atom", "ends-at-one"],
    )
    def test_tail_integral_matches_scalar_formula(self, xs, ps):
        m = EmpiricalTable(xs, ps)

        def scalar(t):
            # below the table, the trapezoid up to the next knot plus the
            # segments above it, or the closing exponential tail
            areas = [(b - a) * (1.0 - 0.5 * (p + q)) for a, b, p, q in zip(xs, xs[1:], ps, ps[1:])]
            h = 0.0 if ps[-1] >= 1.0 else (ps[-1] - ps[-2]) / (xs[-1] - xs[-2]) / (1.0 - ps[-1])
            closing = 0.0 if ps[-1] >= 1.0 else (1.0 - ps[-1]) / h
            if t <= xs[0]:
                return (xs[0] - t) + sum(areas) + closing
            if t >= xs[-1]:
                return 0.0 if ps[-1] >= 1.0 else (1.0 - ps[-1]) * math.exp(-h * (t - xs[-1])) / h
            j = next(i for i in range(len(xs) - 1) if xs[i] <= t < xs[i + 1])
            s_t = 1.0 - (ps[j] + (ps[j + 1] - ps[j]) * (t - xs[j]) / (xs[j + 1] - xs[j]))
            return (xs[j + 1] - t) * 0.5 * (s_t + 1.0 - ps[j + 1]) + sum(areas[j + 1:]) + closing

        mids = [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
        points = sorted({0.0, 0.5 * xs[0], *xs, *mids, xs[-1] + 0.3, xs[-1] + 40.0, 1e6, math.inf})
        want = np.array([scalar(t) for t in points])
        got = np.asarray(m.tail_integral(np.array(points)))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert [m.tail_integral(t) for t in points] == pytest.approx(want, rel=1e-14, abs=0.0)
        grid = np.array(points[: len(points) // 2 * 2]).reshape(2, -1)
        np.testing.assert_array_equal(m.tail_integral(grid), got[: grid.size].reshape(grid.shape))


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


def _mp_tail_integral(model, t):
    """E(X - t)+ in 40-digit mpmath, from the model's parameters alone."""
    with mp.workdps(40):
        t = mp.mpf(t)
        if model.family == "lognormal":
            mu, sigma = mp.mpf(model.mu), mp.mpf(model.sigma)
            d = (mp.log(t) - mu) / sigma
            value = mp.exp(mu + sigma**2 / 2) * mp.ncdf(sigma - d) - t * mp.ncdf(-d)
        elif model.family == "gamma":
            a, z = mp.mpf(model.shape), t / mp.mpf(model.scale)
            upper = lambda k: mp.gammainc(k, z, mp.inf, regularized=True)  # noqa: E731
            value = a * mp.mpf(model.scale) * upper(a + 1) - t * upper(a)
        else:
            loc, spread = mp.mpf(model.location), mp.mpf(model.spread)
            d = (t - loc) / spread
            value = ((loc - t) * mp.ncdf(-d) + spread * mp.npdf(d)) / mp.ncdf(loc / spread)
        return float(value)


class TestDeepTailIntegral:
    """Closed-form tail integrals keep relative accuracy where 1 - F(t) rounds to 0."""

    @pytest.mark.parametrize("s, rel", [(1e-6, 1e-11), (1e-12, 1e-11), (1e-16, 1e-11), (1e-50, 1e-11),
                                        (1e-100, 1e-9), (1e-300, 1e-9)])
    @pytest.mark.parametrize("model", [
        Lognormal.from_mean(1.0, 0.5),
        Lognormal.from_mean(1.0, 1.5),
        Gamma.from_mean(1.0, 0.6),
        Gamma.from_mean(1.0, 3.0),
        portfolio_normal_model(10, 1.0, 1.0),
    ], ids=lambda m: f"{m.family}")
    def test_matches_mpmath(self, model, s, rel):
        t = float(model.isf(s))
        assert float(model.tail_integral(t)) == pytest.approx(_mp_tail_integral(model, t), rel=rel, abs=0.0)


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

    def test_quantile_just_below_one(self):
        # p * keep + Phi(z0) rounds to 1 here, which the inverse maps to the end of the support
        m = portfolio_normal_model(1, 1.0, 1.0)
        assert m.quantile(np.nextafter(1.0, 0.0)) >= m.quantile(1.0 - 1e-15) > 8.0

    @pytest.mark.parametrize("s", [0.5, 0.1, 1e-6, 1e-16, 1e-50, 1e-100, 1e-300])
    @pytest.mark.parametrize("n", [10, 10_000])
    def test_survival_primitives_match_mpmath(self, n, s):
        # isf to 1e-15; sf at the same double x only to about z**2 * u, since
        # rounding z = (x - location) / spread by u moves Q(z) by z**2 * u
        m = portfolio_normal_model(n, 1.0, 1.0)
        x = float(m.isf(s))
        with mp.workdps(40):
            loc, spread = mp.mpf(m.location), mp.mpf(m.spread)
            target = mp.log(mp.mpf(s) * mp.ncdf(loc / spread))
            z = mp.findroot(lambda z: mp.log(mp.ncdf(-z)) - target, (x - m.location) / m.spread)
            want_x = loc + spread * z
            want_s = mp.ncdf((loc - mp.mpf(x)) / spread) / mp.ncdf(loc / spread)
        assert abs(x - want_x) <= 1e-15 * want_x
        assert abs(float(m.sf(x)) - want_s) <= (2e-14 if s >= 1e-16 else 3e-13) * want_s


# each primitive with a valid scalar argument, invalid ones, and the refusal message
LEVEL_ERROR, PROB_ERROR = "x must be nonnegative", r"probability must lie strictly inside \(0, 1\)"
PRIMITIVES = {
    "cdf": (0.5, (-0.5, -1e-300, math.nan), LEVEL_ERROR),
    "sf": (0.5, (-0.5, -1e-300, math.nan), LEVEL_ERROR),
    "tail_integral": (0.5, (-0.5, -1e-300, math.nan), "t must be nonnegative"),
    "quantile": (0.5, (0.0, 1.0, -0.1, 1.5, math.nan), PROB_ERROR),
    "isf": (0.5, (0.0, 1.0, -0.1, 1.5, math.nan), PROB_ERROR),
}


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.family}")
class TestFamilyInvariants:
    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_primitive_refuses_out_of_range_input(self, model, name):
        _, bad_values, message = PRIMITIVES[name]
        for bad in bad_values:
            with pytest.raises(ValueError, match=message):
                getattr(model, name)(bad)
            with pytest.raises(ValueError, match=message):
                getattr(model, name)(np.array([[0.5, bad]]))

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_primitive_returns_float_for_scalar_and_array_for_array(self, model, name):
        good = PRIMITIVES[name][0]
        assert type(getattr(model, name)(good)) is float
        assert type(getattr(model, name)(np.asarray(good))) is float
        out = getattr(model, name)(np.full((2, 3), good))
        assert isinstance(out, np.ndarray) and out.shape == (2, 3)

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


@pytest.mark.parametrize("missing", ["_cdf", "_quantile", "_sf", "_isf", "_tail_integral"])
def test_family_missing_a_primitive_fails_at_construction(missing):
    names = {"mean", "rescale", "_cdf", "_quantile", "_sf", "_isf", "_tail_integral"} - {missing}
    family = type("Partial", (LossModel,), {name: lambda self, *args: None for name in names})
    with pytest.raises(TypeError, match=missing):
        family()
