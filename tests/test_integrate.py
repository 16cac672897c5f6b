"""Tests for the kernel-cost quadrature: unbounded layers against mpmath references."""

import math

import mpmath as mp
import numpy as np
import pytest

from layeropt import (
    EmpiricalTable,
    Exponential,
    Gamma,
    Lognormal,
    MarketSpec,
    Pareto,
    PowerDistortion,
    UnpurchasableCoverError,
    criterion,
    from_distortion,
    portfolio_normal_model,
    quadratic_kernel,
    truncated_stop_loss,
)
from layeropt._integrate import curve_cost, purchasable

QUADRATIC = quadratic_kernel(0.5, 0.1)
POWER = from_distortion(PowerDistortion(0.9), 0.1)

TAILS = [
    Exponential(1.0),
    Pareto.with_mean(1.2, 1.0),
    Pareto.with_mean(1.5, 1.0),
    Pareto.with_mean(2.0, 1.0),
    Pareto.with_mean(3.0, 1.0),
    Lognormal.from_mean(1.0, 1.5),
    Gamma.from_mean(1.0, 0.6),
    portfolio_normal_model(10, 1.0, 1.0),
    EmpiricalTable((0.0, 0.5, 2.0, 5.0), (0.1, 0.4, 0.8, 0.97)),
]


def _ref_sf(model):
    """Survival function of ``model`` in mpmath, written from its parameters alone."""
    fam = model.family
    if fam == "exponential":
        m = mp.mpf(model.mean_value)
        return lambda x: mp.exp(-x / m)
    if fam == "pareto":
        alpha, theta = mp.mpf(model.shape), mp.mpf(model.scale)
        return lambda x: mp.mpf(1) if x <= theta else (theta / x) ** alpha
    if fam == "lognormal":
        mu, sigma = mp.mpf(model.mu), mp.mpf(model.sigma)
        return lambda x: mp.mpf(1) if x <= 0 else mp.ncdf((mu - mp.log(x)) / sigma)
    if fam == "gamma":
        k, theta = mp.mpf(model.shape), mp.mpf(model.scale)
        return lambda x: mp.gammainc(k, x / theta, mp.inf, regularized=True)
    if fam == "portfolio-normal":
        loc, sd = mp.mpf(model.location), mp.mpf(model.spread)
        keep = mp.ncdf(loc / sd)
        return lambda x: mp.ncdf((loc - x) / sd) / keep
    xs = [mp.mpf(v) for v in model.xs]
    ps = [mp.mpf(v) for v in model.ps]
    hazard = (ps[-1] - ps[-2]) / (xs[-1] - xs[-2]) / (1 - ps[-1])

    def table_sf(x):
        if x >= xs[-1]:
            return (1 - ps[-1]) * mp.exp(-hazard * (x - xs[-1]))
        for (x0, p0), (x1, p1) in zip(zip(xs, ps), zip(xs[1:], ps[1:])):
            if x < x1:
                return 1 - (p0 + (p1 - p0) * (x - x0) / (x1 - x0))

    return table_sf


def _ref_kernel(kernel):
    """K(1 - s) in mpmath: (1 + g) K0(1 - s) + g s."""
    g = mp.mpf(kernel.gamma_r)
    if kernel.base.family == "quadratic":
        c = mp.mpf(kernel.base.c)
        return lambda s: (1 + g) * c * s * (1 - s) + g * s
    r = mp.mpf(kernel.base.distortion.exponent)
    return lambda s: (1 + g) * (s**r - s) + g * s


def _ref_tail_cost(model, kernel, a):
    """Integral of K(F(x)) over [a, inf) to 30 digits."""
    with mp.workdps(30):
        return _ref_tail_cost_30(model, kernel, a)


def _ref_tail_cost_30(model, kernel, a):
    """Closed form for Pareto, else mpmath.quad between knots and geometric breakpoints."""
    a = mp.mpf(a)
    k_of_s = _ref_kernel(kernel)
    if model.family == "pareto":
        # K(1 - s) is a sum of c_p s**p, and S(x)**p integrates in closed form
        alpha, theta = mp.mpf(model.shape), mp.mpf(model.scale)
        g = mp.mpf(kernel.gamma_r)
        if kernel.base.family == "quadratic":
            c = mp.mpf(kernel.base.c)
            terms = [((1 + g) * c + g, 1), (-(1 + g) * c, 2)]
        else:
            terms = [(1 + g, mp.mpf(kernel.base.distortion.exponent)), (mp.mpf(-1), 1)]
        lo = max(a, theta)
        flat = (theta - a) * k_of_s(mp.mpf(1)) if a < theta else 0
        return flat + mp.fsum(c * theta ** (alpha * p) * lo ** (1 - alpha * p) / (alpha * p - 1) for c, p in terms)
    sf = _ref_sf(model)
    knots = [mp.mpf(t) for t in model.cdf_knots if t > a]
    pts = sorted(set([a] + knots + [a + mp.mpf(4) ** j for j in range(-3, 12)]))
    return mp.quad(lambda x: k_of_s(sf(x)), pts + [mp.inf])


@pytest.mark.parametrize("kernel", [QUADRATIC, POWER], ids=["quadratic", "power"])
@pytest.mark.parametrize("model", TAILS, ids=lambda m: f"{m.family}-{getattr(m, 'shape', '')}")
def test_unbounded_cost_matches_mpmath(model, kernel):
    for a in (0.0, float(model.var_level(0.05))):
        got = curve_cost(model, kernel, a, math.inf)
        want = _ref_tail_cost(model, kernel, a)
        assert abs(got - want) <= 1e-13 * abs(want), (a, got, float(want))


def test_base_curve_cost_matches_mpmath():
    # a base curve alone (no loading) prices the same way
    model = Pareto.with_mean(1.5, 1.0)
    got = curve_cost(model, QUADRATIC.base, 1.0, math.inf)
    want = _ref_tail_cost(model, quadratic_kernel(0.5, 0.0), 1.0)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_purchasable_from_tail_index_and_survival_exponent():
    # converges iff alpha * p > 1, with p = 1 (quadratic) or r (power s**r)
    assert purchasable(Pareto.with_mean(1.2, 1.0), QUADRATIC)
    assert purchasable(Pareto.with_mean(1.2, 1.0), POWER)  # 1.2 * 0.9 > 1
    assert not purchasable(Pareto.with_mean(1.2, 1.0), from_distortion(PowerDistortion(0.8), 0.1))
    for light in (Exponential(1.0), Lognormal.from_mean(1.0, 3.0), Gamma.from_mean(1.0, 0.6)):
        assert purchasable(light, from_distortion(PowerDistortion(0.05), 0.1))


def test_divergent_unbounded_cost_raises_named_error():
    model = Pareto.with_mean(1.2, 1.0)
    kernel = from_distortion(PowerDistortion(0.8), 0.1)
    with pytest.raises(UnpurchasableCoverError, match="not purchasable"):
        curve_cost(model, kernel, 1.0, math.inf)
    with pytest.raises(ValueError):
        criterion(model, kernel, truncated_stop_loss(1.0, math.inf), MarketSpec(gamma=0.1, epsilon=0.05))
    # bounded layers of the same pair still price
    assert curve_cost(model, kernel, 1.0, 50.0) > 0.0


def test_unbounded_cost_deep_in_the_tail():
    # an unbounded layer deep in the tail: survival at a is about 1e-250
    model = Exponential(1.0)
    a = 575.0
    want = mp.mpf(0.65) * mp.exp(-a) - mp.mpf(0.55) / 2 * mp.exp(-2 * a)
    got = curve_cost(model, QUADRATIC, a, math.inf)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_unbounded_cost_uses_no_adaptive_quadrature(monkeypatch):
    import layeropt._integrate as integrate

    def forbidden(*args, **kwargs):
        raise AssertionError("adaptive quadrature called for an unbounded layer")

    monkeypatch.setattr(integrate, "quad", forbidden)
    for model in TAILS:
        assert curve_cost(model, QUADRATIC, 0.5, math.inf) > 0.0


def test_singular_density_at_zero():
    # gamma shape 0.2: the cdf behaves like x**0.2 at the origin
    model = Gamma.from_mean(1.0, 0.2)
    got = curve_cost(model, QUADRATIC, 0.0, math.inf)
    want = _ref_tail_cost(model, QUADRATIC, 0.0)
    assert abs(got - want) <= 1e-13 * abs(want)
    assert np.isfinite(got)
