"""Tests for pricing kernels and distortions."""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layeropt import (
    CappedLinearDistortion,
    DistortionCurve,
    Exponential,
    MarketSpec,
    PowerDistortion,
    PricingKernel,
    QuadraticCurve,
    from_distortion,
    lagrange_optimum,
    quadratic_kernel,
)
from layeropt.kernels import BaseCurve, Distortion

from conftest import bisected_level_edges

BASELINE = quadratic_kernel(0.5, 0.1)


class TestBaseCurve:
    def test_quadratic_values(self):
        assert BASELINE.k0(0.0) == 0.0
        assert BASELINE.k0(0.5) == pytest.approx(0.125, abs=1e-15)
        assert BASELINE.k0(1.0) == 0.0

    def test_power_distortion_curve(self):
        k = from_distortion(PowerDistortion(0.5), 0.0)
        assert k.k0(0.75) == pytest.approx(0.25, abs=1e-15)
        assert k.k0_prime_at_zero == pytest.approx(0.5)

    def test_quadratic_c_bounds(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            QuadraticCurve(1.2)
        with pytest.raises(ValueError):
            QuadraticCurve(0.0)


class TestLoadedKernel:
    def test_endpoints(self):
        assert BASELINE.k(0.0) == pytest.approx(0.1, abs=1e-15)
        assert BASELINE.k(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_interior_value(self):
        assert BASELINE.k(0.5) == pytest.approx(0.1875, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            BASELINE.k(-0.01)
        with pytest.raises(ValueError):
            BASELINE.k0(1.01)
        # NaN is refused at a float, a 0-d array and inside an array, as every loss primitive refuses it
        for level in (math.nan, np.float64(math.nan), np.array([0.5, math.nan])):
            for evaluate in (BASELINE.k, BASELINE.k0, BASELINE.survival_value):
                with pytest.raises(ValueError, match=r"\[0, 1\]"):
                    evaluate(level)

    def test_concavity_on_grid(self):
        u = np.linspace(0.0, 1.0, 200)
        for kernel in (BASELINE, from_distortion(PowerDistortion(0.6), 0.2)):
            v = np.asarray(kernel.k(u))
            mid = np.asarray(kernel.k(0.5 * (u[:-1] + u[1:])))
            assert np.all(mid >= 0.5 * (v[:-1] + v[1:]) - 1e-10)
            assert np.all(v >= -1e-15)

    def test_loading_monotonicity(self):
        u = np.linspace(0.0, 1.0, 50)
        prev = np.asarray(quadratic_kernel(0.5, 0.0).k(u))
        for gr in (0.05, 0.1, 0.3, 0.8):
            cur = np.asarray(quadratic_kernel(0.5, gr).k(u))
            assert np.all(cur >= prev - 1e-15)
            prev = cur

    def test_k_max_finds_concave_peak(self):
        # both the location and the value come from the closed-form peak
        u_star, k_star = BASELINE.k_max()
        assert u_star == pytest.approx(0.45 / 1.1, abs=1e-15)
        assert k_star == pytest.approx(0.1 + 0.45**2 / (4 * 0.55), abs=1e-12)


class InterpolatedSquare(Distortion):
    """The convex s**2 interpolated linearly on the 201-point concavity grid.

    Every midpoint of that grid lies on a chord, so the midpoint test alone
    passes it, yet g(s) < s inside (0, 1) and K0 dips to -0.25.
    """

    grid = np.linspace(0.0, 1.0, 201)

    def value(self, s):
        return np.interp(s, self.grid, self.grid**2)

    def slope_at_one(self) -> float:
        return 0.5

    def tilted_peak(self, tau: float) -> float:
        return 1.0

    def level_edges(self, t: float, m: float) -> tuple[float, float]:
        raise NotImplementedError("never priced: DistortionCurve refuses a convex distortion")

    @property
    def survival_exponent(self) -> float:
        return 1.0


class TestFromDistortion:
    def test_identity_is_risk_neutral(self):
        k = from_distortion(PowerDistortion(1.0), 0.1)
        u = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(np.asarray(k.k0(u)), 0.0, atol=1e-15)
        np.testing.assert_allclose(np.asarray(k.k(u)), 0.1 * (1.0 - u), atol=1e-15)

    @pytest.mark.parametrize(
        "build",
        [from_distortion, lambda g, gamma_r: PricingKernel(DistortionCurve(g), gamma_r)],
        ids=["from_distortion", "DistortionCurve"],
    )
    @pytest.mark.parametrize("distortion", [PowerDistortion(2.0), InterpolatedSquare()], ids=["power-2", "interpolated"])
    def test_convex_distortion_rejected(self, build, distortion):
        # both constructors validate the distortion on the one path through DistortionCurve
        with pytest.raises(ValueError, match="dominate the identity"):
            build(distortion, 0.1)

    def test_capped_linear_accepted_at_slope_boundary(self):
        k = from_distortion(CappedLinearDistortion(2.0), 0.1)
        assert k.k0_prime_at_zero == pytest.approx(1.0)
        assert k.gamma_upper() == math.inf

    def test_distortion_identity_recovered(self):
        # k0(u) + (1 - u) reproduces the distortion at the survival level
        g = PowerDistortion(0.7)
        k = from_distortion(g, 0.0)
        u = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(
            np.asarray(k.k0(u)) + (1.0 - u), np.asarray(g.value(1.0 - u)), atol=1e-15
        )


class TestThresholds:
    def test_gamma_upper_quadratic(self):
        assert quadratic_kernel(0.5, 0.1).gamma_upper() == pytest.approx(1.0)
        assert quadratic_kernel(0.25, 0.1).gamma_upper() == pytest.approx(1.0 / 3.0)

    def test_gamma_upper_infinite_at_unit_slope(self):
        assert quadratic_kernel(1.0, 0.1).gamma_upper() == math.inf

    def test_gamma_lower(self):
        assert BASELINE.gamma_lower(0.05) == pytest.approx(0.02375, abs=1e-15)
        assert quadratic_kernel(1.0, 0.0).gamma_lower(0.5) == pytest.approx(0.25, abs=1e-15)
        assert BASELINE.gamma_lower(1.0 - 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_with_loading(self):
        raised = BASELINE.with_loading(0.3)
        assert raised.gamma_r == 0.3
        assert raised.k(0.0) == pytest.approx(0.3)
        assert raised.base is BASELINE.base


def test_kernel_validation_rejects_negative_loading():
    with pytest.raises(ValueError):
        PricingKernel(QuadraticCurve(0.5), -0.1)


def test_distortion_curve_family_label():
    assert DistortionCurve(PowerDistortion(0.5)).family == "distortion"


KERNELS = [
    BASELINE,
    quadratic_kernel(1.0, 0.0),
    from_distortion(PowerDistortion(0.6), 0.2),
    from_distortion(CappedLinearDistortion(3.0), 0.1),
]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.base.family)
def test_survival_value_is_the_kernel_at_the_complement(kernel):
    s = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(np.asarray(kernel.survival_value(s)), np.asarray(kernel.k(1.0 - s)), atol=1e-15)
    np.testing.assert_allclose(
        np.asarray(kernel.base.survival_value(s)), np.asarray(kernel.k0(1.0 - s)), atol=1e-15
    )


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.base.family)
def test_survival_exponent_is_the_leading_power(kernel):
    # K(1 - s) / s**p tends to a positive finite limit as s -> 0
    p = kernel.survival_exponent
    s = np.array([1e-60, 1e-80])
    lead = np.asarray(kernel.survival_value(s)) / s**p
    assert np.all(lead > 0.0) and lead[1] == pytest.approx(lead[0], rel=1e-9)


def test_survival_value_keeps_precision_where_u_rounds_to_one():
    s = 1e-20
    assert BASELINE.survival_value(s) == pytest.approx(0.65 * s, rel=1e-15)
    assert BASELINE.k(1.0 - s) == 0.0  # the level u = 1 - s has rounded to 1


def test_capped_linear_survival_knot():
    assert from_distortion(CappedLinearDistortion(4.0), 0.0).survival_knots == (0.25,)
    assert from_distortion(CappedLinearDistortion(1.0), 0.0).survival_knots == ()
    assert BASELINE.survival_knots == ()


CURVES = [
    QuadraticCurve(0.5),
    QuadraticCurve(0.05),
    DistortionCurve(PowerDistortion(0.6)),
    DistortionCurve(PowerDistortion(0.99)),
    DistortionCurve(PowerDistortion(1.0)),
    DistortionCurve(CappedLinearDistortion(3.0)),
    DistortionCurve(CappedLinearDistortion(1.0)),
]


@pytest.mark.parametrize("curve", CURVES, ids=repr)
@pytest.mark.parametrize("t", [-2.0, -0.4, -0.01, 0.0, 0.05, 0.3, 0.9, 2.0])
def test_tilted_peak_is_the_dense_grid_argmax(curve, t):
    s = np.linspace(0.0, 1.0, 200_001)
    tilted = np.asarray(curve.survival_value(s)) + t * s
    peak = curve.tilted_peak(t)
    assert 0.0 <= peak <= 1.0
    # on flat stretches any grid argmax will do: compare values, then the location where the max is strict
    assert float(curve.survival_value(peak)) + t * peak >= tilted.max() - 1e-15
    best = s[tilted >= tilted.max() - 1e-12]
    assert best[0] - 1e-5 <= peak <= best[-1] + 1e-5


def test_tilted_peak_closed_forms():
    assert QuadraticCurve(0.5).tilted_peak(0.1) == 0.5 + 0.5 * 0.1 / 0.5
    assert QuadraticCurve(0.5).tilted_peak(0.6) == 1.0
    assert QuadraticCurve(0.5).tilted_peak(-0.6) == 0.0
    power = PowerDistortion(0.6)
    assert power.tilted_peak(0.9) == (0.6 / 0.9) ** 2.5
    assert power.tilted_peak(0.6) == 1.0
    assert power.tilted_peak(0.0) == power.tilted_peak(-1.0) == 1.0
    assert PowerDistortion(1.0).tilted_peak(0.99) == 1.0
    assert PowerDistortion(1.0).tilted_peak(1.0) == 0.0
    capped = CappedLinearDistortion(4.0)
    assert capped.tilted_peak(0.5) == capped.tilted_peak(3.99) == 0.25
    assert capped.tilted_peak(4.0) == capped.tilted_peak(9.0) == 0.0
    assert capped.tilted_peak(0.0) == capped.tilted_peak(-1.0) == 1.0
    # the distortion curve tilts by 1 - t, since K0(1 - s) = g(s) - s
    assert DistortionCurve(power).tilted_peak(0.1) == power.tilted_peak(0.9)


@pytest.mark.parametrize("kernel", KERNELS + [from_distortion(PowerDistortion(0.99), 0.05)], ids=lambda k: k.base.family)
@pytest.mark.parametrize("slope", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("fraction", [0.0, 0.2, 0.7, 0.999, 1.0, 1.5])
def test_crossings_bound_the_level_set(kernel, slope, fraction):
    def f(s):
        return np.asarray(kernel.survival_value(s)) - slope * np.asarray(s)

    _, _, peak, top = kernel.crossings(0.0, slope)
    assert top == pytest.approx(float(f(peak)), abs=0.0)
    s = np.linspace(0.0, 1.0, 100_001)
    assert np.all(f(s) <= top + 1e-15)
    mu = fraction * top
    lo, hi, peak_mu, top_mu = kernel.crossings(mu, slope)
    assert (peak_mu, top_mu) == (peak, top)
    if top <= mu:
        assert lo == hi == peak
        return
    assert 0.0 <= lo <= peak <= hi <= 1.0
    assert float(f(lo)) == pytest.approx(mu, abs=1e-13)
    if hi < 1.0:
        assert float(f(hi)) == pytest.approx(mu, abs=1e-13)
    else:
        assert float(f(1.0)) >= mu
    inside = s[(s > lo + 1e-9) & (s < hi - 1e-9)]
    outside = s[(s < lo - 1e-9) | (s > hi + 1e-9)]
    assert np.all(f(inside) > mu)
    assert np.all(f(outside) < mu)


@pytest.mark.parametrize(
    "exponent, slope, rel",
    [(0.99, 0.6, 1e-12), (0.999, 1.0, 1e-12), (0.999, 1.142, 1e-11)],
    ids=["below-1e-15", "below-1e-280", "subnormal"],
)
def test_crossings_locate_edges_far_below_the_absolute_tolerance(exponent, slope, rel):
    # with gamma_r = 0.05, K(1 - s) - slope s = 1.05 s**r - (1 + slope) s, whose
    # upper root is s = (1.05 / (1 + slope))**(1 / (1 - r)): 5.1e-19, 1.4e-280
    # and a subnormal 2.3e-310 here, each within a factor e of the peak
    kernel = from_distortion(PowerDistortion(exponent), 0.05)
    lo, hi, peak, top = kernel.crossings(0.0, slope)
    root = (1.05 / (1.0 + slope)) ** (1.0 / (1.0 - exponent))
    assert top > 0.0 and lo == 0.0 and peak < hi
    assert hi == pytest.approx(root, rel=rel, abs=0.0)


def test_cvar_detachment_below_the_absolute_tolerance():
    # the CVaR tail run detaches where K(1 - s) = (mu / eps) s, at survival
    # level (1.6 / 1.05)**-100 = 5.1e-19, that is x = 100 ln(1.6 / 1.05)
    kernel = from_distortion(PowerDistortion(0.99), 0.05)
    market = MarketSpec(gamma=0.03, epsilon=0.05, risk_measure="cvar")
    schedule = lagrange_optimum(0.03, Exponential(1.0), kernel, market)
    assert schedule.breakpoints[-1] == pytest.approx(100.0 * math.log(1.6 / 1.05), rel=1e-12, abs=0.0)


def _tilted(curve, t, s):
    return np.asarray(curve.survival_value(s)) + t * np.asarray(s)


CAPPED = DistortionCurve(CappedLinearDistortion(3.0))


def _tilts(*slopes, gamma_r=0.05):
    """The tilts t = (gamma_r - slope) / (1 + gamma_r) that ``crossings`` passes; slope 0 gives the
    largest, gamma_r / (1 + gamma_r)."""
    return [(gamma_r - slope) / (1.0 + gamma_r) for slope in slopes]


# (curve, tilts): the capped-linear tilts include t = 1, where its peak jumps, its neighbours, and
# t just above 1 - slope, where the curve rises from flat zero; the power curves, solved by Newton
# at m > 0, run from steep slopes to no slope, with milder ones for exponent 0.999, whose peak
# (r / (1 - t))**(1 / (1 - r)) underflows already at slope 1
CLOSED_FORM_CURVES = [
    (QuadraticCurve(0.5), [-0.4, -0.01, 0.0, 0.05, 0.3, 0.9, 2.0]),
    (QuadraticCurve(0.05), [-0.04, 0.0, 0.01, 0.2]),
    (QuadraticCurve(1.0), [-0.5, 0.0, 0.999, 1.0]),
    (CAPPED, [-2.0 + 1e-6, -1.9, -0.5, 0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5]),
    (DistortionCurve(CappedLinearDistortion(1.0)), [1e-6, 0.3, 1.0]),
    (DistortionCurve(PowerDistortion(0.3)), _tilts(3.0, 1.0, 0.5, 0.05, 0.0)),
    (DistortionCurve(PowerDistortion(0.6)), _tilts(3.0, 1.0, 0.5, 0.05, 0.0)),
    (DistortionCurve(PowerDistortion(0.95)), _tilts(3.0, 0.5, 0.05, 0.0)),
    (DistortionCurve(PowerDistortion(0.999)), _tilts(0.6, 0.2, 0.05, 0.0)),
    (DistortionCurve(PowerDistortion(1.0)), _tilts(0.02, 0.0)),  # the line t * s, above 0 for t > 0 only
]
LEVELS = {"zero": 0.0, "near-zero": 1e-6, "middle": 0.5, "near-top": 1.0 - 1e-12}
# where the curve rises by 1e-6, its evaluation (min(3 s, 1) - s + t s, terms of order 1) is noise at 1e-10
# of the edge's location, which the bisection follows and the closed form does not
NOISY_EVALUATION = {(CAPPED, -2.0 + 1e-6)}
# with exponent r = 0.999 the terms s**r and (1 - t) * s nearly cancel at an edge, where s times the
# slope of their difference is about (1 - r) times either term: rounding the terms moves the edge
# about 1 / (1 - r) times farther than elsewhere, whichever method solves for it
ILL_CONDITIONED = {DistortionCurve(PowerDistortion(0.999)): 1e3}


def _edge_cases():
    for curve, tilts in CLOSED_FORM_CURVES:
        for t in tilts:
            for name in LEVELS:
                yield pytest.param(curve, t, name, id=f"{curve!r}-t={t!r}-{name}")


def _assert_level_set(curve, t, m, lo, hi, top):
    """Edges hit the level, with the level set strictly inside them and strictly below it outside."""
    peak = curve.tilted_peak(t)
    assert 0.0 <= lo <= peak <= hi <= 1.0
    scale = 1e-13 * max(1.0, top)
    assert abs(float(_tilted(curve, t, lo)) - m) <= scale
    if hi < 1.0:
        assert abs(float(_tilted(curve, t, hi)) - m) <= scale
    else:
        assert float(_tilted(curve, t, 1.0)) >= m - scale
    s = np.linspace(0.0, 1.0, 100_001)
    inside = s[(s > lo + 1e-9) & (s < hi - 1e-9)]
    outside = s[(s < lo - 1e-9) | (s > hi + 1e-9)]
    assert np.all(_tilted(curve, t, inside) > m)
    assert np.all(_tilted(curve, t, outside) < m)


@pytest.mark.parametrize("curve, t, level", _edge_cases())
def test_level_edges_closed_forms(curve, t, level):
    peak = curve.tilted_peak(t)
    top = float(_tilted(curve, t, peak))
    m = LEVELS[level] * top
    assert top > max(m, 0.0)
    lo, hi = curve.level_edges(t, m)
    _assert_level_set(curve, t, m, lo, hi, top)
    if level != "near-top" and (curve, t) not in NOISY_EVALUATION:
        # the bisected reference agrees to its own resolution; near the top the root is ill conditioned
        # (the edges move by sqrt(top - m)), so there only the residuals above are asserted
        for edge, bisected in zip((lo, hi), bisected_level_edges(curve, t, m)):
            assert edge == pytest.approx(bisected, rel=1e-13 * ILL_CONDITIONED.get(curve, 1.0), abs=1e-15 * peak)


@pytest.mark.parametrize(
    "exponent, slope",
    [(0.6, 0.5), (0.6, 3.0), (0.99, 0.6), (0.999, 1.0), (0.999, 1.142)],
    ids=["power-0.6", "power-0.6-steep", "below-1e-15", "below-1e-280", "subnormal"],
)
def test_power_level_edges_at_zero_are_closed_form(exponent, slope):
    # at m = 0, K0(1 - s) + t s = s**r - tau s with tau = 1 - t, which is positive up to tau**(-1 / (1 - r))
    curve = DistortionCurve(PowerDistortion(exponent))
    t = (0.05 - slope) / 1.05
    lo, hi = curve.level_edges(t, 0.0)
    assert lo == 0.0
    assert hi == (1.0 - t) ** (-1.0 / (1.0 - exponent))
    assert float(_tilted(curve, t, hi * (1.0 - 1e-6))) > 0.0 > float(_tilted(curve, t, hi * (1.0 + 1e-6)))
    assert abs(float(_tilted(curve, t, hi))) <= 1e-13
    assert hi == pytest.approx(bisected_level_edges(curve, t, 0.0)[1], rel=1e-11, abs=0.0)


@pytest.mark.parametrize("m, root", [(1e-3, 1e-10), (1e-45, 1e-150), (1e-300, 0.0)], ids=["lo", "deep-lo", "underflow"])
def test_power_level_edges_below_the_bisection_resolution(m, root):
    # the lo edge of s**r - tau * s >= m lies at about m**(1 / r): 1e-10 for m = 1e-3 and r = 0.3,
    # 1e-150 for m = 1e-45, and below the smallest subnormal for m = 1e-300, where it is 0.0;
    # the bisected reference finds it to relative precision, as Newton does
    curve, t = DistortionCurve(PowerDistortion(0.3)), _tilts(0.5)[0]
    tau = 1.0 - t
    lo, hi = curve.level_edges(t, m)
    bisected = bisected_level_edges(curve, t, m)
    assert bisected[0] == pytest.approx(lo, rel=2e-15, abs=0.0) and hi == pytest.approx(bisected[1], rel=1e-13)
    assert lo == pytest.approx(root, rel=1e-6, abs=0.0)
    if root == 0.0:
        assert m ** (1.0 / 0.3) == 0.0
    else:
        assert lo**0.3 - tau * lo == pytest.approx(m, rel=1e-15, abs=0.0)
    _assert_level_set(curve, t, m, lo, hi, float(_tilted(curve, t, curve.tilted_peak(t))))


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("gamma_r", [0.05, 0.1])
@pytest.mark.parametrize("excess", [1e-12, 1e-9, 1e-6, 1e-3])
def test_power_hi_edge_near_one_within_a_unit_in_the_last_place(r, gamma_r, excess):
    # a level just above t = gamma_r / (1 + gamma_r) puts the hi edge just below s = 1, the smallest
    # attachments, where a unit in the last place of s moves the loss most; s**r - s cancels there,
    # and summing the terms directly, as the bisected reference does, costs several units
    curve, t = DistortionCurve(PowerDistortion(r)), _tilts(0.0, gamma_r=gamma_r)[0]
    m = t * (1.0 + excess)
    with mp.workdps(40):
        below, above = mp.mpf(curve.tilted_peak(t)), mp.mpf(1)
        for _ in range(120):
            mid = (below + above) / 2
            inside = mid ** mp.mpf(r) - (1 - mp.mpf(t)) * mid - mp.mpf(m) > 0
            below, above = (mid, above) if inside else (below, mid)
        root = float(below)
    assert abs(curve.level_edges(t, m)[1] - root) <= math.ulp(root)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.floats(0.05, 0.999),
    st.floats(-3.0, 3.0),
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_power_level_edges_hit_the_level_and_match_the_bisection(r, t, fraction):
    # levels below zero (mu < 0 in crossings) and tilts above one (slope < -1) included
    curve = DistortionCurve(PowerDistortion(r))
    peak = curve.tilted_peak(t)
    top = float(_tilted(curve, t, peak))
    m = fraction * top
    assume(-top < m < top)
    lo, hi = curve.level_edges(t, m)
    assert 0.0 <= lo <= peak <= hi <= 1.0
    scale = 1e-13 * max(1.0, top)
    for edge, end in ((lo, 0.0), (hi, 1.0)):
        value = float(_tilted(curve, t, edge))
        assert abs(value - m) <= scale if edge != end else value >= m - scale
    if m >= 0.99 * top or top < 1e-290:
        return  # ill conditioned near the top; subnormal terms below 1e-290
    tau = 1.0 - t
    for edge, bisected in zip((lo, hi), bisected_level_edges(curve, t, m)):
        if bisected in (0.0, 1.0):  # 0.0: an edge below the smallest subnormal
            assert edge == bisected
            continue
        # to the condition number of the root: the relative move of the edge per relative rounding
        # of the terms of h(s) = s**r - tau * s - m, which grows as r nears 1 (ILL_CONDITIONED)
        kappa = (bisected**r + abs(tau * bisected) + abs(m)) / abs(r * bisected**r - tau * bisected)
        assert abs(edge - bisected) <= 1e-14 * kappa * bisected + 1e-15 * peak


def test_power_crossings_below_zero_and_at_slopes_below_minus_one():
    kernel = from_distortion(PowerDistortion(0.3), 0.1)
    # a level below zero holds on all of [0, 1] where the kernel ends above it
    assert kernel.crossings(-0.05)[:2] == (0.0, 1.0)
    # a slope below -1 makes the tilted curve rise up to s = 1, so the level set ends there; Newton
    # lands within rounding of the bisected 0.011542436305031989 (the root is 0.01154243630503198626)
    lo, hi, peak, _ = kernel.crossings(0.3, -2.0)
    assert (hi, peak) == (1.0, 1.0)
    assert lo == pytest.approx(0.011542436305031989, rel=1e-15, abs=0.0)
    # on the line at exponent 1, K(1 - s) - slope * s = (gamma_r - slope) * s is at least mu < 0
    # from 0 up to mu / (gamma_r - slope), short of 1 when gamma_r - slope < mu
    lo, hi, _, _ = from_distortion(PowerDistortion(1.0), 0.1).crossings(-0.05, 0.5)
    assert lo == 0.0 and hi == pytest.approx(0.125, rel=1e-15, abs=0.0)


@dataclass(frozen=True)
class SineCurve(BaseCurve):
    """K0(u) = c sin(pi u) / pi, a user curve that bisects for its level edges."""

    c: float

    def value(self, u):
        return self.c * np.sin(np.pi * np.asarray(u, dtype=float)) / np.pi

    def survival_value(self, s):
        return self.c * np.sin(np.pi * np.asarray(s, dtype=float)) / np.pi

    def tilted_peak(self, t):
        return float(np.arccos(min(max(-t / self.c, -1.0), 1.0)) / np.pi)

    level_edges = bisected_level_edges

    @property
    def survival_exponent(self):
        return 1.0

    @property
    def slope_at_zero(self):
        return self.c


@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.9])
def test_user_curve_crossings_come_from_its_level_edges(fraction):
    # with slope = gamma_r the tilt vanishes, so K0(1 - s) = m at s = asin(pi m / c) / pi and at 1 minus that
    kernel = PricingKernel(SineCurve(0.5), 0.1)
    _, _, peak, top = kernel.crossings(0.0, 0.1)
    assert peak == 0.5
    mu = fraction * top
    lo, hi, _, _ = kernel.crossings(mu, 0.1)
    root = math.asin(math.pi * mu / 1.1 / 0.5) / math.pi
    assert lo == pytest.approx(root, rel=1e-13, abs=1e-15)
    assert hi == pytest.approx(1.0 - root, rel=1e-13, abs=1e-15)
    _assert_level_set(kernel.base, 0.0, mu / 1.1, lo, hi, top / 1.1)


@pytest.mark.parametrize("base", [BaseCurve, Distortion], ids=lambda cls: cls.__name__)
def test_curve_without_level_edges_fails_at_construction(base):
    # every other abstract member given: level_edges alone leaves the subclass abstract
    names = base.__abstractmethods__ - {"level_edges"}
    curve = type("NoEdges", (base,), {name: lambda self, *args: 0.0 for name in names})
    with pytest.raises(TypeError, match="level_edges"):
        curve()


# levels from zero through the smallest subnormal and the last float below one
EVALUATION_LEVELS = (0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0 - 2.0**-53, 1.0)


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass built without its ``__post_init__`` checks."""
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    return instance


def _evaluation_cases():
    # power r > 1 and InterpolatedSquare fail DistortionCurve's dominance check and their kernels the
    # concavity check; evaluation does not depend on either, so those are built unchecked
    cases = [
        ("quadratic", QuadraticCurve(0.5), True),
        ("power-0.3", DistortionCurve(PowerDistortion(0.3)), True),
        ("power-1", DistortionCurve(PowerDistortion(1.0)), True),
        ("power-1.5", _unchecked(DistortionCurve, distortion=PowerDistortion(1.5)), False),
        ("capped-linear-1", DistortionCurve(CappedLinearDistortion(1.0)), True),
        ("capped-linear-3", DistortionCurve(CappedLinearDistortion(3.0)), True),
        ("interpolated", _unchecked(DistortionCurve, distortion=InterpolatedSquare()), False),
        ("sine", SineCurve(0.5), True),
    ]
    return [
        pytest.param(base, PricingKernel(base, 0.1) if valid else _unchecked(PricingKernel, base=base, gamma_r=0.1), id=name)
        for name, base, valid in cases
    ]


def _assert_float_matches_array(evaluate, level, *, python_float=True):
    got, want = evaluate(level), evaluate(np.array([level]))[0]
    # a user curve (SineCurve, InterpolatedSquare) may answer a float with a numpy float64
    assert type(got) is float if python_float else isinstance(got, float)
    assert float(got).hex() == float(want).hex(), (level, got, want)


@pytest.mark.parametrize("base, kernel", _evaluation_cases())
@pytest.mark.parametrize("level", EVALUATION_LEVELS)
def test_float_evaluation_matches_the_array_path_bit_for_bit(base, kernel, level):
    # the float path keeps numpy's power loop, which rounds apart from libm's pow: s**r in its place
    # fails this at s = 0.5 with r = 0.3 and at s = 1 - 2**-53 with r = 1.5
    package = not isinstance(base, SineCurve)
    for evaluate in (kernel.survival_value, kernel.k, kernel.k0):
        _assert_float_matches_array(evaluate, level)
    for evaluate in (base.survival_value, base.value):
        _assert_float_matches_array(evaluate, level, python_float=package)
    if isinstance(base, DistortionCurve):
        distortion = base.distortion
        _assert_float_matches_array(distortion.value, level, python_float=not isinstance(distortion, InterpolatedSquare))


def test_float_arguments_never_build_an_array(monkeypatch):
    # kernel evaluation at a Python float stays on floats: with the array conversion refusing, every
    # package kernel still finds its crossings, k_max and gamma_lower
    kernels = (
        BASELINE,
        quadratic_kernel(1.0, 0.0),
        from_distortion(PowerDistortion(0.6), 0.2),
        from_distortion(PowerDistortion(1.0), 0.1),
        from_distortion(CappedLinearDistortion(1.0), 0.1),
        from_distortion(CappedLinearDistortion(3.0), 0.1),
    )
    mus = [0.5 * kernel.k_max()[1] for kernel in kernels]

    def refuse(*args, **kwargs):
        raise AssertionError("a float evaluation took the array path")

    monkeypatch.setattr(np, "asarray", refuse)
    for kernel, mu in zip(kernels, mus):
        kernel.crossings(mu)
        kernel.crossings(0.0, 0.5)
        kernel.crossings(0.01, 0.5)
        kernel.k_max()
        kernel.gamma_lower(0.05)
