"""Shared fixtures: randomized instances satisfying the single-layer hypotheses."""

import math

import numpy as np
import pytest

from layeropt import (
    DistortionCurve,
    Exponential,
    Gamma,
    Lognormal,
    MarketSpec,
    PowerDistortion,
    PricingKernel,
    QuadraticCurve,
    check_conditions,
)
from layeropt import _integrate
from layeropt._integrate import _panel_costs, bisect_root, curve_cost
from layeropt.conditions import POSSIBLY_MULTI_LAYER, SINGLE_LAYER, TRIVIAL_INFINITE_RATIO


def cumulative_kernel_cost(model, kernel, grid):
    """Cumulative integral of K(F(x)) along a sorted grid (knots must be in it).

    One fixed 24-node Gauss-Legendre panel of the engine behind ``curve_cost``
    per grid step, with no bisection: exact to rounding for the smooth
    integrands between a dense grid's points, and the tests' fixed-panel
    dense-grid reference for ``curve_cost``.
    """
    grid = np.asarray(grid, dtype=float)
    return np.concatenate([[0.0], np.cumsum(_panel_costs(model, kernel, grid[:-1], grid[1:]))])


def bisected_level_edges(curve, t, m):
    """Edges (lo, hi) of {s in [0, 1] : K0(1 - s) + t * s >= m} by bisection on each side of the peak.

    The tests' reference for every curve's ``level_edges``.  The upper edge
    lies in [peak, 1] and is bisected to 1e-15 * peak.  The lower edge may
    lie many decades below the peak, so it is bisected to relative precision:
    first its binary exponent, down to the smallest subnormal, which brackets
    it within a factor of two, then the edge inside that bracket.  It is 0.0
    where it lies below the smallest subnormal.
    """
    peak = curve.tilted_peak(t)

    def excess(s):
        return float(curve.survival_value(s)) + t * s - m

    if excess(peak) <= 0.0:  # a level within rounding of the peak value
        return peak, peak
    hi = 1.0 if excess(1.0) >= 0.0 else bisect_root(excess, peak, 1.0, xtol=1e-15 * peak, max_iter=1100)
    tiny = math.ulp(0.0)  # the smallest subnormal
    if excess(tiny) >= 0.0:
        return 0.0, hi
    # excess(peak * 2**-j) changes sign between j_in and j_out; 2**-1100 underflows
    j_in, j_out = 0, 1100
    while j_out - j_in > 1:
        j = (j_in + j_out) // 2
        if excess(math.ldexp(peak, -j)) >= 0.0:
            j_in = j
        else:
            j_out = j
    lo = max(math.ldexp(peak, -j_out), tiny)
    return bisect_root(excess, lo, math.ldexp(peak, -j_in), xtol=1e-16 * lo), hi


def two_quadrature_conditions(model, kernel, market, tol=1e-10):
    """(tail_lhs, tail_rhs, solvency_value, VaR shape), pricing [0, x_eps) twice.

    The tests' reference for ``check_conditions``: the cost of ceding
    [0, x_eps) comes from a second quadrature under the loaded kernel, not
    from the loading identity, and a failed solvency test always labels the
    ratio infinite, as it does under VaR.
    """
    x_eps = model.var_level(market.epsilon)
    tail_lhs = kernel.k0_prime_at_zero * float(model.tail_integral(x_eps))
    tail_rhs = curve_cost(model, kernel.base, 0.0, x_eps, tol=tol)
    solvency_value = market.gamma * model.mean - curve_cost(model, kernel, 0.0, x_eps, tol=tol)
    if solvency_value > 0.0:
        shape = TRIVIAL_INFINITE_RATIO
    elif kernel.gamma_r >= market.gamma and x_eps >= model.mean and tail_lhs <= tail_rhs:
        shape = SINGLE_LAYER
    else:
        shape = POSSIBLY_MULTI_LAYER
    return tail_lhs, tail_rhs, solvency_value, shape


def make_hypothesis_instances(count=50, seed=20240901):
    """Rejection-sample (model, kernel, market) triples passing all four checks."""
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 1000:
        attempts += 1
        fam = len(out) % 3
        if fam == 0:
            model = Exponential(1.0)
        elif fam == 1:
            model = Lognormal.from_mean(1.0, float(rng.uniform(0.4, 1.0)))
        else:
            model = Gamma.from_mean(1.0, float(rng.uniform(0.6, 3.0)))
        if len(out) % 2 == 0:
            base = QuadraticCurve(float(rng.uniform(0.15, 1.0)))
        else:
            base = DistortionCurve(PowerDistortion(float(rng.uniform(0.45, 0.95))))
        gamma_r = float(rng.uniform(0.06, 0.45))
        gamma = gamma_r * float(rng.uniform(0.3, 1.0))
        eps = float(rng.uniform(0.02, 0.2))
        kernel = PricingKernel(base, gamma_r)
        market = MarketSpec(gamma=gamma, epsilon=eps)
        if check_conditions(model, kernel, market).all_ok:
            out.append((model, kernel, market))
    assert len(out) == count, "rejection sampling failed to fill the instance set"
    return out


@pytest.fixture(scope="session")
def hypothesis_instances():
    return make_hypothesis_instances()


@pytest.fixture
def finite_quadratures(monkeypatch):
    """The arguments of every finite-layer quadrature ``curve_cost`` runs during the test."""
    calls = []
    finite = _integrate._finite_cost
    monkeypatch.setattr(_integrate, "_finite_cost", lambda *args: calls.append(args) or finite(*args))
    return calls
