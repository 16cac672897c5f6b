"""Shared fixtures: randomized instances satisfying the single-layer hypotheses."""

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
from layeropt._integrate import _panel_costs, curve_cost
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
