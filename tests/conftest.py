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
from layeropt._integrate import _panel_costs


def cumulative_kernel_cost(model, kernel, grid):
    """Cumulative integral of K(F(x)) along a sorted grid (knots must be in it).

    One fixed 24-node Gauss-Legendre panel of the engine behind ``curve_cost``
    per grid step, with no bisection: exact to rounding for the smooth
    integrands between a dense grid's points, and the tests' fixed-panel
    dense-grid reference for ``curve_cost``.
    """
    grid = np.asarray(grid, dtype=float)
    return np.concatenate([[0.0], np.cumsum(_panel_costs(model, kernel, grid[:-1], grid[1:]))])


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
