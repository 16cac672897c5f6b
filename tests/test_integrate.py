"""Tests for the kernel-cost quadrature: finite and unbounded layers against mpmath references."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from layeropt import (
    CappedLinearDistortion,
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
from layeropt import _integrate
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
    distortion = kernel.base.distortion
    if isinstance(distortion, CappedLinearDistortion):
        slope = mp.mpf(distortion.slope)
        return lambda s: (1 + g) * (min(slope * s, 1) - s) + g * s
    r = mp.mpf(distortion.exponent)
    return lambda s: (1 + g) * (s**r - s) + g * s


def _ref_tail_cost(model, kernel, a):
    """Integral of K(F(x)) over [a, inf) to 30 digits."""
    return _ref_cost(model, kernel, a, math.inf)


def _ref_cost(model, kernel, a, b, splits=()):
    """Integral of K(F(x)) over [a, b] to 30 digits; ``splits`` are extra points where K is not smooth."""
    with mp.workdps(30):
        return _ref_cost_30(model, kernel, mp.mpf(a), mp.mpf(b), [mp.mpf(t) for t in splits])


def _ref_cost_30(model, kernel, a, b, splits):
    """Closed form for Pareto, else mpmath.quad between knots and geometric breakpoints."""
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

        def power(x, q):  # x**q, vanishing at x = inf for q < 0
            return 0 if mp.isinf(x) else x**q

        lo, hi = max(a, theta), max(b, theta)
        flat = (min(theta, b) - a) * k_of_s(mp.mpf(1)) if a < theta else 0
        return flat + mp.fsum(
            c * theta ** (alpha * p) * (power(lo, 1 - alpha * p) - power(hi, 1 - alpha * p)) / (alpha * p - 1)
            for c, p in terms
        )
    sf = _ref_sf(model)
    inner = [t for t in [mp.mpf(t) for t in model.cdf_knots] + splits if a < t < b]
    if mp.isinf(b):
        inner += [a + mp.mpf(4) ** j for j in range(-3, 12)]
    else:  # even steps, and geometric ones toward a density singular at the origin
        inner += [a + (b - a) * mp.mpf(j) / 8 for j in range(1, 8)]
        inner += [b * mp.mpf(4) ** -j for j in range(2, 10)] if a == 0 else []
    return mp.quad(lambda x: k_of_s(sf(x)), sorted(set([a, b] + inner)))


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


ROOT = Path(__file__).resolve().parents[1]

_NUMPY_ONLY = """
import sys
import layeropt
from layeropt.cli import main

config, pareto_config, out = sys.argv[1:]
for command in ("check", "optimize", "evaluate", "sweep", "asymptotics"):
    assert main(["--config", config, "--command", command, "--out", out]) == 0, command
assert main(["--config", pareto_config, "--out", out]) == 0, "pareto evaluate"
models = (
    layeropt.Exponential(1.0),
    layeropt.Pareto.with_mean(2.0),
    layeropt.EmpiricalTable((0.0, 0.5, 2.0, 5.0), (0.1, 0.4, 0.8, 0.97)),
    layeropt.portfolio_normal_model(100, 1.0, 1.0),
)
kernel = layeropt.quadratic_kernel(0.5, 0.1)
for model in models:
    for measure in ("var", "cvar"):
        market = layeropt.MarketSpec(gamma=0.1, epsilon=0.05, risk_measure=measure)
        layeropt.best_truncated_stop_loss(model, kernel, market)
        layeropt.dinkelbach_optimize(model, kernel, market)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""

_PARETO2_EVALUATE = """
[model]
family = pareto
shape = 2.0
mean = 1.0

[kernel]
family = quadratic
c = 0.5
gamma_r = 0.1

[market]
gamma = 0.1
epsilon = 0.05
risk_measure = var

[run]
command = evaluate

[contract]
layers = [[1.0, inf]]
"""


def _fresh_interpreter(script, *args):
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def test_numpy_only_paths_never_import_scipy(tmp_path):
    # import, all five CLI commands on the baseline, a Pareto(2) evaluate and
    # both solvers on exponential, Pareto, empirical-table and portfolio-normal
    # losses under both measures, in one fresh interpreter: no scipy module is
    # loaded at all
    pareto_config = tmp_path / "pareto2.ini"
    pareto_config.write_text(_PARETO2_EVALUATE)
    result = _fresh_interpreter(_NUMPY_ONLY, ROOT / "demos" / "baseline.ini", pareto_config, tmp_path / "out.csv")
    assert result.returncode == 0, result.stderr


def test_singular_density_at_zero():
    # gamma shape 0.2: the cdf behaves like x**0.2 at the origin
    model = Gamma.from_mean(1.0, 0.2)
    got = curve_cost(model, QUADRATIC, 0.0, math.inf)
    want = _ref_tail_cost(model, QUADRATIC, 0.0)
    assert abs(got - want) <= 1e-13 * abs(want)
    assert np.isfinite(got)


def _bands(model):
    """[0, x_eps], an interior band below it and a band straddling it (x_eps the 95% VaR level)."""
    level = model.var_level
    return [(0.0, level(0.05)), (level(0.5), level(0.2)), (level(0.1), level(0.01))]


@pytest.mark.parametrize("kernel", [QUADRATIC, POWER], ids=["quadratic", "power"])
@pytest.mark.parametrize("model", TAILS, ids=lambda m: f"{m.family}-{getattr(m, 'shape', '')}")
def test_finite_cost_matches_mpmath(model, kernel):
    for a, b in _bands(model):
        got = curve_cost(model, kernel, a, b)
        want = _ref_cost(model, kernel, a, b)
        assert abs(got - want) <= 1e-13 * abs(want), (a, b, got, float(want))


@pytest.mark.parametrize(
    "model, kernel, a, b",
    [
        # a wide band on a small portfolio, with a proportional-hazard kernel
        (portfolio_normal_model(10, 1.0, 1.0), from_distortion(PowerDistortion(0.6), 0.2), 7.60, 45.6),
        # a band a few spreads wide around the mean of a large portfolio
        (portfolio_normal_model(10000, 1.0, 1.0), QUADRATIC, 9950.0, 10164.5),
        # a cdf behaving like x**0.2 at the origin
        (Gamma.from_mean(1.0, 0.2), QUADRATIC, 0.0, float(Gamma.from_mean(1.0, 0.2).var_level(0.05))),
    ],
    ids=["portfolio-normal-10", "portfolio-normal-10000", "gamma-0.2"],
)
def test_finite_cost_on_hard_bands(model, kernel, a, b):
    got = curve_cost(model, kernel, a, b)
    want = _ref_cost(model, kernel, a, b)
    assert abs(got - want) <= 1e-13 * abs(want), (got, float(want))


def test_finite_cost_splits_at_the_capped_linear_kink():
    # g(s) = min(1.5 s, 1) bends at s = 2/3, inside [0, x_eps]
    model = Exponential(1.0)
    kernel = from_distortion(CappedLinearDistortion(1.5), 0.1)
    kink = float(model.isf(1.0 / 1.5))
    for a, b in ((0.0, model.var_level(0.05)), (0.1, 0.9)):
        got = curve_cost(model, kernel, a, b)
        want = _ref_cost(model, kernel, a, b, splits=[kink])
        assert abs(got - want) <= 1e-13 * abs(want), (a, b, got, float(want))


WIDE = [
    Exponential(1.0),
    Gamma(0.5, 1.0),
    Pareto(1.5, 1.0),
    Pareto(3.0, 1.0),
    Lognormal(0.0, 2.0),
    portfolio_normal_model(100, 1.0, 1.0),
    EmpiricalTable((0.0, 0.5, 2.0, 5.0), (0.1, 0.4, 0.8, 0.97)),
]


@pytest.mark.parametrize("b", [1e12, 1e30, 1e100])
@pytest.mark.parametrize("kernel", [QUADRATIC, POWER], ids=["quadratic", "power"])
@pytest.mark.parametrize("model", WIDE, ids=lambda m: f"{m.family}-{getattr(m, 'shape', '')}")
def test_wide_finite_layer_matches_tail_difference(model, kernel, b):
    # the mass of [0.1, b) lies decades below b: seeded survival edges keep it
    # off the first panel, where halves and whole would agree on missing it
    got = curve_cost(model, kernel, 0.1, b)
    want = curve_cost(model, kernel, 0.1, math.inf) - curve_cost(model, kernel, b, math.inf)
    assert abs(got - want) <= 1e-13 * want, (got, want)


def test_survival_edges_only_past_sixteen_octaves(monkeypatch):
    calls = []
    edges = _integrate._octave_edges
    monkeypatch.setattr(_integrate, "_octave_edges", lambda *args: calls.append(args) or edges(*args))
    model = Exponential(1.0)
    curve_cost(model, QUADRATIC, 0.0, 11.0)  # S falls by e**11, about 2**15.9
    assert calls == []
    curve_cost(model, QUADRATIC, 0.0, 12.0)  # about 2**17.3
    assert calls == [(model, 1.0, 1, 16)]


@pytest.mark.parametrize(
    "edges, count",
    [([0.0, 1.0, 2.5], 30), ([0.3, 5.0e6, 7.0e6], 12), ([1e-9, 1.0], 15), ([10.0, 10.5, 11.0], 0)],
)
def test_graded_points_go_between_the_first_two_edges_in_order(edges, count):
    # the edges come sorted and distinct, and the points a + gap / 4**k lie
    # inside the first gap, so no second sort is needed to merge them
    edges = np.array(edges)
    points = edges[0] + (edges[1] - edges[0]) * np.exp2(-2.0 * np.arange(1.0, count + 1.0))
    assert np.array_equal(_integrate._graded(edges), np.unique(np.concatenate([edges, points])))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_rejects_tolerance_that_is_not_positive_and_finite(tol):
    model = Exponential(1.0)
    for b in (3.0, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            curve_cost(model, QUADRATIC, 1.0, b, tol=tol)


class _NoisyCurve:
    """A curve whose halves never agree with the whole: only the engine's caps stop the bisection."""

    survival_exponent = 1.0
    survival_knots = ()

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.sizes = []

    def survival_value(self, s):
        self.sizes.append(np.size(s))
        return self.rng.uniform(size=np.shape(s))


def test_finite_cost_work_is_capped():
    curve = _NoisyCurve()
    got = curve_cost(Exponential(1.0), curve, 0.5, 3.0, tol=1e-300)
    assert 0.0 < got < 3.0
    assert len(curve.sizes) <= _integrate._ROUNDS
    assert max(curve.sizes) <= 3 * 24 * _integrate._OPEN
