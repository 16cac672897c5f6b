"""Reference values computed apart from layeropt, and the tolerances they are held to.

Kernel costs are written in survival space: with s = 1 - F(x) the loaded
kernel is a short sum of powers of s (quadratic base curve c(u - u^2):
(1+g)c s - (1+g)c s^2 + g s; power distortion s^r: (1+g) s^r - s), so a
layer's cost is a sum of integrals of S(x)^p.  Exponential and Pareto losses
integrate S^p in closed form; lognormal, gamma and the truncated normal use
``mpmath.quad`` on their survival functions.  Nothing here calls layeropt's
quadrature or loss-model code: the references read only the parameters of
the models and kernels they check.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

mp.mp.dps = 15

# relative tolerances, fixed before any run
RATIO_RTOL = 1e-7  # program ratio against its reference
FIRST_ORDER_RTOL = 1e-6  # optimality conditions at the optimizer's stopping multiplier
ORDER_RTOL = 1e-7  # one optimizer's ratio against another's (solver tolerances)
VALUE_ATOL = 1e-10


def close(value: float, ref: float, rtol: float = RATIO_RTOL) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + VALUE_ATOL


def at_least(value: float, other: float, rtol: float = ORDER_RTOL) -> bool:
    return value >= other - (rtol * abs(other) + VALUE_ATOL)


class RefModel:
    """Survival function, tail functionals and quantile of one loss model."""

    def __init__(self, model):
        fam = model.family
        self.family = fam
        self.knots = ()
        if fam == "exponential":
            self.m = mp.mpf(model.mean_value)
            self.mean = self.m
        elif fam == "pareto":
            self.alpha, self.theta = mp.mpf(model.shape), mp.mpf(model.scale)
            self.mean = self.alpha * self.theta / (self.alpha - 1)
            self.knots = (self.theta,)
        elif fam == "lognormal":
            self.mu, self.sigma = mp.mpf(model.mu), mp.mpf(model.sigma)
            self.mean = mp.exp(self.mu + self.sigma**2 / 2)
        elif fam == "gamma":
            self.k, self.theta = mp.mpf(model.shape), mp.mpf(model.scale)
            self.mean = self.k * self.theta
        elif fam == "portfolio-normal":
            self.loc, self.sd = mp.mpf(model.location), mp.mpf(model.spread)
            self.keep = mp.ncdf(self.loc / self.sd)
            z0 = -self.loc / self.sd
            self.mean = self.loc + self.sd * mp.npdf(z0) / self.keep
            self.knots = tuple(self.loc + j * self.sd for j in (-8, -4, -2, 0, 2, 4, 8) if self.loc + j * self.sd > 0)
        else:
            raise ValueError(f"no reference for loss family {fam!r}")

    def sf(self, x):
        x = mp.mpf(x)
        if x <= 0:
            return mp.mpf(1)
        fam = self.family
        if fam == "exponential":
            return mp.exp(-x / self.m)
        if fam == "pareto":
            return mp.mpf(1) if x <= self.theta else (self.theta / x) ** self.alpha
        if fam == "lognormal":
            return mp.ncdf(-(mp.log(x) - self.mu) / self.sigma)
        if fam == "gamma":
            z = x / self.theta
            if z > self.k:
                return mp.gammainc(self.k, z, mp.inf, regularized=True)
            return 1 - mp.gammainc(self.k, 0, z, regularized=True)
        return mp.ncdf(-(x - self.loc) / self.sd) / self.keep  # portfolio-normal

    def _int_sf_pow(self, a, b, p):
        """Integral of S(x)^p over [a, b]; ``b`` may be infinite."""
        a, p = mp.mpf(a), mp.mpf(p)
        b = mp.inf if math.isinf(b) else mp.mpf(b)
        if b <= a:
            return mp.mpf(0)
        if self.family == "exponential":
            upper = 0 if b == mp.inf else mp.exp(-p * b / self.m)
            return self.m / p * (mp.exp(-p * a / self.m) - upper)
        if self.family == "pareto":
            flat = max(min(b, self.theta) - a, 0)
            lo = max(a, self.theta)
            if b <= lo:
                return flat
            q = self.alpha * p
            if q == 1:
                return flat + (mp.inf if b == mp.inf else self.theta * mp.log(b / lo))
            if b == mp.inf:
                if q < 1:
                    return mp.inf
                return flat + self.theta**q * lo ** (1 - q) / (q - 1)
            return flat + self.theta**q * (lo ** (1 - q) - b ** (1 - q)) / (q - 1)
        pts = [a] + [t for t in self.knots if a < t < b] + [b]
        return mp.quad(lambda x: self.sf(x) ** p, pts)

    @lru_cache(maxsize=None)
    def var_level(self, eps: float):
        e = mp.mpf(eps)
        fam = self.family
        if fam == "exponential":
            return -self.m * mp.log(e)
        if fam == "pareto":
            return self.theta * e ** (-1 / self.alpha)
        if fam == "lognormal":
            return mp.exp(self.mu + self.sigma * mp.sqrt(2) * mp.erfinv(1 - 2 * e))
        if fam == "portfolio-normal":
            p_full = 1 - e * self.keep
            return self.loc + self.sd * mp.sqrt(2) * mp.erfinv(2 * p_full - 1)
        lo, hi = mp.mpf(0), self.mean
        while self.sf(hi) > e:
            lo, hi = hi, 2 * hi
        for _ in range(64):  # bisection: S is decreasing
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if self.sf(mid) > e else (lo, mid)
        return (lo + hi) / 2

    @lru_cache(maxsize=None)
    def tail_integral(self, t):
        return self.int_sf_pow(t, math.inf, 1)

    @lru_cache(maxsize=None)
    def int_sf_pow(self, a, b, p):
        return self._int_sf_pow(a, b, p)


def kernel_terms(kernel):
    """The loaded kernel as ((coefficient, power of s), ...)."""
    g = mp.mpf(kernel.gamma_r)
    base = kernel.base
    if base.family == "quadratic":
        c = mp.mpf(base.c)
        return (((1 + g) * c + g, 1), (-(1 + g) * c, 2))
    exponent = getattr(getattr(base, "distortion", None), "exponent", None)
    if exponent is None:
        raise ValueError("no reference for this kernel family")
    return ((1 + g, mp.mpf(exponent)), (mp.mpf(-1), 1))


def base_terms(kernel):
    """The normalized curve K0 as ((coefficient, power of s), ...)."""
    base = kernel.base
    if base.family == "quadratic":
        c = mp.mpf(base.c)
        return ((c, 1), (-c, 2))
    return ((mp.mpf(1), mp.mpf(base.distortion.exponent)), (mp.mpf(-1), 1))


@lru_cache(maxsize=4096)
def curve_cost(ref: RefModel, terms, a, b):
    """Integral of sum(coef * S^p) over [a, b]; ``terms`` is a tuple."""
    if ref.family in ("exponential", "pareto"):
        return mp.fsum(c * ref.int_sf_pow(a, b, p) for c, p in terms)
    a = mp.mpf(a)
    b = mp.inf if math.isinf(b) else mp.mpf(b)
    if b <= a:
        return mp.mpf(0)
    pts = [a] + [t for t in ref.knots if a < t < b] + [b]
    return mp.quad(lambda x: mp.fsum(c * ref.sf(x) ** p for c, p in terms), pts)


def ratio(ref: RefModel, kernel, layers, gamma: float, eps: float, measure: str) -> float:
    """Profit over retained VaR/CVaR of full cession on ``layers`` (beta = 0)."""
    terms = kernel_terms(kernel)
    x_eps = ref.var_level(eps)
    surplus = mp.fsum(curve_cost(ref, terms, a, b) for a, b in layers)
    profit = mp.mpf(gamma) * ref.mean - surplus
    ceded_at = mp.fsum(max(min(mp.mpf(b), x_eps) - min(mp.mpf(a), x_eps), 0) for a, b in layers)
    risk = x_eps - ceded_at
    if measure == "cvar":
        tail = ref.tail_integral(x_eps)
        for a, b in layers:
            lo = max(mp.mpf(a), x_eps)
            if math.isinf(b):
                tail -= ref.tail_integral(lo)
            elif b > lo:
                tail -= ref.int_sf_pow(lo, b, 1)
        risk += tail / mp.mpf(eps)
    return float(profit / risk)


def first_order_gaps(ref: RefModel, kernel, layers, mu: float, eps: float):
    """Residuals of the optimality conditions of a ratio-optimal schedule.

    At multiplier mu = the optimal ratio, a bang-bang optimum cedes exactly
    where the marginal gain is nonnegative: an interior edge below the VaR
    level has K(F(x)) = mu, an edge above it (CVaR) has K(F(x)) = mu S(x) / eps.
    With no cession the gain is negative throughout, which for a concave K
    means K >= mu at both ends of [0, 1 - eps].  Returns (value, target)
    pairs that must agree, and (value, bound) pairs that must satisfy value
    >= bound.
    """
    terms = kernel_terms(kernel)
    x_eps = ref.var_level(eps)
    mu = mp.mpf(mu)

    def k_of_s(s):
        return mp.fsum(c * s**p for c, p in terms)

    equal, at_least_pairs = [], []
    for edge in [e for layer in layers for e in layer]:
        if edge <= 0 or math.isinf(edge) or abs(edge - x_eps) <= 1e-9 * x_eps:
            continue
        s = ref.sf(edge)
        target = mu if edge < x_eps else mu * s / mp.mpf(eps)
        equal.append((float(k_of_s(s)), float(target)))
    if not layers:
        at_least_pairs.append((float(min(k_of_s(mp.mpf(1)), k_of_s(mp.mpf(eps)))), float(mu)))
    return equal, at_least_pairs


def layers_of(schedule):
    return [(l.attachment, l.detachment) for l in schedule.layers()]


def condition_values(ref: RefModel, kernel, gamma: float, eps: float):
    """(tail_lhs, tail_rhs, solvency_value) of the four-condition report."""
    x_eps = ref.var_level(eps)
    base = kernel.base
    slope0 = base.c if base.family == "quadratic" else 1.0 - base.distortion.exponent
    tail_lhs = mp.mpf(slope0) * ref.tail_integral(x_eps)
    tail_rhs = curve_cost(ref, base_terms(kernel), 0, x_eps)
    # K = (1 + gamma_r) K0 + gamma_r (1 - u), so the loaded cost below the
    # VaR level reuses the base-curve cost for every loading of one block
    g = mp.mpf(kernel.gamma_r)
    below = (1 + g) * tail_rhs + g * ref.int_sf_pow(0, x_eps, 1)
    solvency = mp.mpf(gamma) * ref.mean - below
    return float(tail_lhs), float(tail_rhs), float(solvency)
