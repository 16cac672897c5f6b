"""Pricing kernels: the normalized concave curve and its loaded version.

A reinsurer's expected surplus per unit of cover at probability level u is
K(u) = (1 + gamma_r) * K0(u) + gamma_r * (1 - u), where K0 is a normalized
concave curve with K0(0) = K0(1) = 0 and gamma_r = K(0) is the flat loading.
K0 either comes from the quadratic family c*(u - u^2) or is induced by a
concave distortion g via K0(u) = g(1 - u) - (1 - u).

Far in a loss tail u = F(x) rounds to 1, so every curve is evaluated at
survival level s = 1 - u directly (``survival_value``), and that is the one
evaluation path: ``value(u)`` and the kernel's ``k(u)`` are
``survival_value(1 - u)``, for callers that start from a probability level.
A Python float is priced in float arithmetic and comes back a float, as the
single levels of the crossings below are; anything else is priced as a numpy
array.  ``PricingKernel`` refuses levels outside [0, 1] and NaN on both paths,
and the paths agree bit for bit: powers stay on ``np.power``, whose loop
libm's ``pow`` rounds apart from in the last place.
Every curve also gives the leading power p of K0(1 - s) as s -> 0
(``survival_exponent``: unbounded cover on a tail of index alpha has a
finite price iff alpha * p > 1) and the survival levels where it is not
smooth (``survival_knots``).

Every curve gives in closed form the s where K0(1 - s) + t * s peaks
(``tilted_peak``), and without bisection the edges of the interval where it
is at least a level m (``level_edges``): the quadratic and capped-linear
curves in closed form, the power curve in closed form at m = 0 and by Newton
from outside the interval at m > 0.  Curves that users subclass fall back to
bisection on each side of the peak.  From these
``PricingKernel.crossings`` finds the one interval where the concave
s -> K(1 - s) - slope * s is at least a level mu: layer edges, the CVaR
detachment, the critical attachment and ``k_max`` all use it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ._integrate import bisect_root
from .losses import _ret

_CONCAVITY_GRID = np.linspace(0.0, 1.0, 201)
_TINY = math.ulp(0.0)  # the smallest subnormal


def _level(u):
    """A Python float as it is, anything else as a float array: the scalar and the array path."""
    return u if type(u) is float else np.asarray(u, dtype=float)


def _validate_unit(u):
    u = _level(u)
    # the one range check, spelled for a float and for an array; NaN fails both
    inside = 0.0 <= u <= 1.0 if type(u) is float else np.all((u >= 0.0) & (u <= 1.0))
    if not inside:
        raise ValueError("probability level must lie in [0, 1]")
    return u


def _around(peak: float, lo: float, hi: float) -> tuple[float, float]:
    """Level-set edges clipped to [0, peak] and [peak, 1], where rounding may have put them."""
    return min(max(lo, 0.0), peak), max(min(hi, 1.0), peak)


def _power_root(r: float, t: float, m: float, s: float, peak: float) -> float:
    """Root of the concave h(s) = s**r - (1 - t) * s - m between s, where h < 0, and peak.

    Newton from outside the level set: concavity keeps every iterate on the
    side of the root it starts from, so the iterates move toward the peak
    until rounding stops them.  Each step is s times h / (s * h'(s)), a
    ratio of order one, so neither s**(r - 1) nor s * h leaves the range of
    floats near zero.
    """
    while True:
        w = (r - 1.0) * math.log(s)  # log(s**r / s) >= 0
        # s**r - s, through expm1 where it would cancel as s nears 1
        excess = s * math.expm1(w) if w < 1.0 else s**r - s
        slope = r * excess - (1.0 - t - r) * s
        if slope == 0.0:
            return s
        step = s - s * ((excess + (t * s - m)) / slope)
        if not min(s, peak) < step < max(s, peak):
            return s
        s = step


def _lower_edge(excess, peak: float) -> float:
    """The root in [0, peak] of ``excess``, increasing there and positive at
    ``peak``, to relative precision; 0.0 where it lies below the smallest
    subnormal."""
    if excess(_TINY) >= 0.0:
        return 0.0
    # excess(peak * 2**-j) changes sign between j_in and j_out; 2**-1100 underflows
    j_in, j_out = 0, 1100
    while j_out - j_in > 1:
        j = (j_in + j_out) // 2
        if excess(math.ldexp(peak, -j)) >= 0.0:
            j_in = j
        else:
            j_out = j
    lo = max(math.ldexp(peak, -j_out), _TINY)
    return bisect_root(excess, lo, math.ldexp(peak, -j_in), xtol=1e-16 * lo)


class Distortion(ABC):
    """Concave distortion g on [0, 1] with g(0) = 0, g(1) = 1, g(s) >= s."""

    @abstractmethod
    def value(self, s): ...

    @abstractmethod
    def slope_at_one(self) -> float:
        """Left derivative of g at s = 1; fixes the induced curve's slope at zero."""

    @abstractmethod
    def tilted_peak(self, tau: float) -> float:
        """The s in [0, 1] maximizing g(s) - tau * s."""

    def level_edges(self, t: float, m: float) -> tuple[float, float] | None:
        """Edges of {s in [0, 1] : g(s) - s + t * s >= m}, the induced curve's level set
        (``BaseCurve.level_edges``), without bisection; None leaves the bisection default."""
        return None

    @property
    @abstractmethod
    def survival_exponent(self) -> float:
        """p with g(s) - s of order s**p as s -> 0."""

    @property
    def survival_knots(self) -> tuple[float, ...]:
        """Levels s in (0, 1) where g is not smooth."""
        return ()


@dataclass(frozen=True)
class PowerDistortion(Distortion):
    """g(s) = s**exponent (proportional hazard when exponent < 1)."""

    exponent: float

    def __post_init__(self):
        if not (self.exponent > 0.0 and math.isfinite(self.exponent)):
            raise ValueError("exponent must be positive and finite")

    def value(self, s):
        # np.power, not **, on a float too: libm's pow rounds differently from numpy's loop
        return _ret(np.power(_level(s), self.exponent))

    def slope_at_one(self) -> float:
        return self.exponent

    def tilted_peak(self, tau: float) -> float:
        r = self.exponent
        if r >= 1.0:
            return 1.0 if tau < 1.0 else 0.0
        # g'(s) = r s**(r - 1) falls to tau at s = (r / tau)**(1 / (1 - r)), beyond 1 when tau <= r
        return 1.0 if tau <= r else (r / tau) ** (1.0 / (1.0 - r))

    def level_edges(self, t: float, m: float) -> tuple[float, float] | None:
        r, tau = self.exponent, 1.0 - t
        if m == 0.0:
            # s**r >= (1 - t) * s holds from 0 up to s**(r - 1) = 1 - t, beyond 1 when t >= 0
            return 0.0, 1.0 if tau <= 1.0 else 0.0 if r >= 1.0 else tau ** (-1.0 / (1.0 - r))
        if tau <= 0.0 or m < 0.0:
            return None
        peak = self.tilted_peak(tau)
        if r >= 1.0:  # the linear t * s >= m
            return (peak, peak) if t <= m else (m / t, 1.0)
        if peak**r - tau * peak - m <= 0.0:  # a level within rounding of the peak value
            return peak, peak
        # h(s) = s**r - tau * s - m is below zero at m**(1 / r), where s**r = m, and at 1 unless
        # h(1) = t - m >= 0; where m**(1 / r) underflows the root lies below the smallest subnormal
        lo = m ** (1.0 / r)
        lo = 0.0 if lo == 0.0 else _power_root(r, t, m, lo, peak)
        hi = 1.0 if t >= m else _power_root(r, t, m, 1.0, peak)
        return _around(peak, lo, hi)

    @property
    def survival_exponent(self) -> float:
        return min(self.exponent, 1.0)


@dataclass(frozen=True)
class CappedLinearDistortion(Distortion):
    """g(s) = min(slope * s, 1), slope >= 1."""

    slope: float

    def __post_init__(self):
        if not (self.slope >= 1.0 and math.isfinite(self.slope)):
            raise ValueError("slope must be at least 1")

    def value(self, s):
        return _ret(np.minimum(self.slope * _level(s), 1.0))

    def slope_at_one(self) -> float:
        return 1.0 if self.slope == 1.0 else 0.0

    def tilted_peak(self, tau: float) -> float:
        return 1.0 if tau <= 0.0 else 1.0 / self.slope if tau < self.slope else 0.0

    def level_edges(self, t: float, m: float) -> tuple[float, float]:
        # g(s) - s + t * s = min((slope - 1 + t) * s, 1 - (1 - t) * s): at least m where both lines are
        rise, fall = self.slope - 1.0 + t, 1.0 - t
        lo, hi = 0.0, 1.0
        if rise > 0.0:
            lo = m / rise
        elif rise < 0.0:
            hi = m / rise
        if fall > 0.0:
            hi = min(hi, (1.0 - m) / fall)
        elif fall < 0.0:
            lo = max(lo, (1.0 - m) / fall)
        return _around(self.tilted_peak(fall), lo, hi)

    @property
    def survival_exponent(self) -> float:
        return 1.0

    @property
    def survival_knots(self) -> tuple[float, ...]:
        return (1.0 / self.slope,) if self.slope > 1.0 else ()


class BaseCurve(ABC):
    """Normalized kernel K0."""

    family: str = "abstract"

    @abstractmethod
    def survival_value(self, s):
        """K0(1 - s), computed without forming u = 1 - s."""

    def value(self, u):
        """K0(u), evaluated as ``survival_value(1 - u)``."""
        return self.survival_value(1.0 - _level(u))

    @abstractmethod
    def tilted_peak(self, t: float) -> float:
        """The s in [0, 1] maximizing K0(1 - s) + t * s."""

    def level_edges(self, t: float, m: float) -> tuple[float, float]:
        """Edges (lo, hi) of {s in [0, 1] : K0(1 - s) + t * s >= m}, an interval
        around ``tilted_peak(t)``; callers ensure m is below the value there.

        This default bisects each side of the peak.  The upper edge lies in
        [peak, 1] and is bisected to 1e-15 * peak.  The lower edge may lie
        many decades below the peak, so it is bisected to relative precision:
        first its binary exponent, down to the smallest subnormal, which
        brackets it within a factor of two, then the edge inside that
        bracket.  It is 0.0 where it lies below the smallest subnormal.
        Every curve in this module overrides it, in closed form or by
        Newton; the default serves curves that users subclass.
        """
        peak = self.tilted_peak(t)

        def excess(s):
            return float(self.survival_value(s)) + t * s - m

        if excess(peak) <= 0.0:  # a level within rounding of the peak value
            return peak, peak
        lo = _lower_edge(excess, peak)
        hi = 1.0 if excess(1.0) >= 0.0 else bisect_root(excess, peak, 1.0, xtol=1e-15 * peak, max_iter=1100)
        return lo, hi

    @property
    @abstractmethod
    def survival_exponent(self) -> float:
        """p with K0(1 - s) of order s**p as s -> 0."""

    @property
    def survival_knots(self) -> tuple[float, ...]:
        """Survival levels s in (0, 1) where K0(1 - s) is not smooth."""
        return ()

    @property
    @abstractmethod
    def slope_at_zero(self) -> float: ...

    def gamma_upper(self) -> float:
        """Largest loading for which the loaded kernel still rises at the origin.

        Infinite when the slope at zero is exactly one.
        """
        s0 = self.slope_at_zero
        return math.inf if s0 >= 1.0 else s0 / (1.0 - s0)


@dataclass(frozen=True)
class QuadraticCurve(BaseCurve):
    """K0(u) = c * (u - u^2) with 0 < c <= 1."""

    c: float
    family = "quadratic"

    def __post_init__(self):
        if not (0.0 < self.c <= 1.0):
            raise ValueError("c must lie in (0, 1]")

    def survival_value(self, s):
        s = _level(s)
        return _ret(self.c * s * (1.0 - s))

    def tilted_peak(self, t: float) -> float:
        return min(max(0.5 + 0.5 * t / self.c, 0.0), 1.0)

    def level_edges(self, t: float, m: float) -> tuple[float, float]:
        # roots of c s**2 - (c + t) s + m as the stable pair q / c and m / q
        c, b = self.c, self.c + t
        q = 0.5 * (b + math.sqrt(max(b * b - 4.0 * c * m, 0.0)))
        peak = self.tilted_peak(t)
        return (peak, peak) if q <= 0.0 else _around(peak, m / q, q / c)

    @property
    def survival_exponent(self) -> float:
        return 1.0

    @property
    def slope_at_zero(self) -> float:
        return self.c


@dataclass(frozen=True)
class DistortionCurve(BaseCurve):
    """K0(u) = g(1 - u) - (1 - u) for a concave distortion g."""

    distortion: Distortion
    family = "distortion"

    def __post_init__(self):
        # PricingKernel checks the endpoints and the concavity of g(s) - s; g(s) >= s is checked here
        if np.any(np.asarray(self.distortion.value(_CONCAVITY_GRID)) < _CONCAVITY_GRID - 1e-12):
            raise ValueError("distortion must dominate the identity, g(s) >= s")

    def survival_value(self, s):
        s = _level(s)
        return _ret(self.distortion.value(s) - s)

    def tilted_peak(self, t: float) -> float:
        return self.distortion.tilted_peak(1.0 - t)

    def level_edges(self, t: float, m: float) -> tuple[float, float]:
        edges = self.distortion.level_edges(t, m)
        return super().level_edges(t, m) if edges is None else edges

    @property
    def survival_exponent(self) -> float:
        return self.distortion.survival_exponent

    @property
    def survival_knots(self) -> tuple[float, ...]:
        return self.distortion.survival_knots

    @property
    def slope_at_zero(self) -> float:
        return 1.0 - self.distortion.slope_at_one()


@dataclass(frozen=True)
class PricingKernel:
    """Loaded kernel K(u) = (1 + gamma_r) K0(u) + gamma_r (1 - u)."""

    base: BaseCurve
    gamma_r: float

    def __post_init__(self):
        if not (self.gamma_r >= 0.0 and math.isfinite(self.gamma_r)):
            raise ValueError("gamma_r must be a finite nonnegative loading")
        # the grid and its midpoints are symmetric, so checking K0(1 - s) checks K0(u)
        k0 = np.asarray(self.base.survival_value(_CONCAVITY_GRID))
        if abs(k0[0]) > 1e-12 or abs(k0[-1]) > 1e-12:
            raise ValueError("base curve must vanish at 0 and 1")
        mid = np.asarray(self.base.survival_value(0.5 * (_CONCAVITY_GRID[:-1] + _CONCAVITY_GRID[1:])))
        if np.any(mid < 0.5 * (k0[:-1] + k0[1:]) - 1e-10):
            raise ValueError("base curve fails the concavity midpoint test")
        s0 = self.base.slope_at_zero
        if not (0.0 <= s0 <= 1.0 + 1e-12):
            raise ValueError("base curve slope at zero must lie in [0, 1]")

    @property
    def k0_prime_at_zero(self) -> float:
        return self.base.slope_at_zero

    def k0(self, u):
        """Normalized kernel at level u."""
        return _ret(self.base.value(_validate_unit(u)))

    def k(self, u):
        """Loaded kernel at level u, ``survival_value(1 - u)``; k(0) = gamma_r and k(1) = 0."""
        return self.survival_value(1.0 - _validate_unit(u))

    def survival_value(self, s):
        """Loaded kernel at survival level s, K(1 - s), computed without forming u."""
        s = _validate_unit(s)
        return _ret((1.0 + self.gamma_r) * self.base.survival_value(s) + self.gamma_r * s)

    @property
    def survival_exponent(self) -> float:
        # the loading adds gamma_r * s, of order s**1, and no base curve decays faster
        return self.base.survival_exponent

    @property
    def survival_knots(self) -> tuple[float, ...]:
        return self.base.survival_knots

    def with_loading(self, gamma_r: float) -> "PricingKernel":
        return PricingKernel(self.base, gamma_r)

    def gamma_upper(self) -> float:
        """Largest loading for which the loaded kernel still rises at the origin."""
        return self.base.gamma_upper()

    def gamma_lower(self, epsilon: float) -> float:
        """Base-curve value at the retained quantile level, K0(1 - epsilon)."""
        if not (0.0 < epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        return float(self.base.survival_value(epsilon))

    def crossings(self, mu: float, slope: float = 0.0) -> tuple[float, float, float, float]:
        """(lo, hi, peak, top) of the concave f(s) = K(1 - s) - slope * s: f peaks
        at ``peak`` with value ``top`` and is at least mu exactly on [lo, hi]
        (lo = hi = peak when top <= mu)."""

        def f(s):
            return self.survival_value(s) - slope * s

        # f(s) = (1 + gamma_r) * (K0(1 - s) + t * s), so f >= mu where K0(1 - s) + t * s >= m
        t = (self.gamma_r - slope) / (1.0 + self.gamma_r)
        peak = self.base.tilted_peak(t)
        top = f(peak)
        if top <= mu:
            return peak, peak, peak, top
        lo, hi = self.base.level_edges(t, mu / (1.0 + self.gamma_r))
        return lo, 1.0 if f(1.0) >= mu else hi, peak, top

    def k_max(self) -> tuple[float, float]:
        """(argmax, max) of the loaded kernel on [0, 1]."""
        _, _, peak, top = self.crossings(0.0)
        return 1.0 - peak, top


def quadratic_kernel(c: float, gamma_r: float) -> PricingKernel:
    return PricingKernel(QuadraticCurve(c), gamma_r)


def from_distortion(distortion: Distortion, gamma_r: float) -> PricingKernel:
    """Build a kernel from a concave distortion; ``DistortionCurve`` and ``PricingKernel`` validate it."""
    return PricingKernel(DistortionCurve(distortion), gamma_r)
