"""Nonnegative loss distributions and the tail functionals used throughout pricing.

Every model exposes the same small surface: ``cdf``, ``quantile``, the
survival primitives ``sf`` and ``isf``, ``tail_integral`` (the integral of the
survival function from a threshold to infinity), ``tail_expectation`` (mean
loss given exceedance), ``tail_index`` and ``rescale``.  Closed forms are used
wherever the family admits them, so golden-value tests stay exact; quadrature
never enters this module.  ``sf`` and ``isf`` work in survival space: they
keep full relative precision down to survival probabilities near the
smallest double, where ``1 - cdf`` and ``quantile(1 - s)`` round to nothing.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv, ndtr, ndtri


class InfiniteMeanError(ValueError):
    """Raised for parameterizations whose mean (hence every tail integral) diverges."""


class DegenerateTailError(ValueError):
    """Raised when a tail functional is requested beyond the support of the loss."""


def _validate_level(x, name: str = "x"):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _validate_prob(p):
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise ValueError("probability must lie strictly inside (0, 1)")
    return arr


def _ret(arr):
    arr = np.asarray(arr)
    return float(arr) if arr.ndim == 0 else arr


class LossModel(ABC):
    """Immutable nonnegative loss distribution."""

    family: str = "abstract"

    #: interior points where the cdf is not smooth; integrators split here
    @property
    def cdf_knots(self) -> tuple[float, ...]:
        return ()

    @property
    @abstractmethod
    def mean(self) -> float:
        """E(X), always finite for constructible models."""

    @abstractmethod
    def cdf(self, x):
        """F(x) for x >= 0; vectorized."""

    @abstractmethod
    def quantile(self, p):
        """Smallest x with F(x) >= p, for p in (0, 1); vectorized."""

    @abstractmethod
    def sf(self, x):
        """Survival function S(x) = 1 - F(x), computed without forming F."""

    @abstractmethod
    def isf(self, s):
        """Inverse survival function, for s in (0, 1): quantile(1 - s) without forming 1 - s."""

    @abstractmethod
    def tail_integral(self, t):
        """Integral of 1 - F over [t, infinity); equals the mean at t = 0."""

    @abstractmethod
    def rescale(self, new_mean: float) -> "LossModel":
        """Same shape, new mean: cdf_new(x) = cdf_old(x * mean / new_mean)."""

    @property
    def tail_index(self) -> float:
        """alpha with S(x) of order x**-alpha far out; infinite for tails lighter than any power."""
        return math.inf

    def tail_expectation(self, t):
        """E(X | X >= t) = t + tail_integral(t) / S(t)."""
        t_arr = _validate_level(t, "t")
        surv = np.asarray(self.sf(t_arr))
        if np.any(surv <= 0.0):
            raise DegenerateTailError("tail expectation undefined where S(t) = 0")
        return _ret(t_arr + np.asarray(self.tail_integral(t_arr)) / surv)

    def var_level(self, epsilon: float) -> float:
        """The (1 - epsilon)-quantile, the reference point of the risk measures."""
        return float(self.quantile(1.0 - epsilon))


def _check_positive(value: float, name: str):
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a positive finite number")


@dataclass(frozen=True)
class Exponential(LossModel):
    """Exponential loss with the given mean."""

    mean_value: float = 1.0
    family = "exponential"

    def __post_init__(self):
        _check_positive(self.mean_value, "mean")

    @property
    def mean(self) -> float:
        return self.mean_value

    def cdf(self, x):
        x = _validate_level(x)
        return _ret(-np.expm1(-x / self.mean_value))

    def quantile(self, p):
        p = _validate_prob(p)
        return _ret(-self.mean_value * np.log1p(-p))

    def sf(self, x):
        x = _validate_level(x)
        return _ret(np.exp(-x / self.mean_value))

    def isf(self, s):
        s = _validate_prob(s)
        return _ret(-self.mean_value * np.log(s))

    def tail_integral(self, t):
        t = _validate_level(t, "t")
        return _ret(self.mean_value * np.exp(-t / self.mean_value))

    def rescale(self, new_mean: float) -> "Exponential":
        _check_positive(new_mean, "new_mean")
        return Exponential(new_mean)


@dataclass(frozen=True)
class Pareto(LossModel):
    """Pareto with survival (scale/x)**shape on x >= scale; needs shape > 1."""

    shape: float
    scale: float = 1.0
    family = "pareto"

    def __post_init__(self):
        _check_positive(self.scale, "scale")
        if not (self.shape > 0.0 and math.isfinite(self.shape)):
            raise ValueError("shape must be a positive finite number")
        if self.shape <= 1.0:
            raise InfiniteMeanError(
                f"Pareto shape {self.shape} <= 1 has a divergent tail integral"
            )

    @classmethod
    def with_mean(cls, shape: float, mean: float = 1.0) -> "Pareto":
        """Pareto of the given shape rescaled to the given mean."""
        if shape <= 1.0:
            raise InfiniteMeanError(f"Pareto shape {shape} <= 1 has no finite mean")
        return cls(shape, scale=mean * (shape - 1.0) / shape)

    @property
    def mean(self) -> float:
        return self.shape * self.scale / (self.shape - 1.0)

    @property
    def cdf_knots(self) -> tuple[float, ...]:
        return (self.scale,)

    def cdf(self, x):
        x = _validate_level(x)
        ratio = self.scale / np.maximum(x, self.scale)
        return _ret(np.where(x <= self.scale, 0.0, 1.0 - ratio**self.shape))

    def quantile(self, p):
        p = _validate_prob(p)
        return _ret(self.scale * (1.0 - p) ** (-1.0 / self.shape))

    def sf(self, x):
        x = _validate_level(x)
        return _ret((self.scale / np.maximum(x, self.scale)) ** self.shape)

    def isf(self, s):
        s = _validate_prob(s)
        return _ret(self.scale * s ** (-1.0 / self.shape))

    @property
    def tail_index(self) -> float:
        return self.shape

    def tail_integral(self, t):
        t = _validate_level(t, "t")
        over = self.scale**self.shape * np.maximum(t, self.scale) ** (1.0 - self.shape)
        over = over / (self.shape - 1.0)
        return _ret(np.where(t < self.scale, (self.scale - t) + self.scale / (self.shape - 1.0), over))

    def rescale(self, new_mean: float) -> "Pareto":
        _check_positive(new_mean, "new_mean")
        return Pareto(self.shape, self.scale * new_mean / self.mean)


@dataclass(frozen=True)
class Lognormal(LossModel):
    """Lognormal with log-mean ``mu`` and log-sd ``sigma``."""

    mu: float
    sigma: float
    family = "lognormal"

    def __post_init__(self):
        _check_positive(self.sigma, "sigma")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")

    @classmethod
    def from_mean(cls, mean: float, sigma: float) -> "Lognormal":
        _check_positive(mean, "mean")
        return cls(mu=math.log(mean) - 0.5 * sigma * sigma, sigma=sigma)

    @property
    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def cdf(self, x):
        x = _validate_level(x)
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 1e-300)) - self.mu) / self.sigma
        return _ret(np.where(x <= 0.0, 0.0, ndtr(z)))

    def quantile(self, p):
        p = _validate_prob(p)
        return _ret(np.exp(self.mu + self.sigma * ndtri(p)))

    def sf(self, x):
        x = _validate_level(x)
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 1e-300)) - self.mu) / self.sigma
        return _ret(np.where(x <= 0.0, 1.0, ndtr(-z)))

    def isf(self, s):
        s = _validate_prob(s)
        return _ret(np.exp(self.mu - self.sigma * ndtri(s)))

    def tail_integral(self, t):
        # E(X - t)+ via the standard lognormal partial-moment identity
        t = _validate_level(t, "t")
        t_safe = np.maximum(t, 1e-300)
        d = (np.log(t_safe) - self.mu) / self.sigma
        partial = self.mean * ndtr(self.sigma - d)
        value = partial - t * (1.0 - ndtr(d))
        return _ret(np.where(t <= 0.0, self.mean, value))

    def rescale(self, new_mean: float) -> "Lognormal":
        _check_positive(new_mean, "new_mean")
        return replace(self, mu=self.mu + math.log(new_mean / self.mean))


@dataclass(frozen=True)
class Gamma(LossModel):
    """Gamma with the usual shape/scale parameterization."""

    shape: float
    scale: float = 1.0
    family = "gamma"

    def __post_init__(self):
        _check_positive(self.shape, "shape")
        _check_positive(self.scale, "scale")

    @classmethod
    def from_mean(cls, mean: float, shape: float) -> "Gamma":
        _check_positive(mean, "mean")
        return cls(shape=shape, scale=mean / shape)

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    def cdf(self, x):
        x = _validate_level(x)
        return _ret(gammainc(self.shape, x / self.scale))

    def quantile(self, p):
        p = _validate_prob(p)
        return _ret(self.scale * gammaincinv(self.shape, p))

    def sf(self, x):
        x = _validate_level(x)
        return _ret(gammaincc(self.shape, x / self.scale))

    def isf(self, s):
        s = _validate_prob(s)
        return _ret(self.scale * gammainccinv(self.shape, s))

    def tail_integral(self, t):
        # E[X; X > t] = mean * (1 - F_{shape+1}(t)), then subtract t * survival
        t = _validate_level(t, "t")
        z = t / self.scale
        partial = self.mean * (1.0 - gammainc(self.shape + 1.0, z))
        return _ret(partial - t * (1.0 - gammainc(self.shape, z)))

    def rescale(self, new_mean: float) -> "Gamma":
        _check_positive(new_mean, "new_mean")
        return replace(self, scale=self.scale * new_mean / self.mean)


@dataclass(frozen=True)
class EmpiricalTable(LossModel):
    """CDF given by knots, interpolated piecewise linearly.

    Below the first knot the cdf is zero (a first knot at x = 0 with p > 0
    encodes an atom at zero).  Beyond the last knot the tail is extrapolated
    exponentially with the hazard implied by the last segment, so every tail
    integral stays finite; a table ending at probability one needs no tail.
    """

    xs: tuple[float, ...]
    ps: tuple[float, ...]
    family = "empirical-table"

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        ps = tuple(float(v) for v in self.ps)
        if len(xs) != len(ps) or len(xs) < 2:
            raise ValueError("table needs at least two (x, F(x)) rows of equal length")
        if xs[0] < 0.0:
            raise ValueError("loss levels must be nonnegative")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("loss column must be strictly increasing")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ValueError("probability column must be strictly increasing")
        if ps[0] < 0.0 or ps[-1] > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        if xs[0] > 0.0 and ps[0] > 0.0:
            raise ValueError(
                "first row must have probability 0 (or sit at x = 0 for an atom)"
            )
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", ps)

    @classmethod
    def from_csv(cls, path) -> "EmpiricalTable":
        """Load a two-column (x, F(x)) table; a non-numeric first row is a header."""
        rows = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                try:
                    rows.append((float(row[0]), float(row[1])))
                except (ValueError, IndexError):
                    if rows:
                        raise ValueError(f"malformed table row: {row!r}")
        if not rows:
            raise ValueError("empty table")
        xs, ps = zip(*rows)
        return cls(xs, ps)

    @property
    def _tail_hazard(self) -> float:
        if self.ps[-1] >= 1.0:
            return math.inf
        slope = (self.ps[-1] - self.ps[-2]) / (self.xs[-1] - self.xs[-2])
        return slope / (1.0 - self.ps[-1])

    @property
    def mean(self) -> float:
        return float(self.tail_integral(0.0))

    @property
    def cdf_knots(self) -> tuple[float, ...]:
        return self.xs

    def cdf(self, x):
        x = _validate_level(x)
        inside = np.interp(x, self.xs, self.ps)
        out = np.where(x < self.xs[0], 0.0, inside)
        if self.ps[-1] < 1.0:
            h = self._tail_hazard
            tail = 1.0 - (1.0 - self.ps[-1]) * np.exp(-h * (x - self.xs[-1]))
            out = np.where(x > self.xs[-1], tail, out)
        return _ret(out)

    def quantile(self, p):
        p = _validate_prob(p)
        out = np.interp(p, self.ps, self.xs)
        out = np.where(p <= self.ps[0], self.xs[0], out)
        if self.ps[-1] < 1.0:
            h = self._tail_hazard
            tail = self.xs[-1] + np.log((1.0 - self.ps[-1]) / (1.0 - p)) / h
            out = np.where(p > self.ps[-1], tail, out)
        return _ret(out)

    def sf(self, x):
        x = _validate_level(x)
        # below a first knot at x > 0 the interpolation holds its probability, 0
        out = 1.0 - np.interp(x, self.xs, self.ps)
        if self.ps[-1] < 1.0:
            tail = (1.0 - self.ps[-1]) * np.exp(-self._tail_hazard * (x - self.xs[-1]))
            out = np.where(x > self.xs[-1], tail, out)
        return _ret(out)

    def isf(self, s):
        s = _validate_prob(s)
        surv = 1.0 - np.asarray(self.ps)
        out = np.interp(s, surv[::-1], self.xs[::-1])
        if self.ps[-1] < 1.0:
            tail = self.xs[-1] + np.log(surv[-1] / s) / self._tail_hazard
            out = np.where(s < surv[-1], tail, out)
        return _ret(out)

    def _segment_tail_area(self):
        # integral of 1 - F over each [x_i, x_{i+1}], plus the closing tail
        xs, ps = np.asarray(self.xs), np.asarray(self.ps)
        widths = np.diff(xs)
        surv_mid = 1.0 - 0.5 * (ps[:-1] + ps[1:])
        areas = widths * surv_mid
        closing = 0.0 if self.ps[-1] >= 1.0 else (1.0 - self.ps[-1]) / self._tail_hazard
        return areas, closing

    def tail_integral(self, t):
        t_arr = np.ravel(_validate_level(t, "t"))
        xs, ps = np.asarray(self.xs), np.asarray(self.ps)
        areas, closing = self._segment_tail_area()
        suffix = np.concatenate([np.cumsum(areas[::-1])[::-1], [0.0]]) + closing
        out = np.empty(t_arr.size)
        for i, tv in enumerate(t_arr):
            if tv <= xs[0]:
                out[i] = (xs[0] - tv) + suffix[0]
            elif tv >= xs[-1]:
                if self.ps[-1] >= 1.0:
                    out[i] = 0.0
                else:
                    h = self._tail_hazard
                    out[i] = (1.0 - ps[-1]) * math.exp(-h * (tv - xs[-1])) / h
            else:
                j = int(np.searchsorted(xs, tv, side="right")) - 1
                s_t = 1.0 - float(np.interp(tv, xs, ps))
                s_hi = 1.0 - ps[j + 1]
                out[i] = (xs[j + 1] - tv) * 0.5 * (s_t + s_hi) + suffix[j + 1]
        return _ret(out.reshape(np.shape(t)))

    def rescale(self, new_mean: float) -> "EmpiricalTable":
        _check_positive(new_mean, "new_mean")
        k = new_mean / self.mean
        return EmpiricalTable(tuple(x * k for x in self.xs), self.ps)


@dataclass(frozen=True)
class PortfolioNormal(LossModel):
    """Normal approximation to an aggregate portfolio loss, truncated below zero.

    The cdf is Phi((x - location) / spread) renormalized to put no mass on
    negative losses.  ``location`` is the nominal aggregate mean; the exact
    mean of the truncated law (returned by ``mean``) differs from it by the
    renormalization correction, which is negligible once location/spread is
    a few units.
    """

    location: float
    spread: float
    family = "portfolio-normal"

    def __post_init__(self):
        _check_positive(self.location, "location")
        _check_positive(self.spread, "spread")

    @property
    def _z0(self) -> float:
        return -self.location / self.spread

    @property
    def _keep(self) -> float:
        return 1.0 - ndtr(self._z0)

    @property
    def mean(self) -> float:
        phi0 = math.exp(-0.5 * self._z0**2) / math.sqrt(2.0 * math.pi)
        return self.location + self.spread * phi0 / self._keep

    @property
    def nominal_mean(self) -> float:
        return self.location

    def cdf(self, x):
        x = _validate_level(x)
        z = (x - self.location) / self.spread
        return _ret((ndtr(z) - ndtr(self._z0)) / self._keep)

    def quantile(self, p):
        p = _validate_prob(p)
        p_full = p * self._keep + ndtr(self._z0)
        return _ret(self.location + self.spread * ndtri(p_full))

    def sf(self, x):
        x = _validate_level(x)
        return _ret(ndtr((self.location - x) / self.spread) / self._keep)

    def isf(self, s):
        s = _validate_prob(s)
        return _ret(self.location - self.spread * ndtri(s * self._keep))

    def tail_integral(self, t):
        # E(X - t)+ of the untruncated normal, scaled by the kept mass
        t = _validate_level(t, "t")
        d = (t - self.location) / self.spread
        phi = np.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
        plain = (self.location - t) * (1.0 - ndtr(d)) + self.spread * phi
        return _ret(plain / self._keep)

    def rescale(self, new_mean: float) -> "PortfolioNormal":
        _check_positive(new_mean, "new_mean")
        k = new_mean / self.mean
        return PortfolioNormal(self.location * k, self.spread * k)


def portfolio_normal_model(n: int, unit_mean: float, unit_sd: float) -> PortfolioNormal:
    """Aggregate of n iid unit risks in the normal approximation."""
    if int(n) < 1:
        raise ValueError("n must be a positive integer")
    _check_positive(unit_mean, "unit_mean")
    _check_positive(unit_sd, "unit_sd")
    return PortfolioNormal(location=n * unit_mean, spread=unit_sd * math.sqrt(n))
