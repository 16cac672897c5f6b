"""Nonnegative loss distributions and the tail functionals used throughout pricing.

Every model exposes the same small surface: ``cdf``, ``quantile``, the
survival primitives ``sf`` and ``isf``, ``tail_integral`` (the integral of the
survival function from a threshold to infinity), ``tail_expectation`` (mean
loss given exceedance), ``tail_index`` and ``rescale``.  Closed forms are used
wherever the family admits them, so golden-value tests stay exact; quadrature
never enters this module.  ``sf`` and ``isf`` work in survival space: they
keep full relative precision down to survival probabilities near the
smallest double, where ``1 - cdf`` and ``quantile(1 - s)`` round to nothing.

``LossModel``'s public primitives check their input once and return a float
for a scalar; each family implements ``_cdf`` ... ``_tail_integral`` on the
checked array.
"""

from __future__ import annotations

import csv
import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np


class InfiniteMeanError(ValueError):
    """Raised for parameterizations whose mean (hence every tail integral) diverges."""


class DegenerateTailError(ValueError):
    """Raised when a tail functional is requested beyond the support of the loss."""


def _validate_level(x, name: str = "x"):
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):  # NaN fails this test too
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _validate_prob(p):
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails this test too
        raise ValueError("probability must lie strictly inside (0, 1)")
    return arr


def _special():
    """scipy.special, imported on first use: only the lognormal and gamma families need it.

    Its compiled loops price their large batches about ten times faster than
    ``_normal``; the portfolio-normal model uses ``_normal`` instead, so no
    baseline CLI command pays scipy's import.
    """
    import scipy.special

    return scipy.special


@functools.cache
def _normal():
    """(Q, Q^-1): the standard-normal survival function and its inverse, vectorized over arrays.

    Q(z) = erfc(z / sqrt 2) / 2 through ``math.erfc``, and Q^-1(s) = -Phi^-1(s)
    through ``statistics.NormalDist.inv_cdf`` (Wichura's AS241); both keep
    full relative precision deep in the upper tail.  ``statistics`` is
    imported on first use, so ``import layeropt`` does not load it.
    """
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf
    erfc = np.frompyfunc(math.erfc, 1, 1)
    # Q^-1(1) = -inf, where inv_cdf raises: PortfolioNormal's quantile argument rounds to 1 for p just below 1
    isf = np.frompyfunc(lambda s: -math.inf if s >= 1.0 else -inv_cdf(s), 1, 1)
    return (
        lambda z: 0.5 * np.asarray(erfc(np.multiply(z, math.sqrt(0.5))), dtype=float),
        lambda s: np.asarray(isf(s), dtype=float),
    )


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

    def cdf(self, x):
        """F(x) for x >= 0; vectorized."""
        return _ret(self._cdf(_validate_level(x)))

    def quantile(self, p):
        """Smallest x with F(x) >= p, for p in (0, 1); vectorized."""
        return _ret(self._quantile(_validate_prob(p)))

    def sf(self, x):
        """Survival function S(x) = 1 - F(x), computed without forming F."""
        return _ret(self._sf(_validate_level(x)))

    def isf(self, s):
        """Inverse survival function, for s in (0, 1): quantile(1 - s) without forming 1 - s."""
        return _ret(self._isf(_validate_prob(s)))

    def tail_integral(self, t):
        """Integral of 1 - F over [t, infinity); equals the mean at t = 0."""
        return _ret(self._tail_integral(_validate_level(t, "t")))

    # each family computes the five primitives on the arrays checked above
    @abstractmethod
    def _cdf(self, x): ...
    @abstractmethod
    def _quantile(self, p): ...
    @abstractmethod
    def _sf(self, x): ...
    @abstractmethod
    def _isf(self, s): ...
    @abstractmethod
    def _tail_integral(self, t): ...

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


def _loss_at(model, s: float, eps: float, x_eps: float) -> float:
    """Loss level ``isf(s)`` of survival level s, capped at the VaR level x_eps of eps,
    whose quantile rounds differently from isf."""
    return 0.0 if s >= 1.0 else x_eps if s <= eps else min(float(model.isf(s)), x_eps)


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

    def _cdf(self, x):
        return -np.expm1(-x / self.mean_value)

    def _quantile(self, p):
        return -self.mean_value * np.log1p(-p)

    def _sf(self, x):
        return np.exp(-x / self.mean_value)

    def _isf(self, s):
        return -self.mean_value * np.log(s)

    def _tail_integral(self, t):
        return self.mean_value * np.exp(-t / self.mean_value)

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

    def _cdf(self, x):
        ratio = self.scale / np.maximum(x, self.scale)
        return np.where(x <= self.scale, 0.0, 1.0 - ratio**self.shape)

    def _quantile(self, p):
        return self.scale * (1.0 - p) ** (-1.0 / self.shape)

    def _sf(self, x):
        return (self.scale / np.maximum(x, self.scale)) ** self.shape

    def _isf(self, s):
        return self.scale * s ** (-1.0 / self.shape)

    @property
    def tail_index(self) -> float:
        return self.shape

    def _tail_integral(self, t):
        over = self.scale**self.shape * np.maximum(t, self.scale) ** (1.0 - self.shape)
        over = over / (self.shape - 1.0)
        return np.where(t < self.scale, (self.scale - t) + self.scale / (self.shape - 1.0), over)

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

    def _cdf(self, x):
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 1e-300)) - self.mu) / self.sigma
        return np.where(x <= 0.0, 0.0, _special().ndtr(z))

    def _quantile(self, p):
        return np.exp(self.mu + self.sigma * _special().ndtri(p))

    def _sf(self, x):
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 1e-300)) - self.mu) / self.sigma
        return np.where(x <= 0.0, 1.0, _special().ndtr(-z))

    def _isf(self, s):
        return np.exp(self.mu - self.sigma * _special().ndtri(s))

    def _tail_integral(self, t):
        # E(X - t)+ via the standard lognormal partial-moment identity
        t_safe = np.maximum(t, 1e-300)
        d = (np.log(t_safe) - self.mu) / self.sigma
        partial = self.mean * _special().ndtr(self.sigma - d)
        value = partial - t * _special().ndtr(-d)
        return np.where(t <= 0.0, self.mean, value)

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

    def _cdf(self, x):
        return _special().gammainc(self.shape, x / self.scale)

    def _quantile(self, p):
        return self.scale * _special().gammaincinv(self.shape, p)

    def _sf(self, x):
        return _special().gammaincc(self.shape, x / self.scale)

    def _isf(self, s):
        return self.scale * _special().gammainccinv(self.shape, s)

    def _tail_integral(self, t):
        # E[X; X > t] = mean * S_{shape+1}(t), then subtract t * survival
        z = t / self.scale
        partial = self.mean * _special().gammaincc(self.shape + 1.0, z)
        return partial - t * _special().gammaincc(self.shape, z)

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
        if not all(map(math.isfinite, xs + ps)):
            raise ValueError("table entries must be finite")
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

    def _cdf(self, x):
        inside = np.interp(x, self.xs, self.ps)
        out = np.where(x < self.xs[0], 0.0, inside)
        if self.ps[-1] < 1.0:
            h = self._tail_hazard
            tail = 1.0 - (1.0 - self.ps[-1]) * np.exp(-h * (x - self.xs[-1]))
            out = np.where(x > self.xs[-1], tail, out)
        return out

    def _quantile(self, p):
        out = np.interp(p, self.ps, self.xs)
        out = np.where(p <= self.ps[0], self.xs[0], out)
        if self.ps[-1] < 1.0:
            h = self._tail_hazard
            tail = self.xs[-1] + np.log((1.0 - self.ps[-1]) / (1.0 - p)) / h
            out = np.where(p > self.ps[-1], tail, out)
        return out

    def _sf(self, x):
        # below a first knot at x > 0 the interpolation holds its probability, 0
        out = 1.0 - np.interp(x, self.xs, self.ps)
        if self.ps[-1] < 1.0:
            tail = (1.0 - self.ps[-1]) * np.exp(-self._tail_hazard * (x - self.xs[-1]))
            out = np.where(x > self.xs[-1], tail, out)
        return out

    def _isf(self, s):
        surv = 1.0 - np.asarray(self.ps)
        out = np.interp(s, surv[::-1], self.xs[::-1])
        if self.ps[-1] < 1.0:
            tail = self.xs[-1] + np.log(surv[-1] / s) / self._tail_hazard
            out = np.where(s < surv[-1], tail, out)
        return out

    def _tail_integral(self, t):
        xs, ps = np.asarray(self.xs), np.asarray(self.ps)
        # integral of 1 - F from each knot up, the closing exponential tail included
        areas = np.diff(xs) * (1.0 - 0.5 * (ps[:-1] + ps[1:]))
        closing = 0.0 if ps[-1] >= 1.0 else (1.0 - ps[-1]) / self._tail_hazard
        suffix = np.concatenate([np.cumsum(areas[::-1])[::-1], [0.0]]) + closing
        # inside the table: the trapezoid from t up to the next knot j, then the
        # suffix; t is clipped so that the regions handled below stay finite
        inner = np.clip(t, xs[0], xs[-1])
        j = np.clip(np.searchsorted(xs, inner, side="right"), 1, xs.size - 1)
        out = (xs[j] - inner) * 0.5 * ((1.0 - np.interp(inner, xs, ps)) + (1.0 - ps[j])) + suffix[j]
        out = np.where(t <= xs[0], (xs[0] - t) + suffix[0], out)
        tail = 0.0
        if ps[-1] < 1.0:
            h = self._tail_hazard
            tail = (1.0 - ps[-1]) * np.exp(-h * (np.maximum(t, xs[-1]) - xs[-1])) / h
        return np.where(t > xs[-1], tail, out)

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
    a few units.  Every primitive runs on the standard library's normal law
    (``_normal``), so this family needs numpy alone.
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
        # the mass at nonnegative losses, Q(z0), never formed as 1 - Phi(z0)
        return float(_normal()[0](self._z0))

    @property
    def mean(self) -> float:
        phi0 = math.exp(-0.5 * self._z0**2) / math.sqrt(2.0 * math.pi)
        return self.location + self.spread * phi0 / self._keep

    @property
    def nominal_mean(self) -> float:
        return self.location

    def _cdf(self, x):
        q = _normal()[0]
        z = (x - self.location) / self.spread
        return (q(-z) - q(-self._z0)) / self._keep

    def _quantile(self, p):
        # from the lower tail: (1 - p) * keep rounds to 1 for small p once keep does
        q, q_inv = _normal()
        p_full = p * self._keep + q(-self._z0)
        return self.location - self.spread * q_inv(p_full)

    def _sf(self, x):
        return _normal()[0]((x - self.location) / self.spread) / self._keep

    def _isf(self, s):
        return self.location + self.spread * _normal()[1](s * self._keep)

    def _tail_integral(self, t):
        # E(X - t)+ of the untruncated normal, scaled by the kept mass
        d = (t - self.location) / self.spread
        phi = np.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
        plain = (self.location - t) * _normal()[0](d) + self.spread * phi
        return plain / self._keep

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
