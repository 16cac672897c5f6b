"""Quadrature helpers shared by valuation, optimization and condition checks."""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_OCTAVES = 64  # survival octaves per vectorized block of the tail
_GRADED = 60  # most panels halving toward the start of an unbounded layer
_DEEPEST = 1e-300  # smallest survival level an octave edge may have


class UnpurchasableCoverError(ValueError):
    """Unbounded cover whose kernel cost diverges: the kernel decays too slowly for the tail."""


def purchasable(model, curve) -> bool:
    """Whether a curve's cost over an unbounded layer is finite.

    With S(x) of order x**-alpha (``model.tail_index``) and K(1 - s) of order
    s**p (``curve.survival_exponent``) the integrand decays like x**(-alpha p),
    so the cost converges iff alpha * p > 1.  Tails lighter than every power
    have an infinite index and always converge.
    """
    return model.tail_index * curve.survival_exponent > 1.0


def _panel_costs(model, curve, edges) -> np.ndarray:
    """Integral of K(1 - S(x)) over each panel between consecutive edges (24-node Gauss-Legendre)."""
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    xs = mids[:, None] + 0.5 * widths[:, None] * _GL_NODES[None, :]
    vals = np.asarray(curve.survival_value(model.sf(xs.ravel()))).reshape(xs.shape)
    return 0.5 * widths * (vals @ _GL_WEIGHTS)


def _octave_edges(model, s_top: float, count: int) -> np.ndarray:
    """x where S(x) = s_top / 2**k for k = 1..count, stopping before _DEEPEST or overflow."""
    s = s_top * np.exp2(-np.arange(1.0, count + 1.0))
    x = np.asarray(model.isf(s[s >= _DEEPEST]))
    finite = np.isfinite(x)
    return x if finite.all() else x[: int(np.argmin(finite))]


def _geometric_rest(prev: float, last: float) -> float:
    """Sum of the pieces after ``last`` if they keep shrinking by last / prev; inf if they do not shrink."""
    if last == 0.0:
        return 0.0
    ratio = last / prev if prev != 0.0 else math.inf
    return last * ratio / (1.0 - ratio) if 0.0 <= ratio < 1.0 else math.inf


def _tail_cost(model, curve, a: float) -> float:
    """Integral of K(F(x)) over [a, infinity), in survival space.

    Panels end at the survival octaves x_k = isf(S(a) / 2**k), at the model's
    and the curve's knots, and at points halving the distance from a to the
    first of those, so that a cdf behaving like x**k at the origin costs no
    accuracy.  Octaves are added in vectorized blocks until the geometric
    continuation of the last two pieces is below the rounding of the total,
    or the octaves reach survival 1e-300, where that continuation is added
    as the remainder.
    """
    if not purchasable(model, curve):
        raise UnpurchasableCoverError(
            f"unbounded cover is not purchasable: {model.family} tail index {model.tail_index:g} "
            f"times kernel survival exponent {curve.survival_exponent:g} is at most 1"
        )
    s_a = float(model.sf(a))
    if s_a <= 0.0:
        return 0.0
    knots = [t for t in model.cdf_knots if t > a]
    knots += [float(model.isf(s)) for s in curve.survival_knots if s < s_a]
    s_knot = min((float(model.sf(t)) for t in knots), default=s_a)
    # the first block reaches past every knot, so its last pieces are whole octaves
    count = _OCTAVES + (math.ceil(math.log2(s_a / s_knot)) if s_knot > 0.0 else 0)
    octaves = _octave_edges(model, s_a, count)
    edges = np.unique(np.concatenate([[a], knots, octaves]))
    if len(edges) < 2:
        return 0.0
    gap = edges[1] - a
    halvings = _GRADED if a <= 0.0 else min(_GRADED, max(0, math.ceil(math.log2(gap / a))))
    edges = np.unique(np.concatenate([edges, a + gap * np.exp2(-np.arange(1.0, halvings + 1.0))]))
    pieces = _panel_costs(model, curve, edges)
    total = math.fsum(pieces)
    x_last, s_last = edges[-1], s_a * 2.0 ** -len(octaves)
    while True:
        rest = _geometric_rest(*pieces[-2:]) if len(pieces) > 1 else math.inf
        if abs(rest) <= 1e-16 * abs(total):
            return total + rest
        more = _octave_edges(model, s_last, _OCTAVES)
        if len(more) == 0:
            if math.isinf(rest):
                raise ValueError("kernel cost integral does not converge on the tail")
            return total + rest
        # keep the previous block's last piece: a short block may hold a single piece
        pieces = np.concatenate([pieces[-1:], _panel_costs(model, curve, np.concatenate([[x_last], more]))])
        total += math.fsum(pieces[1:])
        x_last, s_last = more[-1], s_last * 2.0 ** -len(more)


def curve_cost(model, curve, a: float, b: float, *, tol: float = 1e-10) -> float:
    """Integral of K(F(x)) over [a, b] for a curve K; ``b`` may be infinite.

    ``curve`` is a base curve or a loaded kernel: anything with ``value(u)``,
    ``survival_value(s)``, ``survival_exponent`` and ``survival_knots``.  A
    finite interval is integrated adaptively to ``tol`` with the cdf's
    non-smooth points as split points.  An unbounded one is integrated in
    survival space, K(1 - S(x)) with S from ``model.sf``, over fixed 24-node
    Gauss-Legendre panels between survival octaves plus a geometric
    remainder (see ``_tail_cost``); it ignores ``tol`` and is accurate to a
    few units of rounding.  Raises ``UnpurchasableCoverError`` when that
    integral diverges (``purchasable``).
    """
    if b <= a:
        return 0.0
    if math.isinf(b):
        return _tail_cost(model, curve, a)

    def integrand(x):
        return curve.value(model.cdf(x))

    knots = [t for t in model.cdf_knots if a < t < b]
    value, _ = quad(integrand, a, b, epsabs=tol, limit=200, points=knots or None)
    return value


def kernel_cost(model, kernel, a: float, b: float, *, tol: float = 1e-10) -> float:
    """Integral of the loaded kernel K(F(x)) over [a, b]."""
    return curve_cost(model, kernel, a, b, tol=tol)


def cumulative_kernel_cost(model, kernel, grid) -> np.ndarray:
    """Cumulative integral of K(F(x)) along a sorted grid (knots must be in it).

    Uses fixed 24-node Gauss-Legendre panels between consecutive grid points:
    exact to machine precision for the smooth integrands that arise here, and
    fully vectorized so big contract sweeps stay cheap.
    """
    panel = _panel_costs(model, kernel, np.asarray(grid, dtype=float))
    return np.concatenate([[0.0], np.cumsum(panel)])


def bisect_root(func, lo: float, hi: float, *, xtol: float = 1e-12, max_iter: int = 200) -> float:
    """Plain bisection for a bracketed sign change; returns the midpoint."""
    flo = func(lo)
    fhi = func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("root is not bracketed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if fmid == 0.0 or hi - lo < xtol:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
