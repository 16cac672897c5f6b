"""Quadrature helpers shared by valuation, optimization and condition checks."""

from __future__ import annotations

import math

import numpy as np

from .losses import _check_positive

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_OCTAVES = 64  # survival octaves per vectorized block of the tail
# survival octaves between a finite layer's seeded edges: a 24-node panel
# integrates an exponential decay to rounding while S falls by up to about
# 2**24, so a step of 2**16 leaves margin
_REACH = 16
_GRADED = 30  # most panels quartering toward the start of a layer
_DEEPEST = 1e-300  # smallest survival level an octave edge may have
_ROUNDS = 60  # most bisection rounds of a finite layer
_OPEN = 1024  # most panels a finite layer may still be refining
_ROUNDING = 2.0**-52  # error, relative to the total, that a finite layer's panels may share


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


def _panel_costs(model, curve, lo, hi) -> np.ndarray:
    """Integral of K(1 - S(x)) over each panel [lo, hi] (24-node Gauss-Legendre)."""
    widths = hi - lo
    mids = 0.5 * (lo + hi)
    xs = mids[:, None] + 0.5 * widths[:, None] * _GL_NODES[None, :]
    vals = np.asarray(curve.survival_value(model.sf(xs.ravel()))).reshape(xs.shape)
    return 0.5 * widths * (vals @ _GL_WEIGHTS)


def _ascending(values) -> np.ndarray:
    """Sorted distinct values of a 1-D float array without NaN.

    What ``np.unique`` does for such an array, bit for bit, without its
    first call importing ``numpy.ma`` on numpy 2.
    """
    values = np.sort(values)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _graded(edges) -> np.ndarray:
    """Sorted edges plus points quartering the first gap toward a = edges[0], down to a distance of about a.

    A cdf behaving like x**k at the origin is smooth on every graded panel,
    so it costs no accuracy even at a = 0, where the gap shrinks by 2**-60.
    """
    if len(edges) < 2:
        return edges
    a, gap = edges[0], edges[1] - edges[0]
    steps = _GRADED if a <= 0.0 else min(_GRADED, max(0, math.ceil(0.5 * math.log2(gap / a))))
    # the points lie strictly inside the first gap, so ascending they go between its ends
    return np.concatenate([edges[:1], a + gap * np.exp2(-2.0 * np.arange(steps, 0.0, -1.0)), edges[1:]])


def _octave_edges(model, s_top: float, count: int, step: int = 1) -> np.ndarray:
    """x where S(x) = s_top / 2**(step * k) for k = 1..count, stopping before _DEEPEST or overflow."""
    s = s_top * np.exp2(-step * np.arange(1.0, count + 1.0))
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
    and the curve's knots, and at points quartering the distance from a to
    the first of those (``_graded``).  Octaves are added in vectorized
    blocks until the geometric continuation of the last two pieces is below
    the rounding of the total, or the octaves reach survival 1e-300, where
    that continuation is added as the remainder.
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
    edges = _graded(_ascending(np.concatenate([[a], knots, octaves])))
    if len(edges) < 2:
        return 0.0
    pieces = _panel_costs(model, curve, edges[:-1], edges[1:])
    total = math.fsum(pieces)
    x_last, s_last = edges[-1], s_a * 2.0 ** -len(octaves)
    while True:
        rest = _geometric_rest(*pieces[-2:]) if len(pieces) > 1 else math.inf
        if abs(rest) <= 1e-16 * abs(total):
            return float(total + rest)
        more = _octave_edges(model, s_last, _OCTAVES)
        if len(more) == 0:
            if math.isinf(rest):
                raise ValueError("kernel cost integral does not converge on the tail")
            return float(total + rest)
        # keep the previous block's last piece: a short block may hold a single piece
        pieces = np.concatenate([pieces[-1:], _panel_costs(model, curve, np.concatenate([[x_last], more[:-1]]), more)])
        total += math.fsum(pieces[1:])
        x_last, s_last = more[-1], s_last * 2.0 ** -len(more)


def _finite_cost(model, curve, a: float, b: float, tol: float) -> float:
    """Integral of K(1 - S(x)) over a finite [a, b] by vectorized adaptive bisection.

    Panels start at a, b, the model's knots, the curve's knots mapped to x
    (such as the capped-linear kink), the survival levels S(a) / 2**(16 k)
    above max(S(b), 1e-300) mapped to x, so a layer spanning many decades
    keeps its mass off the first panel, and points quartering the first
    panel toward a (``_graded``).  Each round prices every open panel and
    its two halves in one call.  A panel is accepted, at the sum of its
    halves, when that sum agrees with the whole to within the panel's share
    (by width) of ``tol`` or of the rounding of the total; only the others
    are halved again.
    After ``_ROUNDS`` rounds, or once more than ``_OPEN`` panels would be
    open, every open panel is accepted as it stands, so no input can make
    the work grow without bound.
    """
    s_a, s_b = float(model.sf(a)), float(model.sf(b))
    knots = [t for t in model.cdf_knots if a < t < b]
    knots += [float(model.isf(s)) for s in curve.survival_knots if s_b < s < s_a]
    s_floor = max(s_b, _DEEPEST)
    count = int(math.log2(s_a / s_floor) // _REACH) if s_a > s_floor else 0
    if count > 0:
        knots += list(_octave_edges(model, s_a, count, _REACH))
    edges = _graded(_ascending(np.concatenate([[a, b], np.clip(knots, a, b)])))
    lo, hi = edges[:-1], edges[1:]
    share = None
    accepted = []
    for last in range(_ROUNDS, 0, -1):
        mid = 0.5 * (lo + hi)
        costs = _panel_costs(model, curve, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
        whole, left, right = np.split(costs, 3)
        halves = left + right
        if share is None:
            share = max(tol, _ROUNDING * abs(math.fsum(halves))) / (b - a)
        done = np.abs(halves - whole) <= share * (hi - lo)
        if last == 1 or 2 * np.count_nonzero(~done) > _OPEN:
            done[:] = True
        accepted.append(halves[done])
        if done.all():
            return math.fsum(np.concatenate(accepted))
        keep = ~done
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])


def curve_cost(model, curve, a: float, b: float, *, tol: float = 1e-10) -> float:
    """Integral of K(F(x)) over [a, b] for a curve K; ``b`` may be infinite.

    ``curve`` is a base curve or a loaded kernel: anything with
    ``survival_value(s)``, ``survival_exponent`` and ``survival_knots``.  The
    integrand is K(1 - S(x)) with S from ``model.sf``, priced on 24-node
    Gauss-Legendre panels.  A finite interval is bisected adaptively until
    every panel is accurate to rounding or to its share of the absolute
    tolerance ``tol`` (see ``_finite_cost``).  An unbounded one takes fixed
    panels between survival octaves plus a geometric remainder (see
    ``_tail_cost``); it needs no ``tol`` and is accurate to a few units of
    rounding.  Raises ``ValueError`` unless ``tol`` is positive and finite,
    and ``UnpurchasableCoverError`` when an unbounded integral diverges
    (``purchasable``).
    """
    _check_positive(tol, "quadrature tolerance")
    if b <= a:
        return 0.0
    if math.isinf(b):
        return _tail_cost(model, curve, a)
    return _finite_cost(model, curve, a, b, tol)


def bisect_root(func, lo: float, hi: float, *, xtol: float = 1e-12, max_iter: int = 200) -> float:
    """Plain bisection for a bracketed sign change; returns the midpoint of the last bracket."""
    flo = func(lo)
    fhi = func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # compare signs, not a product, which underflows to zero for tiny values
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError("root is not bracketed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if fmid == 0.0 or hi - lo < xtol or mid in (lo, hi):
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
