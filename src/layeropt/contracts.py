"""Piecewise-linear indemnity schedules.

A schedule is stored as finite breakpoints 0 = x0 < x1 < ... < xm with one
slope per segment (the last segment runs to infinity).  Slopes live in
[0, 1], which together with I(0) = 0 makes every schedule nondecreasing,
1-Lipschitz and pointwise between 0 and x.  Construction canonicalizes by
merging adjacent segments of equal slope, so equality of canonical forms is
equality of the underlying functions.

``IndemnitySchedule.segments()`` is the one decoder of this layout and
``schedule_from_layers`` the one builder; other modules use only these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SLOPE_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Layer:
    """A full-cession interval; detachment may be infinite."""

    attachment: float
    detachment: float

    def __post_init__(self):
        if not (0.0 <= self.attachment < self.detachment):
            raise ValueError("layer needs 0 <= attachment < detachment")

    @property
    def width(self) -> float:
        return self.detachment - self.attachment


@dataclass(frozen=True, slots=True)
class IndemnitySchedule:
    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        slopes = tuple(float(s) for s in self.slopes)
        if len(bps) != len(slopes) or not bps:
            raise ValueError("need one slope per breakpoint")
        if bps[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if any(b <= a for a, b in zip(bps, bps[1:])) or not all(map(math.isfinite, bps)):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not all(-_SLOPE_TOL <= s <= 1.0 + _SLOPE_TOL for s in slopes):
            raise ValueError("slopes must lie in [0, 1]")
        slopes = tuple(min(max(s, 0.0), 1.0) for s in slopes)
        # canonical form: merge runs of equal slope
        keep = [i for i, s in enumerate(slopes) if i == 0 or s != slopes[i - 1]]
        object.__setattr__(self, "breakpoints", tuple(bps[i] for i in keep))
        object.__setattr__(self, "slopes", tuple(slopes[i] for i in keep))

    def evaluate(self, x):
        """I(x), vectorized; negative arguments evaluate as zero loss."""
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        knots, slopes = np.asarray(self.breakpoints), np.asarray(self.slopes)
        values = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(knots))])
        idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(knots) - 1)
        out = values[idx] + slopes[idx] * (x - knots[idx])
        return float(out) if out.ndim == 0 else out

    def segments(self) -> list[tuple[float, float, float]]:
        """(start, end, slope) of each segment in increasing order; the last end is ``math.inf``."""
        return list(zip(self.breakpoints, self.breakpoints[1:] + (math.inf,), self.slopes))

    def layers(self) -> list[Layer]:
        """Full-cession intervals of a bang-bang schedule, in increasing order."""
        if any(s not in (0.0, 1.0) for s in self.slopes):
            raise ValueError("schedule is not bang-bang: fractional slope present")
        return [Layer(lo, hi) for lo, hi, s in self.segments() if s == 1.0]

    def rescale(self, factor: float) -> "IndemnitySchedule":
        """Stretch the loss axis by ``factor`` (slopes are unchanged)."""
        if not (factor > 0.0 and math.isfinite(factor)):
            raise ValueError("factor must be positive and finite")
        return IndemnitySchedule(tuple(b * factor for b in self.breakpoints), self.slopes)

    @property
    def is_zero(self) -> bool:
        return all(s == 0.0 for s in self.slopes)

    def describe(self) -> str:
        return "; ".join(f"[{lo:g}, {hi:g}) slope {s:g}" for lo, hi, s in self.segments())


_ZERO = IndemnitySchedule((0.0,), (0.0,))


def zero_schedule() -> IndemnitySchedule:
    """No cession; one shared instance, since schedules are immutable."""
    return _ZERO


def full_cession() -> IndemnitySchedule:
    return schedule_from_layers([Layer(0.0, math.inf)])


def truncated_stop_loss(attachment: float, detachment: float = math.inf) -> IndemnitySchedule:
    """The layer contract paying (x - attachment)+ capped at the layer width."""
    return schedule_from_layers([Layer(attachment, detachment)])


def schedule_from_layers(layers) -> IndemnitySchedule:
    """Bang-bang schedule covering exactly the given disjoint layers."""
    items = sorted(layers, key=lambda l: l.attachment)
    if not items:
        return zero_schedule()
    for lo, hi in zip(items, items[1:]):
        if hi.attachment < lo.detachment:
            raise ValueError("layers overlap")
    if any(not math.isfinite(l.detachment) for l in items[:-1]):
        raise ValueError("only the last layer may be unbounded")
    # disjoint layers: a segment lies inside one exactly when it starts at an
    # attachment; the constructor merges adjacent layers
    attachments = {l.attachment for l in items}
    edges = sorted({0.0, *attachments, *(l.detachment for l in items if math.isfinite(l.detachment))})
    # two shared float objects, not one per segment
    return IndemnitySchedule(tuple(edges), tuple(1.0 if e in attachments else 0.0 for e in edges))
