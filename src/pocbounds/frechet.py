"""Probability intervals, as the bound theorems build them.

Every theorem in the engine is a max over lower-bound candidates intersected
with a min over upper-bound candidates, among them the Frechet bounds of a
conjunction, which the engine computes inline. This module owns the interval
type and make_interval, including the guard that fires when the lower end
exceeds the upper by more than numerical noise.
"""

from __future__ import annotations

from typing import NamedTuple

# Slack for infeasibility detection; float error accumulates across the
# recursion but stays far below this.
EPS_NUM = 1e-9


class InfeasibleInterval(ValueError):
    """A lower bound exceeded an upper bound by more than EPS_NUM."""

    def __init__(self, lo: float, hi: float, lo_label: str = "lower", hi_label: str = "upper"):
        self.lo = lo
        self.hi = hi
        self.lo_label = lo_label
        self.hi_label = hi_label
        super().__init__(f"infeasible interval: {lo_label} = {lo!r} exceeds {hi_label} = {hi!r}")


class Interval(NamedTuple):
    """A [lo, hi] identification interval; both ends are probabilities.

    A tuple, so it unpacks as `lo, hi = interval` and equals (lo, hi).
    """

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def contains(self, value: float) -> bool:
        return self.lo - EPS_NUM <= value <= self.hi + EPS_NUM

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo - EPS_NUM <= other.lo and other.hi <= self.hi + EPS_NUM

    def scaled_by(self, divisor: float) -> "Interval":
        """Divide both ends by an evidence probability and re-clamp.

        This is the conditioning rule: bounds of P(A | e) are the bounds of
        P(A, e) divided by P(e).
        """
        return make_interval(self.lo / divisor, self.hi / divisor)


def make_interval(lo: float, hi: float, lo_label: str = "lower", hi_label: str = "upper") -> Interval:
    """Clamp raw bound values into [0, 1] and reject genuine crossings.

    Raw candidates may be negative (the theorems compute things like
    sum - k + 1 before the max with 0) or may cross by a few ulps after a
    division. A crossing beyond EPS_NUM is an invariant guard: bound and
    tight_bounds refuse data that fail validation before any interval is
    built, and valid bounds on consistent data do not cross.
    """
    if lo > hi + EPS_NUM:
        raise InfeasibleInterval(lo, hi, lo_label, hi_label)
    lo_c = min(1.0, max(0.0, lo))
    hi_c = min(1.0, max(0.0, hi))
    if lo_c > hi_c:
        # Within noise; widen rather than guess a side.
        lo_c, hi_c = hi_c, lo_c
    return Interval(lo_c, hi_c)
