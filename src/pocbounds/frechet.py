"""Probability intervals, as the bound theorems build them.

Every theorem in the engine is a max over lower-bound candidates intersected
with a min over upper-bound candidates, among them the Frechet bounds of a
conjunction, which the engine computes inline in exact integers. This module
owns the interval type both paths return, each end rounded once to a float.
"""

from __future__ import annotations

from typing import NamedTuple

# Slack for Interval.contains, which tests a float drawn apart from the data,
# and the engine's zero-evidence rule: evidence below this probability is
# refused. Engine and oracle ends need none: both round one exact rational.
EPS_NUM = 1e-9


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
