"""The binary tight bounds of Tian & Pearl (2000), kept as a test reference.

For m = n = 2 they give PNS, PN and PS in closed form. The engine and the
oracle must both reproduce them on binary data, as they must reproduce the
response-type LP of Balke & Pearl (1997) in lp_reference.py.
"""

from __future__ import annotations

from pocbounds.engine import _evidence_divisor
from pocbounds.frechet import Interval, make_interval
from pocbounds.model import Dataset


class NotBinary(ValueError):
    """The Tian-Pearl special cases need m = n = 2."""


def tian_pearl(dataset: Dataset, kind: str) -> Interval:
    """The binary tight bounds for PNS, PN, or PS (m = n = 2).

    Convention: x = x1 (treated), x' = x2, y = y1, y' = y2. PS comes from the
    PN bounds by exchanging x with x' and y with y'. Conditioning follows the
    engine's zero-evidence rule.
    """
    if dataset.space.m != 2 or dataset.space.n != 2:
        raise NotBinary(f"need m = n = 2, got m={dataset.space.m}, n={dataset.space.n}")
    what = kind.upper()
    p_do, p_joint = dataset.p_do, dataset.p_joint
    y_x, y_xp = p_do(1, 1), p_do(2, 1)
    yp_x, yp_xp = p_do(1, 2), p_do(2, 2)
    xy, xyp = p_joint(1, 1), p_joint(1, 2)
    xpy, xpyp = p_joint(2, 1), p_joint(2, 2)
    y, yp = dataset.p_y(1), dataset.p_y(2)
    if what == "PNS":
        lo = max(0.0, y_x - y_xp, y - y_xp, y_x - y)
        hi = min(y_x, yp_xp, xy + xpyp, y_x - y_xp + xyp + xpy)
        return make_interval(lo, hi, "PNS lower", "PNS upper")
    if what == "PN":
        _evidence_divisor(dataset, 1, 1)
        lo = max(0.0, (y - y_xp) / xy)
        hi = min(1.0, (yp_xp - xpyp) / xy)
        return make_interval(lo, hi, "PN lower", "PN upper")
    if what == "PS":
        _evidence_divisor(dataset, 2, 2)
        lo = max(0.0, (yp - yp_x) / xpyp)
        hi = min(1.0, (y_x - xy) / xpyp)
        return make_interval(lo, hi, "PS lower", "PS upper")
    raise ValueError(f"unknown kind {kind!r}; expected PNS, PN or PS")
