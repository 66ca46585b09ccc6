"""The binary tight bounds of Tian & Pearl (2000), kept as a test reference.

For m = n = 2 they give PNS, PN and PS in closed form. The engine and the
oracle must both reproduce them on binary data, as they must reproduce the
response-type LP of Balke & Pearl (1997) in lp_reference.py.
"""

from __future__ import annotations

from pocbounds.model import Dataset, Interval
from pocbounds.queryir import canonicalize, divisor, parse_query

from conftest import exact


class NotBinary(ValueError):
    """The Tian-Pearl special cases need m = n = 2."""


def tian_pearl(dataset: Dataset, kind: str) -> Interval:
    """The binary tight bounds for PNS, PN, or PS (m = n = 2).

    Convention: x = x1 (treated), x' = x2, y = y1, y' = y2. PS comes from the
    PN bounds by exchanging x with x' and y with y'. Conditioning follows the
    zero-evidence rule of queryir.divisor.
    """
    if dataset.space.m != 2 or dataset.space.n != 2:
        raise NotBinary(f"need m = n = 2, got m={dataset.space.m}, n={dataset.space.n}")
    what = kind.upper()
    do = [[float(exact(dataset, "do", j, i)) for i in (1, 2)] for j in (1, 2)]
    joint = [[float(exact(dataset, "joint", j, i)) for i in (1, 2)] for j in (1, 2)]
    (y_x, yp_x), (y_xp, yp_xp) = do
    (xy, xyp), (xpy, xpyp) = joint
    y, yp = float(exact(dataset, "py", 1)), float(exact(dataset, "py", 2))
    if what == "PNS":
        lo = max(0.0, y_x - y_xp, y - y_xp, y_x - y)
        hi = min(y_x, yp_xp, xy + xpyp, y_x - y_xp + xyp + xpy)
    elif what == "PN":
        divisor(dataset, canonicalize(parse_query("P(y2_x2 | x1, y1)", dataset.space)))
        lo = max(0.0, (y - y_xp) / xy)
        hi = min(1.0, (yp_xp - xpyp) / xy)
    elif what == "PS":
        divisor(dataset, canonicalize(parse_query("P(y1_x1 | x2, y2)", dataset.space)))
        lo = max(0.0, (yp - yp_x) / xpyp)
        hi = min(1.0, (y_x - xy) / xpyp)
    else:
        raise ValueError(f"unknown kind {kind!r}; expected PNS, PN or PS")
    return Interval(min(1.0, lo), max(0.0, hi))
