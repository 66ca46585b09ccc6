"""Exact tight bounds in closed form over treatment arms.

X splits the population into arms. In arm x_c the observed outcome is
Y_{x_c}, whose joint with x_c is data; every other counterfactual Y_{x_j}
enters only through its arm marginal r[j,c,y] = P(x_c, Y_{x_j} = y). The
marginals satisfy

    sum_y r[j,c,y] = P(x_c)                               for each j != c,
    sum_{c != j} r[j,c,y] = P(y | do x_j) - P(x_j, y)     for each (j, y).

Marginals that meet these rows can be coupled freely inside each arm, so the
query event restricted to arm x_c (K_c events, at most one per coordinate,
with masses a_1..a_K) ranges exactly over the multi-marginal Frechet interval
[max(0, sum a_k - (K_c-1) P(x_c)), min a_k]. This is the paper's
decomposition over treatment arms taken to its exact limit.

A canonical query has at most one term y_j per treatment x_j, and the
objective reads only v[j,c] = r[j,c,y_j]: 0 <= v[j,c] <= P(x_c) and
sum_c v[j,c] = D_j = P(y_j | do x_j) - P(x_j, y_j) >= 0. Once v is fixed the
rest of each transportation problem is feasible (equal totals, complete
arcs), so both ends have a closed form. Write T for the terms, A for the
arms the event meets, cap_c = P(x_c, y_obs) for an arm with an observed
outcome and P(x_c) otherwise, and theta_c = (K_c-1) P(x_c) - P(x_c, y_obs),
where P(x_c, y_obs) is 0 when the arm has no observed outcome.

Max. With u_c <= cap_c the arm values, term j caps sum_{c in A, c != j} u_c
by D_j. So U = sum u_c is feasible iff U <= sum_A cap_c, U <= D_j for each
term whose own arm x_j is outside A, U <= D_j + cap_j for each term whose
arm is in A (T&A), and the forced shares sum_{j in T&A} max(0, U - D_j) fit
in U. The last is concave and piecewise linear in U with breakpoints at the
D_j; it binds on the i smallest D_j of T&A, at
U <= (D_(1) + ... + D_(i)) / (i - 1) for i >= 2.

Min. Arm c costs max(0, R_c - theta_c) for inflow R_c = sum_j v[j,c]: a
constant max(0, -theta_c) plus one per unit beyond a free capacity
max(0, theta_c) (unbounded outside A). The units that must pay are
sum_j D_j - F*, with F* the max flow from the terms (supply D_j) over arcs
j -> c (c != j, capacity P(x_c)) into the free capacities. Arc capacities
depend only on the arm, so the min cut (Ford & Fulkerson 1956) with s terms
on the source side takes the s cheapest per-term costs, one sort per size.

Everything is exact integer arithmetic on the dataset's numerators over
den, O(k^2 log k + k m) operations per query. Only a prefix cap, a sum over
i - 1, and the final division of each end by queryir.divisor (den, or the
evidence numerator of a conditional query, as in engine.bound) build a
Fraction. The arm LP and the response-type LP of Balke & Pearl (1997),
solved by a simplex in the tests, must agree with it exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .model import Dataset, Interval
from .queryir import (
    ZERO,
    CanonicalQuery,
    Query,
    canonicalize,
    divisor,
    parse_query,
    restrict_to_arm,
    validate_indices,
)


def _closed_form(dataset: Dataset, cq: CanonicalQuery) -> tuple[int, Fraction | int]:
    """Tight (min, max) of a feasible, non-ZERO query's joint probability, over
    den: ints, or a Fraction for the max when a prefix cap binds."""
    arms = range(1, dataset.space.m + 1)
    px = dict(zip(arms, dataset.px))
    d = {j: dataset.do[j - 1][y - 1] - dataset.joint[j - 1][y - 1] for j, y in cq.terms}
    cap, theta = {}, {}
    for c in arms:
        events = restrict_to_arm(cq.terms, c, cq.evidence_y)
        if events is None or cq.evidence_x not in (None, c):
            continue
        cross, observed = events
        if observed is None:
            cap[c], theta[c] = px[c], (len(cross) - 1) * px[c]
        else:
            cap[c] = dataset.joint[c - 1][observed - 1]
            theta[c] = len(cross) * px[c] - cap[c]

    hi = sum(cap.values())
    for j, dj in d.items():
        hi = min(hi, dj + cap[j] if j in cap else dj)
    prefix = 0
    for i, dj in enumerate(sorted(dj for j, dj in d.items() if j in cap), start=1):
        prefix += dj
        if i >= 2:
            hi = min(hi, Fraction(prefix, i - 1))

    sink = {c: max(0, t) for c, t in theta.items()}

    def free(c: int, s: int) -> int:
        flow = s * px[c]
        return min(sink[c], flow) if c in sink else flow

    total = sum(d.values())
    f_star = total  # the cut with no term on the source side
    for s in range(1, len(d) + 1):
        costs = sorted(free(j, s - 1) - free(j, s) - dj for j, dj in d.items())
        f_star = min(f_star, total + sum(free(c, s) for c in arms) + sum(costs[:s]))
    lo = sum(max(0, -t) for t in theta.values()) + total - f_star
    return lo, hi


def _exact_bounds(dataset: Dataset, cq: CanonicalQuery) -> tuple[Fraction, Fraction]:
    """Tight (min, max) as exact Fractions: each end of the closed form is
    divided once, by queryir.divisor.
    """
    dataset.check_consistent()
    divide_by = divisor(dataset, cq)
    lo, hi = (0, 0) if cq.kind == ZERO else _closed_form(dataset, cq)
    return Fraction(lo, divide_by), Fraction(hi, divide_by)


def tight_bounds(dataset: Dataset, query: Query | str) -> Interval:
    """Tight [min, max] of the query probability over all compatible models.

    Takes query text or a query object, as engine.bound does.
    """
    if isinstance(query, str):
        query = parse_query(query, dataset.space)
    else:
        validate_indices(query, dataset.space)
    vmin, vmax = _exact_bounds(dataset, canonicalize(query))
    return Interval(float(vmin), float(vmax))
