"""The arm-decomposition LP and an exact two-phase simplex, kept as a test reference.

In arm x_c each other counterfactual Y_{x_j} enters only through its arm
marginal r[j,c,y] = P(x_c, Y_{x_j} = y), and the query event in the arm
ranges over the multi-marginal Frechet interval of its events. The tight
minimum is then an epigraph LP (s_c >= 0, s_c >= sum a_k - (K-1) P(x_c)) and
the tight maximum a hypograph LP (u_c <= a_k), with m(m-1)n marginal columns
plus a few per arm, where the response-type LP of `lp_reference` needs
n^m * m. Both are solved here over Fractions; `pocbounds.oracle` computes
the same optima in closed form and must equal them exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from pocbounds.model import Dataset
from pocbounds.queryir import ZERO, CanonicalQuery, restrict_to_arm

from conftest import exact

_MAX_PIVOTS = 50_000
# Dantzig pivoting is fast but can cycle; fall back to Bland's rule, which
# terminates, after this many pivots.
_DANTZIG_PIVOT_LIMIT = 500


def _arm_lp(dataset: Dataset, cq: CanonicalQuery, maximize: bool):
    """Equality form A z = b, z >= 0, of the tight min or max of cq.

    Returns (A, b, c, column names), where c is the objective in the
    program's own sense. For a ZERO query the objective is zero and only the
    marginal rows remain.
    """
    m, n = dataset.space.m, dataset.space.n
    names: list[str] = []
    r: dict[tuple[int, int, int], int] = {}
    for j in range(1, m + 1):
        for c in range(1, m + 1):
            if c != j:
                for y in range(1, n + 1):
                    r[j, c, y] = len(names)
                    names.append(f"r[x{j},x{c},y{y}]")

    # Sparse rows (column -> coefficient), densified at the end.
    rows: list[dict[int, int]] = []
    b: list[Fraction] = []
    for j in range(1, m + 1):
        for c in range(1, m + 1):
            if c != j:
                rows.append({r[j, c, y]: 1 for y in range(1, n + 1)})
                b.append(exact(dataset, "px", c))
    for j in range(1, m + 1):
        for y in range(1, n + 1):
            rows.append({r[j, c, y]: 1 for c in range(1, m + 1) if c != j})
            b.append(exact(dataset, "do", j, y) - exact(dataset, "joint", j, y))

    objective: dict[int, int] = {}
    arms = range(1, m + 1) if cq.kind != ZERO else ()
    for c in arms:
        events = restrict_to_arm(cq.terms, c, cq.evidence_y)
        if events is None or cq.evidence_x not in (None, c):
            continue
        cross, observed = events
        aux = len(names)
        objective[aux] = 1
        if maximize:
            # u_c + w = a_k for each event, so u_c <= min a_k.
            names.append(f"u[x{c}]")
            for j, y in cross:
                rows.append({aux: 1, len(names): 1, r[j, c, y]: -1})
                b.append(Fraction(0))
                names.append(f"w[x{c},y{y}_x{j}]")
            if observed is not None:
                rows.append({aux: 1, len(names): 1})
                b.append(exact(dataset, "joint", c, observed))
                names.append(f"w[x{c},y{observed}]")
        else:
            # s_c - t_c - sum of marginals = observed mass - (K-1) P(x_c),
            # so s_c >= max(0, sum a_k - (K-1) P(x_c)).
            names += [f"s[x{c}]", f"t[x{c}]"]
            rows.append({aux: 1, aux + 1: -1, **{r[j, c, y]: -1 for j, y in cross}})
            k = len(cross)
            rhs = Fraction(0)
            if observed is not None:
                k += 1
                rhs = exact(dataset, "joint", c, observed)
            b.append(rhs - (k - 1) * exact(dataset, "px", c))

    ncols = len(names)
    A = [[Fraction(row.get(col, 0)) for col in range(ncols)] for row in rows]
    c_vec = [Fraction(objective.get(col, 0)) for col in range(ncols)]
    return A, b, c_vec, names


# -- exact two-phase simplex ------------------------------------------------


def _pivot(rows, costrow, basis, r, e):
    piv = rows[r][e]
    prow = rows[r] = [v / piv if v else v for v in rows[r]]
    # The arm LP's rows are mostly zeros, and a - f * 0 == a exactly, so only
    # the pivot row's nonzero columns change in the other rows.
    nonzero = [(k, v) for k, v in enumerate(prow) if v]
    for rr, row in enumerate(rows):
        factor = row[e]
        if rr != r and factor != 0:
            for k, v in nonzero:
                row[k] -= factor * v
    factor = costrow[e]
    if factor != 0:
        for k, v in nonzero:
            costrow[k] -= factor * v
    basis[r] = e


def _entering(costrow, ncols, use_bland):
    if use_bland:
        for j in range(ncols):
            if costrow[j] < 0:
                return j
        return None
    best, best_j = None, None
    for j in range(ncols):
        if costrow[j] < 0 and (best is None or costrow[j] < best):
            best, best_j = costrow[j], j
    return best_j


def _leaving(rows, basis, e):
    best_ratio, best_r = None, None
    for r, row in enumerate(rows):
        if row[e] > 0:
            ratio = row[-1] / row[e]
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[r] < basis[best_r])
            ):
                best_ratio, best_r = ratio, r
    return best_r


def _run_pivots(rows, costrow, basis, ncols):
    for it in range(_MAX_PIVOTS):
        e = _entering(costrow, ncols, use_bland=it >= _DANTZIG_PIVOT_LIMIT)
        if e is None:
            return "optimal"
        r = _leaving(rows, basis, e)
        if r is None:
            return "unbounded"
        _pivot(rows, costrow, basis, r, e)
    raise RuntimeError("simplex did not terminate within the pivot limit")


def _solve_min_exact(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction], c: Sequence[Fraction]):
    """min c.q s.t. A q = b, q >= 0 in exact arithmetic.

    Returns (status, value); status is "optimal", "infeasible" or
    "unbounded".
    """
    nrows, ncols = len(A), len(c)
    rows = []
    for r in range(nrows):
        row = list(A[r])
        rhs = b[r]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        rows.append(row + [Fraction(0)] * nrows + [rhs])
        rows[-1][ncols + r] = Fraction(1)
    basis = [ncols + r for r in range(nrows)]
    total = ncols + nrows

    # Phase 1: drive the artificial mass to zero.
    costrow = [Fraction(0)] * ncols + [Fraction(1)] * nrows + [Fraction(0)]
    for row in rows:
        costrow = [a - v for a, v in zip(costrow, row)]
    status = _run_pivots(rows, costrow, basis, total)
    if status != "optimal":
        return status, None
    if -costrow[-1] != 0:
        return "infeasible", None

    # Remove leftover artificials: pivot them out where possible, otherwise
    # the row is a dependent constraint and is dropped.
    drop = []
    for r in range(len(rows)):
        if basis[r] >= ncols:
            e = next((j for j in range(ncols) if rows[r][j] != 0), None)
            if e is None:
                drop.append(r)
            else:
                _pivot(rows, costrow, basis, r, e)
    for r in sorted(drop, reverse=True):
        del rows[r]
        del basis[r]

    # Phase 2 on the original columns.
    rows = [row[:ncols] + [row[-1]] for row in rows]
    costrow = list(c) + [Fraction(0)]
    for r, bcol in enumerate(basis):
        if costrow[bcol] != 0:
            factor = costrow[bcol]
            costrow = [a - factor * v for a, v in zip(costrow, rows[r])]
    status = _run_pivots(rows, costrow, basis, ncols)
    if status != "optimal":
        return status, None
    return "optimal", -costrow[-1]


def arm_lp_bounds(dataset: Dataset, cq: CanonicalQuery):
    """(status, min, max) of cq's joint event by the arm LP.

    status is "optimal" or "infeasible"; min and max are None unless it is
    "optimal". A ZERO query keeps the marginal rows, so infeasible data are
    reported for it too.
    """
    A, b, c, _ = _arm_lp(dataset, cq, maximize=False)
    status, vmin = _solve_min_exact(A, b, c)
    if status != "optimal":
        return status, None, None
    A, b, c, _ = _arm_lp(dataset, cq, maximize=True)
    status, neg_vmax = _solve_min_exact(A, b, [-v for v in c])
    assert status == "optimal", status
    return status, vmin, -neg_vmax
