"""Exact tight bounds by linear programming over treatment arms.

X splits the population into arms. In arm x_c the observed outcome is
Y_{x_c}, whose joint with x_c is data; every other counterfactual Y_{x_j}
enters only through its arm marginal r[j,c,y] = P(x_c, Y_{x_j} = y). The
marginals satisfy

    sum_y r[j,c,y] = P(x_c)                               for each j != c,
    sum_{c != j} r[j,c,y] = P(y | do x_j) - P(x_j, y)     for each (j, y).

Marginals that meet these rows can be coupled freely inside each arm, so the
query event restricted to arm x_c (at most one event per coordinate, with
masses a_1..a_K) ranges exactly over the multi-marginal Frechet interval
[max(0, sum a_k - (K-1) P(x_c)), min a_k]. The lower end is convex in r and
the upper concave, so the tight minimum is an epigraph LP (s_c >= 0,
s_c >= sum a_k - (K-1) P(x_c)) and the tight maximum a hypograph LP
(u_c <= a_k). This is the paper's decomposition over treatment arms taken to
its exact limit: m(m-1)n marginal columns plus a few per arm, where the
response-type LP of Balke & Pearl (1997) needs n^m * m.

Both programs are solved at every size with an in-repo two-phase simplex
over Fractions, so the oracle never inherits float drift.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .frechet import Interval, make_interval
from .model import Dataset
from .queryir import (
    ZERO,
    CanonicalQuery,
    Query,
    canonicalize,
    parse_query,
    validate_indices,
)
from .engine import ZeroEvidenceProbability, _evidence_label

_MAX_PIVOTS = 50_000
# Dantzig pivoting is fast but can cycle; fall back to Bland's rule, which
# terminates, after this many pivots.
_DANTZIG_PIVOT_LIMIT = 500


class Infeasible(ValueError):
    """The data admit no joint response-type distribution."""


def _arm_events(cq: CanonicalQuery, c: int):
    """The query's events in arm x_c, or None when the arm contributes 0.

    Returns the marginals (j, y) of the terms on other treatments, and the
    outcome the arm must have observed (None when unconstrained).
    """
    if cq.evidence_x is not None and cq.evidence_x != c:
        return None
    observed = cq.evidence_y
    cross = []
    for term in cq.terms:
        if term.treatment != c:
            cross.append((term.treatment, term.outcome))
        elif observed is not None and observed != term.outcome:
            return None
        else:
            observed = term.outcome
    return cross, observed


def _arm_lp(dataset: Dataset, cq: CanonicalQuery, maximize: bool):
    """Equality form A z = b, z >= 0, of the tight min or max of cq.

    Returns (A, b, c, column names), where c is the objective in the
    program's own sense. For a ZERO query the objective is zero and only the
    marginal rows remain.
    """
    m, n = dataset.space.m, dataset.space.n
    obs, exp = dataset.obs, dataset.exp
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
                b.append(obs.exact_x(c))
    for j in range(1, m + 1):
        for y in range(1, n + 1):
            rows.append({r[j, c, y]: 1 for c in range(1, m + 1) if c != j})
            b.append(exp.exact_do(j, y) - obs.exact_joint(j, y))

    objective: dict[int, int] = {}
    arms = range(1, m + 1) if cq.kind != ZERO else ()
    for c in arms:
        events = _arm_events(cq, c)
        if events is None:
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
                b.append(obs.exact_joint(c, observed))
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
                rhs = obs.exact_joint(c, observed)
            b.append(rhs - (k - 1) * obs.exact_x(c))

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


def _to_canonical(dataset: Dataset, query) -> CanonicalQuery:
    if isinstance(query, str):
        query = parse_query(query, dataset.space)
    if isinstance(query, Query):
        validate_indices(query, dataset.space)
        return canonicalize(query)
    if isinstance(query, CanonicalQuery):
        return query
    raise TypeError(f"unsupported query type {type(query)!r}")


def _exact_divisor(dataset: Dataset, ex, ey) -> Fraction:
    if ex is not None and ey is not None:
        return dataset.obs.exact_joint(ex, ey)
    if ex is not None:
        return dataset.obs.exact_x(ex)
    return dataset.obs.exact_y(ey)


def _exact_bounds(dataset: Dataset, cq: CanonicalQuery) -> tuple[Fraction, Fraction]:
    """Tight (min, max) in exact arithmetic; conditional queries are divided
    by the exact evidence probability, mirroring the engine's conditioning rule.
    """
    vmin = vmax = Fraction(0)
    if cq.kind != ZERO:
        A, b, c, _ = _arm_lp(dataset, cq, maximize=False)
        status_lo, vmin = _solve_min_exact(A, b, c)
        if status_lo == "infeasible":
            raise Infeasible(
                "experimental and observational data admit no joint response-type distribution"
            )
        A, b, c, _ = _arm_lp(dataset, cq, maximize=True)
        status_hi, neg_vmax = _solve_min_exact(A, b, [-v for v in c])
        if status_lo != "optimal" or status_hi != "optimal":
            raise RuntimeError(f"unexpected LP status: min={status_lo}, max={status_hi}")
        vmax = -neg_vmax
    if cq.conditional:
        divisor = _exact_divisor(dataset, cq.divisor_x, cq.divisor_y)
        if divisor == 0:
            raise ZeroEvidenceProbability(_evidence_label(cq.divisor_x, cq.divisor_y), 0.0)
        vmin, vmax = vmin / divisor, vmax / divisor
    return vmin, vmax


def tight_bounds(dataset: Dataset, query) -> Interval:
    """Tight [min, max] of the query probability over all compatible models."""
    vmin, vmax = _exact_bounds(dataset, _to_canonical(dataset, query))
    return make_interval(float(vmin), float(vmax), "LP min", "LP max")


def feasible(dataset: Dataset) -> bool:
    """True iff the constraint system admits any joint distribution.

    For each j the arm LP's marginal rows form a transportation problem:
    supplies P(x_c) for c != j, demands P(y | do x_j) - P(x_j, y), and both
    sum to 1 - P(x_j) on ingested data. It is feasible iff no demand is
    negative, checked here exactly on the integer numerators.
    """
    exp, obs = dataset.exp, dataset.obs
    return all(
        e * obs.den >= o * d
        for e_row, o_row, d in zip(exp.num, obs.num, exp.den)
        for e, o in zip(e_row, o_row)
    )


def _linear(coeffs, names) -> str:
    """Render a row whose coefficients are all 0 or +-1."""
    text = ""
    for v, name in zip(coeffs, names):
        if v:
            sign = "-" if v < 0 else "+"
            text = f"{text} {sign} {name}" if text else ("-" if v < 0 else "") + name
    return text or "0"


def dump_lp(dataset: Dataset, query) -> str:
    """Plain-text equality form of the min and the max program."""
    cq = _to_canonical(dataset, query)
    lines = [
        "# variables >= 0: r[xj,xc,yi] = P(xc, Y_xj = yi) for j != c;"
        " per arm s, t (min) and u, w (max)"
    ]
    for sense, maximize in (("minimize", False), ("maximize", True)):
        A, b, c, names = _arm_lp(dataset, cq, maximize)
        lines.append(f"{sense}: {_linear(c, names)}")
        lines.append("subject to:")
        lines.extend(f"  {_linear(row, names)} = {rhs}" for row, rhs in zip(A, b))
    return "\n".join(lines)
