"""The response-type LP of Balke & Pearl (1997), kept as a test reference.

A response type is a function from treatments to outcomes (one of n^m). The
LP variables q[t][j] carry the mass of response type t co-occurring with
observed treatment x_j, so both data sources become linear equality
constraints and any conjunctive query event is a 0/1 objective. It has
n^m * m columns, so it is only posed up to the 81 columns of a 3x3 space
(which admits the 4x2 and 2x4 fixtures too), where it checks the
closed form of `pocbounds.oracle` exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from pocbounds.model import Dataset, Infeasible
from pocbounds.queryir import ZERO, CanonicalQuery

from arm_lp_reference import _solve_min_exact
from conftest import exact

MAX_COLUMNS = 3**3 * 3


def response_types(m: int, n: int) -> list[tuple[int, ...]]:
    """All outcome assignments (t[0] for x_1, ..., t[m-1] for x_m), lexicographic."""
    return list(itertools.product(range(1, n + 1), repeat=m))


def _build_constraints(dataset: Dataset):
    """Equality system A q = b over exact rationals.

    Rows: total mass; one row per observational cell; one row per
    experimental cell. The redundancy among them is deliberate; the solver
    tolerates dependent rows.
    """
    m, n = dataset.space.m, dataset.space.n
    ncols = n**m * m
    if ncols > MAX_COLUMNS:
        raise ValueError(f"{m}x{n} needs {ncols} columns; the reference stops at {MAX_COLUMNS}")
    types = response_types(m, n)
    zero, one = Fraction(0), Fraction(1)

    def var(t_idx: int, j: int) -> int:
        return t_idx * m + (j - 1)

    rows: list[list[Fraction]] = [[one] * ncols]
    rhs: list[Fraction] = [one]
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            row = [zero] * ncols
            for t_idx, t in enumerate(types):
                if t[j - 1] == i:
                    row[var(t_idx, j)] = one
            rows.append(row)
            rhs.append(exact(dataset, "joint", j, i))
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            row = [zero] * ncols
            for t_idx, t in enumerate(types):
                if t[j - 1] == i:
                    for jp in range(1, m + 1):
                        row[var(t_idx, jp)] = one
            rows.append(row)
            rhs.append(exact(dataset, "do", j, i))
    return types, rows, rhs


def _objective(dataset: Dataset, types, terms, ex, ey) -> list[Fraction]:
    """0/1 coefficients selecting the query event.

    A term y_i under x_j restricts to types with t(j) = i; evidence X = x_p
    restricts to the column j = p; evidence Y = y_q requires the actual
    outcome t(j) of the occupied column to be q.
    """
    m = dataset.space.m
    coeffs = [Fraction(0)] * (len(types) * m)
    for t_idx, t in enumerate(types):
        if any(t[term.treatment - 1] != term.outcome for term in terms):
            continue
        for j in range(1, m + 1):
            if ex is not None and j != ex:
                continue
            if ey is not None and t[j - 1] != ey:
                continue
            coeffs[t_idx * m + (j - 1)] = Fraction(1)
    return coeffs


def reference_bounds(dataset: Dataset, cq: CanonicalQuery) -> tuple[Fraction, Fraction]:
    """Tight (min, max) over response types, divided by the evidence when conditional."""
    vmin = vmax = Fraction(0)
    if cq.kind != ZERO:
        types, A, b = _build_constraints(dataset)
        c = _objective(dataset, types, cq.terms, cq.evidence_x, cq.evidence_y)
        status_lo, vmin = _solve_min_exact(A, b, c)
        if status_lo == "infeasible":
            raise Infeasible("no joint response-type distribution", ())
        status_hi, neg_vmax = _solve_min_exact(A, b, [-v for v in c])
        assert (status_lo, status_hi) == ("optimal", "optimal")
        vmax = -neg_vmax
    if cq.conditional:
        divisor = evidence_divisor(dataset, cq)
        vmin, vmax = vmin / divisor, vmax / divisor
    return vmin, vmax


def evidence_divisor(dataset: Dataset, cq: CanonicalQuery) -> Fraction:
    """The exact probability of a conditional query's evidence."""
    if cq.divisor_x is not None and cq.divisor_y is not None:
        return exact(dataset, "joint", cq.divisor_x, cq.divisor_y)
    if cq.divisor_x is not None:
        return exact(dataset, "px", cq.divisor_x)
    return exact(dataset, "py", cq.divisor_y)


def reference_feasible(dataset: Dataset) -> bool:
    """True iff some joint response-type distribution meets both data sources."""
    types, A, b = _build_constraints(dataset)
    status, _ = _solve_min_exact(A, b, [Fraction(0)] * (len(types) * dataset.space.m))
    return status == "optimal"
