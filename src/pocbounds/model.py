"""Problem space, the Dataset record, the one ingest pipeline, and the
Interval type both paths return.

Everything is indexed 1-based in the public API (treatment j in 1..m, outcome
i in 1..n) to match the query notation; the first matrix index is always the
treatment.

A Dataset holds both tables as integers over one common denominator.
Ingest first writes each table over its own totals: an experimental row
over its row total, the observational table over its grand total. Counts
are kept as given. A probability cell is lifted to the closest rational
with denominator at most 10**9 (Fraction.limit_denominator); each row (or
the whole table) is then scaled to integers over the least common
denominator, so it sums to its denominator exactly. A plain int count or
float probability skips the abstract-type checks; any other cell (a bool, a
NumPy scalar) takes them, with the same messages.

Ingest then writes every cell and marginal over one common denominator
den, the lcm of the row totals and the grand total, by multiplication, and
keeps only those: the tables do and joint and the marginals px and py hold
the numerators of P(y_i | do x_j), P(x_j, y_i), P(x_j) and P(y_i). The
engine and the oracle both compute on these integers.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sized
from numbers import Integral, Real
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from pathlib import Path

# Slack for hand-typed probability files at ingest: a cell may lie this far
# outside [0, 1], and a row (or the observational table) may sum to 1 within
# it before it is renormalized exactly. The consistency check takes no slack:
# it runs exactly on the renormalized integers.
EPS_PROBS = 1e-6

# Slack for Interval.contains, which tests a float drawn apart from the data,
# and the engine's zero-evidence rule: evidence below this probability is
# refused. Engine and oracle ends need none: both round one exact rational.
EPS_NUM = 1e-9

# Denominator cap when recovering rationals from user-supplied floats.
_FLOAT_DENOMINATOR_LIMIT = 10**9


class DataError(ValueError):
    """Invalid dataset content."""


class ShapeMismatch(DataError):
    pass


class ZeroRowTotal(DataError):
    pass


class ZeroGrandTotal(DataError):
    pass


class _ProblemSpaceFields(NamedTuple):
    m: int
    n: int


class ProblemSpace(_ProblemSpaceFields):
    """m treatment values x_1..x_m and n outcome values y_1..y_n."""

    __slots__ = ()

    def __new__(cls, m, n):
        if m < 2 or n < 2:
            raise DataError(f"need at least two values per axis, got m={m}, n={n}")
        return super().__new__(cls, m, n)

    @classmethod
    def _make(cls, iterable):
        # Through __new__, so that _replace validates too.
        return cls(*iterable)


class Interval(NamedTuple):
    """A [lo, hi] identification interval, as both paths return it: each end
    one exact rational rounded once to a float.

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


class Violation(NamedTuple):
    """Cell (x_j, y_i) with P(y_i | do x_j) < P(x_j, y_i), by its gap rounded once."""

    j: int
    i: int
    magnitude: float


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]


class Infeasible(DataError):
    """The data admit no joint response-type distribution: the report's `violations`."""

    def __init__(self, message: str, violations: tuple[Violation, ...]):
        super().__init__(message)
        self.violations = violations


class Dataset(NamedTuple):
    """Both tables as integer numerators over one common denominator den.

    P(y_i | do x_j) = do[j-1][i-1] / den, every row summing to den;
    P(x_j, y_i) = joint[j-1][i-1] / den, the table summing to den; px and py
    are joint's row and column sums. Equal datasets have equal den and equal
    numerators, not just equal ratios.
    """

    space: ProblemSpace
    den: int
    do: tuple[tuple[int, ...], ...]
    joint: tuple[tuple[int, ...], ...]
    px: tuple[int, ...]
    py: tuple[int, ...]
    validation: ValidationReport

    def evidence(self, ex: int | None, ey: int | None) -> int:
        """The numerator over den of P(x_ex, y_ey), P(x_ex) or P(y_ey)."""
        if ey is None:
            return self.px[ex - 1]
        if ex is None:
            return self.py[ey - 1]
        return self.joint[ex - 1][ey - 1]

    def check_consistent(self) -> None:
        """Raise Infeasible unless the validation report is clean.

        The one feasibility rule, for bound and tight_bounds alike. Each
        row of the arm marginals is a transportation problem whose demands
        D_j(y) = P(y | do x_j) - P(x_j, y) must be >= 0: the data admit a
        model iff no cell is violated, so there is nothing to bound otherwise.
        """
        if self.validation.ok:
            return
        from fractions import Fraction

        j, i, _ = self.validation.violations[0]
        do = Fraction(self.do[j - 1][i - 1], self.den)
        joint = Fraction(self.joint[j - 1][i - 1], self.den)
        raise Infeasible(
            "experimental and observational data admit no joint response-type distribution: "
            f"P(y{i} | do x{j}) = {do} < P(x{j}, y{i}) = {joint}",
            self.validation.violations,
        )


def _is_row(value) -> bool:
    return type(value) in (list, tuple) or (
        isinstance(value, Sized) and not isinstance(value, (str, bytes))
    )


def _check_shape(matrix: Sequence[Sequence], space: ProblemSpace | None, what: str):
    if not _is_row(matrix):
        raise ShapeMismatch(f"{what}: expected a list of rows, got {matrix!r}")
    rows = len(matrix)
    if rows == 0:
        raise ShapeMismatch(f"{what}: empty matrix")
    for j, row in enumerate(matrix, start=1):
        if not _is_row(row):
            raise ShapeMismatch(f"{what}: row x{j} must be a list of cells, got {row!r}")
    cols = {len(row) for row in matrix}
    if len(cols) != 1:
        raise ShapeMismatch(f"{what}: ragged rows {sorted(cols)}")
    n = cols.pop()
    if space is not None and (rows, n) != (space.m, space.n):
        raise ShapeMismatch(f"{what}: expected {space.m}x{space.n}, got {rows}x{n}")
    return rows, n


def _lift(v: float) -> tuple[int, int]:
    """The closest rational p/q to max(0, v) with q <= _FLOAT_DENOMINATOR_LIMIT.

    Returns (p, q) in lowest terms.
    """
    from fractions import Fraction

    lifted = Fraction(max(0.0, float(v))).limit_denominator(_FLOAT_DENOMINATOR_LIMIT)
    return lifted.as_integer_ratio()


def _over_lcm(lifted: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Write lifted (p, q) values as integers over the lcm of their q.

    Returns (integers, lcm) with integers[k] / lcm == p/q exactly, so each
    renormalized value integers[k] / sum(integers) equals the lifted value
    over the lifted sum. All of it is int arithmetic; no Fraction is built.
    """
    scale = math.lcm(*(q for _, q in lifted))
    return [p * (scale // q) for p, q in lifted], scale


def _cells(table, counts: bool, side: str) -> list[list]:
    """Check and convert every cell: a count to int, a probability by _lift."""
    what = f"{side} counts" if counts else f"{side} probabilities"
    rows = []
    for j, row in enumerate(table, start=1):
        cells = []
        for i, v in enumerate(row, start=1):
            if type(v) is not (int if counts else float) and (
                isinstance(v, bool) or not isinstance(v, Integral if counts else Real)
            ):
                rule = "be nonnegative integers" if counts else "be numbers"
            elif counts:
                rule = None if v >= 0 else "be nonnegative integers"
            else:
                rule = None if -EPS_PROBS <= v <= 1.0 + EPS_PROBS else "lie in [0,1]"
            if rule:
                raise DataError(f"{what} must {rule}, got {v!r} at (x{j}, y{i})")
            cells.append(int(v) if counts else _lift(v))
        rows.append(cells)
    return rows


def _experimental(table, counts: bool) -> tuple[list, list]:
    """(num, den): each row over its own total.

    A probability row must sum to 1 within EPS_PROBS.
    """
    num, den = [], []
    for j, row in enumerate(_cells(table, counts, "experimental"), start=1):
        ints, scale = (row, 1) if counts else _over_lcm(row)
        total = sum(ints)
        if counts and total <= 0:
            raise ZeroRowTotal(f"experimental row for x{j} has zero total")
        if not counts and abs(total / scale - 1.0) > EPS_PROBS:
            raise DataError(f"experimental row for x{j} sums to {total / scale}, expected 1")
        num.append(ints)
        den.append(total)
    return num, den


def _observational(table, counts: bool) -> tuple[list, int]:
    """(num, den): every cell over the grand total, checked as _experimental checks a row."""
    rows = _cells(table, counts, "observational")
    flat = [c for row in rows for c in row]
    ints, scale = (flat, 1) if counts else _over_lcm(flat)
    grand = sum(ints)
    if counts and grand <= 0:
        raise ZeroGrandTotal("observational counts have zero grand total")
    if not counts and abs(grand / scale - 1.0) > EPS_PROBS:
        raise DataError(f"observational table sums to {grand / scale}, expected 1")
    n = len(rows[0])
    return [ints[k : k + n] for k in range(0, len(ints), n)], grand


def _ingest(
    exp_table, obs_table, exp_counts: bool, obs_counts: bool, space: ProblemSpace | None = None
) -> Dataset:
    """The one ingest pipeline behind the three public builders.

    Shapes first: with a space (JSON) each table must match it, without one
    the two tables must agree. Then each table is checked and converted, the
    experimental one first, every cell before any total; a space built from
    the shapes comes last. The report checks P(x_j, y_i) <= P(y_i | do x_j)
    in every cell.

    The check is exact: both sides are compared as integers over den. The
    data admit a joint response-type distribution iff no cell fails, so the
    report is the feasibility test: Dataset.check_consistent raises
    Infeasible from it.

    The upper end of the consistency envelope, P(y_i | do x_j) <=
    P(x_j, y_i) + 1 - P(x_j), needs no check of its own. Ingest makes every
    row sum exactly, so sum_i (P(y_i | do x_j) - P(x_j, y_i)) = 1 - P(x_j):
    a cell over its upper end leaves less than nothing for the rest of its
    row, and another cell of that row fails the lower check.
    """
    if space is None:
        form = "counts" if exp_counts else "probs"
        m, n = _check_shape(exp_table, None, f"experimental {form}")
        m2, n2 = _check_shape(obs_table, None, f"observational {form}")
        if (m, n) != (m2, n2):
            raise ShapeMismatch(f"experimental {m}x{n} vs observational {m2}x{n2}")
    else:
        _check_shape(exp_table, space, "experimental table")
        _check_shape(obs_table, space, "observational table")
    exp_rows, row_totals = _experimental(exp_table, exp_counts)
    obs_rows, grand = _observational(obs_table, obs_counts)
    den = math.lcm(grand, *row_totals)
    do = tuple([tuple([c * (den // d) for c in row]) for row, d in zip(exp_rows, row_totals)])
    scale = den // grand
    joint = tuple([tuple([c * scale for c in row]) for row in obs_rows])
    violations = []
    for j, (do_row, xy_row) in enumerate(zip(do, joint), start=1):
        for i, (do_cell, xy) in enumerate(zip(do_row, xy_row), start=1):
            if xy > do_cell:
                violations.append(Violation(j, i, (xy - do_cell) / den))
    return Dataset(
        space or ProblemSpace(m, n),
        den,
        do,
        joint,
        tuple([sum(row) for row in joint]),
        tuple([sum(col) for col in zip(*joint)]),
        ValidationReport(not violations, tuple(violations)),
    )


def dataset_from_counts(
    exp_counts: Sequence[Sequence[int]], obs_counts: Sequence[Sequence[int]]
) -> Dataset:
    """Build a Dataset from two count tables.

    Experimental rows are normalized per treatment arm; observational counts
    are normalized by the grand total. Every probability is an exact integer
    ratio, so count tables reproduce to full precision regardless of parse
    order.
    """
    return _ingest(exp_counts, obs_counts, True, True)


def dataset_from_probs(
    exp_probs: Sequence[Sequence[float]], obs_probs: Sequence[Sequence[float]]
) -> Dataset:
    """Build a Dataset from probability tables (hand-typed tolerance).

    Each value is lifted to a rational and the rows/total renormalized
    exactly, so the sum constraints hold with equality downstream; tables off
    by more than EPS_PROBS are rejected instead.
    """
    return _ingest(exp_probs, obs_probs, False, False)


def dataset_from_json(doc: dict) -> Dataset:
    """Build a Dataset from the JSON schema.

    Required keys: "treatments" and "outcomes" (lists of unique labels,
    whose lengths give m and n; the labels are not kept), plus exactly one
    of "experimental_counts"/"experimental_probs" and exactly one of
    "observational_counts"/"observational_probs".
    """
    if not isinstance(doc, dict):
        raise DataError("dataset document must be a JSON object")
    for key in ("treatments", "outcomes"):
        if key not in doc or not isinstance(doc[key], list) or not all(
            isinstance(s, str) for s in doc[key]
        ):
            raise DataError(f'dataset needs a "{key}" list of strings')
    space = ProblemSpace(len(doc["treatments"]), len(doc["outcomes"]))
    for key, axis in (("treatments", "treatment"), ("outcomes", "outcome")):
        if len(set(doc[key])) != len(doc[key]):
            raise DataError(f"{axis} labels must be unique")

    def pick(prefix: str):
        counts_key, probs_key = f"{prefix}_counts", f"{prefix}_probs"
        present = [k for k in (counts_key, probs_key) if k in doc]
        if len(present) != 1:
            raise DataError(f'need exactly one of "{counts_key}" or "{probs_key}"')
        return doc[present[0]], present[0] == counts_key

    exp_table, exp_counts = pick("experimental")
    obs_table, obs_counts = pick("observational")
    return _ingest(exp_table, obs_table, exp_counts, obs_counts, space)


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
    return dataset_from_json(doc)
