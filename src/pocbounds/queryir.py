"""Query syntax, parser, and canonicalization.

Grammar (whitespace insignificant, indices 1-based):

    query  := "P(" events ( "|" events )? ")"
    events := event ("," event)*
    event  := OUTCOME "_" TREATMENT | TREATMENT | OUTCOME
    TREATMENT := "x" INT
    OUTCOME   := "y" INT

A query is a conjunction of counterfactual terms y_i under do(x_j), plus at
most one bare treatment event and at most one bare outcome event (the
observed evidence). The bar marks conditioning; evidence events may sit on
either side of it, and conditioning always divides by the probability of all
evidence present. Counterfactual terms may only appear left of the bar.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .model import EPS_NUM, Dataset, ProblemSpace

ZERO = "zero"
EXACT = "exact"
STANDARD = "standard"


class QuerySyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class IndexOutOfRange(ValueError):
    pass


class UnsupportedQuery(ValueError):
    pass


class ZeroEvidenceProbability(ValueError):
    """Conditioning on evidence whose probability is (numerically) zero."""

    def __init__(self, label: str, value: float):
        super().__init__(f"evidence {label} has probability {value!r}; cannot condition on it")


class CounterfactualTerm(NamedTuple):
    """The event: Y would be y_{outcome} had X been x_{treatment}.

    Terms sort by (treatment, outcome).
    """

    treatment: int
    outcome: int


class _QueryFields(NamedTuple):
    terms: tuple[CounterfactualTerm, ...]
    evidence_x: int | None = None
    evidence_y: int | None = None
    conditional: bool = False


class Query(_QueryFields):
    """A conjunction of counterfactual terms, with optional observed evidence."""

    __slots__ = ()

    def __new__(cls, terms, evidence_x=None, evidence_y=None, conditional=False):
        terms = tuple(terms)
        if not terms:
            raise UnsupportedQuery("a query needs at least one counterfactual term")
        if conditional and evidence_x is None and evidence_y is None:
            raise UnsupportedQuery("conditional queries need observed evidence")
        return super().__new__(cls, terms, evidence_x, evidence_y, conditional)

    @classmethod
    def _make(cls, iterable):
        # Through __new__, so that _replace validates too.
        return cls(*iterable)


class CanonicalQuery(NamedTuple):
    """Normal form the engine dispatches on.

    kind "zero": the event is impossible. kind "exact": the event reduced to
    observational content (a joint cell or marginal given by evidence_x /
    evidence_y). kind "standard": terms with strictly increasing distinct
    treatments and evidence_x outside them, matching the theorem
    preconditions literally.

    The divisor fields keep the original evidence of a conditional query,
    and are None for any other; absorption can grow the event's evidence
    (P(y1_x3 | x3) has event evidence (x3, y1) but still divides by P(x3)
    only).
    """

    kind: str
    terms: tuple[CounterfactualTerm, ...] = ()
    evidence_x: int | None = None
    evidence_y: int | None = None
    divisor_x: int | None = None
    divisor_y: int | None = None

    @property
    def conditional(self) -> bool:
        return self.divisor_x is not None or self.divisor_y is not None


def divisor(dataset: Dataset, cq: CanonicalQuery) -> int:
    """The divisor of both ends of cq, as a numerator over den.

    The one conditioning rule, in engine.bound and the oracle: den for a
    joint query, else the numerator of the original evidence P(x, y), P(x)
    or P(y); evidence below EPS_NUM raises ZeroEvidenceProbability.
    """
    if not cq.conditional:
        return dataset.den
    value = dataset.evidence(cq.divisor_x, cq.divisor_y)
    if value / dataset.den < EPS_NUM:
        label = subquery_label((), cq.divisor_x, cq.divisor_y)
        raise ZeroEvidenceProbability(label, value / dataset.den)
    return value


# One token per match: an event (groups 2-5) or any other single character
# (group 6), each after optional whitespace.
_TOKEN_RE = re.compile(r"\s*(y(\d+)_x(\d+)|x(\d+)|y(\d+)|(\S))")


def parse_query(text: str, space: ProblemSpace) -> Query:
    """Parse the textual grammar, then check its indices with validate_indices.

    A syntax error raises QuerySyntaxError with its position, and an
    unsupported form UnsupportedQuery, before any index is looked at. Only
    then are the indices range-checked, so an IndexOutOfRange names the index
    and the space's size, not a position.
    """
    tokens = _TOKEN_RE.finditer(text)
    tok = next(tokens, None)
    if tok is None:  # the text is empty or all whitespace
        raise QuerySyntaxError("empty query", 0)
    if tok[6] != "P":
        raise QuerySyntaxError("expected 'P'", tok.start(1))
    tok = next(tokens, None)
    if tok is None or tok[6] != "(":
        raise QuerySyntaxError("expected '('", len(text) if tok is None else tok.start(1))

    terms: list[CounterfactualTerm] = []
    bare_x: list[int] = []
    bare_y: list[int] = []
    seen_bar = False
    expect_event = True
    for tok in tokens:
        _, yo, xt, bx, by, ch = tok.groups()
        if ch == ")":
            if expect_event:
                raise QuerySyntaxError("expected an event before ')'", tok.start(1))
            break
        if ch == ",":
            if expect_event:
                raise QuerySyntaxError("unexpected ','", tok.start(1))
            expect_event = True
            continue
        if ch == "|":
            if expect_event or seen_bar:
                raise QuerySyntaxError("unexpected '|'", tok.start(1))
            seen_bar = expect_event = True
            continue
        if not expect_event:
            raise QuerySyntaxError("expected ',', '|' or ')'", tok.start(1))
        if ch is not None:
            raise QuerySyntaxError("expected an event like y1_x2, x2 or y1", tok.start(1))
        if yo is not None:
            if seen_bar:
                raise UnsupportedQuery(
                    "cannot condition on a counterfactual term "
                    f"(y{yo}_x{xt} appears right of '|')"
                )
            terms.append(CounterfactualTerm(int(xt), int(yo)))
        elif bx is not None:
            bare_x.append(int(bx))
        else:
            bare_y.append(int(by))
        expect_event = False
    else:
        raise QuerySyntaxError("unterminated query, expected ')'", len(text))
    tail = next(tokens, None)
    if tail is not None:
        raise QuerySyntaxError("trailing input after ')'", tail.start(1))

    if len(bare_x) > 1:
        raise UnsupportedQuery("at most one bare treatment event is allowed")
    if len(bare_y) > 1:
        raise UnsupportedQuery("at most one bare outcome event is allowed")
    query = Query(
        terms=tuple(terms),
        evidence_x=bare_x[0] if bare_x else None,
        evidence_y=bare_y[0] if bare_y else None,
        conditional=seen_bar,
    )
    validate_indices(query, space)
    return query


def validate_indices(query: Query, space: ProblemSpace) -> None:
    """Raise IndexOutOfRange unless every index of query lies in the space.

    The one range check, for parsed and programmatically built queries alike:
    terms first, then the evidence; the message names the first bad index.
    """
    for t in query.terms:
        if not 1 <= t.treatment <= space.m:
            raise IndexOutOfRange(f"x{t.treatment} out of range (m={space.m})")
        if not 1 <= t.outcome <= space.n:
            raise IndexOutOfRange(f"y{t.outcome} out of range (n={space.n})")
    if query.evidence_x is not None and not 1 <= query.evidence_x <= space.m:
        raise IndexOutOfRange(f"x{query.evidence_x} out of range (m={space.m})")
    if query.evidence_y is not None and not 1 <= query.evidence_y <= space.n:
        raise IndexOutOfRange(f"y{query.evidence_y} out of range (n={space.n})")


def restrict_to_arm(terms, arm: int, observed: int | None):
    """The event in treatment arm x_arm, as (other terms, observed outcome).

    In arm x_arm the world under do(x_arm) is the actual one, so a term on
    x_arm is the observed outcome: it must agree with an observed y, and then
    takes its place. Returns None when it disagrees (the event is impossible
    in this arm). The other terms keep their order.
    """
    rest = []
    for t in terms:
        if t.treatment != arm:
            rest.append(t)
        elif observed is not None and observed != t.outcome:
            return None
        else:
            observed = t.outcome
    return tuple(rest), observed


def canonicalize(query: Query) -> CanonicalQuery:
    """Normalize a query before the engine sees it.

    Duplicate terms are merged; two terms assigning different outcomes to the
    same treatment make the event impossible; a term whose treatment equals
    the evidence treatment is absorbed into observational evidence by the
    consistency rule of restrict_to_arm (or kills the event if the evidence
    outcome disagrees); remaining terms are sorted by treatment.
    """
    # The divisor fields, set only for a conditional query.
    divides = {}
    if query.conditional:
        divides = {"divisor_x": query.evidence_x, "divisor_y": query.evidence_y}

    by_treatment: dict[int, CounterfactualTerm] = {}
    for t in query.terms:
        kept = by_treatment.setdefault(t.treatment, t)
        if kept.outcome != t.outcome:
            # Y under do(x_j) is a single value; it cannot be two outcomes.
            return CanonicalQuery(ZERO, **divides)
    remaining = tuple(sorted(by_treatment.values()))
    ex, ey = query.evidence_x, query.evidence_y
    if ex is not None:
        arm = restrict_to_arm(remaining, ex, ey)
        if arm is None:
            return CanonicalQuery(ZERO, **divides)
        remaining, ey = arm
    if not remaining:
        return CanonicalQuery(EXACT, evidence_x=ex, evidence_y=ey, **divides)
    return CanonicalQuery(STANDARD, remaining, ex, ey, **divides)


def _event_text(terms, evidence_x, evidence_y) -> str:
    parts = [f"y{t.outcome}_x{t.treatment}" for t in terms]
    if evidence_x is not None:
        parts.append(f"x{evidence_x}")
    if evidence_y is not None:
        parts.append(f"y{evidence_y}")
    return ", ".join(parts)


def format_query(query: Query) -> str:
    """Render a query in the grammar; parse(format(q)) canonicalizes like q."""
    body = _event_text(query.terms, None, None)
    evidence = _event_text((), query.evidence_x, query.evidence_y)
    if query.conditional:
        return f"P({body} | {evidence})"
    if evidence:
        return f"P({body}, {evidence})"
    return f"P({body})"


def subquery_label(terms, evidence_x=None, evidence_y=None) -> str:
    """Joint-form label for trace nodes."""
    return f"P({_event_text(terms, evidence_x, evidence_y)})"
