import pytest

from pocbounds.model import ProblemSpace
from pocbounds.queryir import (
    EXACT,
    STANDARD,
    ZERO,
    CanonicalQuery,
    CounterfactualTerm,
    IndexOutOfRange,
    Query,
    QuerySyntaxError,
    UnsupportedQuery,
    canonicalize,
    format_query,
    parse_query,
    validate_indices,
)

SPACE = ProblemSpace(3, 3)


def T(j, i):
    return CounterfactualTerm(j, i)


class TestParse:
    def test_single_term(self):
        q = parse_query("P(y1_x2)", SPACE)
        assert q.terms == (T(2, 1),)
        assert q.evidence_x is None and q.evidence_y is None
        assert not q.conditional

    def test_conjunction(self):
        q = parse_query("P(y3_x1, y1_x2, y2_x3)", SPACE)
        assert q.terms == (T(1, 3), T(2, 1), T(3, 2))

    def test_joint_evidence(self):
        q = parse_query("P(y1_x2, x1, y3)", SPACE)
        assert q.terms == (T(2, 1),)
        assert q.evidence_x == 1
        assert q.evidence_y == 3
        assert not q.conditional

    def test_conditional(self):
        q = parse_query("P(y1_x3 | x2, y2)", SPACE)
        assert q.terms == (T(3, 1),)
        assert (q.evidence_x, q.evidence_y) == (2, 2)
        assert q.conditional

    def test_evidence_left_of_bar(self):
        q = parse_query("P(y1_x3, x2 | y2)", SPACE)
        assert q.conditional
        assert (q.evidence_x, q.evidence_y) == (2, 2)

    def test_whitespace_insensitive(self):
        q = parse_query("  P ( y1_x2 ,x1|y2 )  ", SPACE)
        assert q.terms == (T(2, 1),)
        assert (q.evidence_x, q.evidence_y) == (1, 2)
        assert q.conditional

    def test_multi_digit_indices(self):
        space = ProblemSpace(12, 11)
        q = parse_query("P(y11_x12)", space)
        assert q.terms == (T(12, 11),)

    @pytest.mark.parametrize(
        "text",
        ["", "  ", "Q(y1_x1)", "P y1_x1)", "P(", "P()", "P(y1_x1", "P(y1_x1,)",
         "P(y1_x1 y2_x2)", "P(,y1_x1)", "P(y1_x1) extra", "P(|x1)", "P(y1_x1||x1)",
         "P(z1)", "P(y_)"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(QuerySyntaxError):
            parse_query(text, SPACE)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "empty query", 0),
            (" \t\xa0", "empty query", 0),
            ("Q(y1_x1)", "expected 'P'", 0),
            ("  y1_x1", "expected 'P'", 2),
            ("P y1_x1)", "expected '('", 2),
            ("P", "expected '('", 1),
            ("P(", "unterminated query, expected ')'", 2),
            ("P(y1_x1 ", "unterminated query, expected ')'", 8),
            ("P()", "expected an event before ')'", 2),
            ("P(y1_x1, )", "expected an event before ')'", 9),
            ("P(,y1_x1)", "unexpected ','", 2),
            ("P(y1_x1 | ,x1)", "unexpected ','", 10),
            ("P(|x1)", "unexpected '|'", 2),
            ("P(y1_x1 | x1 | y1)", "unexpected '|'", 13),
            ("P(y1_x1 y2_x2)", "expected ',', '|' or ')'", 8),
            ("P(y1_x1_x2)", "expected ',', '|' or ')'", 7),
            ("P(y1_x1, z9)", "expected an event like y1_x2, x2 or y1", 9),
            ("P(\xa0y_)", "expected an event like y1_x2, x2 or y1", 3),
            ("P(y1_x1) extra", "trailing input after ')'", 9),
            ("P(y1_x1)\xa0)", "trailing input after ')'", 9),
        ],
    )
    def test_syntax_error_reports_position(self, text, message, position):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query(text, SPACE)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    @pytest.mark.parametrize("text", ["P(y1_x4)", "P(y4_x1)", "P(y1_x1, x9)", "P(y1_x1 | y7)"])
    def test_index_out_of_range(self, text):
        with pytest.raises(IndexOutOfRange):
            parse_query(text, SPACE)

    @pytest.mark.parametrize(
        "text",
        ["P(x1)", "P(x1, y2)", "P(y1_x1, x1, x2)", "P(y1_x1, y1, y2)",
         "P(y1_x1 | y2_x2)", "P(y1_x1 | )", "P(y1_x1, x2 |)"],
    )
    def test_unsupported_forms(self, text):
        with pytest.raises((UnsupportedQuery, QuerySyntaxError)):
            parse_query(text, SPACE)

    def test_zero_index_rejected(self):
        with pytest.raises(IndexOutOfRange):
            parse_query("P(y0_x1)", SPACE)
        with pytest.raises(IndexOutOfRange):
            parse_query("P(y1_x0)", SPACE)


class TestQueryType:
    def test_terms_required(self):
        with pytest.raises(UnsupportedQuery):
            Query(terms=())

    def test_conditional_requires_evidence(self):
        with pytest.raises(UnsupportedQuery):
            Query(terms=(T(1, 1),), conditional=True)

    def test_terms_coerced_to_tuple(self):
        q = Query(terms=[T(1, 1)])
        assert isinstance(q.terms, tuple)

    def test_validate_indices(self):
        validate_indices(Query(terms=(T(3, 3),)), SPACE)
        with pytest.raises(IndexOutOfRange):
            validate_indices(Query(terms=(T(4, 1),)), SPACE)
        with pytest.raises(IndexOutOfRange):
            validate_indices(Query(terms=(T(1, 9),)), SPACE)
        with pytest.raises(IndexOutOfRange):
            validate_indices(Query(terms=(T(1, 1),), evidence_x=9), SPACE)
        with pytest.raises(IndexOutOfRange):
            validate_indices(Query(terms=(T(1, 1),), evidence_y=9), SPACE)


class TestCanonicalize:
    def test_sorts_by_treatment(self):
        cq = canonicalize(Query(terms=(T(3, 2), T(1, 3), T(2, 1))))
        assert cq.kind == STANDARD
        assert cq.terms == (T(1, 3), T(2, 1), T(3, 2))

    def test_duplicates_merged(self):
        cq = canonicalize(Query(terms=(T(1, 2), T(1, 2), T(2, 1))))
        assert cq.terms == (T(1, 2), T(2, 1))

    def test_conflicting_outcomes_zero(self):
        cq = canonicalize(Query(terms=(T(1, 2), T(1, 3))))
        assert cq.kind == ZERO

    def test_absorption_into_evidence(self):
        cq = canonicalize(Query(terms=(T(3, 1),), evidence_x=3))
        assert cq.kind == EXACT
        assert (cq.evidence_x, cq.evidence_y) == (3, 1)

    def test_absorption_conflicting_outcome_zero(self):
        cq = canonicalize(Query(terms=(T(3, 1),), evidence_x=3, evidence_y=2))
        assert cq.kind == ZERO

    def test_absorption_matching_outcome(self):
        cq = canonicalize(Query(terms=(T(3, 1),), evidence_x=3, evidence_y=1))
        assert cq.kind == EXACT
        assert (cq.evidence_x, cq.evidence_y) == (3, 1)

    def test_partial_absorption_keeps_other_terms(self):
        cq = canonicalize(Query(terms=(T(1, 2), T(3, 1)), evidence_x=3))
        assert cq.kind == STANDARD
        assert cq.terms == (T(1, 2),)
        assert (cq.evidence_x, cq.evidence_y) == (3, 1)

    def test_divisor_preserves_original_evidence(self):
        cq = canonicalize(Query(terms=(T(3, 1),), evidence_x=3, conditional=True))
        assert cq.kind == EXACT
        assert (cq.evidence_x, cq.evidence_y) == (3, 1)
        # divides by P(x3), not by the absorbed joint (x3, y1)
        assert (cq.divisor_x, cq.divisor_y) == (3, None)

    def test_divisor_unset_for_joint_queries(self):
        cq = canonicalize(Query(terms=(T(1, 1),), evidence_x=2))
        assert (cq.divisor_x, cq.divisor_y) == (None, None)
        assert not cq.conditional

    def test_standard_keeps_evidence(self):
        cq = canonicalize(Query(terms=(T(1, 1),), evidence_x=2, evidence_y=3, conditional=True))
        assert cq.kind == STANDARD
        assert (cq.evidence_x, cq.evidence_y) == (2, 3)
        assert (cq.divisor_x, cq.divisor_y) == (2, 3)


class TestFormat:
    def test_joint_form(self):
        q = Query(terms=(T(1, 3), T(2, 1)), evidence_x=3, evidence_y=2)
        assert format_query(q) == "P(y3_x1, y1_x2, x3, y2)"

    def test_conditional_form(self):
        q = Query(terms=(T(3, 1),), evidence_x=2, evidence_y=2, conditional=True)
        assert format_query(q) == "P(y1_x3 | x2, y2)"

    def test_round_trip(self):
        texts = ["P(y1_x1)", "P(y3_x1, y1_x2, y2_x3)", "P(y1_x3 | x2, y2)", "P(y1_x2, x1, y3)"]
        for text in texts:
            q = parse_query(text, SPACE)
            assert parse_query(format_query(q), SPACE) == q
