import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocbounds import model
from pocbounds.model import (
    DataError,
    Interval,
    ProblemSpace,
    ShapeMismatch,
    ZeroGrandTotal,
    ZeroRowTotal,
    dataset_from_counts,
    dataset_from_json,
    dataset_from_probs,
    load_dataset,
    _lift,
    _over_lcm,
)

from conftest import MALFORMED_JSON, exact

EXP_2x2 = [[6, 4], [3, 7]]
OBS_2x2 = [[3, 1], [2, 4]]


class TestProblemSpace:
    def test_minimum_axis_sizes(self):
        with pytest.raises(DataError):
            ProblemSpace(1, 2)
        with pytest.raises(DataError):
            ProblemSpace(2, 1)


class TestInterval:
    def test_width_and_midpoint(self):
        iv = Interval(0.2, 0.5)
        assert math.isclose(iv.width, 0.3)
        assert math.isclose(iv.midpoint, 0.35)

    def test_contains_with_tolerance(self):
        iv = Interval(0.2, 0.5)
        assert iv.contains(0.2)
        assert iv.contains(0.5)
        assert iv.contains(0.2 - 1e-12)
        assert not iv.contains(0.19)
        assert not iv.contains(0.51)

    def test_iter_unpacks(self):
        lo, hi = Interval(0.25, 0.75)
        assert (lo, hi) == (0.25, 0.75)

    def test_point_interval(self):
        iv = Interval(0.4, 0.4)
        assert iv.width == 0.0
        assert iv.contains(0.4)


class TestCountsIngestion:
    def test_exact_row_normalization(self, treatment):
        assert exact(treatment, "do", 1, 3) == Fraction(213, 300)
        assert (treatment.den, treatment.do[0][2]) == (900, 3 * 213)

    def test_exact_grand_normalization(self, treatment):
        assert exact(treatment, "joint", 1, 3) == Fraction(7, 900)
        assert treatment.joint[2][1] == 72

    def test_marginals(self, treatment):
        assert exact(treatment, "px", 1) == Fraction(238 + 20 + 7, 900)
        assert exact(treatment, "py", 1) == Fraction(238 + 10 + 147, 900)
        assert treatment.px[1] == 10 + 77 + 259
        assert treatment.py[2] == 7 + 259 + 70
        assert treatment.evidence(2, None) == treatment.px[1]
        assert treatment.evidence(None, 3) == treatment.py[2]
        assert treatment.evidence(3, 2) == treatment.joint[2][1]

    def test_rows_are_treatments(self):
        ds = dataset_from_counts(EXP_2x2, OBS_2x2)
        assert exact(ds, "do", 1, 1) == Fraction(6, 10)
        assert exact(ds, "do", 2, 1) == Fraction(3, 10)
        assert exact(ds, "joint", 1, 2) == Fraction(1, 10)

    def test_matrices_immutable(self, treatment):
        with pytest.raises(TypeError):
            treatment.do[0][0] = 1
        with pytest.raises(TypeError):
            treatment.joint[0][0] = 1


class TestProbsIngestion:
    def test_lift_recovers_simple_ratios(self):
        ds = dataset_from_probs(
            [[0.6, 0.4], [0.3, 0.7]],
            [[0.3, 0.1], [0.2, 0.4]],
        )
        assert exact(ds, "do", 1, 1) == Fraction(3, 5)
        assert exact(ds, "joint", 2, 2) == Fraction(2, 5)

    def test_row_sum_tolerance(self):
        # a row and the total off by 1e-7: inside the hand-typed tolerance
        ds = dataset_from_probs(
            [[0.6 + 1e-7, 0.4], [0.3, 0.7]],
            [[0.3, 0.1], [0.2, 0.4 - 1e-7]],
        )
        assert exact(ds, "do", 1, 1) + exact(ds, "do", 1, 2) == 1  # renormalized exactly
        assert ds.validation.ok


@st.composite
def count_tables(draw):
    """Random count tables with no empty experimental row; any consistency."""
    m, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    cells = st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n), min_size=m, max_size=m)
    exp = draw(cells.filter(lambda t: all(map(sum, t))))
    obs = draw(cells.filter(lambda t: sum(map(sum, t))))
    return exp, obs


class TestValidation:
    def test_paper_tables_consistent(self, treatment, institute, vaccine):
        for ds in (treatment, institute, vaccine):
            assert ds.validation.ok
            assert ds.validation.violations == ()

    def test_lower_violation_detected(self):
        # P(x1,y1)=0.5 > P(y1|do(x1))=0.2
        ds = dataset_from_counts([[2, 8], [5, 5]], [[5, 0], [2, 3]])
        assert not ds.validation.ok
        assert (1, 1) in {(v.j, v.i) for v in ds.validation.violations}

    def test_upper_violation_detected(self):
        # P(y1|do(x1))=1.0 > P(x1,y1)+1-P(x1) = 0.1+1-0.5, by 0.4; the row's
        # other cell, P(y2|do(x1))=0.0 < P(x1,y2)=0.4, names the breach
        ds = dataset_from_counts([[10, 0], [5, 5]], [[1, 4], [2, 3]])
        assert not ds.validation.ok
        assert ds.validation.violations == ((1, 2, 0.4),)

    def test_violation_magnitude(self):
        ds = dataset_from_counts([[2, 8], [5, 5]], [[5, 0], [2, 3]])
        (v,) = ds.validation.violations
        assert v.magnitude == pytest.approx(0.5 - 0.2, abs=1e-12)

    def test_gap_inside_probability_slack_fails(self):
        # P(x1, y1) exceeds P(y1 | do x1) by 5e-7, inside the 1e-6 ingest slack
        ds = dataset_from_probs([[0.3, 0.7], [0.5, 0.5]], [[0.3000005, 0.1999995], [0.2, 0.3]])
        assert not ds.validation.ok
        assert ds.validation.violations == ((1, 1, 5e-7),)

    @settings(max_examples=200)
    @given(tables=count_tables())
    def test_report_is_the_exact_rule(self, tables):
        exp, obs = tables
        ds = dataset_from_counts(exp, obs)
        expected, consistent = [], True
        for j, i in itertools.product(range(1, len(exp) + 1), range(1, len(exp[0]) + 1)):
            do, xy = exact(ds, "do", j, i), exact(ds, "joint", j, i)
            if xy > do:
                expected.append((j, i, float(xy - do)))
            consistent &= xy <= do <= xy + 1 - exact(ds, "px", j)
        assert list(ds.validation.violations) == expected
        # the report checks one end only, and still decides the two-sided rule
        assert ds.validation.ok == consistent


class TestJsonIngestion:
    def doc(self, **overrides):
        doc = {
            "treatments": ["x1", "x2"],
            "outcomes": ["y1", "y2"],
            "experimental_counts": EXP_2x2,
            "observational_counts": OBS_2x2,
        }
        doc.update(overrides)
        return doc

    def test_counts_document(self):
        ds = dataset_from_json(self.doc())
        assert ds.space == ProblemSpace(2, 2)
        assert exact(ds, "do", 1, 1) == Fraction(3, 5)

    def test_probs_document(self):
        doc = self.doc()
        del doc["experimental_counts"]
        del doc["observational_counts"]
        doc["experimental_probs"] = [[0.6, 0.4], [0.3, 0.7]]
        doc["observational_probs"] = [[0.3, 0.1], [0.2, 0.4]]
        ds = dataset_from_json(doc)
        assert exact(ds, "do", 2, 2) == Fraction(7, 10)

    def test_mixed_counts_and_probs(self):
        doc = self.doc()
        del doc["observational_counts"]
        doc["observational_probs"] = [[0.3, 0.1], [0.2, 0.4]]
        ds = dataset_from_json(doc)
        assert exact(ds, "do", 1, 1) == Fraction(3, 5)
        assert exact(ds, "joint", 2, 2) == Fraction(2, 5)

    def test_both_forms_rejected(self):
        doc = self.doc()
        doc["experimental_probs"] = [[0.6, 0.4], [0.3, 0.7]]
        with pytest.raises(DataError):
            dataset_from_json(doc)

    def test_neither_form_rejected(self):
        doc = self.doc()
        del doc["experimental_counts"]
        with pytest.raises(DataError):
            dataset_from_json(doc)

    def test_missing_labels_rejected(self):
        doc = self.doc()
        del doc["treatments"]
        with pytest.raises(DataError):
            dataset_from_json(doc)

    def test_label_table_shape_cross_checked(self):
        doc = self.doc(treatments=["x1", "x2", "x3"])
        with pytest.raises(ShapeMismatch):
            dataset_from_json(doc)

    def test_load_dataset_round_trip(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(self.doc()))
        ds = load_dataset(path)
        assert exact(ds, "do", 1, 1) == Fraction(3, 5)

    def test_load_dataset_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_dataset(path)

    @pytest.mark.parametrize("kind", sorted(MALFORMED_JSON))
    def test_load_dataset_malformed_file(self, tmp_path, kind):
        path = tmp_path / "bad.json"
        path.write_bytes(MALFORMED_JSON[kind])
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert type(info.value) is DataError
        assert str(info.value).startswith(f"{path}: invalid JSON: ")

    def test_load_dataset_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope.json")


class TestFloatExactAgreement:
    def test_float_matrix_derived_from_exact(self, vaccine):
        # An end the engine rounds once, numerator / den, is float() of the exact ratio.
        for j, i in itertools.product((1, 2), (1, 2, 3, 4)):
            for table in ("do", "joint"):
                cell = getattr(vaccine, table)[j - 1][i - 1]
                assert cell / vaccine.den == float(exact(vaccine, table, j, i))

    def test_numpy_matrix_matches_accessors(self, institute):
        assert all(sum(row) == institute.den for row in institute.do)
        assert sum(map(sum, institute.joint)) == institute.den


@st.composite
def large_count_tables(draw):
    """Count tables up to 6x6 with cells up to 10**6; any consistency."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    cell = st.integers(0, 10**6)
    exp = [draw(st.lists(cell, min_size=n, max_size=n).filter(any)) for _ in range(m)]
    obs = [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(m)]
    if not any(map(any, obs)):
        obs[0][0] = 1
    return exp, obs


@st.composite
def prob_row(draw, size):
    """size probabilities summing to 1 in floats, with unrelated denominators."""
    ratios = st.integers(1, 10**6).flatmap(lambda b: st.tuples(st.integers(0, b), st.just(b)))
    head = [a / (b * size) for a, b in draw(st.lists(ratios, min_size=size - 1, max_size=size - 1))]
    return head + [1.0 - sum(head)]


@st.composite
def prob_tables(draw):
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    exp = [draw(prob_row(n)) for _ in range(m)]
    flat = draw(prob_row(m * n))
    obs = [flat[j * n : (j + 1) * n] for j in range(m)]
    return exp, obs


def stdlib_lift(v):
    """The rational that probability cells are lifted to, by the stdlib's own algorithm."""
    return Fraction(max(0.0, v)).limit_denominator(10**9)


class TestLift:
    """What `_lift` adds to the stdlib's limit_denominator, against literal rationals.

    TestIntegerLayout.test_probability_tables checks ingest against the
    stdlib lift on random tables.
    """

    @pytest.mark.parametrize(
        "v, expected",
        [
            pytest.param(0.0, (0, 1), id="0.0"),
            pytest.param(-0.0, (0, 1), id="-0.0"),
            pytest.param(-1e-6, (0, 1), id="-1e-06"),
            pytest.param(5e-324, (0, 1), id="5e-324"),
            pytest.param(1.0, (1, 1), id="1.0"),
            pytest.param(1.0 + 1e-6, (1000001, 1000000), id="1.000001"),
            pytest.param(1 / 3, (1, 3), id="0.3333333333333333"),
            pytest.param(0.1, (1, 10), id="0.1"),
            pytest.param(np.float64(0.1), (1, 10), id="float64(0.1)"),
            pytest.param(np.float64(-0.0), (0, 1), id="float64(-0.0)"),
        ],
    )
    def test_special_values(self, v, expected):
        assert _lift(v) == expected

    @pytest.mark.parametrize(
        "limit, expected",
        [
            pytest.param(1, [(0, 1), (0, 1), (0, 1), (0, 1)], id="1"),
            pytest.param(2, [(0, 1), (1, 2), (1, 2), (0, 1)], id="2"),
            pytest.param(3, [(1, 3), (1, 2), (1, 3), (0, 1)], id="3"),
            pytest.param(7, [(1, 4), (1, 2), (1, 3), (1, 7)], id="7"),
            pytest.param(10, [(1, 4), (1, 2), (1, 3), (1, 7)], id="10"),
            pytest.param(64, [(1, 4), (1, 2), (1, 3), (9, 62)], id="64"),
            pytest.param(1000, [(1, 4), (1, 2), (85, 256), (37, 256)], id="1000"),
        ],
    )
    def test_ties_and_small_limits(self, monkeypatch, limit, expected):
        # The limit is read from the module at call time. Halfway values
        # (0.5 under limit 1, 0.25 under limit 2) go to the candidate the
        # stdlib picks.
        monkeypatch.setattr(model, "_FLOAT_DENOMINATOR_LIMIT", limit)
        assert [_lift(v) for v in (0.25, 0.5, 85 / 256, 37 / 256)] == expected

    def test_scaled_is_exact(self):
        values = [0.1, 0.2, 1 / 3, 0.37]
        ints, scale = _over_lcm([_lift(v) for v in values])
        assert [Fraction(c, scale) for c in ints] == [stdlib_lift(v) for v in values]


def _assert_tables_match_exact(ds, exp_exact, obs_exact):
    """do/den and joint/den against the input ratios, and the marginals against their sums."""
    m, n = ds.space.m, ds.space.n
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            assert exact(ds, "do", j, i) == exp_exact[j - 1][i - 1]
            assert exact(ds, "joint", j, i) == obs_exact[j - 1][i - 1]
        assert exact(ds, "px", j) == sum(obs_exact[j - 1], Fraction(0))
    for i in range(1, n + 1):
        assert exact(ds, "py", i) == sum((row[i - 1] for row in obs_exact), Fraction(0))


class TestIntegerLayout:
    @settings(max_examples=60, deadline=None)
    @given(large_count_tables())
    def test_count_tables(self, tables):
        exp, obs = tables
        ds = dataset_from_counts(exp, obs)
        grand = sum(map(sum, obs))
        _assert_tables_match_exact(
            ds,
            [[Fraction(c, sum(row)) for c in row] for row in exp],
            [[Fraction(c, grand) for c in row] for row in obs],
        )

    @settings(max_examples=60, deadline=None)
    @given(prob_tables())
    def test_probability_tables(self, tables):
        exp, obs = tables
        ds = dataset_from_probs(exp, obs)
        exp_lift = [[stdlib_lift(v) for v in row] for row in exp]
        obs_lift = [[stdlib_lift(v) for v in row] for row in obs]
        grand = sum((v for row in obs_lift for v in row), Fraction(0))
        _assert_tables_match_exact(
            ds,
            [[v / sum(row, Fraction(0)) for v in row] for row in exp_lift],
            [[v / grand for v in row] for row in obs_lift],
        )


P_EXP_2x2 = [[0.6, 0.4], [0.3, 0.7]]
P_OBS_2x2 = [[0.3, 0.1], [0.2, 0.4]]


def _json_builder(form):
    def build(exp, obs):
        return dataset_from_json(
            {
                "treatments": ["x1", "x2"],
                "outcomes": ["y1", "y2"],
                f"experimental_{form}": exp,
                f"observational_{form}": obs,
            }
        )

    return build


_BUILDERS = {
    "counts": dataset_from_counts,
    "probs": dataset_from_probs,
    "json counts": _json_builder("counts"),
    "json probs": _json_builder("probs"),
}

# (builder, experimental table, observational table, exception, message prefix):
# each malformed input through every builder that accepts its form. The JSON
# document declares a 2x2 space, so its shape errors name the expected size.
_INGEST_ERRORS = [
    # ragged rows
    ("counts", [[6, 4], [3]], OBS_2x2, ShapeMismatch, "experimental counts: ragged rows [1, 2]"),
    ("json counts", [[6, 4], [3]], OBS_2x2, ShapeMismatch, "experimental table: ragged rows [1, 2]"),
    ("probs", P_EXP_2x2, [[0.3], [0.2, 0.4]], ShapeMismatch, "observational probs: ragged rows [1, 2]"),
    ("json probs", P_EXP_2x2, [[0.3], [0.2, 0.4]], ShapeMismatch, "observational table: ragged rows [1, 2]"),
    # a table or a row that is not a list
    ("counts", 5, OBS_2x2, ShapeMismatch, "experimental counts: expected a list of rows, got 5"),
    ("json counts", 5, OBS_2x2, ShapeMismatch, "experimental table: expected a list of rows, got 5"),
    ("counts", [], OBS_2x2, ShapeMismatch, "experimental counts: empty matrix"),
    ("counts", EXP_2x2, [[3, 1], 5], ShapeMismatch, "observational counts: row x2 must be a list of cells, got 5"),
    ("json counts", EXP_2x2, [[3, 1], 5], ShapeMismatch, "observational table: row x2 must be a list of cells, got 5"),
    ("probs", ["ab", [0.3, 0.7]], P_OBS_2x2, ShapeMismatch, "experimental probs: row x1 must be a list of cells, got 'ab'"),
    ("json probs", ["ab", [0.3, 0.7]], P_OBS_2x2, ShapeMismatch, "experimental table: row x1 must be a list of cells, got 'ab'"),
    # bad or negative count cells
    ("counts", [[6, "4"], [3, 7]], OBS_2x2, DataError, "experimental counts must be nonnegative integers, got '4' at (x1, y2)"),
    ("json counts", [[6, "4"], [3, 7]], OBS_2x2, DataError, "experimental counts must be nonnegative integers, got '4' at (x1, y2)"),
    ("counts", [[6, 4], [3, 7.0]], OBS_2x2, DataError, "experimental counts must be nonnegative integers, got 7.0 at (x2, y2)"),
    ("counts", EXP_2x2, [[3, True], [2, 4]], DataError, "observational counts must be nonnegative integers, got True at (x1, y2)"),
    ("counts", EXP_2x2, [[3, 1], [-2, 4]], DataError, "observational counts must be nonnegative integers, got -2 at (x2, y1)"),
    ("json counts", EXP_2x2, [[3, 1], [-2, 4]], DataError, "observational counts must be nonnegative integers, got -2 at (x2, y1)"),
    # bad or out-of-range probability cells
    ("probs", [[0.6, None], [0.3, 0.7]], P_OBS_2x2, DataError, "experimental probabilities must be numbers, got None at (x1, y2)"),
    ("json probs", [[0.6, None], [0.3, 0.7]], P_OBS_2x2, DataError, "experimental probabilities must be numbers, got None at (x1, y2)"),
    ("probs", P_EXP_2x2, [[0.3, 0.1], [False, 0.4]], DataError, "observational probabilities must be numbers, got False at (x2, y1)"),
    ("probs", [[1.2, -0.2], [0.3, 0.7]], P_OBS_2x2, DataError, "experimental probabilities must lie in [0,1], got 1.2 at (x1, y1)"),
    ("json probs", [[1.2, -0.2], [0.3, 0.7]], P_OBS_2x2, DataError, "experimental probabilities must lie in [0,1], got 1.2 at (x1, y1)"),
    ("probs", P_EXP_2x2, [[0.3, 0.1], [0.2, -0.4]], DataError, "observational probabilities must lie in [0,1], got -0.4 at (x2, y2)"),
    # a zero row or grand total
    ("counts", [[6, 4], [0, 0]], OBS_2x2, ZeroRowTotal, "experimental row for x2 has zero total"),
    ("json counts", [[6, 4], [0, 0]], OBS_2x2, ZeroRowTotal, "experimental row for x2 has zero total"),
    ("counts", EXP_2x2, [[0, 0], [0, 0]], ZeroGrandTotal, "observational counts have zero grand total"),
    ("json counts", EXP_2x2, [[0, 0], [0, 0]], ZeroGrandTotal, "observational counts have zero grand total"),
    # a bad row or table sum
    ("probs", [[0.6, 0.5], [0.3, 0.7]], P_OBS_2x2, DataError, "experimental row for x1 sums to 1.1"),
    ("json probs", [[0.6, 0.5], [0.3, 0.7]], P_OBS_2x2, DataError, "experimental row for x1 sums to 1.1"),
    ("probs", [[0.6, 0.4], [0.0, 0.0]], P_OBS_2x2, DataError, "experimental row for x2 sums to 0.0, expected 1"),
    ("probs", P_EXP_2x2, [[0.3, 0.3], [0.2, 0.4]], DataError, "observational table sums to 1.2"),
    ("json probs", P_EXP_2x2, [[0.3, 0.3], [0.2, 0.4]], DataError, "observational table sums to 1.2"),
    # an m x n mismatch
    ("counts", EXP_2x2, [[1, 2, 3], [4, 5, 6]], ShapeMismatch, "experimental 2x2 vs observational 2x3"),
    ("probs", [[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]], P_OBS_2x2, ShapeMismatch, "experimental 3x2 vs observational 2x2"),
    ("json counts", EXP_2x2, [[1, 2, 3], [4, 5, 6]], ShapeMismatch, "observational table: expected 2x2, got 2x3"),
    ("json probs", [[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]], P_OBS_2x2, ShapeMismatch, "experimental table: expected 2x2, got 3x2"),
    # a single-row or single-column table passes the shape checks; the space rejects it
    ("counts", [[6, 4]], [[3, 1]], DataError, "need at least two values per axis, got m=1, n=2"),
    # malformed in two ways: the shape is checked before any cell, and every
    # cell of a table before its totals
    ("counts", [[-1, 4], [3]], OBS_2x2, ShapeMismatch, "experimental counts: ragged rows"),
    ("probs", [[2.0, 0.4], [0.3, 0.7]], [[0.3, 0.1, 0.1], [0.2, 0.4, 0.1]], ShapeMismatch, "experimental 2x2 vs observational 2x3"),
    ("counts", [[0, 0], [3, -7]], OBS_2x2, DataError, "experimental counts must be nonnegative integers, got -7 at (x2, y2)"),
    ("probs", [[0.6, 0.5], [0.3, 1.7]], P_OBS_2x2, DataError, "experimental probabilities must lie in [0,1], got 1.7 at (x2, y2)"),
    # more malformed cells and tables
    ("counts", [[6, -4], [3, 7]], OBS_2x2, DataError, "experimental counts must be nonnegative integers, got -4 at (x1, y2)"),
    ("counts", [[True, 4], [3, 7]], OBS_2x2, DataError, "experimental counts must be nonnegative integers, got True at (x1, y1)"),
    ("counts", [[6, 4], [3, None]], OBS_2x2, DataError, "experimental counts must be nonnegative integers, got None at (x2, y2)"),
    ("counts", EXP_2x2, [[3, 1], [[2], 4]], DataError, "observational counts must be nonnegative integers, got [2] at (x2, y1)"),
    ("counts", EXP_2x2, 5, ShapeMismatch, "observational counts: expected a list of rows, got 5"),
    ("probs", [[0.6, 0.4], ["abc", 0.7]], P_OBS_2x2, DataError, "experimental probabilities must be numbers, got 'abc' at (x2, y1)"),
    ("probs", [[0.6, 0.4], [True, 0.7]], P_OBS_2x2, DataError, "experimental probabilities must be numbers, got True at (x2, y1)"),
    ("probs", [[0.6, 0.4], [[0.5], 0.7]], P_OBS_2x2, DataError, "experimental probabilities must be numbers, got [0.5] at (x2, y1)"),
    # a set or a mapping has no order to read rows or cells in
    ("counts", [{5, 1}, [3, 3]], OBS_2x2, ShapeMismatch, "experimental counts: row x1 must be a list of cells, got {"),
    ("probs", P_EXP_2x2, [[0.3, 0.1], frozenset({0.2, 0.4})], ShapeMismatch, "observational probs: row x2 must be a list of cells, got frozenset("),
    ("counts", {(6, 4), (3, 7)}, OBS_2x2, ShapeMismatch, "experimental counts: expected a list of rows, got {"),
    ("json counts", [{"u": 1, "v": 5}, [3, 3]], OBS_2x2, ShapeMismatch, "experimental table: row x1 must be a list of cells, got {'u': 1, 'v': 5}"),
    ("json counts", EXP_2x2, {"x1": [3, 1], "x2": [2, 4]}, ShapeMismatch, "observational table: expected a list of rows, got {'x1': [3, 1], 'x2': [2, 4]}"),
]


@pytest.mark.parametrize("builder, exp, obs, error, prefix", _INGEST_ERRORS)
def test_ingest_error(builder, exp, obs, error, prefix):
    with pytest.raises(error) as info:
        _BUILDERS[builder](exp, obs)
    assert type(info.value) is error
    assert str(info.value).startswith(prefix)


@pytest.mark.parametrize("builder", ["probs", "json probs"])
@pytest.mark.parametrize("v", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_probability_rejected(builder, v):
    with pytest.raises(DataError) as info:
        _BUILDERS[builder](P_EXP_2x2, [[0.3, 0.1], [0.2, v]])
    assert type(info.value) is DataError
    assert str(info.value) == f"observational probabilities must lie in [0,1], got {v!r} at (x2, y2)"


class TestCellAndRowTypes:
    """Cells other than plain ints and floats, and rows other than lists, give
    the Dataset their plain-list equivalent gives."""

    def test_tuple_rows(self):
        counts = dataset_from_counts(EXP_2x2, OBS_2x2)
        assert dataset_from_counts(tuple(map(tuple, EXP_2x2)), OBS_2x2) == counts
        probs = dataset_from_probs(P_EXP_2x2, P_OBS_2x2)
        assert dataset_from_probs(P_EXP_2x2, tuple(map(tuple, P_OBS_2x2))) == probs

    def test_numpy_cells_and_rows(self):
        counts = dataset_from_counts(EXP_2x2, OBS_2x2)
        assert dataset_from_counts([[np.int64(c) for c in row] for row in EXP_2x2], OBS_2x2) == counts
        assert dataset_from_counts(EXP_2x2, [[np.int64(c) for c in row] for row in OBS_2x2]) == counts
        assert dataset_from_counts(np.array(EXP_2x2), np.array(OBS_2x2)) == counts
        assert dataset_from_counts([np.array(row) for row in EXP_2x2], OBS_2x2) == counts
        probs = dataset_from_probs(P_EXP_2x2, P_OBS_2x2)
        assert dataset_from_probs(np.array(P_EXP_2x2), np.array(P_OBS_2x2)) == probs
        assert dataset_from_probs(P_EXP_2x2, [[np.float64(v) for v in row] for row in P_OBS_2x2]) == probs

    def test_int_cells_in_probability_tables(self):
        ds = dataset_from_probs([[1, 0], [0.3, 0.7]], [[0.5, 0], [0.2, 0.3]])
        assert ds == dataset_from_probs([[1.0, 0.0], [0.3, 0.7]], [[0.5, 0.0], [0.2, 0.3]])
        assert exact(ds, "do", 1, 1) == 1 and exact(ds, "joint", 1, 2) == 0


class _Count(int):
    """An int subclass: a valid count that is not exactly an int."""


EXP_2x3 = [[6, 4, 5], [3, 7, 2]]
OBS_2x3 = [[3, 1, 2], [2, 4, 1]]


class TestCountRowTypes:
    """Count rows that mix plain ints with other cells give the message, or
    the Dataset, that a row of plain ints with the same values gives."""

    @pytest.mark.parametrize(
        "exp, obs, message",
        [
            ([[6, True, 5], [3, 7, 2]], OBS_2x3, "experimental counts must be nonnegative integers, got True at (x1, y2)"),
            ([[6, 4, 5], [3, 7, False]], OBS_2x3, "experimental counts must be nonnegative integers, got False at (x2, y3)"),
            (EXP_2x3, [[3, 1, 2], [2, -4, 1]], "observational counts must be nonnegative integers, got -4 at (x2, y2)"),
            (EXP_2x3, [[3, 1, -2], [True, 4, 1]], "observational counts must be nonnegative integers, got -2 at (x1, y3)"),
            ([[6, 4, 5], [-3, np.int64(7), 2]], OBS_2x3, "experimental counts must be nonnegative integers, got -3 at (x2, y1)"),
            ([[6, 4, 5], [_Count(3), -7, 2]], OBS_2x3, "experimental counts must be nonnegative integers, got -7 at (x2, y2)"),
            ([[6, 4, 5], [3, np.int64(-7), 2]], OBS_2x3, "experimental counts must be nonnegative integers, got np.int64(-7) at (x2, y2)"),
            ([[0, 0, 0], [3, 7, 2.0]], OBS_2x3, "experimental counts must be nonnegative integers, got 2.0 at (x2, y3)"),
            ([[0, 0, 0], [3, 7, 2]], OBS_2x3, "experimental row for x1 has zero total"),
            (EXP_2x3, [[0, 0, 0], [0, _Count(0), 0]], "observational counts have zero grand total"),
        ],
    )
    def test_mixed_row_message(self, exp, obs, message):
        with pytest.raises(DataError) as info:
            dataset_from_counts(exp, obs)
        assert str(info.value) == message

    @pytest.mark.parametrize("cell", [_Count, np.int64, np.uint8, int])
    def test_int_like_cells_give_plain_dataset(self, cell):
        plain = dataset_from_counts(EXP_2x3, OBS_2x3)
        for j, i in itertools.product(range(2), range(3)):
            exp = [list(row) for row in EXP_2x3]
            obs = [list(row) for row in OBS_2x3]
            exp[j][i] = cell(exp[j][i])
            obs[j][i] = cell(obs[j][i])
            ds = dataset_from_counts(exp, obs)
            assert ds == plain
            cells = [ds.den, *ds.px, *ds.py, *itertools.chain(*ds.do, *ds.joint)]
            assert all(type(c) is int for c in cells)


@st.composite
def count_tables_up_to_8x4(draw):
    """Count tables from 2x2 to 8x4, often inconsistent; every row and the grand total > 0."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 4))
    cell = st.integers(0, 40) | st.integers(0, 10**9)
    exp = [draw(st.lists(cell, min_size=n, max_size=n).filter(any)) for _ in range(m)]
    obs = [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(m)]
    if not any(map(any, obs)):
        obs[0][0] = 1
    return exp, obs


@settings(max_examples=150, deadline=None)
@given(count_tables_up_to_8x4())
def test_counts_ingest_matches_fraction_reference(tables):
    exp, obs = tables
    ds = dataset_from_counts(exp, obs)
    totals = [sum(row) for row in exp]
    grand = sum(map(sum, obs))
    den = ds.den
    assert den == math.lcm(grand, *totals)
    do = [[Fraction(c, t) for c in row] for row, t in zip(exp, totals)]
    joint = [[Fraction(c, grand) for c in row] for row in obs]
    assert ds.do == tuple(tuple(int(v * den) for v in row) for row in do)
    assert ds.joint == tuple(tuple(int(v * den) for v in row) for row in joint)
    assert all(v * den == int(v * den) for row in do + joint for v in row)
    assert ds.px == tuple(int(sum(row) * den) for row in joint)
    assert ds.py == tuple(int(sum(col) * den) for col in zip(*joint))
    violations = tuple(
        model.Violation(j, i, float(xy - d))
        for j, (do_row, xy_row) in enumerate(zip(do, joint), start=1)
        for i, (d, xy) in enumerate(zip(do_row, xy_row), start=1)
        if xy > d
    )
    assert ds.validation == model.ValidationReport(not violations, violations)


@pytest.mark.parametrize(
    "doc, prefix",
    [
        ([], "dataset document must be a JSON object"),
        ({"treatments": ["x1", "x2"], "outcomes": "y1"}, 'dataset needs a "outcomes" list of strings'),
        ({"treatments": ["x1", "x1"], "outcomes": ["y1", "y2"]}, "treatment labels must be unique"),
        (
            {"treatments": ["x1", "x2"], "outcomes": ["y1", "y2"], "observational_counts": OBS_2x2},
            'need exactly one of "experimental_counts" or "experimental_probs"',
        ),
        (
            {
                "treatments": ["x1", "x2"],
                "outcomes": ["y1", "y2"],
                "experimental_counts": EXP_2x2,
                "observational_counts": OBS_2x2,
                "observational_probs": P_OBS_2x2,
            },
            'need exactly one of "observational_counts" or "observational_probs"',
        ),
        ({"treatments": ["x1", "x2"], "outcomes": ["y1", "y1"]}, "outcome labels must be unique"),
    ],
)
def test_json_document_error(doc, prefix):
    with pytest.raises(DataError) as info:
        dataset_from_json(doc)
    assert type(info.value) is DataError
    assert str(info.value).startswith(prefix)
