"""The value semantics callers rely on, for every record type in the package.

Records are immutable, hashable values that compare by their fields. A
Dataset compares on den and its numerators over den, so two datasets with
equal ratios but different den differ.
"""

import copy
import pickle

import pytest
from conftest import TREATMENT_EXP, TREATMENT_OBS, exact

import pocbounds
from pocbounds import bound, run_simulation
from pocbounds.model import DataError, Dataset, Interval, ProblemSpace, dataset_from_counts
from pocbounds.queryir import CounterfactualTerm, Query, UnsupportedQuery, canonicalize

T = CounterfactualTerm


@pytest.fixture(scope="module")
def records(treatment):
    query = Query(terms=(T(1, 3), T(2, 1)), evidence_x=3)
    result = bound(treatment, query)
    summary = run_simulation(2, seed=3)
    return {
        "interval": result.interval,
        "term": T(1, 1),
        "query": query,
        "canonical": canonicalize(query),
        "space": treatment.space,
        "report": treatment.validation,
        "dataset": treatment,
        "trace": result.trace,
        "result": result,
        "sim_record": summary.records[0],
        "summary": summary,
    }


@pytest.mark.parametrize(
    "name, attr",
    [
        ("interval", "lo"),
        ("term", "outcome"),
        ("query", "terms"),
        ("canonical", "kind"),
        ("space", "m"),
        ("report", "ok"),
        ("dataset", "den"),
        ("dataset", "do"),
        ("dataset", "joint"),
        ("dataset", "px"),
        ("trace", "lo"),
        ("result", "interval"),
        ("sim_record", "real_value"),
        ("summary", "num_samples"),
    ],
)
def test_fields_are_read_only(records, name, attr):
    rec = records[name]
    with pytest.raises(AttributeError):
        setattr(rec, attr, getattr(rec, attr))


@pytest.mark.parametrize("name", ["interval", "term", "query", "space", "dataset"])
def test_no_attribute_can_be_added(records, name):
    # Frozen dataclasses with slots raised TypeError here, from a CPython bug.
    with pytest.raises(AttributeError):
        records[name].extra = 1


@pytest.mark.parametrize("name", ["interval", "term", "query", "canonical", "space", "dataset"])
def test_hashable(records, name):
    rec = records[name]
    assert hash(rec) == hash(rec)
    assert {rec: 1}[rec] == 1


def test_rebuilt_dataset_is_equal(treatment):
    again = dataset_from_counts(TREATMENT_EXP, TREATMENT_OBS)
    assert again is not treatment
    assert again == treatment
    assert hash(again) == hash(treatment)
    assert len({again, treatment}) == 1


def test_records_survive_pickle_and_copy(records):
    for rec in records.values():
        again = pickle.loads(pickle.dumps(rec))
        assert type(again) is type(rec)
        assert again == rec
        assert copy.deepcopy(rec) == rec


def test_counterfactual_terms_sort_by_treatment_then_outcome():
    terms = [T(2, 1), T(1, 3), T(2, 0), T(1, 1)]
    assert sorted(terms) == [T(1, 1), T(1, 3), T(2, 0), T(2, 1)]
    assert T(1, 2) < T(2, 1) and T(1, 1) < T(1, 2)


def test_query_validates_its_arguments():
    with pytest.raises(UnsupportedQuery):
        Query(terms=())
    with pytest.raises(UnsupportedQuery):
        Query(terms=[])
    with pytest.raises(UnsupportedQuery):
        Query(terms=(T(1, 1),), conditional=True)
    q = Query(terms=[T(2, 1), T(1, 1)], evidence_y=2, conditional=True)
    assert q.terms == (T(2, 1), T(1, 1))
    assert type(q.terms) is tuple
    assert q == Query((T(2, 1), T(1, 1)), None, 2, True)


def test_replace_validates():
    q = Query(terms=(T(1, 1),), evidence_x=2, conditional=True)
    assert q._replace(evidence_x=3) == Query((T(1, 1),), 3, None, True)
    with pytest.raises(UnsupportedQuery):
        q._replace(evidence_x=None)
    with pytest.raises(UnsupportedQuery):
        q._replace(terms=())
    space = ProblemSpace(2, 3)
    assert space._replace(n=4) == ProblemSpace(2, 4)
    with pytest.raises(DataError):
        space._replace(m=1)


def test_problem_space_validates_its_arguments():
    for args, kwargs in [
        ((1, 3), {}),
        ((3, 1), {}),
        ((), {"m": 1, "n": 3}),
    ]:
        with pytest.raises(DataError):
            ProblemSpace(*args, **kwargs)
    space = ProblemSpace(2, 3)
    assert (space.m, space.n) == (2, 3)
    assert space == ProblemSpace(m=2, n=3)


def test_datasets_compare_on_den_and_numerators():
    ds = dataset_from_counts([[1, 3], [2, 2]], [[1, 1], [1, 1]])
    same = dataset_from_counts([[1, 3], [2, 2]], [[1, 1], [1, 1]])
    assert ds == same and hash(ds) == hash(same)
    # Other counts, the same den and the same numerators over it: equal.
    halved = dataset_from_counts([[1, 3], [1, 1]], [[1, 1], [1, 1]])
    assert ds == halved and hash(ds) == hash(halved)
    # Equal ratios over a larger den: not equal.
    scaled_exp = dataset_from_counts([[2, 6], [2, 2]], [[1, 1], [1, 1]])
    assert exact(ds, "do", 1, 1) == exact(scaled_exp, "do", 1, 1)
    assert ds != scaled_exp
    scaled_obs = dataset_from_counts([[1, 3], [2, 2]], [[2, 2], [2, 2]])
    assert exact(ds, "joint", 1, 1) == exact(scaled_obs, "joint", 1, 1)
    assert ds != scaled_obs
    assert (ds.den, ds.px, ds.py) == (4, (2, 2), (2, 2))


def test_interval_unpacks_and_equals_its_ends():
    lo, hi = Interval(0.25, 0.75)
    assert (lo, hi) == (0.25, 0.75)
    assert Interval(0.25, 0.75) == (0.25, 0.75)


def test_dataset_holds_one_set_of_numbers():
    assert Dataset._fields == ("space", "den", "do", "joint", "px", "py", "validation")


def test_public_api_is_pinned():
    # Removing or adding an export is a deliberate change: it edits this list.
    assert sorted(pocbounds.__all__) == [
        "BoundResult",
        "BoundTrace",
        "CanonicalQuery",
        "CounterfactualTerm",
        "DataError",
        "Dataset",
        "IndexOutOfRange",
        "Infeasible",
        "Interval",
        "ProblemSpace",
        "Query",
        "QuerySyntaxError",
        "ShapeMismatch",
        "SimulationRecord",
        "SimulationSummary",
        "UnsupportedQuery",
        "ValidationReport",
        "Violation",
        "ZeroEvidenceProbability",
        "ZeroGrandTotal",
        "ZeroRowTotal",
        "bound",
        "canonicalize",
        "dataset_from_counts",
        "dataset_from_json",
        "dataset_from_probs",
        "export_csv",
        "format_query",
        "generate_sample",
        "load_dataset",
        "parse_query",
        "run_simulation",
        "tight_bounds",
        "validate_indices",
        "write_csv",
    ]
    assert pocbounds.Infeasible is pocbounds.model.Infeasible
