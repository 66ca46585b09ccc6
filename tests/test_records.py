"""The value semantics callers rely on, for every record type in the package.

Records are immutable, hashable values that compare by their fields. The
two distributions compare and hash on (num, den) only; the floats derived
from them at ingest take no part.
"""

import copy
import pickle

import pytest
from conftest import TREATMENT_EXP, TREATMENT_OBS

from pocbounds import bound, run_simulation
from pocbounds.frechet import Interval
from pocbounds.model import (
    DataError,
    ExperimentalDistribution,
    ObservationalDistribution,
    ProblemSpace,
    dataset_from_counts,
)
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
        "exp": treatment.exp,
        "obs": treatment.obs,
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
        ("dataset", "exp"),
        ("exp", "num"),
        ("exp", "p"),
        ("obs", "den"),
        ("obs", "px"),
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


@pytest.mark.parametrize("name", ["interval", "term", "query", "space", "dataset", "exp", "obs"])
def test_no_attribute_can_be_added(records, name):
    # Frozen dataclasses with slots raised TypeError here, from a CPython bug.
    with pytest.raises(AttributeError):
        records[name].extra = 1


@pytest.mark.parametrize(
    "name", ["interval", "term", "query", "canonical", "space", "dataset", "exp", "obs"]
)
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
    exp = records["exp"]
    assert pickle.loads(pickle.dumps(exp)).p == exp.p


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
    with pytest.raises(DataError):
        space._replace(outcome_labels=("a", "a", "b"))


def test_problem_space_validates_its_arguments():
    for args, kwargs in [
        ((1, 3), {}),
        ((3, 1), {}),
        ((), {"m": 1, "n": 3}),
        ((2, 2), {"treatment_labels": ("a", "a")}),
        ((2, 2), {"outcome_labels": ("y", "y")}),
        ((2, 2), {"treatment_labels": ("a", "b", "c")}),
    ]:
        with pytest.raises(DataError):
            ProblemSpace(*args, **kwargs)
    space = ProblemSpace(2, 3, outcome_labels=("a", "b", "c"))
    assert (space.m, space.n, space.treatment_labels) == (2, 3, None)
    assert space == ProblemSpace(m=2, n=3, outcome_labels=("a", "b", "c"))


def test_distributions_compare_on_num_and_den_only():
    exp = ExperimentalDistribution(((1, 3), (2, 2)), (4, 4))
    same = ExperimentalDistribution(((1, 3), (2, 2)), (4, 4))
    scaled = ExperimentalDistribution(((2, 6), (2, 2)), (8, 4))
    assert exp == same and hash(exp) == hash(same)
    # Equal floats, different integers: not equal.
    assert exp.p == scaled.p
    assert exp != scaled
    obs = ObservationalDistribution(((1, 1), (1, 1)), 4)
    assert obs == ObservationalDistribution(((1, 1), (1, 1)), 4)
    assert obs != ObservationalDistribution(((2, 2), (2, 2)), 8)
    assert hash(obs) == hash(ObservationalDistribution(((1, 1), (1, 1)), 4))
    assert exp != obs
    assert (obs.px, obs.py) == ((0.5, 0.5), (0.5, 0.5))


def test_interval_unpacks_and_equals_its_ends():
    lo, hi = Interval(0.25, 0.75)
    assert (lo, hi) == (0.25, 0.75)
    assert Interval(0.25, 0.75) == (0.25, 0.75)
