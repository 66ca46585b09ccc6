"""The closed-form oracle against the response-type reference LP.

Both are exact, so their optima must be equal as Fractions, before any
conversion to float.
"""

import random

import pytest

from pocbounds.cli import _REPRODUCE_BOUNDS, fixture_path
from pocbounds.model import Infeasible, dataset_from_counts, load_dataset
from pocbounds.oracle import _exact_bounds
from pocbounds.queryir import (
    EXACT,
    STANDARD,
    ZERO,
    ZeroEvidenceProbability,
    canonicalize,
    parse_query,
)
from pocbounds.simgen import counts_from_masses, random_model

from conftest import FORMS, draw_kind
from lp_reference import reference_bounds, reference_feasible

SIZES = ((2, 2), (2, 3), (3, 2), (3, 3))


@pytest.mark.parametrize("example", sorted(_REPRODUCE_BOUNDS))
def test_published_queries_match_reference(example):
    ds = load_dataset(fixture_path(example))
    for text, _, _ in _REPRODUCE_BOUNDS[example]:
        cq = canonicalize(parse_query(text, ds.space))
        assert _exact_bounds(ds, cq) == reference_bounds(ds, cq), text


def test_random_queries_match_reference():
    rng = random.Random(20221)
    compared = set()
    count = 0
    for idx in range(150):
        form = FORMS[idx % len(FORMS)]
        kinds = (STANDARD, ZERO, EXACT) if form not in ("plain", "y") else (STANDARD, ZERO)
        kind = kinds[(idx // len(FORMS)) % len(kinds)]
        m, n = rng.choice(SIZES)
        ds = random_model(rng, m, n)
        cq = canonicalize(draw_kind(rng, m, n, form, kind))
        try:
            got = _exact_bounds(ds, cq)
        except ZeroEvidenceProbability:
            continue
        assert got == reference_bounds(ds, cq), (m, n, cq)
        compared.add((form, kind))
        count += 1
    assert count >= 100
    assert len(compared) == 3 * 3 + 2 * 2, sorted(compared)


def test_feasibility_matches_reference_on_raw_tables():
    # Raw random count tables, mostly inconsistent, alternating with tables
    # realized by type masses, which are consistent.
    rng = random.Random(60)
    outcomes = []
    for idx in range(60):
        m, n = rng.choice(SIZES)
        if idx % 2:
            masses = [[rng.randrange(0, 4) for _ in range(m)] for _ in range(n**m)]
            exp, obs = counts_from_masses(masses, m, n)
        else:
            exp = [[rng.randrange(0, 7) for _ in range(n)] for _ in range(m)]
            obs = [[rng.randrange(0, 7) for _ in range(n)] for _ in range(m)]
        for row in exp:
            if sum(row) == 0:
                row[0] = 1
        if sum(map(sum, obs)) == 0:
            obs[0][0] = 1
        ds = dataset_from_counts(exp, obs)
        ok = ds.validation.ok
        assert ok == reference_feasible(ds)
        cq = canonicalize(draw_kind(rng, m, n, "plain", STANDARD))
        if ok:
            assert _exact_bounds(ds, cq) == reference_bounds(ds, cq), (exp, obs, cq)
        else:
            with pytest.raises(Infeasible):
                _exact_bounds(ds, cq)
        outcomes.append(ok)
    assert 20 <= sum(outcomes) <= 40, sum(outcomes)
