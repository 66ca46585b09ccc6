"""Shared fixtures: the three worked-example tables and a random corpus.

Random datasets are built from integer response-type masses, so they are
feasible by construction (the masses are a witness) and all probabilities
are exact integer ratios.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import settings

from pocbounds.model import Dataset, dataset_from_counts
from pocbounds.queryir import CounterfactualTerm, Query, canonicalize

# Fixed examples and no example database: every run draws the same cases.
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")

TREATMENT_EXP = [[80, 7, 213], [184, 29, 87], [87, 189, 24]]
TREATMENT_OBS = [[238, 20, 7], [10, 77, 259], [147, 72, 70]]

INSTITUTE_EXP = [[53, 247], [269, 31], [234, 66], [151, 149]]
INSTITUTE_OBS = [[92, 58], [55, 118], [24, 231], [599, 23]]

VACCINE_EXP = [[205, 46, 343, 6], [27, 122, 87, 364]]
VACCINE_OBS = [[6, 74, 632, 5], [52, 243, 147, 41]]


@pytest.fixture(scope="session")
def treatment() -> Dataset:
    return dataset_from_counts(TREATMENT_EXP, TREATMENT_OBS)


@pytest.fixture(scope="session")
def institute() -> Dataset:
    return dataset_from_counts(INSTITUTE_EXP, INSTITUTE_OBS)


@pytest.fixture(scope="session")
def vaccine() -> Dataset:
    return dataset_from_counts(VACCINE_EXP, VACCINE_OBS)


def counts_from_masses(masses, m: int, n: int):
    """Experimental/observational count tables realized by type masses.

    masses[t][col] is the mass of response type t observed under treatment
    col+1; types enumerate lexicographically as in the LP.
    """
    types = list(itertools.product(range(1, n + 1), repeat=m))
    assert len(masses) == len(types)
    obs = [[0] * n for _ in range(m)]
    exp = [[0] * n for _ in range(m)]
    for t_idx, t in enumerate(types):
        for col in range(m):
            w = masses[t_idx][col]
            obs[col][t[col] - 1] += w
            for j in range(m):
                exp[j][t[j] - 1] += w
    return exp, obs


def random_feasible_dataset(rng: random.Random, m: int, n: int) -> Dataset:
    types_count = n**m
    masses = [[rng.randrange(0, 7) for _ in range(m)] for _ in range(types_count)]
    if sum(map(sum, masses)) == 0:
        masses[0][0] = 1
    exp, obs = counts_from_masses(masses, m, n)
    ds = dataset_from_counts(exp, obs)
    assert ds.validation.ok
    return ds


def random_query(rng: random.Random, m: int, n: int, kmax: int = 3, variant=None) -> Query:
    """A Standard query with distinct treatments and one evidence variant.

    variant: None (random), 'plain', 'x', 'y', 'xy'.
    """
    k = rng.randrange(1, min(kmax, m) + 1)
    js = rng.sample(range(1, m + 1), k)
    terms = tuple(CounterfactualTerm(j, rng.randrange(1, n + 1)) for j in sorted(js))
    if variant is None:
        variant = rng.choice(["plain", "x", "y", "xy"])
    kwargs = {}
    if variant in ("x", "xy"):
        kwargs["evidence_x"] = rng.randrange(1, m + 1)
    if variant in ("y", "xy"):
        kwargs["evidence_y"] = rng.randrange(1, n + 1)
    return Query(terms=terms, **kwargs)


FORMS = ("plain", "x", "y", "xy", "conditional")


def draw_query(rng: random.Random, m: int, n: int, form: str) -> Query:
    """Terms may repeat a treatment, clash on one (ZERO), or sit on the
    evidence treatment (absorbed; EXACT when every term does)."""
    evidence = {"plain": "", "x": "x", "y": "y", "xy": "xy"}.get(form)
    if evidence is None:
        evidence = rng.choice(["x", "y", "xy"])
    ex = rng.randrange(1, m + 1) if "x" in evidence else None
    ey = rng.randrange(1, n + 1) if "y" in evidence else None
    terms = []
    for _ in range(rng.randrange(1, m + 2)):
        j = ex if ex is not None and rng.random() < 0.4 else rng.randrange(1, m + 1)
        terms.append(CounterfactualTerm(j, rng.randrange(1, n + 1)))
    return Query(tuple(terms), evidence_x=ex, evidence_y=ey, conditional=form == "conditional")


def draw_kind(rng, m, n, form, kind):
    for _ in range(1000):
        query = draw_query(rng, m, n, form)
        if canonicalize(query).kind == kind:
            return query
    raise AssertionError(f"no {kind} query drawn in form {form}")
