"""Shared fixtures: the three worked-example tables, queries drawn in
every evidence form, sparse consistent count tables of any size, and
`exact`, which reads a Dataset cell as a Fraction.
Random models come from `pocbounds.simgen`.
"""

from __future__ import annotations

import random
from fractions import Fraction

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


def exact(dataset: Dataset, table: str, *index: int) -> Fraction:
    """The probability in `table` ("do", "joint", "px" or "py") at the 1-based
    index, as its numerator over den: exact(ds, "do", j, i) is P(y_i | do x_j).
    """
    cell = getattr(dataset, table)
    for k in index:
        cell = cell[k - 1]
    return Fraction(cell, dataset.den)


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


def sparse_counts(rng: random.Random, m: int, n: int, zeros: float):
    """Consistent (exp, obs) count tables with zero cells.

    Each experimental row is its observational row plus the rest of the
    grand total spread over a random subset of outcomes, so every row shares
    the grand total as denominator, and the cells outside the subset have
    P(y | do x) = P(x, y), i.e. D = 0. A whole observational row may be zero.
    """
    obs = [[0 if rng.random() < zeros else rng.randrange(1, 9) for _ in range(n)] for _ in range(m)]
    if not any(map(any, obs)):
        obs[0][0] = 1
    total = sum(map(sum, obs))
    exp = []
    for row in obs:
        support = rng.sample(range(n), rng.randrange(1, n + 1))
        extra = [0] * n
        for _ in range(total - sum(row)):
            extra[rng.choice(support)] += 1
        exp.append([o + e for o, e in zip(row, extra)])
    return exp, obs
