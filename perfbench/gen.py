"""Seeded inputs for the benchmark, and their true values computed apart from the program.

Everything here uses the standard library only, so generating inputs never
imports pocbounds (or NumPy) and the set-up clock sees only the program's own
import cost. Indices are 1-based, as in the query grammar: a term (j, i) is
the event "Y would be y_i had X been x_j".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

FORMS = ("plain", "x", "y", "xy", "cond")
EPS = 1e-9


@dataclass(frozen=True)
class QuerySpec:
    """A query as text plus the parts the checks need."""

    text: str
    terms: tuple[tuple[int, int], ...]
    ex: int | None
    ey: int | None
    conditional: bool


@dataclass(frozen=True)
class WideTable:
    """Counts consistent by construction.

    Each experimental row is the observed row plus `excess[j]`, a
    non-negative split of the N - N_j units outside arm j, so every row of
    both tables totals N.
    """

    obs: tuple[tuple[int, ...], ...]
    exp: tuple[tuple[int, ...], ...]
    excess: tuple[tuple[int, ...], ...]

    @property
    def total(self) -> int:
        return sum(map(sum, self.obs))


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def wide_table(rng: random.Random, m: int, n: int) -> WideTable:
    # Every observed cell is positive, so every evidence event has positive
    # probability and every arm leaves units outside it.
    obs = [[rng.randint(1, 60) for _ in range(n)] for _ in range(m)]
    total = sum(map(sum, obs))
    excess = [_split(rng, total - sum(obs[j]), n) for j in range(m)]
    exp = [[obs[j][i] + excess[j][i] for i in range(n)] for j in range(m)]
    return WideTable(_freeze(obs), _freeze(exp), _freeze(excess))


def wide_value(table: WideTable, q: QuerySpec) -> Fraction:
    """The query's value under the table's witness model.

    A unit in arm c shows its observed outcome under x_c; under each other
    x_j it takes outcome i with probability excess[j][i] / (N - N_j),
    independently. That model reproduces both tables exactly.
    """
    total = table.total
    m, n = len(table.obs), len(table.obs[0])
    value = Fraction(0)
    for c in range(1, m + 1):
        if q.ex is not None and c != q.ex:
            continue
        factor = Fraction(1)
        actual = None
        for j, i in q.terms:
            if j == c:
                actual = i
            else:
                factor *= Fraction(table.excess[j - 1][i - 1], total - sum(table.obs[j - 1]))
        units = sum(
            table.obs[c - 1][y - 1]
            for y in range(1, n + 1)
            if (q.ey is None or y == q.ey) and (actual is None or y == actual)
        )
        value += Fraction(units, total) * factor
    if q.conditional:
        value /= observed_probability(table.obs, q.ex, q.ey)
    return value


def observed_probability(obs, ex: int | None, ey: int | None) -> Fraction:
    """P(X = x_ex, Y = y_ey) from observational counts; None means any."""
    total = sum(map(sum, obs))
    units = sum(
        obs[c][y]
        for c in range(len(obs))
        for y in range(len(obs[0]))
        if (ex is None or c + 1 == ex) and (ey is None or y + 1 == ey)
    )
    return Fraction(units, total)


def query(rng: random.Random, m: int, n: int, form: str, k: int) -> QuerySpec:
    """A k-term query in one evidence form, with distinct term treatments.

    Forms with observed treatment x_p draw the terms from the other m - 1
    treatments, so no term collapses into evidence. `cond` conditions on an
    observed (x_p, y_q) pair. Terms are listed in random order so that
    canonicalization has work to do.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    ex = rng.randint(1, m) if form in ("x", "xy", "cond") else None
    ey = rng.randint(1, n) if form in ("y", "xy", "cond") else None
    pool = [j for j in range(1, m + 1) if j != ex]
    if not 1 <= k <= len(pool):
        raise ValueError(f"k={k} does not fit m={m} in form {form!r}")
    terms = tuple((j, rng.randint(1, n)) for j in rng.sample(pool, k))
    events = [f"y{i}_x{j}" for j, i in terms]
    evidence = ([f"x{ex}"] if ex else []) + ([f"y{ey}"] if ey else [])
    if form == "cond":
        text = f"P({', '.join(events)} | {', '.join(evidence)})"
    else:
        text = f"P({', '.join(events + evidence)})"
    return QuerySpec(text, terms, ex, ey, form == "cond")


def _freeze(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in rows)
