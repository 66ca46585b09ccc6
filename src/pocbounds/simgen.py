"""Random response-type models, and the simulation study for the
two-treatment, three-outcome joint query.

A model on m treatments and n outcomes is a table of masses q[t][j]: the
mass of response type t (types in lexicographic order, as in Balke & Pearl
1997) observed under x_j. `counts_from_masses` turns one into the count
tables it produces, which are consistent by construction; `random_model`
and `random_query` draw the random cases of the tests and scripts.

Each simulation sample draws a random structural model: nine response-type
masses via eight sorted uniforms, then an observational layer drawn inside
the consistency envelope. The real value of P(y1_x1, y1_x2) is the first mass
f[0] by construction, so every sample checks containment and measures the
gap of the derived bounds against a known ground truth.

NumPy supplies the random streams. It is imported inside the functions that
draw, so importing the package, or its CLI, does not load it.
"""

from __future__ import annotations

import csv
import io
import itertools
from typing import NamedTuple

from .engine import bound
from .frechet import Interval
from .model import Dataset, dataset_from_counts, dataset_from_probs
from .queryir import CounterfactualTerm, Query

QUERY = Query(terms=(CounterfactualTerm(1, 1), CounterfactualTerm(2, 1)))

CSV_HEADER = ["sample_id", "lower", "upper", "midpoint", "real_value", "gap", "contained"]

# A draw whose observational layer violates consistency is redrawn from
# scratch; the cap only guards against a stuck stream.
MAX_REDRAWS = 10**6


class SimulationRecord(NamedTuple):
    fractions: tuple[float, ...]
    dataset: Dataset
    interval: Interval
    real_value: float

    @property
    def gap(self) -> float:
        return self.interval.width

    @property
    def midpoint(self) -> float:
        return self.interval.midpoint

    @property
    def contained(self) -> bool:
        return self.interval.contains(self.real_value)


class SimulationSummary(NamedTuple):
    num_samples: int
    average_gap: float
    containment_rate: float
    records: tuple[SimulationRecord, ...]


def counts_from_masses(masses, m: int, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The experimental and observational counts that type masses produce."""
    exp = [[0] * n for _ in range(m)]
    obs = [[0] * n for _ in range(m)]
    for t, row in zip(itertools.product(range(n), repeat=m), masses, strict=True):
        total = sum(row)
        for j, y in enumerate(t):
            exp[j][y] += total
            obs[j][y] += row[j]
    return exp, obs


def random_model(rng, m: int, n: int) -> Dataset:
    """Counts from masses drawn from 0..6 by a random.Random; a draw with no
    mass at all puts 1 on the first type under x_1."""
    masses = [[rng.randrange(0, 7) for _ in range(m)] for _ in range(n**m)]
    if not any(map(any, masses)):
        masses[0][0] = 1
    return dataset_from_counts(*counts_from_masses(masses, m, n))


def random_query(rng, m: int, n: int, kmax: int = 3, variant=None) -> Query:
    """Up to kmax terms on distinct treatments, with evidence by variant:
    'plain', 'x', 'y', 'xy', or None to draw one of those."""
    js = rng.sample(range(1, m + 1), rng.randrange(1, min(kmax, m) + 1))
    terms = tuple(CounterfactualTerm(j, rng.randrange(1, n + 1)) for j in sorted(js))
    if variant is None:
        variant = rng.choice(["plain", "x", "y", "xy"])
    return Query(
        terms=terms,
        evidence_x=rng.randrange(1, m + 1) if "x" in variant else None,
        evidence_y=rng.randrange(1, n + 1) if "y" in variant else None,
    )


def _draw_fractions(rng):
    """Nine response-type masses from eight sorted uniforms, as an array."""
    import numpy as np

    cuts = np.sort(rng.uniform(0.0, 1.0, size=8))
    edges = np.concatenate(([0.0], cuts, [1.0]))
    return np.diff(edges)


def _experimental_from_fractions(f) -> list[list[float]]:
    # f[3*a + b] is the mass of the response type mapping x1 -> y_{a+1},
    # x2 -> y_{b+1}; marginalizing gives the two do-rows.
    do_x1 = [f[0] + f[1] + f[2], f[3] + f[4] + f[5], f[6] + f[7] + f[8]]
    do_x2 = [f[0] + f[3] + f[6], f[1] + f[4] + f[7], f[2] + f[5] + f[8]]
    return [do_x1, do_x2]


def _draw_observational(rng, exp: list[list[float]]) -> list[list[float]] | None:
    p_y1_x1, p_y2_x1 = exp[0][0], exp[0][1]
    p_x1y1 = rng.uniform(0.0, p_y1_x1)
    p_x1y2 = rng.uniform(0.0, p_y2_x1)
    lo = p_x1y1 + p_x1y2
    hi = min(p_x1y1 + 1.0 - p_y1_x1, p_x1y2 + 1.0 - p_y2_x1)
    # lo <= hi always: their difference is bounded by P(y1|do(x1)) +
    # P(y2|do(x1)) - 1 <= 0, so this draw cannot fail.
    p_x1 = rng.uniform(lo, hi)
    p_x1y3 = p_x1 - p_x1y1 - p_x1y2
    p_x2 = 1.0 - p_x1
    p_x2y1 = rng.uniform(0.0, min(exp[1][0], p_x2))
    p_x2y2 = rng.uniform(0.0, min(exp[1][1], p_x2 - p_x2y1))
    p_x2y3 = p_x2 - p_x2y1 - p_x2y2
    obs = [[p_x1y1, p_x1y2, p_x1y3], [p_x2y1, p_x2y2, p_x2y3]]
    for j in range(2):
        p_xj = sum(obs[j])
        for i in range(3):
            if not (obs[j][i] <= exp[j][i] <= obs[j][i] + 1.0 - p_xj):
                return None
    return obs


def generate_sample(rng) -> tuple:
    """One consistent (fractions, dataset) pair; redraws until valid.

    rng is a NumPy Generator, and fractions the array of nine masses.
    """
    for _ in range(MAX_REDRAWS):
        f = _draw_fractions(rng)
        exp = _experimental_from_fractions(f)
        obs = _draw_observational(rng, exp)
        if obs is None:
            continue
        dataset = dataset_from_probs(exp, obs)
        if dataset.validation.ok:
            return f, dataset
    raise RuntimeError("no consistent sample after the redraw cap")


def run_simulation(num_samples: int, seed: int = 0) -> SimulationSummary:
    """Bound P(y1_x1, y1_x2) on num_samples random models.

    Each sample gets its own substream keyed by (seed, index), so results
    are reproducible and independent of sample order.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    import numpy as np

    records = []
    for idx in range(num_samples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        f, dataset = generate_sample(rng)
        interval = bound(dataset, QUERY).interval
        records.append(
            SimulationRecord(
                fractions=tuple(float(v) for v in f),
                dataset=dataset,
                interval=interval,
                real_value=float(f[0]),
            )
        )
    avg_gap = sum(r.gap for r in records) / len(records)
    containment = sum(1 for r in records if r.contained) / len(records)
    return SimulationSummary(
        num_samples=num_samples,
        average_gap=avg_gap,
        containment_rate=containment,
        records=tuple(records),
    )


def export_csv(summary: SimulationSummary) -> str:
    """One row per sample; floats via repr so values round-trip."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for idx, rec in enumerate(summary.records, start=1):
        writer.writerow(
            [
                idx,
                repr(rec.interval.lo),
                repr(rec.interval.hi),
                repr(rec.midpoint),
                repr(rec.real_value),
                repr(rec.gap),
                1 if rec.contained else 0,
            ]
        )
    return buf.getvalue()


def write_csv(summary: SimulationSummary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_csv(summary))
