"""Random response-type models, and the simulation study for the
two-treatment, three-outcome joint query.

A model on m treatments and n outcomes is a table of masses q[t][j]: the
mass of response type t (types in lexicographic order, as in Balke & Pearl
1997) observed under x_j. `counts_from_masses` turns one into the count
tables it produces, which are consistent by construction; `random_model`
and `random_query` draw the random cases of the tests and scripts.

Each simulation sample draws a random structural model, thirteen uniforms
per attempt from the stream of its own seed: a run makes one
`random.Random` and reseeds it for each sample, which gives the stream a
new generator with that seed would. The uniforms give nine response-type
masses via eight sorted cuts, then an observational layer inside the
consistency envelope. Each table reaches ingest as exact integers on its
own scale, so the experimental table is the masses' marginals exactly. The
real value of P(y1_x1, y1_x2) is f[0] by construction, so every sample
checks containment and measures the gap of the derived bounds against a
known ground truth.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from typing import NamedTuple

from . import model
from .engine import bound
# dataset_from_probs is unused here; the benchmark's tracer looks it up on this module.
from .model import Dataset, Interval, dataset_from_counts, dataset_from_probs  # noqa: F401
from .queryir import CounterfactualTerm, Query

QUERY = Query(terms=(CounterfactualTerm(1, 1), CounterfactualTerm(2, 1)))

CSV_HEADER = ["sample_id", "lower", "upper", "midpoint", "real_value", "gap", "contained"]


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


def _draw_attempt(rng) -> tuple:
    """(masses, do-rows, observational table or None) from thirteen uniforms
    of the random.Random rng.

    Eight sorted cuts give the nine masses as differences, multiples of 2**-53
    that sum to 1; f[3*a + b] is the mass of the type mapping x1 -> y_{a+1},
    x2 -> y_{b+1}, and the do-rows are its exact marginals. Each observational
    cell is low + (high - low) * u, as rng.uniform(low, high) computes it.

    The table is None when a remainder cell p_x1y3 or p_x2y3 exceeds its
    do-cell. Only those two can: the other four cells are a do-cell, or less,
    times a u < 1, and the upper end of the consistency envelope follows from
    the row sums (see model._ingest). This float test only spares the ingest
    of draws that fail anyway; generate_sample's exact report decides.
    """
    r = rng.random
    cuts = [r(), r(), r(), r(), r(), r(), r(), r()]
    cuts.sort()
    c1, c2, c3, c4, c5, c6, c7, c8 = cuts
    u1, u2, u3, u4, u5 = r(), r(), r(), r(), r()
    f = (c1, c2 - c1, c3 - c2, c4 - c3, c5 - c4, c6 - c5, c7 - c6, c8 - c7, 1.0 - c8)
    f0, f1, f2, f3, f4, f5, f6, f7, f8 = f
    do11, do12, do13 = f0 + f1 + f2, f3 + f4 + f5, f6 + f7 + f8
    do21, do22, do23 = f0 + f3 + f6, f1 + f4 + f7, f2 + f5 + f8
    exp = [[do11, do12, do13], [do21, do22, do23]]
    p_x1y1 = do11 * u1
    p_x1y2 = do12 * u2
    lo = p_x1y1 + p_x1y2
    hi = min(p_x1y1 + 1.0 - do11, p_x1y2 + 1.0 - do12)
    # lo <= hi always: their difference is bounded by P(y1|do(x1)) +
    # P(y2|do(x1)) - 1 <= 0, so this draw cannot fail.
    p_x1 = lo + (hi - lo) * u3
    p_x1y3 = p_x1 - p_x1y1 - p_x1y2
    p_x2 = 1.0 - p_x1
    p_x2y1 = min(do21, p_x2) * u4
    p_x2y2 = min(do22, p_x2 - p_x2y1) * u5
    p_x2y3 = p_x2 - p_x2y1 - p_x2y2
    if p_x1y3 <= do13 and p_x2y3 <= do23:
        return f, exp, [[p_x1y1, p_x1y2, p_x1y3], [p_x2y1, p_x2y2, p_x2y3]]
    return f, exp, None


def _dataset_of(exp, obs) -> Dataset:
    """The dataset of one draw's do-rows and observational table, unchecked.

    A do-cell, a sum of masses, is a multiple of 2**-53 in [0, 1]: it is
    written exactly as v * 2**53, so each experimental row sums to 2**53. Each
    observational cell is written exactly as its binary ratio over the largest
    denominator of the six; a difference that rounds below 0 counts 0.
    """
    ratios = []
    scale = 1
    for row in obs:
        for v in row:
            ratio = (v if v > 0.0 else 0.0).as_integer_ratio()
            if ratio[1] > scale:
                scale = ratio[1]
            ratios.append(ratio)
    c = [p * (scale // d) for p, d in ratios]
    (e1, e2, e3), (e4, e5, e6) = exp
    exp_counts = [
        [int(e1 * 2.0**53), int(e2 * 2.0**53), int(e3 * 2.0**53)],
        [int(e4 * 2.0**53), int(e5 * 2.0**53), int(e6 * 2.0**53)],
    ]
    return model.dataset_from_counts(exp_counts, [c[:3], c[3:]])


def generate_sample(rng) -> tuple:
    """One consistent (fractions, dataset) pair; redraws until valid.

    rng is a random.Random, and fractions the tuple of nine masses. The
    ingested report decides: a draw is kept iff dataset.validation.ok.
    About 57 % of draws pass, so the loop needs no cap.
    """
    while True:
        f, exp, obs = _draw_attempt(rng)
        if obs is not None:
            dataset = _dataset_of(exp, obs)
            if dataset.validation.ok:
                return f, dataset


def run_simulation(num_samples: int, seed: int = 0) -> SimulationSummary:
    """Bound P(y1_x1, y1_x2) on num_samples random models.

    Each sample draws from its own stream: the run's one random.Random is
    reseeded with the int (seed << 64) | index before the sample, which
    gives the stream of random.Random((seed << 64) | index). Results are
    reproducible and independent of sample order.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")

    rng = random.Random()
    records = []
    for idx in range(num_samples):
        rng.seed((seed << 64) | idx)
        f, dataset = generate_sample(rng)
        records.append(SimulationRecord(f, dataset, bound(dataset, QUERY, trace=False).interval, f[0]))
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
