"""The workloads: seeded inputs, one operation, and its correctness check.

A workload generates all its inputs in its constructor with the standard
library only. `load` imports the program, `ingest` builds its datasets and
`warmup` runs one untimed operation; together they are the set-up that
`setup_s` times. The timed loop runs whole rounds: `round(r)` lists the
operations of round r, `run(op)` performs one, and `check(op, out)` returns
an error message, or None when the output is correct. Every round of a
workload has the same make-up, so a run's figures do not depend on where
its time limit happens to fall.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "pocbounds" / "fixtures"
EPS = gen.EPS


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None

    def load(self) -> None:
        from pocbounds import engine, model, oracle, simgen

        self.engine, self.model, self.oracle, self.simgen = engine, model, oracle, simgen

    def ingest(self) -> None:
        pass

    def warmup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        raise NotImplementedError

    def width(self, op, out) -> float:
        """Width of the engine interval an operation produced."""
        return out.hi - out.lo

    def after_loop(self) -> dict:
        """Checks deferred until the timed loop ends, as {op: error}."""
        return {}

    def set_tracing(self, on: bool) -> None:
        if self.tracer is not None:
            (self.tracer.install if on else self.tracer.uninstall)()

    def span_lists(self) -> list:
        return [self.tracer.spans] if self.tracer is not None else []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- engine_wide --------------------------------------------------------------

# Seven datasets of five queries: with 35 operations a round, the median and
# the 90th percentile each fall in the middle of one shape's block of times,
# not on the edge between two shapes.
WIDE_SPACES = ((6, 3), (6, 4), (7, 3), (7, 4), (8, 3), (8, 4), (8, 4))
# Rounds of distinct (dataset, query) pairs ingested in set-up; a run that
# gets further than this starts again from the first round.
WIDE_POOL_ROUNDS = 120


def wide_k(s: int, f: int, m: int, form: str) -> int:
    """Term count for space s and form f: cycles through 4..kmax across a round."""
    kmax = m - 1 if form in ("x", "xy", "cond") else m
    return 4 + (s + f) % (kmax - 3)


def check_wide(table: gen.WideTable, q: gen.QuerySpec, lo: float, hi: float) -> str | None:
    if not 0.0 <= lo <= hi <= 1.0:
        return f"{q.text}: [{lo!r}, {hi!r}] is not an interval inside [0, 1]"
    value = gen.wide_value(table, q)
    if not lo - EPS <= value <= hi + EPS:
        return f"{q.text}: [{lo!r}, {hi!r}] misses the witness value {float(value)!r}"
    joint_hi = Fraction(hi)
    if q.conditional:
        joint_hi *= gen.observed_probability(table.obs, q.ex, q.ey)
    for j, i in q.terms:
        p_do = Fraction(table.exp[j - 1][i - 1], table.total)
        if joint_hi > p_do + Fraction(EPS):
            return f"{q.text}: upper end {hi!r} exceeds P(y{i}|do(x{j})) = {float(p_do)!r}"
    return None


class EngineWide(Workload):
    """Closed-form bounds of 4- to 8-term queries on 6- to 8-treatment spaces."""

    name = "engine_wide"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{self.name}:{seed}")
        self.tables = [
            [gen.wide_table(rng, m, n) for m, n in WIDE_SPACES] for _ in range(WIDE_POOL_ROUNDS)
        ]
        self.queries = [
            [
                [gen.query(rng, m, n, form, wide_k(s, f, m, form)) for f, form in enumerate(gen.FORMS)]
                for s, (m, n) in enumerate(WIDE_SPACES)
            ]
            for _ in range(WIDE_POOL_ROUNDS)
        ]
        self.warm_table = gen.wide_table(rng, 8, 4)
        self.warm_query = gen.query(rng, 8, 4, "plain", 6)

    def ingest(self) -> None:
        make = self.model.dataset_from_counts
        self.datasets = [[make(t.exp, t.obs) for t in row] for row in self.tables]
        self.warm_dataset = make(self.warm_table.exp, self.warm_table.obs)

    def warmup(self) -> None:
        self.engine.bound(self.warm_dataset, self.warm_query.text)

    def round(self, r: int) -> list:
        p = r % WIDE_POOL_ROUNDS
        return [(p, s, f) for s in range(len(WIDE_SPACES)) for f in range(len(gen.FORMS))]

    def run(self, op):
        p, s, f = op
        return self.engine.bound(self.datasets[p][s], self.queries[p][s][f].text).interval

    def check(self, op, out) -> str | None:
        p, s, f = op
        return check_wide(self.tables[p][s], self.queries[p][s][f], out.lo, out.hi)


# -- simulation ---------------------------------------------------------------

SIM_SAMPLES = 25
# The first sample of each of the first LP_CHECKS operations is also checked
# against the LP-tight interval once the timed loop has ended.
LP_CHECKS = 10


def check_sample(fractions, lo: float, hi: float) -> str | None:
    """The interval must lie inside the Frechet bounds of its two experimental terms."""
    a = sum(Fraction(v) for v in fractions[0:3])  # P(y1 | do(x1))
    b = sum(Fraction(v) for v in fractions[0:9:3])  # P(y1 | do(x2))
    f_lo, f_hi = max(Fraction(0), a + b - 1), min(a, b)
    if lo < f_lo - Fraction(EPS) or hi > f_hi + Fraction(EPS):
        return f"[{lo!r}, {hi!r}] leaves the Frechet bounds [{float(f_lo)!r}, {float(f_hi)!r}]"
    return None


def check_contains(engine_iv, lp_iv) -> str | None:
    if engine_iv.lo - EPS <= lp_iv.lo and lp_iv.hi <= engine_iv.hi + EPS:
        return None
    return (
        f"engine interval [{engine_iv.lo!r}, {engine_iv.hi!r}] does not contain "
        f"the LP interval [{lp_iv.lo!r}, {lp_iv.hi!r}]"
    )


class Simulation(Workload):
    """One `run_simulation` call of SIM_SAMPLES samples per operation, a new seed each."""

    name = "simulation"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.deferred = []

    def _seed(self, op: int) -> int:
        return self.seed * 1_000_000 + op

    def warmup(self) -> None:
        self.simgen.run_simulation(SIM_SAMPLES, seed=self._seed(999_999))

    def round(self, r: int) -> list:
        return [r]

    def run(self, op):
        return self.simgen.run_simulation(SIM_SAMPLES, seed=self._seed(op))

    def check(self, op, out) -> str | None:
        if op < LP_CHECKS:
            self.deferred.append((op, out.records[0]))
        for idx, rec in enumerate(out.records):
            error = check_sample(rec.fractions, rec.interval.lo, rec.interval.hi)
            if error:
                return f"seed {self._seed(op)} sample {idx}: {error}"
        return None

    def width(self, op, out) -> float:
        return out.average_gap

    def after_loop(self) -> dict:
        failures = {}
        for op, rec in self.deferred:
            error = check_contains(rec.interval, self.oracle.tight_bounds(rec.dataset, self.simgen.QUERY))
            if error:
                failures[op] = f"seed {self._seed(op)} sample 0: {error}"
        return failures


# -- cli_fixtures -------------------------------------------------------------

# Published values at 3 decimals, from the paper's worked examples; the last
# row of each example is its headline query.
PUBLISHED = {
    "treatment": {
        "P(y3_x1, y1_x2)": ("0.323", "0.340"),
        "P(y1_x2, y2_x3)": ("0.243", "0.386"),
        "P(y3_x1, y2_x3)": ("0.340", "0.472"),
        "P(y1_x2, y2_x3, x1, y3)": ("0.000", "0.008"),
        "P(y3_x1, y2_x3, x2, y1)": ("0.000", "0.011"),
        "P(y3_x1, y1_x2, x3, y2)": ("0.000", "0.080"),
        "P(y3_x1, y1_x2, y2_x3)": ("0.000", "0.099"),
    },
    "institute": {
        "P(y1_x3 | x2, y2)": ("0.720", "1.000"),
        "P(y1_x4 | x2, y2)": ("0.000", "0.042"),
    },
    "vaccine": {
        "P(y4_x2, x1, y1)": ("0.000", "0.005"),
        "P(y1_x1, x2, y4)": ("0.000", "0.034"),
        "P(y4_x2, x1, y2)": ("0.037", "0.062"),
        "P(y2_x1, x2, y4)": ("0.000", "0.015"),
        "P(y4_x2, x1, y3)": ("0.502", "0.527"),
        "P(y3_x1, x2, y4)": ("0.000", "0.034"),
        "P(y1_x1, y4_x2)": ("0.000", "0.039"),
        "P(y2_x1, y4_x2)": ("0.037", "0.077"),
        "P(y3_x1, y4_x2)": ("0.502", "0.561"),
    },
}
CLI_KINDS = ("reproduce", "bound", "validate")
# The same command in every run: the commands' times differ by up to 2x, so
# a warm-up drawn from the seed would make setup_s depend on the seed. The
# cheapest command leaves setup_s mostly process start and import.
CLI_WARMUP = ("validate", "treatment")
CLI_TIMEOUT_S = 60

_ROW = re.compile(r"^\s+(P\(.*?\))\s+expected \[.*?\]\s+got \[([0-9.]+), ([0-9.]+)\]")
_INTERVAL = re.compile(r"^(oracle: )?\[([0-9.]+), ([0-9.]+)\]$")


def cli_args(kind: str, fixture: str) -> list[str]:
    data = str((FIXTURES / f"{fixture}.json").relative_to(ROOT))
    if kind == "reproduce":
        return ["reproduce", "--example", fixture]
    if kind == "bound":
        headline = list(PUBLISHED[fixture])[-1]
        return ["bound", "--oracle", "--data", data, "--query", headline]
    return ["validate", "--data", data]


@dataclass(frozen=True)
class CliOutcome:
    code: int
    text: str
    rss_kb: int


def parse_intervals(text: str) -> dict:
    """Engine and oracle intervals printed by `bound --oracle`, keyed '' and 'oracle: '."""
    found = {}
    for line in text.splitlines():
        match = _INTERVAL.match(line.strip())
        if match:
            found[match.group(1) or ""] = (float(match.group(2)), float(match.group(3)))
    return found


def check_cli(kind: str, fixture: str, code: int, text: str) -> str | None:
    if code != 0:
        return f"{kind} {fixture}: exit code {code}: {text.strip()[-300:]}"
    if kind == "validate":
        return None if text.startswith("validation: OK") else f"validate {fixture}: {text.strip()}"
    published = PUBLISHED[fixture]
    if kind == "reproduce":
        got = {m.group(1): (m.group(2), m.group(3)) for m in map(_ROW.match, text.splitlines()) if m}
        if got != published:
            return f"reproduce {fixture}: printed {got}, published {published}"
        return None
    found = parse_intervals(text)
    if set(found) != {"", "oracle: "}:
        return f"bound {fixture}: expected an engine and an oracle interval in {text.strip()!r}"
    (lo, hi), (olo, ohi) = found[""], found["oracle: "]
    headline = list(published)[-1]
    if (f"{lo:.3f}", f"{hi:.3f}") != published[headline]:
        return f"bound {fixture}: [{lo}, {hi}] differs from the published {published[headline]}"
    if not (lo - EPS <= olo and ohi <= hi + EPS):
        return f"bound {fixture}: oracle [{olo}, {ohi}] is not inside the engine interval [{lo}, {hi}]"
    return None


class CliFixtures(Workload):
    """One `pocbounds` CLI process per operation, on the three bundled fixtures.

    A round runs every (subcommand, fixture) pair once, in an order drawn
    from the seed.
    """

    name = "cli_fixtures"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.order = [(kind, fixture) for kind in CLI_KINDS for fixture in PUBLISHED]
        random.Random(f"{self.name}:{seed}").shuffle(self.order)
        self.tracing = False
        self.child_spans = []
        self.peak_kb = 0
        self.env = {k: v for k, v in os.environ.items() if k != "POCBOUNDS_FIXTURES"}
        self.env["PYTHONPATH"] = str(SRC)

    def warmup(self) -> None:
        self.run(CLI_WARMUP)

    def round(self, r: int) -> list:
        return list(self.order)

    def set_tracing(self, on: bool) -> None:
        self.tracing = on

    def run(self, op):
        args = cli_args(*op)
        if not self.tracing:
            return self._spawn([sys.executable, "-m", "pocbounds.cli", *args])
        with tempfile.NamedTemporaryFile(dir=HERE / "results", suffix=".json") as spans_file:
            out = self._spawn([sys.executable, str(HERE / "clishim.py"), spans_file.name, *args])
            with open(spans_file.name, encoding="utf-8") as fh:
                self.child_spans.append(json.load(fh))
        return out

    def _spawn(self, cmd) -> CliOutcome:
        # The child is reaped with wait4, which also gives its own peak RSS.
        with subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
        ) as proc:
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                text = proc.stdout.read().decode()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliOutcome(proc.returncode, text, usage.ru_maxrss)

    def check(self, op, out) -> str | None:
        self.peak_kb = max(self.peak_kb, out.rss_kb)
        return check_cli(*op, out.code, out.text)

    def width(self, op, out) -> float | None:
        found = parse_intervals(out.text) if op[0] == "bound" else {}
        return found[""][1] - found[""][0] if "" in found else None

    def span_lists(self) -> list:
        return self.child_spans

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024


WORKLOADS = {cls.name: cls for cls in (EngineWide, Simulation, CliFixtures)}
