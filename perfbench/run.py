"""Benchmark for pocbounds: one workload per run, one caller, closed loop.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/` and the
CLI is started as `python -m pocbounds.cli`. The run sets up the workload,
then runs whole rounds of operations, each after the previous one returned,
until S seconds have passed and at least MIN_OPS operations are done. Every
output is checked as soon as its operation returns; the checks are not
timed. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the rounds
alternate between traced and untraced, and the metrics are the per-layer
ones, read from the traced rounds. Results and spans are also written under
perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import spans
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SRC = workloads.SRC

# Ten operations beyond the 90th percentile.
MIN_OPS = 100
# The percentiles are averaged over blocks of at least this many operations,
# again ten beyond the 90th percentile (see `blocks`).
BLOCK_OPS = 100
# Fresh processes that repeat the set-up; setup_s is the median of these and
# the run's own set-up. A traced run instead times the import in as many
# fresh processes, for cli.import_ms.
SETUP_PROBES = 3
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120
IMPORT_CODE = "import time; t = time.perf_counter(); import pocbounds.cli; print(time.perf_counter() - t)"


class Record(NamedTuple):
    op: object
    seconds: float
    traced: bool
    width: float | None
    round: int


def set_up(wl: workloads.Workload, trace: bool) -> float:
    """Import the program, ingest the workload's datasets and run one warm-up operation."""
    start = perf_counter()
    wl.load()
    if trace:
        wl.tracer = spans.Tracer(spans.targets(wl.engine, wl.model, wl.oracle, wl.simgen))
    wl.set_tracing(trace)
    wl.ingest()
    wl.set_tracing(False)
    wl.warmup()
    return perf_counter() - start


def run_loop(wl: workloads.Workload, seconds: float, min_ops: int, trace: bool, probe=None, probes: int = 0):
    """Whole rounds until time and count are both reached.

    Between rounds, `probe` is called `probes` times at evenly spaced points
    of the run, so that its samples span the run's changes in machine speed;
    its time is not counted as the run's. Returns (records, failures,
    samples): records are one `Record` per operation, failures map
    an operation's number to its error, samples are the probe's results.
    """
    records, failures, samples = [], {}, []
    start = perf_counter()
    paused = 0.0
    r = 0
    while True:
        elapsed = perf_counter() - start - paused
        if len(samples) < probes and elapsed >= len(samples) * seconds / probes:
            t = perf_counter()
            samples.append(probe())
            paused += perf_counter() - t
        if elapsed >= seconds and len(records) >= min_ops and (r >= 2 or not trace):
            break
        traced = trace and r % 2 == 0
        wl.set_tracing(traced)
        for op in wl.round(r):
            t = perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # one failed operation; the loop goes on
                took = perf_counter() - t
                error, width = f"{op}: {type(exc).__name__}: {exc}", None
            else:
                took = perf_counter() - t
                error, width = wl.check(op, out), wl.width(op, out)
            if error:
                failures[len(records)] = error
            records.append(Record(op, took, traced, width, r))
        wl.set_tracing(False)
        r += 1
    samples += [probe() for _ in range(probes - len(samples))]
    return records, failures, samples


def _child(args, what: str) -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=workloads.ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{what} failed with exit code {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def probe_setup(name: str, seed: int) -> float:
    return float(_child([str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"], "set-up probe"))


def probe_import() -> float:
    return float(_child(["-c", IMPORT_CODE], "import probe"))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def blocks(records) -> list[list[float]]:
    """Operation times in blocks of consecutive whole rounds, each of at least BLOCK_OPS operations.

    The machine's speed drifts during a run but holds over a block of a few
    seconds, so the mean of the blocks' percentiles moves in proportion to
    the share of the run spent at each speed, as the mean time does; a
    percentile of the whole run jumps instead (see perfbench/README.md).
    Rounds left over at the end join the last block; a run shorter than one
    block is one block.
    """
    done, block = [], []
    for _, ops in itertools.groupby(records, key=lambda rec: rec.round):
        block += [rec.seconds for rec in ops]
        if len(block) >= BLOCK_OPS:
            done.append(block)
            block = []
    if block and done:
        done[-1] += block
    elif block:
        done.append(block)
    return done


def end_to_end(wl, setup_times, records) -> dict:
    times = [rec.seconds for rec in records]
    widths = [rec.width for rec in records if rec.width is not None]
    per_block = blocks(records)
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "ops_per_s": _metric(len(times) / sum(times), "ops/s"),
        "op_p50_ms": _metric(statistics.fmean(statistics.median(b) for b in per_block) * 1e3, "ms"),
        "op_p90_ms": _metric(statistics.fmean(statistics.quantiles(b, n=10)[8] for b in per_block) * 1e3, "ms"),
        "peak_rss_mb": _metric(wl.peak_rss_mb(), "MB"),
        "mean_width": _metric(statistics.fmean(widths), "probability"),
    }


def per_layer(wl, records, import_times) -> dict:
    tot = Counter()
    for span_list in wl.span_lists():
        tot.update(spans.totals(span_list))

    def ratio(a, b):
        return a / b if b else 0.0

    def self_us(key):
        return ratio(tot[f"{key}.self_s"] * 1e6, tot[f"{key}.calls"])

    plain_cli = {}
    if isinstance(wl, workloads.CliFixtures):
        for rec in records:
            if not rec.traced:
                plain_cli.setdefault(rec.op[0], []).append(rec.seconds)

    def cli_ms(kind):
        return statistics.median(plain_cli[kind]) * 1e3 if kind in plain_cli else 0.0

    traced = [rec.seconds for rec in records if rec.traced]
    plain = [rec.seconds for rec in records if not rec.traced]
    overhead = (1.0 - statistics.fmean(plain) / statistics.fmean(traced)) * 100
    tight_calls = tot["oracle.tight.small.calls"] + tot["oracle.tight.large.calls"]
    values = {
        "model.ingest_calls": (tot["model.ingest.calls"], "count"),
        "model.ingest_us": (self_us("model.ingest"), "us"),
        "simgen.sample_self_us": (self_us("simgen.sample"), "us"),
        "simgen.ingest_per_sample": (ratio(tot["simgen.sample.ingests"], tot["simgen.sample.calls"]), "calls/sample"),
        "queryir.parse_us": (self_us("queryir.parse"), "us"),
        "queryir.canonicalize_us": (self_us("queryir.canonicalize"), "us"),
        "engine.bound_calls": (tot["engine.bound.calls"], "count"),
        "engine.bound_self_us": (self_us("engine.bound"), "us"),
        "engine.nodes_per_call": (ratio(tot["engine.bound.nodes"], tot["engine.bound.calls"]), "nodes/call"),
        "engine.us_per_node": (ratio(tot["engine.bound.self_s"] * 1e6, tot["engine.bound.nodes"]), "us/node"),
        "oracle.tight_calls": (tight_calls, "count"),
        "oracle.tight_us_small": (self_us("oracle.tight.small"), "us"),
        "oracle.tight_us_large": (self_us("oracle.tight.large"), "us"),
        "cli.import_ms": (statistics.median(import_times) * 1e3, "ms"),
        "cli.reproduce_ms": (cli_ms("reproduce"), "ms"),
        "cli.bound_oracle_ms": (cli_ms("bound"), "ms"),
        "cli.validate_ms": (cli_ms("validate"), "ms"),
        "bench.trace_overhead_pct": (overhead, "%"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


def measure(name: str, seed: int, seconds: float, trace: bool, *, min_ops: int = MIN_OPS):
    """One run of a workload; returns (result object, failures) and writes both, and any spans, to RESULTS."""
    RESULTS.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed)
    setup_s = set_up(wl, trace)
    # The inputs stay alive for the whole run; frozen, they are not walked by
    # every collection the program's own allocations trigger.
    gc.freeze()
    if trace:
        probe, probes = probe_import, IMPORT_PROBES
    else:
        probe, probes = (lambda: probe_setup(name, seed)), SETUP_PROBES
    records, failures, samples = run_loop(wl, seconds, min_ops, trace, probe, probes)
    failures.update(wl.after_loop())
    if trace:
        metrics = per_layer(wl, records, samples)
        spans.write(RESULTS / f"trace-{name}-seed{seed}.jsonl", wl.span_lists())
    else:
        metrics = end_to_end(wl, [setup_s, *samples], records)
    result = {"correct": not failures, "attempted": len(records), "failed": len(failures), "metrics": metrics}
    detail = {**result, "workload": name, "seed": seed, "seconds": seconds, "errors": sorted(failures.items())}
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (SRC / "pocbounds" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a pocbounds checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(set_up(workloads.WORKLOADS[args.workload](args.seed), trace=False))
        return 0
    result, failures = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in list(failures.values())[:5]:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
