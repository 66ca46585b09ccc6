"""In-memory span tracing around the program's public functions.

The tracer replaces functions in the module namespaces where the program
looks them up, so calls made inside the program (run_simulation calling
simgen.bound, the CLI calling engine.bound) are recorded too. Spans nest by
call order, since everything runs on one thread; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter


def _nodes(args, result):
    return result.stats_evaluated


def _size(args, result):
    space = args[0].space
    return "small" if space.m <= 3 and space.n <= 3 else "large"


def targets(engine, model, oracle, simgen, cli=None):
    """(module, attribute, span name, attribute extractor) for every wrapped function."""
    found = [
        (model, "dataset_from_counts", "model.ingest", None),
        (model, "dataset_from_probs", "model.ingest", None),
        (model, "dataset_from_json", "model.ingest", None),
        (simgen, "dataset_from_probs", "model.ingest", None),
        (simgen, "generate_sample", "simgen.sample", None),
        (simgen, "bound", "engine.bound", _nodes),
        (engine, "bound", "engine.bound", _nodes),
        (engine, "parse_query", "queryir.parse", None),
        (engine, "canonicalize", "queryir.canonicalize", None),
        (oracle, "parse_query", "queryir.parse", None),
        (oracle, "canonicalize", "queryir.canonicalize", None),
        (oracle, "tight_bounds", "oracle.tight", _size),
    ]
    if cli is not None:
        found.append((cli, "parse_query", "queryir.parse", None))
    return found


class Tracer:
    """Records [name, start, end, parent index, attribute] lists while installed."""

    def __init__(self, wrapped):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrapped = wrapped
        self._originals: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, extract in self._wrapped:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, extract))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name, extract):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extract is not None:
                span[4] = extract(args, result)
            return result

        return traced


def totals(spans) -> Counter:
    """Additive per-span-name sums, so totals from several processes can be merged."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = Counter()
    for idx, (name, start, end, parent, attr) in enumerate(spans):
        key = f"{name}.{attr}" if name == "oracle.tight" else name
        out[f"{key}.calls"] += 1
        out[f"{key}.self_s"] += end - start - child_time[idx]
        if name == "engine.bound":
            out["engine.bound.nodes"] += attr
        if name == "model.ingest" and parent >= 0 and spans[parent][0] == "simgen.sample":
            out["simgen.sample.ingests"] += 1
    return out


def write(path, spans_by_process) -> None:
    """One JSON line per span: process number, name, start, end, parent, attribute."""
    with open(path, "w", encoding="utf-8") as fh:
        for proc, spans in enumerate(spans_by_process):
            for span in spans:
                fh.write(json.dumps([proc, *span]) + "\n")
