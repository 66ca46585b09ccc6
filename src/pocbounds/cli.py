"""Command-line front end.

Subcommands: bound (evaluate a query, optionally with trace/oracle
cross-check), oracle (LP-tight interval only), simulate (random-model study
with CSV output), validate (consistency report), reproduce (bundled worked
examples checked against their published values).

Exit codes: 0 success; 1 usage or data errors, inconsistent data among them;
2 a failed reproduction, oracle containment or validation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .model import DataError, Dataset, Infeasible, Interval, load_dataset
from .queryir import (
    IndexOutOfRange,
    QuerySyntaxError,
    UnsupportedQuery,
    ZeroEvidenceProbability,
    parse_query,
)

# engine, oracle and simgen are imported inside the commands that call them,
# so each process loads only the modules its subcommand runs.

DEFAULT_SEED = 0

_EXAMPLES = ("treatment", "institute", "vaccine", "simulation")

# (query, published lower, published upper) at 3 decimals; the intermediate
# rows are the published calculation steps, the last row the headline bound.
_REPRODUCE_BOUNDS: dict[str, list[tuple[str, str, str]]] = {
    "treatment": [
        ("P(y3_x1, y1_x2)", "0.323", "0.340"),
        ("P(y1_x2, y2_x3)", "0.243", "0.386"),
        ("P(y3_x1, y2_x3)", "0.340", "0.472"),
        ("P(y1_x2, y2_x3, x1, y3)", "0.000", "0.008"),
        ("P(y3_x1, y2_x3, x2, y1)", "0.000", "0.011"),
        ("P(y3_x1, y1_x2, x3, y2)", "0.000", "0.080"),
        ("P(y3_x1, y1_x2, y2_x3)", "0.000", "0.099"),
    ],
    "institute": [
        ("P(y1_x3 | x2, y2)", "0.720", "1.000"),
        ("P(y1_x4 | x2, y2)", "0.000", "0.042"),
    ],
    "vaccine": [
        ("P(y4_x2, x1, y1)", "0.000", "0.005"),
        ("P(y1_x1, x2, y4)", "0.000", "0.034"),
        ("P(y4_x2, x1, y2)", "0.037", "0.062"),
        ("P(y2_x1, x2, y4)", "0.000", "0.015"),
        ("P(y4_x2, x1, y3)", "0.502", "0.527"),
        ("P(y3_x1, x2, y4)", "0.000", "0.034"),
        ("P(y1_x1, y4_x2)", "0.000", "0.039"),
        ("P(y2_x1, y4_x2)", "0.037", "0.077"),
        ("P(y3_x1, y4_x2)", "0.502", "0.561"),
    ],
}

_SIM_SAMPLES = 1000
_SIM_EXPECTED_GAP = 0.228
_SIM_GAP_TOL = 0.03


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit 1, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def _int_at_least(least: int, kind: str):
    """An argparse type for a decimal integer >= least."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"invalid {kind} integer: {text!r}")
        return int(text)

    return parse


_positive_int, _nonnegative_int = _int_at_least(1, "positive"), _int_at_least(0, "non-negative")


def fixture_path(name: str) -> Path:
    return Path(__file__).with_name("fixtures") / f"{name}.json"


def _fmt(interval: Interval) -> str:
    return f"[{interval.lo:.6f}, {interval.hi:.6f}]"


def _print_violations(violations, out) -> None:
    for v in violations:
        print(f"  x{v.j},y{v.i}: lower violated by {v.magnitude:.6g}", file=out)


def _cmd_validate(args) -> int:
    dataset = load_dataset(args.data)
    if dataset.validation.ok:
        print(f"validation: OK ({dataset.space.m} treatments, {dataset.space.n} outcomes)")
        return 0
    print(f"validation: {len(dataset.validation.violations)} violation(s)")
    _print_violations(dataset.validation.violations, sys.stdout)
    return 2


def _cmd_bound(args) -> int:
    from . import engine

    dataset = load_dataset(args.data)
    query = parse_query(args.query, dataset.space)
    result = engine.bound(dataset, query, trace=args.trace)
    print(_fmt(result.interval))
    if args.trace:
        print(json.dumps(result.trace.to_json(), indent=2))
    if args.oracle:
        from . import oracle

        tight = oracle.tight_bounds(dataset, query)
        print(f"oracle: {_fmt(tight)}")
        # Both paths round the same exact ends once: no slack is needed.
        contained = result.interval.lo <= tight.lo and tight.hi <= result.interval.hi
        print(f"oracle containment: {'ok' if contained else 'VIOLATED'}")
        if not contained:
            return 2
    return 0


def _cmd_oracle(args) -> int:
    from . import oracle

    dataset = load_dataset(args.data)
    query = parse_query(args.query, dataset.space)
    print(_fmt(oracle.tight_bounds(dataset, query)))
    return 0


def _cmd_simulate(args) -> int:
    from . import simgen

    summary = simgen.run_simulation(args.samples, seed=args.seed)
    if args.out:
        simgen.write_csv(summary, args.out)
        print(f"wrote {summary.num_samples} rows to {args.out}")
    else:
        sys.stdout.write(simgen.export_csv(summary))
    report = sys.stdout if args.out else sys.stderr
    print(f"average_gap: {summary.average_gap:.6f}", file=report)
    print(f"containment_rate: {summary.containment_rate:.6f}", file=report)
    return 0


def _check_rows(dataset: Dataset, rows) -> tuple[list[str], bool]:
    from . import engine

    lines, ok = [], True
    for text, elo, ehi in rows:
        result = engine.bound(dataset, parse_query(text, dataset.space), trace=False)
        alo, ahi = f"{result.interval.lo:.3f}", f"{result.interval.hi:.3f}"
        match = (alo, ahi) == (elo, ehi)
        ok &= match
        lines.append(
            f"  {text:32s} expected [{elo}, {ehi}]  got [{alo}, {ahi}]"
            f"  {'ok' if match else 'MISMATCH'}"
        )
    return lines, ok


def _cmd_reproduce(args) -> int:
    if args.example == "simulation":
        from . import simgen

        summary = simgen.run_simulation(_SIM_SAMPLES, seed=DEFAULT_SEED)
        print(f"samples: {summary.num_samples}")
        print(f"average_gap: {summary.average_gap:.6f}")
        print(f"containment_rate: {summary.containment_rate:.6f}")
        ok = abs(summary.average_gap - _SIM_EXPECTED_GAP) <= _SIM_GAP_TOL
        print(
            f"published average gap {_SIM_EXPECTED_GAP} +/- {_SIM_GAP_TOL}: "
            f"{'ok' if ok else 'MISMATCH'}"
        )
        return 0 if ok else 2
    dataset = load_dataset(fixture_path(args.example))
    lines, ok = _check_rows(dataset, _REPRODUCE_BOUNDS[args.example])
    print(f"example: {args.example}")
    for line in lines:
        print(line)
    print("all values match" if ok else "MISMATCH against published values")
    return 0 if ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="pocbounds", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="bound a counterfactual query on a dataset")
    p.add_argument("--data", required=True, help="dataset JSON file")
    p.add_argument("--query", required=True, help='query text, e.g. "P(y1_x1, y1_x2)"')
    trace_help = "print the derivation tree as JSON, naming each node's theorem (T1-T8, Exact, Zero)"
    p.add_argument("--trace", action="store_true", help=trace_help)
    p.add_argument("--oracle", action="store_true", help="also print the LP-tight interval")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("oracle", help="LP-tight interval for a query")
    p.add_argument("--data", required=True)
    p.add_argument("--query", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("simulate", help="random-model simulation study")
    p.add_argument("--samples", type=_positive_int, default=_SIM_SAMPLES)
    p.add_argument("--seed", type=_nonnegative_int, default=DEFAULT_SEED)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="check the consistency relations")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reproduce", help="re-run a bundled worked example")
    p.add_argument("--example", required=True, choices=_EXAMPLES)
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuerySyntaxError as exc:
        print(f"query syntax error: {exc}", file=sys.stderr)
        return 1
    except (IndexOutOfRange, UnsupportedQuery) as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 1
    except Infeasible as exc:
        print(f"inconsistent data: {exc}", file=sys.stderr)
        _print_violations(exc.violations, sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except ZeroEvidenceProbability as exc:
        print(f"undefined conditional: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
