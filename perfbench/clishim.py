"""Run the pocbounds CLI with the benchmark's tracer installed.

usage: python perfbench/clishim.py SPANS_OUT <pocbounds arguments...>

Behaves like `python -m pocbounds.cli <arguments>` (same output, same exit
code) and writes the spans it recorded to SPANS_OUT as JSON. Traced
cli_fixtures rounds run each operation through this script.
"""

import json
import sys

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from pocbounds import cli, engine, model, oracle, simgen

    tracer = spans.Tracer(spans.targets(engine, model, oracle, simgen, cli))
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
