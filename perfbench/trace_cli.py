"""Traced CLI runner: one hippomem invocation in a fresh interpreter, with spans.

usage: python perfbench/trace_cli.py SPAN_FILE SUBCOMMAND [ARGS...]

Wraps the package's public functions, calls `hippomem.cli.main(argv)` inside
a `cli.main.<subcommand>` span, writes the spans to SPAN_FILE and exits with
main's return code. hippomem must be importable (the benchmark puts `src` on
PYTHONPATH). Import time is measured by the benchmark on its own, with a bare
`import hippomem.cli`.
"""

import sys

import hippomem.cli
from tracer import Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.installed():
            return tracer.span(f"cli.main.{argv[0]}", hippomem.cli.main, argv)
    finally:
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main())
