"""Run one specinv CLI command with the benchmark's tracer installed.

Usage: python bench/traced_cli.py TRACE_JSON OP_ID <specinv arguments...>

Times ``import specinv.cli`` as the span ``cli.import``, installs the
wrappers, runs ``cli.main`` on the remaining arguments, writes the spans to
TRACE_JSON and exits with the command's exit code.  ``specinv`` must be
importable (the benchmark puts ``src`` on PYTHONPATH).
"""

import sys

from tracer import Tracer, install


def main() -> int:
    trace_path, op = sys.argv[1], sys.argv[2]
    tracer = Tracer(op=op)
    idx = tracer.begin("cli.import")
    from specinv import cli

    tracer.end(idx)
    install(tracer)
    try:
        return cli.main(sys.argv[3:])
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
