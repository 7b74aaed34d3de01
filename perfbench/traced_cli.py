"""Run one CLI command under the benchmark tracer.

    python3 perfbench/traced_cli.py SPANS_JSON <cli arguments...>

Times the package import as a ``cli.import`` span, runs ``cli.main`` with
every layer wrapped, writes the spans and counters to SPANS_JSON and
exits with the command's exit code.  Stdout is the command's own report,
byte for byte.  The package must be importable (PYTHONPATH=src).
"""

import json
import sys
import time

from bench_trace import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import tropical_transient.cli as cli

    tracer.add_span("cli.import", start, time.perf_counter())
    with tracer:
        code = cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
