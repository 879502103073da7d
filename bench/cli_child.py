"""Traced child of the `query` workload.

    SUPERTREES_BENCH_SPAWN=<parent perf_counter at spawn> \
    SUPERTREES_BENCH_TRACE=<output path> python cli_child.py <cli arguments>

Imports supertrees.cli, installs the benchmark's span wrappers, calls
supertrees.cli.main(argv) and writes its spans as JSON when it exits, also
when main raises (the traceback and exit code are then those of
`python -m supertrees.cli`). `import_s` runs from the parent's spawn until
supertrees.cli is imported; perf_counter is CLOCK_MONOTONIC on Linux, so
the parent's and the child's readings compare.
"""

import json
import os
import sys
import time

import supertrees.cli

IMPORTED = time.perf_counter()

from spans import Tracer  # noqa: E402  (imported after the timed import)


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return supertrees.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        record = tracer.record()
        record["import_s"] = IMPORTED - float(os.environ["SUPERTREES_BENCH_SPAWN"])
        with open(os.environ["SUPERTREES_BENCH_TRACE"], "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    raise SystemExit(main())
