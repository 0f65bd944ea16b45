"""Traced ``baryflow verify``: the CLI with the benchmark's span wrappers.

Usage: ``python cli_entry.py SPANS.json ALLOC <baryflow CLI arguments>``,
where ALLOC is 1 to record tracemalloc peaks as well, else 0.  Times
``import baryflow.cli``, installs the wrappers of ``tracer.py``, calls
``baryflow.cli.main`` under a ``cli.main`` span and writes the spans to
``SPANS.json`` before exiting with the CLI's exit code.
"""

import json
import sys
import time


def main() -> int:
    spans_path, alloc, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t = time.perf_counter()
    import baryflow.cli

    import_s = time.perf_counter() - t
    from tracer import Tracer

    tracer = Tracer(measure_alloc=alloc)
    tracer.install()
    try:
        return tracer.wrap(baryflow.cli.main, "cli.main")(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({**tracer.dump(), "import_s": import_s}, fh)


if __name__ == "__main__":
    sys.exit(main())
