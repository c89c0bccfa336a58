"""`conjcat` as the `cli_oneshot` workload runs it.

Runs `conjcat.cli.main` on the command-line arguments like the console
script does, and appends one line to standard error,
`bench-times [begun, imported, finished, calls]`: `time.perf_counter()`
when this file starts, when `conjcat.cli` is imported, and when `main`
returns or raises.  With `BENCH_TRACE=1` in the environment, `calls` lists
`[layer, start, end]` for each grammar-file load and sequent parse that
`main` makes; otherwise it is empty.  The parent strips the line and turns
the times into its metrics.  An exception from `main` still propagates, so
a crash looks as it does without this wrapper.
"""

import sys
import time

begun = time.perf_counter()
from conjcat import cli  # noqa: E402

imported = time.perf_counter()

import json  # noqa: E402  (already imported by conjcat.cli)
import os  # noqa: E402

calls = []


def timed(layer, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            calls.append((layer, start, time.perf_counter()))
    return wrapper


if os.environ.get("BENCH_TRACE") == "1":
    for name, layer in (("load_grammar", "fileformat.load"), ("load_bundle", "fileformat.load"),
                        ("parse_sequent", "syntax.parse"),
                        ("parse_macll_sequent", "syntax.parse")):
        setattr(cli, name, timed(layer, getattr(cli, name)))

try:
    code = cli.main(sys.argv[1:])
finally:
    finished = time.perf_counter()
    sys.stdout.flush()
    sys.stderr.write("\nbench-times " + json.dumps([begun, imported, finished, calls]) + "\n")
sys.exit(code)
