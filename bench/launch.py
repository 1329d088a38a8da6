"""Run one dyhat command line in a fresh process: dyhat.cli.run(argv).

Usage: python -I bench/launch.py <dyhat arguments...>

The benchmark always starts the CLI through this file, so that runs made
before and after the package gains other entry points time the same path.
With BENCH_LAUNCH_OUT set, it also writes its import and run times there as
JSON, plus spans (BENCH_LAUNCH_MODE=spans) or call counts
(BENCH_LAUNCH_MODE=counts) from bench/tracer.py.
"""

import os
import sys
import time

start = time.perf_counter()
_BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_BENCH), "src"))
import dyhat.cli  # noqa: E402

imported = time.perf_counter()
out = os.environ.get("BENCH_LAUNCH_OUT")
mode = os.environ.get("BENCH_LAUNCH_MODE")
if not out:
    sys.exit(dyhat.cli.run(sys.argv[1:]))

import json  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402

sys.path.insert(0, _BENCH)
import tracer  # noqa: E402

record = {"import_ms": (imported - start) * 1e3}
tr, counts = tracer.Tracer(), Counter()
if mode == "spans":
    context = tr.installed()
elif mode == "counts":
    context = tracer.counting(counts)
else:
    context = nullcontext()
with context:
    begin = time.perf_counter()
    code = dyhat.cli.run(sys.argv[1:])
    record["run_ms"] = (time.perf_counter() - begin) * 1e3
sys.stdout.flush()
record["spans"] = tracer.to_json(tr.spans)
record["counts"] = dict(counts)
with open(out, "w", encoding="utf-8") as fh:
    json.dump(record, fh)
sys.exit(code)
