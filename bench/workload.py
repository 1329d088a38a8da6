"""One workload in a process of its own: set up, then measure or trace.

    python -I bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only]

Prints one JSON line.  Each workload is a closed loop with one client: the
next operation starts when the previous one has returned.  One operation is
one census call, four isomorphic() calls or two CLI processes.  Inputs come
from gen.py and answers are checked by check.py; neither imports dyhat.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import islice  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

#: Groups of four pairs generated at a time, outside the timed calls.
CHUNK = 64
#: Operations per pass of a traced run.
TRACE_CENSUS_CALLS = 4
TRACE_ISO_GROUPS = 250
TRACE_CLI_OPS = 10
WARMUP_GROUPS = 2
GROUP_TAGS = ("Trivial", "C2", "C3", "S3")


def _import_dyhat():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dyhat
    import dyhat.classify

    return dyhat


class Census:
    """Serial census(15, 15).  The grid is fixed, so the seed is unused.

    A job is the worker count; only the traced run adds a pooled call.
    """

    def __init__(self, seed: int):
        self.dyhat = _import_dyhat()
        if not self.dyhat.classify.census(5, 5, workers=1).ok:
            raise RuntimeError("warm-up census failed")

    def next_job(self):
        return 1

    def traced_passes(self, tally, out_dir) -> dict:
        passes = _in_process_passes(self, [1] * TRACE_CENSUS_CALLS, tally)
        passes["layers"] = _census_layers(self, passes["untraced_ns"], tally)
        return passes

    def run(self, workers):
        # looked up on each call so that the traced pass sees its wrapper
        return self.dyhat.classify.census(check.CENSUS_MAX, check.CENSUS_MAX,
                                          workers=workers)

    def check(self, job, report) -> str | None:
        return check.check_census(census_rows(report), report.ok)

    def info(self) -> dict:
        return {}


def census_rows(report) -> list:
    return [
        [r.j, r.m, r.pointed_classes, r.isomorphism_classes,
         *(r.aut_counts[t] for t in GROUP_TAGS), r.orbit_ok]
        for r in report.rows
    ]


class IsoStream:
    """isomorphic(t1, t2) on seeded pairs.

    One operation is four calls, one per kind of pair: small or large,
    isomorphic or not.  Every operation then holds the same mix, so that
    operations are alike and each pays for large numbers and the oracle.
    """

    def __init__(self, seed: int):
        self.dyhat = _import_dyhat()
        self.quads = gen.quad_stream(seed)
        self.ready = []
        self.shares = Counter()
        for _ in range(WARMUP_GROUPS):
            self.run(self.next_job())

    def _triangle(self, tri):
        d = self.dyhat.DyadicRational
        return self.dyhat.Triangle.of(*[(d(*x), d(*y)) for x, y in tri])

    def next_job(self):
        if not self.ready:
            self.ready = [
                [(p, self._triangle(p.t1), self._triangle(p.t2)) for p in quad]
                for quad in islice(self.quads, CHUNK)
            ][::-1]
        return self.ready.pop()

    def traced_passes(self, tally, out_dir) -> dict:
        jobs = [self.next_job() for _ in range(TRACE_ISO_GROUPS)]
        return _in_process_passes(self, jobs, tally)

    def run(self, job):
        isomorphic = self.dyhat.classify.isomorphic
        return [isomorphic(t1, t2) for _, t1, t2 in job]

    def check(self, job, results) -> str | None:
        for (pair, _, _), result in zip(job, results):
            self.shares["calls"] += 1
            self.shares["positive"] += pair.positive
            self.shares["large"] += pair.large
            reason = check.check_iso(pair, result.isomorphic,
                                     witness_fractions(result.witness))
            if reason:
                return reason
        return None

    def info(self) -> dict:
        calls = self.shares["calls"] or 1
        return {"positive_share": self.shares["positive"] / calls,
                "large_share": self.shares["large"] / calls}


def witness_fractions(witness) -> tuple | None:
    """An AffineMap as (a, b, c, d, tx, ty) Fractions, read off its fields."""
    if witness is None:
        return None
    lin, t = witness.linear, witness.translation
    return tuple(gen.to_fraction((v.num, v.exp))
                 for v in (lin.a, lin.b, lin.c, lin.d, t.x, t.y))


class CliOneShot:
    """Fresh processes: one operation is `canon <triangle>` then `iso --json <a> <b>`.

    Both kinds of launch are in every operation, so that a slower iso
    subcommand or JSON output shows in every operation.
    """

    def __init__(self, seed: int):
        self.jobs = gen.cli_stream(seed)
        #: (path prefix, mode) while a traced pass asks launches for records
        self.record = None
        self.shares = Counter()
        self.run(self.next_job())

    def next_job(self):
        tri, pair = next(self.jobs)
        return (tri, ["canon", gen.triangle_literal(tri)]), \
            (pair, ["iso", "--json", gen.triangle_literal(pair.t1),
                    gen.triangle_literal(pair.t2)])

    def traced_passes(self, tally, out_dir) -> dict:
        jobs = [self.next_job() for _ in range(TRACE_CLI_OPS)]
        return _cli_passes(self, jobs, tally, out_dir)

    def run(self, job):
        return [self._launch(argv, k) for k, (_, argv) in enumerate(job)]

    def _launch(self, argv, k: int):
        env = dict(os.environ)
        if self.record:
            prefix, mode = self.record
            env.update(BENCH_LAUNCH_OUT=f"{prefix}.{k}", BENCH_LAUNCH_MODE=mode)
        command = [sys.executable, "-I", os.path.join(BENCH, "launch.py"), *argv]
        return subprocess.run(command, capture_output=True, text=True, env=env,
                              timeout=60)

    def check(self, job, procs) -> str | None:
        (tri, _), (pair, _) = job
        canon, iso = procs
        if canon.returncode != 0:
            return f"canon exited {canon.returncode}: {canon.stderr.strip()}"
        reason = check.check_canon(tri, canon.stdout)
        if reason:
            return reason
        self.shares["iso"] += 1
        self.shares["positive"] += pair.positive
        expected = 0 if pair.positive else 3
        if iso.returncode != expected:
            return f"iso exited {iso.returncode}, expected {expected}"
        try:
            answer = json.loads(iso.stdout)["iso"]
            witness = answer["map"] and check.witness_from_json(answer["map"])
        except (ValueError, KeyError, TypeError) as err:
            return f"malformed iso output: {err}"
        return check.check_iso(pair, answer["result"], witness)

    def info(self) -> dict:
        return {"iso_positive_share": self.shares["positive"] / (self.shares["iso"] or 1)}


WORKLOADS = {
    "census-serial": Census,
    "iso-stream": IsoStream,
    "cli-oneshot": CliOneShot,
}


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def run(self, workload, job) -> int:
        """Time one operation, check its answer; returns nanoseconds."""
        start = time.perf_counter_ns()
        try:
            result = workload.run(job)
        except Exception as err:  # a raised error is a failed operation
            elapsed = time.perf_counter_ns() - start
            reason = f"{type(err).__name__}: {err}"
        else:
            elapsed = time.perf_counter_ns() - start
            reason = workload.check(job, result)
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return elapsed


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def reference_ns() -> int:
    """Time of a fixed pure-Python kernel: how fast the host runs right now.

    Fraction arithmetic on small dyadic values, about 1.8 ms on a 2-vCPU
    Xeon VM when the host is quiet.  It does not touch dyhat.
    """
    start = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, 1 << (i % 9)) * Fraction(3, 1 << (i % 5))
    return time.perf_counter_ns() - start


def measure(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics of a closed loop run for about `seconds`.

    No operation starts that would, at the mean pace so far, end late.
    Each operation follows a run of the reference kernel, and the bounded
    latency metric is the median of operation time over kernel time.  The
    host's speed moves by up to 1.8x between 30-second windows, which moves
    the median, the tail and even the fastest operation of a run by up to
    50% between runs; the ratio moves by a few percent in-process and by
    about 10% on cli-oneshot.  The times in ms go to `summary`.
    """
    latencies, ratios = [], []
    start = time.perf_counter()
    while len(latencies) < 2 or (
        (time.perf_counter() - start) * (1 + 1 / len(latencies)) <= seconds
    ):
        ref_ns = reference_ns()
        latencies.append(tally.run(workload, workload.next_job()))
        ratios.append(latencies[-1] / ref_ns)
    summary = {
        "ops": len(latencies),
        "op_ms_min": min(latencies) / 1e6,
        "op_ms_p50": statistics.median(latencies) / 1e6,
        "op_ms_p90": statistics.quantiles(latencies, n=10)[8] / 1e6,
        "ops_per_s": len(latencies) / (sum(latencies) / 1e9),
    }
    return {"op_cost_ref": statistics.median(ratios), "peak_rss_mb": peak_rss_mb()}, summary


def trace(workload, name: str, seed: int, tally: Tally) -> dict:
    """Per-layer metrics: untraced, traced and counting passes on one job list.

    The spans are written to .bench_out/ as JSON rows (see tracer.to_json).
    The tracer's overhead is estimated as spans times the calibrated cost
    of one span over the untraced time: the cost is below 1% on iso-stream
    and cli-oneshot, and comparing traced with untraced wall time measures
    swings in host speed instead.
    """
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    passes = workload.traced_passes(tally, out_dir)
    spans = passes["spans"]
    with open(os.path.join(out_dir, f"spans-{name}-{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(tracer.to_json(spans), fh)
    traced, untraced = passes["traced_ns"], passes["untraced_ns"]
    metrics = layer_metrics(spans, len(traced), sum(traced), passes["counts"])
    metrics["trace.overhead_frac"] = len(spans) * tracer.span_cost_ns() / sum(untraced)
    metrics.update(passes.get("layers", {}))
    return metrics


def _in_process_passes(workload, jobs, tally) -> dict:
    """Each job untraced then traced, alternating; then a counting pass.

    Returns the nanoseconds of each job, untraced and traced.
    """
    tr = tracer.Tracer()
    untraced, traced = [], []
    for request, job in enumerate(jobs):
        untraced.append(tally.run(workload, job))
        tr.request = request
        with tr.installed():
            traced.append(tally.run(workload, job))
    counts = Counter()
    with tracer.counting(counts):
        for job in jobs:
            tally.run(workload, job)
    return {"untraced_ns": untraced, "traced_ns": traced,
            "spans": tr.spans, "counts": counts}


def _cli_passes(workload, jobs, tally, out_dir: str) -> dict:
    """The same passes, each CLI process writing its record to a scratch file.

    Per launch of a job: a bare interpreter; then the job untraced, with
    launches that stamp their import and run times, and the job traced.
    """
    spans, counts, stamps = [], Counter(), defaultdict(list)
    times = defaultdict(list)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        prefix = os.path.join(tmp, "launch")

        def records(mode, job) -> list:
            paths = [f"{prefix}.{k}" for k in range(len(job))]
            for path in paths:
                if os.path.exists(path):
                    os.remove(path)
            workload.record = (prefix, mode)
            times[mode].append(tally.run(workload, job))
            loaded = []
            for path in paths:
                with open(path, encoding="utf-8") as fh:
                    loaded.append(json.load(fh))
            return loaded

        for request, job in enumerate(jobs):
            for _ in job:
                start = time.perf_counter_ns()
                subprocess.run([sys.executable, "-I", "-c", "pass"], check=True,
                               timeout=60)
                stamps["interp_ms"].append((time.perf_counter_ns() - start) / 1e6)
            launched = records("stamp", job)
            stamps["import_ms"] += [r["import_ms"] for r in launched]
            stamps["run_ms"].append(sum(r["run_ms"] for r in launched))
            for record in records("spans", job):
                offset = len(spans)
                for row in record["spans"]:
                    span = tracer.Span(*row)
                    span.request = request
                    if span.parent >= 0:
                        span.parent += offset
                    spans.append(span)
        for job in jobs:
            for record in records("counts", job):
                counts.update(record["counts"])
        workload.record = None
    return {
        "untraced_ns": times["stamp"], "traced_ns": times["spans"],
        "spans": spans, "counts": counts,
        "layers": {f"cli.{name}": statistics.median(values)
                   for name, values in stamps.items()},
    }


def _census_layers(workload, serial_ns: list, tally: Tally) -> dict:
    """Cell time and pool efficiency from the fastest untraced calls.

    Two-worker calls run beside the serial ones; pool workers are not
    traced, so this ratio is the pool's layer number.
    """
    pooled_ns = [tally.run(workload, 2) for _ in range(TRACE_CENSUS_CALLS)]
    return {
        "classify.cell.us_per_hat": min(serial_ns) / 1e3 / check.CENSUS_HATS,
        "classify.pool.efficiency": min(serial_ns) / (2 * min(pooled_ns)),
    }


#: Per-layer metrics that only some workloads supply; the others read 0.
WORKLOAD_LAYERS = ("classify.cell.us_per_hat", "classify.pool.efficiency",
                   "cli.interp_ms", "cli.import_ms", "cli.run_ms")


def layer_metrics(spans, ops: int, traced_ns: int, counts: Counter) -> dict:
    """Per-layer metrics from spans and counts; a layer never called reads 0."""
    own = tracer.self_times(spans)
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)

    def mean_us(name, times):
        indices = by_name[name]
        if not indices:
            return 0.0
        return sum(times[k] for k in indices) / len(indices) / 1e3

    durations = [s.duration for s in spans]
    solves = by_name["oracle.solve"]
    oracle_top = sum(
        s.duration for s in spans
        if s.name.startswith("oracle.")
        and (s.parent < 0 or not spans[s.parent].name.startswith("oracle."))
    )
    values = {
        "hats.normalize.calls": len(by_name["hats.normalize"]) / ops,
        "hats.normalize.us_per_call": mean_us("hats.normalize", durations),
        "hats.normalize.share":
            sum(durations[k] for k in by_name["hats.normalize"]) / traced_ns,
        "hats.encoding_triples.us_per_call":
            mean_us("hats.encoding_triples", durations),
        "oracle.solve.calls": len(solves) / ops,
        "oracle.solve.us_per_call": mean_us("oracle.solve", durations),
        "oracle.solve.hit_ratio":
            sum(spans[k].hit for k in solves) / len(solves) if solves else 0.0,
        "oracle.share": oracle_top / traced_ns,
        "classify.aut.us_per_call": mean_us("classify.aut", durations),
        "classify.decide.self_us_per_call": mean_us("classify.isomorphic", own),
    }
    for name in ("geometry.affine_compose.calls", "classify.iso_case.calls",
                 "dyadic.constructed", "dyadic.arith_ops"):
        values[name] = counts[name] / ops
    return {**dict.fromkeys(WORKLOAD_LAYERS, 0.0), **values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _STARTED
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tally = Tally()
        summary = {}
        if args.trace:
            metrics = trace(workload, args.workload, args.seed, tally)
        else:
            metrics, summary = measure(workload, args.seconds, tally)
        result.update(
            attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons,
            metrics=metrics, info={**summary, **workload.info()},
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
