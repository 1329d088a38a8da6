"""dyhat benchmark: one workload, checked answers, metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dyhat source tree.  The workload runs in a child
process (bench/workload.py) so that its set-up time and memory are its own.
SETUP_EACH_SIDE children that only set up run before it and as many after
it, so that the set-ups span the run; setup_s is the median of them all.
With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer ones.  The last line of stdout is the JSON result; the exit code
is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("census-serial", "iso-stream", "cli-oneshot")
SETUP_EACH_SIDE = 8
#: Limits on one child: set-up alone, and set-up plus the measured part.
SETUP_TIMEOUT_S = 20
RUN_MARGIN_S = 100


def _child(args, *extra: str, timeout: float) -> dict:
    command = [
        sys.executable, "-I", os.path.join(BENCH, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    # a session of its own, so that a timeout also stops pool workers and
    # CLI processes the workload started
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dyhat", "__init__.py")):
        print(f"error: no dyhat sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    def setup_only() -> list:
        return [_child(args, "--setup-only", timeout=SETUP_TIMEOUT_S)["setup_s"]
                for _ in range(0 if args.trace else SETUP_EACH_SIDE)]

    try:
        setups = setup_only()
        result = _child(args, timeout=args.seconds + RUN_MARGIN_S)
        setups += setup_only()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {args.workload}: {err}", file=sys.stderr)
        return 2
    setups.append(result["setup_s"])

    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    if set(values) != {m["name"] for m in spec}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {args.workload} seed {args.seed}: {attempted} operations, "
          f"failed_frac {failed / attempted:.4g}")
    for name, value in result["info"].items():
        print(f"# {name} = {value:.6g}")
    for reason in result["reasons"]:
        print(f"# failed: {reason}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
