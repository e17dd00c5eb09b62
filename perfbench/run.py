"""gvaskit time-to-verdict benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: safety-scan, cone-membership, tree-surgery, cli-single-source
(see perfbench/README.md).  Every workload runs in fresh single-threaded
interpreters started from here, so caches and peak memory never carry
over between runs.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json: ``wall_s`` (median time to the full set of verdicts),
``setup_s`` (median over several fresh interpreters of start, import and
input generation) and ``peak_rss_mb``.  With ``--trace 1`` it reports the
per-layer metrics from a traced run and writes its spans to
``.perfbench_run/``.  The last line of standard output is one JSON
object; the exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 7  # fresh interpreters timed for setup_s, the measured run included
TIME_LIMIT = 170.0  # seconds for the whole run, set-up samples included

SINGLE_THREADED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def _spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; return its set-up time and its result."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            capture_output=True, text=True, env=env, timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the {TIME_LIMIT:.0f} s limit") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - started, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT
    root = Path.cwd()
    for need in ("BENCHMARK.json", "src/gvaskit/__init__.py", "tests/golden", "tests/data"):
        if not (root / need).exists():
            print(f"error: {need} not found; run from the root of a gvaskit checkout", file=sys.stderr)
            return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = {**os.environ, **SINGLE_THREADED}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(_spawn(common + ["--phase", "setup"], env, deadline)[0])
        ready, result = _spawn(
            common + ["--phase", "run", "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setup.append(ready)

    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        values = result["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": result["wall_s"], "setup_s": statistics.median(setup), "peak_rss_mb": result["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the worker did not measure {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: untraced repetitions took {result['repetitions']} s", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
