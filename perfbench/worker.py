"""Run one workload in this interpreter and print its measurements.

run.py starts this file in a fresh single-threaded interpreter, from the
root of a checkout, once per set-up sample and once for the measured
run:

    python3 perfbench/worker.py --workload NAME --seed N --phase setup
    python3 perfbench/worker.py --workload NAME --seed N --phase run --seconds S --trace 0|1

Both phases import gvaskit from ``src/`` and build the inputs, then
print ``time.monotonic()`` at that point as ``ready``, so the launcher can
time interpreter start, import and input generation from outside.  The
run phase then repeats the workload's full set of verdicts while another
repetition fits in ``--seconds`` (at least once; in a traced run, at
least one untraced and one traced repetition, alternating).  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
RUN_DIR = ROOT / ".perfbench_run"


def _import_gvaskit() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gvaskit

    if Path(gvaskit.__file__).resolve().parent != (src / "gvaskit").resolve():
        raise SystemExit(f"gvaskit was imported from {gvaskit.__file__}, not from {src}")


def _reset_caches() -> None:
    """Start every repetition as a fresh interpreter would: empty caches,
    no garbage left by the previous repetition."""
    from gvaskit import reach

    reach.cached_reach.cache_clear()
    reach.cached_cone.cache_clear()
    gc.collect()


def _check_exact(chk, workload: str, values: dict) -> None:
    from workloads import EXACT

    for key, want in EXACT[workload].items():
        if key in values:
            chk.op(f"determinism: {key}", lambda: values[key], expect=want)


def measure(workload: str, seed: int, inputs: dict, seconds: float, trace: bool) -> dict:
    from checker import Checker
    from tracer import NULL, Tracer, span_metrics, traced_boundaries
    from workloads import COUNT_KEYS, WORKLOADS

    run = WORKLOADS[workload][1]
    run_id = f"{workload}/seed{seed}/pid{os.getpid()}"
    chk = Checker()
    walls: list[float] = []
    traced_walls: list[float] = []
    rows: list[dict] = []
    spans: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    k = 0
    while True:
        traced = trace and k % 2 == 1
        tr = Tracer(f"{run_id}/rep{k}") if traced else NULL
        counts: Counter = Counter()
        _reset_caches()
        with traced_boundaries(tr) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            run(inputs, chk, tr, counts)
            wall = time.perf_counter() - t0
        if traced:
            traced_walls.append(wall)
            row = {key: 0 for key in COUNT_KEYS} | span_metrics(tr.spans, wall) | counts
            rows.append(row)
            spans.extend(tr.spans)
            _check_exact(chk, workload, row)
        else:
            walls.append(wall)
            _check_exact(chk, workload, counts)
        k += 1
        longest = max(longest, wall)
        if k >= (2 if trace else 1) and time.perf_counter() - start + longest > seconds:
            break

    out = {
        "attempted": chk.attempted,
        "failed": chk.failed,
        "failures": chk.failures,
        "repetitions": [round(w, 4) for w in walls],
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        layer = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
        layer["trace.wall_s"] = statistics.median(traced_walls)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - out["wall_s"]
        layer["fail_ratio"] = chk.failed / chk.attempted
        out["per_layer"] = layer
        RUN_DIR.mkdir(exist_ok=True)
        (RUN_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(spans), encoding="utf-8")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_gvaskit()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    tmp = RUN_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        inputs = WORKLOADS[args.workload][0](args.seed, tmp)
        result: dict = {"ready": time.monotonic()}
        if args.phase == "run":
            result.update(measure(args.workload, args.seed, inputs, args.seconds, bool(args.trace)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
