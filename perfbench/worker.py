"""One repetition of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's `src/`.  It
imports the engine, builds the inputs, notes when set-up ended, times the
work (optionally traced), checks the outputs and prints one JSON object on
stdout.  A fresh process per repetition keeps the engine's lru caches cold,
as they are for a command-line user.

    python3 perfbench/worker.py --workload paper --seed 0 --out DIR [--trace] [--tiny] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import coalitions

    if SRC.resolve() not in Path(coalitions.__file__).resolve().parents:
        print(f"coalitions imported from {coalitions.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy

    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    work_dir = args.out / f"{args.workload}-{os.getpid()}"
    inputs = setup(args.seed, args.tiny, work_dir)
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time
    ready_at = time.monotonic()
    result = {
        "ready_at": ready_at,
        "versions": {
            "engine": coalitions.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
    try:
        try:
            t0 = time.perf_counter()
            output = run(inputs)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcome = check(inputs, output)
    except Exception:
        traceback.print_exc()
        result.update(attempted=1, failed=1, problems=["the workload raised an exception"])
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result.update(
        wall_s=wall,
        peak_rss_mb=peak_rss_mb,
        episodes=outcome.episodes,
        queries=outcome.queries,
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=outcome.problems,
        digest=outcome.digest,
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.save(args.out / f"trace-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
