"""Benchmark entry point: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload {paper,analysis} \\
        --seed N --seconds S --trace {0,1}

Runs from the root of a checkout.  Repetitions of the workload run one after
another (a closed loop, one process doing the work, jobs=1), each in a fresh
worker process, for as long as another repetition still fits in the time
budget.  With `--trace 0` it reports the end-to-end metrics as medians over
the repetitions; with `--trace 1` it alternates untraced and traced
repetitions and reports the per-layer metrics and the tracing overhead.
Every repetition's outputs are checked; the run fails when a check fails,
when repetitions disagree, or when the outputs differ from the digests
recorded in expected.json for this seed and engine version.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 only when the run
was correct.
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"
# workload and metric names, units and directions are declared only there
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
MIN_SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, *, trace=False, tiny=False, setup_only=False) -> dict:
    """Run one worker to completion and return its result, with setup_s
    measured from before the interpreter starts until set-up ended."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("COALITIONS_JOBS", None)  # it would change cli's default --jobs
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(OUT)]
    cmd += ["--trace"] * trace + ["--tiny"] * tiny + ["--setup-only"] * setup_only
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker ran longer than {WORKER_TIMEOUT_S}s") from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    result["elapsed_s"] = time.monotonic() - spawned_at
    return result


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_reps(workload: str, seed: int, tiny: bool, reps: list[dict]) -> list[str]:
    problems = [p for r in reps for p in r.get("problems", [])]
    digests = [r["digest"] for r in reps if "digest" in r]
    if any(d != digests[0] for d in digests):
        problems.append("repetitions of the same seed produced different outputs")
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    recorded = None if tiny else expected["digests"][workload].get(str(seed))
    if recorded is None or not digests:
        return problems
    engine = reps[0]["versions"]["engine"]
    if engine != expected["engine"]:
        print(f"note: digests were recorded under engine {expected['engine']}, "
              f"this is {engine}; only the structural checks apply", file=sys.stderr)
    elif digests[0] != recorded:
        changed = sorted(k for k in recorded if digests[0].get(k) != recorded[k])
        problems.append(f"outputs differ from the recorded digests: {changed}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few items (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coalitions" / "__init__.py").is_file():
        print(f"error: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One CPU for this process and every worker and oracle stub it starts:
    # an oracle exchange is then a context switch, not a wake-up on another
    # CPU, which unpinned made the external phase vary 3.4-12.3 s across runs
    # on a shared 2-CPU host.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + args.seconds
    kinds = (False, True) if args.trace else (False,)
    reps: list[tuple[bool, dict]] = []
    longest = 0.0
    try:
        while True:
            traced = kinds[len(reps) % len(kinds)]
            rep = spawn(args.workload, args.seed, trace=traced, tiny=args.tiny)
            reps.append((traced, rep))
            longest = max(longest, rep["elapsed_s"])
            if len(reps) >= len(kinds) and time.monotonic() + longest > deadline:
                break
        setups = [r["setup_s"] for _, r in reps]
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, tiny=args.tiny,
                                setup_only=True)["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    all_reps = [r for _, r in reps]
    problems = check_reps(args.workload, args.seed, args.tiny, all_reps)
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    finished = [(t, r) for t, r in reps if "wall_s" in r]
    plain = [r for t, r in finished if not t]
    traced = [r for t, r in finished if t]
    if not plain or (args.trace and not traced):
        print("error: no repetition finished; " + "; ".join(problems), file=sys.stderr)
        return 1

    versions = all_reps[0]["versions"]
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "engine": versions["engine"],
        "python": versions["python"], "numpy": versions["numpy"],
        "nproc": os.cpu_count(), "jobs": 1,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
    }
    print("context " + json.dumps(context))

    if args.trace:
        walls = [r["wall_s"] for r in plain]
        samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
        samples["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced) - statistics.median(walls)
        ]
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": setups,
            "episodes_per_s": [r["episodes"] / r["wall_s"] for r in plain],
            "queries_per_s": [r["queries"] / r["wall_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    if set(samples) != {m["name"] for m in declared}:
        print(f"error: measured metrics {sorted(samples)} differ from BENCHMARK.json's",
              file=sys.stderr)
        return 1

    metrics = {}
    for name, unit in ((m["name"], m["unit"]) for m in declared):
        q1, median, q3 = quartiles(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name:<40} {median:>14.6g} {unit:<6} "
              f"p25 {q1:.6g}  p75 {q3:.6g}  n={len(samples[name])}")
    print(f"{'error_share':<40} {failed / attempted:>14.6g} share  "
          f"({failed} failed of {attempted} attempted)")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = not problems and failed == 0
    print(f"correct: {str(correct).lower()}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
