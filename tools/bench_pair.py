"""Alternating before/after benchmark pairs, recorded in a BENCH_<label>.json.

    python3 tools/bench_pair.py --parent REV --label NAME --pairs N [--seed S]

Runs from the root of a checkout.  The parent revision is exported with
`git archive` into `.bench_build/<sha>/` (gitignored; reused when already
there); the change side is this working tree as it stands.  Each side runs
its own `perfbench/run.py`, as a fresh checkout of that revision would.

For each workload BENCHMARK.json declares, pair i runs
`perfbench/run.py --workload W --seed S+i --seconds T --trace 0` once per
side, T being BENCHMARK.json's `run_seconds`.  The side that runs first
alternates from pair to pair.  The file written at the repository root holds
both revisions (with a digest of each side's `src/`, which ties a
working-tree run to the commit made from it), the host (`nproc`, Python and
numpy versions), every run's end-to-end medians and `correct` verdict, and
per metric the medians and quartiles of both sides and the change's wins out
of N pairs (ties count for neither side).  The exit code is 0 only when
every run was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def export(rev: str) -> tuple[str, Path]:
    """The commit `rev` names and a directory holding its committed files."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = BUILD / sha
    if not dest.is_dir():
        partial = BUILD / f"{sha}.partial"
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        try:
            subprocess.run(["tar", "-x", "-C", str(partial)], stdin=archive.stdout, check=True)
        finally:
            archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
        partial.rename(dest)
    return sha, dest


def tree_digest(directory: Path) -> str:
    """sha256 over the relative paths and bytes of a directory's files,
    build outputs left out."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        rel = path.relative_to(directory)
        if path.is_file() and "out" not in rel.parts and "__pycache__" not in rel.parts:
            h.update(str(rel).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_once(side: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "exit_code": done.returncode, "stderr": done.stderr[-2000:]}
    out = {name: result["metrics"][name]["value"] for name in END_TO_END}
    out.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"], exit_code=done.returncode)
    return out


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(pairs: list[dict]) -> dict:
    summary = {}
    for name, better in END_TO_END.items():
        both = [p for p in pairs if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        parent = [p["parent"][name] for p in both]
        change = [p["change"][name] for p in both]
        sign = 1 if better == "lower" else -1
        summary[name] = {
            "better": better,
            "parent_median": statistics.median(parent),
            "parent_quartiles": quartiles(parent),
            "change_median": statistics.median(change),
            "change_quartiles": quartiles(change),
            "wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
            "pairs": len(both),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    parent_sha, parent_dir = export(args.parent)
    seconds = float(SPEC["run_seconds"])
    sides = {"parent": parent_dir, "change": ROOT}
    record = {
        "label": args.label,
        "parent": {"sha": parent_sha, "src_digest": tree_digest(parent_dir / "src")},
        "change": {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain")),
                   "src_digest": tree_digest(ROOT / "src")},
        "same_perfbench": tree_digest(parent_dir / "perfbench") == tree_digest(ROOT / "perfbench"),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
        "workloads": {},
    }
    out_path = ROOT / f"BENCH_{args.label}.json"
    correct = True
    for workload in WORKLOADS:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, seconds)
                correct &= pair[side]["correct"]
                print(f"{workload} seed {seed} {side}: "
                      + json.dumps({k: pair[side].get(k) for k in ("wall_s", "correct")}),
                      flush=True)
            pairs.append(pair)
            record["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs)}
            # rewritten after every pair, so an interrupted run keeps its pairs
            out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path.name}")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
