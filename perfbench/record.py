"""Record the output digests that run.py checks every run against.

    python3 perfbench/record.py --seeds 0-19

Runs one full-size repetition of every workload for each seed and writes the
digests, with the engine version they were made under, to expected.json.
Record again only when the engine's outputs change on purpose, which also
bumps ENGINE_VERSION.
"""

from __future__ import annotations

import argparse
import json

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    for seed in range(lo, hi + 1):
        for workload in run.WORKLOADS:
            result = run.spawn(workload, seed)
            if result["problems"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed} failed: {result['problems']}")
            engine = result["versions"]["engine"]
            if engine != expected["engine"]:
                expected = {"engine": engine, "digests": {w: {} for w in run.WORKLOADS}}
            expected["digests"][workload][str(seed)] = result["digest"]
            print(f"{workload} seed {seed}: {result['digest']}", flush=True)
        run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
