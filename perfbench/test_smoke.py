"""Smoke test of the benchmark harness, so that it cannot rot silently.

Runs every workload at a tiny size, untraced and traced, and checks that
the correctness gate passes and that every metric BENCHMARK.json names is
printed with its unit; then forces failures into a tiny `paper` run and
checks that the gate counts them.  It lives outside the tier-1 test paths:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from coalitions import experiments  # noqa: E402
from coalitions.dynamics import EpisodeOutcome  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_the_workloads():
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_at_tiny_size(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace == "1" else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in group}


def test_fails_without_the_engine_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    shutil.copy(BENCH_DIR / "expected.json", tmp_path / "perfbench")
    done = bench("--workload", "paper", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _failing_cell(monkeypatch):
    real = experiments.run_condition

    def run_condition(condition, game, **kwargs):
        if condition.name == "agents=6":
            raise RuntimeError("forced failure")
        return real(condition, game, **kwargs)

    monkeypatch.setattr(experiments, "run_condition", run_condition)


def _error_episodes_in_a_sweep(monkeypatch):
    real = experiments.run_episode

    def run_episode(config, *args, **kwargs):
        log = real(config, *args, **kwargs)
        if config.game.n == 8:  # only the agents=8 sweep cell has 8 agents
            return dataclasses.replace(log, outcome=EpisodeOutcome.ERROR, error="forced")
        return log

    monkeypatch.setattr(experiments, "run_episode", run_episode)


@pytest.mark.parametrize(("force", "failed", "problem"), [
    (_failing_cell, 1, "failed sweep cell: agents,6.0,0,nan"),
    (_error_episodes_in_a_sweep, 20, "episode ended in error"),
])
def test_paper_gate_counts_failures_inside_sweeps(force, failed, problem, tmp_path, monkeypatch):
    force(monkeypatch)
    manifest = workloads.setup_paper(3, True, tmp_path)
    out = workloads.check_paper(manifest, workloads.run_paper(manifest))
    assert out.failed == failed
    assert any(p.startswith(problem) for p in out.problems), out.problems
