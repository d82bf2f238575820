"""Condition harness, sweeps, statistics, manifests, determinism."""

import csv
import hashlib
import json
import math
import os
import stat
from dataclasses import replace

import pytest

from brute_force import brute_bootstrap_ci

from coalitions.game import GameSpec, check_potential_alignment
from coalitions.preferences import OracleKind, OracleSpec, derived_rng
from coalitions.stability import bell_number, find_nash_stable
from coalitions.dynamics import InitialPartition
from coalitions.experiments import (
    Condition,
    RESULT_COLUMNS,
    SWEEP_COLUMNS,
    SweepAxis,
    atomic_write,
    bonferroni_correct,
    bootstrap_ci,
    builtin_condition_table,
    condition_from_spec,
    generate_game,
    load_manifest,
    run_condition,
    run_manifest,
    sample_queries,
    sweep,
    wilcoxon_signed_rank,
    write_results_csv,
)


def noisy(p, seed=0, k=1):
    return OracleSpec(
        kind=OracleKind.CONSISTENCY_NOISE, p_critical=p, p_easy=0.98,
        critical_gap=0.3, seed=seed, majority_k=k,
    )


# ---------------------------------------------------------------------------
# run_condition

def aligned_game(seed_start=1):
    seed = seed_start
    while True:
        game = generate_game(4, 3, 0.15, 1.3, seed=seed, lo=0.0, hi=1.0)
        if check_potential_alignment(game).passed:
            return game
        seed += 1


def test_perfect_oracle_always_stabilizes():
    game = aligned_game()
    cond = Condition(
        name="perfect",
        oracle=OracleSpec(kind=OracleKind.PERFECT),
        episodes=100,
        seed_base=7,
        initial=InitialPartition(kind="random"),
    )
    result = run_condition(cond, game, keep_logs=False, bootstrap_iterations=500)
    assert result.nash_rate == 1.0
    assert result.ground_truth_rate == 1.0
    assert result.consistency == 1.0
    assert result.conv_mean is not None and result.conv_mean >= 1.0


def test_random_condition_matches_exhaustive_count(six_mixed):
    cond = Condition(name="random", oracle=None, episodes=2000, seed_base=3, sample_only=True)
    result = run_condition(cond, six_mixed, bootstrap_iterations=500)
    expected = len(find_nash_stable(six_mixed)) / bell_number(6)
    se = math.sqrt(expected * (1 - expected) / cond.episodes)
    assert result.nash_rate == pytest.approx(expected, abs=3 * se + 1e-9)
    assert result.conv_mean is None
    assert result.ci_low <= result.nash_rate <= result.ci_high


@pytest.mark.parametrize("oracle", [None, noisy(0.8)])
def test_run_condition_without_iterations_leaves_the_interval_to_its_flags(six_mixed, oracle):
    cond = Condition(
        name="c", oracle=oracle, episodes=40, seed_base=5, sample_only=oracle is None
    )
    full = run_condition(cond, six_mixed, bootstrap_iterations=300)
    bare = run_condition(cond, six_mixed, bootstrap_iterations=0)
    assert math.isnan(bare.ci_low) and math.isnan(bare.ci_high)
    assert len(bare.stable_flags) == 40
    assert sum(bare.stable_flags) / 40 == bare.nash_rate
    assert bootstrap_ci([bare.stable_flags], iterations=300, seed=5) == [
        (full.ci_low, full.ci_high)
    ]
    assert replace(bare, ci_low=full.ci_low, ci_high=full.ci_high) == full


def test_rate_monotone_in_consistency_with_matched_seeds(six_mixed):
    rates = []
    for p in (0.64, 0.86):
        cond = Condition(
            name=f"p{p}", oracle=noisy(p), episodes=150, seed_base=500,
            initial=InitialPartition(kind="random"),
        )
        result = run_condition(cond, six_mixed, keep_logs=False, bootstrap_iterations=500)
        rates.append(result.nash_rate)
    se = math.sqrt(0.25 / 150)
    assert rates[1] > rates[0] - 2 * se


def test_parallel_execution_matches_serial(six_mixed):
    cond = Condition(
        name="par", oracle=noisy(0.8, seed=0), episodes=40, seed_base=77,
        initial=InitialPartition(kind="random"),
    )
    serial = run_condition(cond, six_mixed, jobs=1, bootstrap_iterations=200)
    parallel = run_condition(cond, six_mixed, jobs=4, bootstrap_iterations=200)
    assert serial.nash_rate == parallel.nash_rate
    assert serial.welfare_mean == parallel.welfare_mean
    assert [l.outcome for l in serial.logs] == [l.outcome for l in parallel.logs]


def test_welfare_of_mixed_profiles_beats_weakest_clone(six_mixed):
    # the diversity claim that holds under the potential-per-agent proxy:
    # a mixed roster never does worse than a roster cloned from its weakest
    # member (cloning the strongest can beat mixed when solo play dominates)
    def welfare(game):
        cond = Condition(
            name="w", oracle=noisy(0.86, seed=0), episodes=80, seed_base=11,
            initial=InitialPartition(kind="random"),
        )
        return run_condition(cond, game, keep_logs=False, bootstrap_iterations=200).welfare_mean

    mixed = welfare(six_mixed)
    clones = []
    for agent in six_mixed.agents:
        clone = GameSpec.from_profiles([list(agent.profile.values)] * 6)
        clones.append(welfare(clone))
    assert mixed >= min(clones) - 1e-9


# ---------------------------------------------------------------------------
# bootstrap

@pytest.mark.parametrize("n", [1, 37, 400, 1001])
def test_bootstrap_ci_matches_one_chunk_reference(n):
    rng = derived_rng("chunks", n)
    samples = [rng.random() for _ in range(n)]
    # 2000 resamples span several chunks for every n above 131
    assert bootstrap_ci([samples], iterations=2000, level=0.9, seed=n) == [
        brute_bootstrap_ci(samples, iterations=2000, level=0.9, seed=n)
    ]


@pytest.mark.parametrize("iterations", [1, 7, 1000])
def test_batched_bootstrap_equals_lone_calls(iterations):
    # mixed lengths (n = 1 included) and seeds, for several iteration
    # counts (1 included); several sets share a stream and one is
    # bootstrapped twice
    rng = derived_rng("batch", 0)
    sets = [[float(rng.random() < 0.6) for _ in range(n)] for n in (400, 1, 37, 400, 400, 37, 1, 5)]
    sets.append(sets[0])
    seeds = [3, 3, 3, 3, 4, 3, 5, 3, 3]
    batched = bootstrap_ci(sets, iterations=iterations, level=0.9, seed=seeds)
    lone = [
        bootstrap_ci([s], iterations=iterations, level=0.9, seed=sd)[0]
        for s, sd in zip(sets, seeds)
    ]
    assert batched == lone
    assert batched[1] == brute_bootstrap_ci(sets[1], iterations=iterations, level=0.9, seed=3)
    assert bootstrap_ci(sets[:3], iterations=50, seed=9) == [
        bootstrap_ci([s], iterations=50, seed=9)[0] for s in sets[:3]
    ]
    assert bootstrap_ci([]) == []


def test_bootstrap_rejects_empty_sets_and_unmatched_parameters():
    with pytest.raises(ValueError, match="at least one sample"):
        bootstrap_ci([[0.5], []])
    with pytest.raises(ValueError, match="one seed per sample set"):
        bootstrap_ci([[0.5], [0.2]], seed=[1])


def test_bootstrap_degenerate_samples():
    [(lo, hi)] = bootstrap_ci([[0.4] * 25], iterations=200, seed=1)
    assert lo == hi == pytest.approx(0.4)


def test_bootstrap_width_matches_binomial_se():
    rng = derived_rng("bern", 4)
    samples = [1.0 if rng.random() < 0.732 else 0.0 for _ in range(400)]
    [(lo, hi)] = bootstrap_ci([samples], iterations=10_000, seed=4)
    half_width = (hi - lo) / 2
    assert half_width == pytest.approx(0.043, abs=0.01)


def test_bootstrap_coverage():
    hits = 0
    trials = 300
    for t in range(trials):
        rng = derived_rng("cover", t)
        samples = [rng.random() for _ in range(1000)]
        [(lo, hi)] = bootstrap_ci([samples], iterations=600, seed=t)
        hits += lo <= 0.5 <= hi
    assert hits / trials >= 0.94


def test_bootstrap_is_seeded():
    rng = derived_rng("seeded-ci", 0)
    samples = [rng.random() for _ in range(50)]
    assert bootstrap_ci([samples], iterations=500, seed=1) == bootstrap_ci(
        [samples], iterations=500, seed=1
    )
    assert bootstrap_ci([samples], iterations=500, seed=1) != bootstrap_ci(
        [samples], iterations=500, seed=2
    )


# ---------------------------------------------------------------------------
# wilcoxon and bonferroni

def test_wilcoxon_rejects_uniform_improvement():
    pairs = [(i + 1.0, i + 0.5) for i in range(20)]
    result = wilcoxon_signed_rank(pairs)
    assert result.statistic == 0
    assert result.p_value < 0.001


def test_wilcoxon_accepts_symmetric_noise():
    accepted = 0
    trials = 100
    for t in range(trials):
        rng = derived_rng("wilcoxon", t)
        pairs = [(rng.random(), rng.random()) for _ in range(100)]
        if wilcoxon_signed_rank(pairs).p_value > 0.05:
            accepted += 1
    assert accepted >= 90


def test_wilcoxon_all_ties_errors():
    with pytest.raises(ValueError, match="tied"):
        wilcoxon_signed_rank([(1.0, 1.0), (2.0, 2.0)])


def test_wilcoxon_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = derived_rng("scipy-check", 1)
    pairs = [(rng.random(), rng.random() * 0.9) for _ in range(40)]
    ours = wilcoxon_signed_rank(pairs)
    a, b = zip(*pairs)
    ref = scipy_stats.wilcoxon(a, b, correction=False, mode="approx")
    assert ours.statistic == pytest.approx(ref.statistic, abs=1e-9)
    assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-6)


def test_bonferroni():
    report = bonferroni_correct([0.004, 0.2, 0.0001], alpha=0.01)
    assert report.adjusted_alpha == pytest.approx(0.01 / 3)
    assert report.significant == (False, False, True)
    assert report.adjusted_p[2] == pytest.approx(0.0003)


# ---------------------------------------------------------------------------
# sweeps

def test_alpha_sweep_reports_delta_per_cell(six_mixed):
    cells = sweep(
        six_mixed, SweepAxis.ALPHA, [0.10, 0.15, 0.20], noisy(0.86), episodes=20,
        seed_base=1,
    )
    assert [c.value for c in cells] == [0.10, 0.15, 0.20]
    for c in cells:
        assert c.delta > 0


def test_agent_count_sweep_rates_non_increasing(six_mixed):
    cells = sweep(
        six_mixed, SweepAxis.AGENT_COUNT, [4, 6, 8], noisy(0.86), episodes=120,
        seed_base=2, profile_lo=0.55, profile_hi=0.85,
    )
    rates = [c.result.nash_rate for c in cells]
    se = 2 * math.sqrt(0.25 / 120)
    assert all(b <= a + se for a, b in zip(rates, rates[1:]))


def test_lambda_sweep_degrades_consistency_and_stability(six_mixed):
    cells = sweep(
        six_mixed, SweepAxis.LAMBDA, [0.15, 0.24], noisy(0.86), episodes=150,
        seed_base=3,
    )
    assert cells[0].result.consistency > cells[1].result.consistency
    se = 2 * math.sqrt(0.25 / 150)
    assert cells[0].result.nash_rate >= cells[1].result.nash_rate - se


@pytest.mark.parametrize("breaks", ["run_condition", "run_episode", "value_gap_delta"])
def test_sweep_keeps_a_failed_cell_and_the_intervals_of_the_others(six_mixed, monkeypatch, breaks):
    from coalitions import experiments

    inner = getattr(experiments, breaks)
    deltas = []

    def failing(first, *args, **kwargs):
        # the middle cell fails: its condition, its episodes, or the second
        # delta computed
        if breaks == "run_condition":
            fails = first.name == "lambda=0.2"
        elif breaks == "run_episode":
            fails = first.oracles[0].epsilon == 0.2
        else:
            deltas.append(first)
            fails = len(deltas) == 2
        if fails:
            raise RuntimeError("boom")
        return inner(first, *args, **kwargs)

    monkeypatch.setattr(experiments, breaks, failing)
    oracle = noisy(0.86)
    cells = sweep(six_mixed, SweepAxis.LAMBDA, [0.1, 0.2, 0.3], oracle, episodes=30, seed_base=6)
    failed = cells[1].result
    assert failed.name == "lambda=0.2 [failed: boom]"
    assert math.isnan(failed.ci_low) and math.isnan(failed.ci_high)
    assert math.isnan(cells[1].delta)
    alone = [
        run_condition(
            Condition(
                name=f"lambda={cell.value:g}",
                oracle=replace(oracle, epsilon=cell.value, critical_gap=None),
                episodes=30,
                seed_base=6,
            ),
            six_mixed,
            keep_logs=False,
        )
        for cell in (cells[0], cells[2])
    ]
    assert [cells[0].result, cells[2].result] == alone
    # the two cells' intervals differ, so a mix-up of cells would show
    assert (alone[0].ci_low, alone[0].ci_high) != (alone[1].ci_low, alone[1].ci_high)


def test_dimension_sweep_runs(six_mixed):
    cells = sweep(
        six_mixed, SweepAxis.DIMENSION, [2, 3], noisy(0.86), episodes=20, seed_base=4
    )
    assert all(0 <= c.result.nash_rate <= 1 for c in cells)


# ---------------------------------------------------------------------------
# output files

def test_results_csv_schema(tmp_path, six_mixed):
    cond = Condition(
        name="tiny", oracle=noisy(0.86), episodes=10, seed_base=1,
        initial=InitialPartition(kind="random"),
    )
    result = run_condition(cond, six_mixed, keep_logs=False, bootstrap_iterations=100)
    path = tmp_path / "results.csv"
    write_results_csv([result], path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(RESULT_COLUMNS)
    assert rows[0]["condition"] == "tiny"
    assert rows[0]["n_episodes"] == "10"
    assert float(rows[0]["ci_lo"]) <= float(rows[0]["nash_rate"]) <= float(rows[0]["ci_hi"])


def test_atomic_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        with atomic_write(target) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_gives_files_the_umask_mode(tmp_path, umask, mode):
    # mkstemp creates 0o600 files; results must get the mode open() gives
    previous = os.umask(umask)
    try:
        write_results_csv([], tmp_path / "results.csv")
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "results.csv").stat().st_mode) == mode


def test_manifest_run_is_deterministic(tmp_path, six_mixed):
    from coalitions.game import save_game

    game_path = tmp_path / "game.json"
    save_game(six_mixed, game_path)
    manifest_data = {
        "game": "game.json",
        "seed": 5,
        "conditions": [
            {"name": "staged", "episodes": 25},
            {"name": "random", "episodes": 25, "sample_only": True},
        ],
        "sweeps": [
            {"axis": "lambda", "values": [0.15, 0.2], "episodes": 10}
        ],
    }
    results = []
    for run_dir in ("a", "b"):
        mpath = tmp_path / f"manifest_{run_dir}.json"
        manifest_data["output_dir"] = run_dir
        mpath.write_text(json.dumps(manifest_data))
        written = run_manifest(load_manifest(mpath))
        results.append({k: p.read_bytes() for k, p in written.items()})
    assert set(results[0]) == set(results[1])
    for key in results[0]:
        assert results[0][key] == results[1][key], f"{key} differs between runs"
    out_a = tmp_path / "a"
    assert (out_a / "results.csv").exists()
    assert (out_a / "sweep_lambda.csv").exists()
    assert (out_a / "episodes_staged.jsonl").exists()
    with open(out_a / "sweep_lambda.csv", newline="") as fh:
        assert list(csv.DictReader(fh))[0].keys() == set(SWEEP_COLUMNS)


def test_one_agent_game_has_no_consistency_queries(solo_game, deadline):
    # the only deviation check of a lone agent is the self-comparison
    with deadline(5):
        assert sample_queries(solo_game, 30, 0) == []


def test_run_condition_on_one_agent_game(solo_game, deadline):
    condition = Condition(name="solo", oracle=noisy(0.8), episodes=5, seed_base=1)
    with deadline(10):
        result = run_condition(condition, solo_game, bootstrap_iterations=100)
    assert result.consistency is None
    assert result.nash_rate == 1.0 and result.n_errors == 0
    assert result.row()[RESULT_COLUMNS.index("consistency")] == ""


# sha256 of every digested output of a paper-shaped manifest (the six
# builtin conditions and both paper sweeps, 20 episodes each, seed 0), so a
# change to any output byte fails here and not only in the 60-s benchmark.
# The sample-only condition writes an empty episodes_random.jsonl.
PAPER_SHAPED_DIGESTS = {
    "results.csv": "9430c9a1252780d14e1e7389a68f8e3eef1eebbdbfd2c1fb8845c524b6b9c39b",
    "sweep_agents.csv": "cba5386f3393686a7427a78318b488b330fed380bcfb263a15e9a79f581874c6",
    "sweep_alpha.csv": "7517f5091923b66fafb4ac1b95ce5c40ff1c4d26e97d3ef0782437498109a8b0",
    "episodes_random.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "episodes_greedy.jsonl": "8eebd6d675c4e6c85197b98ccd65370840063355900042d8b35b1d31ac0d347c",
    "episodes_standard.jsonl": "31f5c91d05806fb5aa81caa191a224c0ae5925026275782f2068c532af959df1",
    "episodes_cot.jsonl": "8c5c07ae7ae0579d0c40fe69638f1bdfdb110cf76ebde2402757ce76f74db07a",
    "episodes_self_consistency.jsonl": "feb3b184e86e1bc47a1a8f226b95e0c57b0d9ce7ffbd51346e85401ffd1cb56d",
    "episodes_staged.jsonl": "9b10ee6edcaab03006fb242b24b785c1ee5bd7064f8c52f0404c8c47e7bcee63",
}


def test_paper_shaped_manifest_bytes_are_pinned(tmp_path):
    from importlib import resources
    from pathlib import Path

    from coalitions.experiments import Manifest

    conditions = ("random", "greedy", "standard", "cot", "self_consistency", "staged")
    manifest = Manifest(
        game_path=Path(str(resources.files("coalitions.data").joinpath("six_mixed.json"))),
        output_dir=tmp_path,
        seed=0,
        jobs=1,
        conditions=tuple({"name": c, "episodes": 20} for c in conditions),
        sweeps=(
            {"axis": "agents", "values": [4, 6], "episodes": 20},
            {"axis": "alpha", "values": [0.10, 0.20], "episodes": 20},
        ),
    )
    written = run_manifest(manifest)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for key, p in written.items()
        if key != "metadata"
    }
    assert digests == PAPER_SHAPED_DIGESTS


def test_builtin_condition_table_round_trip():
    table = builtin_condition_table()
    assert set(table["conditions"]) == {
        "random", "greedy", "standard", "cot", "self_consistency", "staged",
    }
    staged = condition_from_spec({"name": "staged"}, episodes=50, seed_base=9)
    assert staged.oracle.kind is OracleKind.CONSISTENCY_NOISE
    assert staged.oracle.p_critical == 0.86
    assert staged.oracle.gap_threshold == pytest.approx(0.3)
    sc = condition_from_spec({"name": "self_consistency"}, episodes=50, seed_base=9)
    assert sc.oracle.majority_k == 3
    greedy = condition_from_spec({"name": "greedy"}, episodes=50, seed_base=9)
    assert greedy.oracle.kind is OracleKind.PERFECT
    from coalitions.dynamics import DeviationRule

    assert greedy.rule is DeviationRule.BEST_IMPROVING
    rand = condition_from_spec({"name": "random"}, episodes=50, seed_base=9)
    assert rand.sample_only


def test_pairwise_welfare_tests(six_mixed):
    from coalitions.experiments import pairwise_welfare_tests

    results = []
    for p in (0.64, 0.86):
        cond = Condition(
            name=f"p{p}", oracle=noisy(p), episodes=60, seed_base=404,
            initial=InitialPartition(kind="random"),
        )
        results.append(run_condition(cond, six_mixed, bootstrap_iterations=100))
    comparisons = pairwise_welfare_tests(results, alpha=0.01)
    assert len(comparisons) == 1
    c = comparisons[0]
    assert (c.condition_a, c.condition_b) == ("p0.64", "p0.86")
    assert 0 <= c.p_value <= 1
    assert c.adjusted_p == pytest.approx(c.p_value)  # single test: no inflation


@pytest.mark.parametrize(
    "seed, head, digest",
    [
        (0, [(1, 18, 32), (1, 42, 0), (4, 56, 0)],
         "a2d9c14c01887d0f77673cc0ae03bb7c1a8160a0f3f23251f3fc610c24c3ef08"),
        (7, [(1, 3, 0), (1, 7, 16), (3, 24, 4)],
         "4225d9238b97c5efe90b901ede0bfbe9ad891fba489fe82e4f1a1d5f2f3eb35e"),
    ],
)
def test_sample_queries_pinned(six_mixed, seed, head, digest):
    # (agent, current mask, candidate mask) of each seeded consistency query
    queries = [
        (q.agent, q.current.mask, q.candidate.mask)
        for q in sample_queries(six_mixed, 30, seed)
    ]
    assert queries[:3] == head
    assert hashlib.sha256(json.dumps(queries).encode()).hexdigest() == digest
    assert all(q[2] | 1 << q[0] != q[1] for q in queries)  # no self-comparisons
