"""Condition harness, sweeps, statistics, manifests, determinism."""

import csv
import hashlib
import json
import math
import os
import re
import stat
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from brute_force import brute_bootstrap_ci

from coalitions.game import GameSpec, check_potential_alignment, value_gap_delta
from coalitions.preferences import (
    ChoiceRecord, ExternalEndpointSpec, OracleKind, OracleSpec, Verdict, _quantiles,
    derived_rng, estimate_epsilon,
)
from coalitions.stability import bell_number, find_nash_stable
from coalitions import experiments
from coalitions.dynamics import EpisodeConfig, InitialPartition, run_episode
from coalitions.experiments import (
    Condition,
    Manifest,
    RESULT_COLUMNS,
    SWEEP_COLUMNS,
    SweepAxis,
    atomic_write,
    bootstrap_ci,
    builtin_condition_table,
    condition_from_spec,
    generate_game,
    load_manifest,
    run_condition,
    run_manifest,
    sample_queries,
    sweep,
    sweep_cells,
    write_results_csv,
    _with_intervals,
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
    result = run_condition(cond, game)
    assert result.nash_rate == 1.0
    assert result.ground_truth_rate == 1.0
    assert result.consistency == 1.0
    assert result.conv_mean is not None and result.conv_mean >= 1.0


def test_random_condition_matches_exhaustive_count(six_mixed, monkeypatch):
    monkeypatch.setattr(experiments, "BOOTSTRAP_ITERATIONS", 500)
    cond = Condition(name="random", oracle=None, episodes=2000, seed_base=3, sample_only=True)
    result = run_condition(cond, six_mixed)
    expected = len(find_nash_stable(six_mixed)) / bell_number(6)
    se = math.sqrt(expected * (1 - expected) / cond.episodes)
    assert result.nash_rate == pytest.approx(expected, abs=3 * se + 1e-9)
    assert result.conv_mean is None
    [(lo, hi)] = bootstrap_ci([result.stable_flags], [3])
    assert lo <= result.nash_rate <= hi


@pytest.mark.parametrize("oracle", [None, noisy(0.8)])
def test_run_condition_without_iterations_leaves_the_interval_to_its_flags(six_mixed, oracle):
    cond = Condition(
        name="c", oracle=oracle, episodes=40, seed_base=5, sample_only=oracle is None
    )
    bare = run_condition(cond, six_mixed)
    [full] = _with_intervals([bare], [5])
    assert math.isnan(bare.ci_low) and math.isnan(bare.ci_high)
    assert len(bare.stable_flags) == 40
    assert sum(bare.stable_flags) / 40 == bare.nash_rate
    assert bootstrap_ci([bare.stable_flags], [5]) == [
        (full.ci_low, full.ci_high)
    ]
    assert replace(bare, ci_low=full.ci_low, ci_high=full.ci_high) == full


def test_condition_rejects_no_episodes_and_a_missing_oracle():
    with pytest.raises(ValueError, match="episodes must be >= 1"):
        Condition(name="c", oracle=noisy(0.8), episodes=0)
    with pytest.raises(ValueError, match="dynamics conditions need an oracle"):
        Condition(name="c", oracle=None, episodes=5)


def test_every_seed_entry_point_rejects_a_seed_no_draw_key_holds(six_mixed, tmp_path):
    top, low = 2**63, -(2**63) - 1
    perfect = OracleSpec(kind=OracleKind.PERFECT)
    manifest = dict(game_path=Path("g.json"), output_dir=tmp_path / "out", jobs=1,
                    conditions=(), sweeps=())
    log = [ChoiceRecord(dv, Verdict.PREFER_CANDIDATE) for dv in (-0.2, 0.2)]
    refusals = {
        "seed": [
            lambda s: OracleSpec(kind=OracleKind.PERFECT, seed=s),
            lambda s: EpisodeConfig(game=six_mixed, oracles=(perfect,), seed=s),
            lambda s: Manifest(seed=s, **manifest),
            lambda s: estimate_epsilon(log, seed=s),
        ],
        "episode_id": [lambda s: EpisodeConfig(game=six_mixed, oracles=(perfect,), episode_id=s)],
        "seed_base": [
            lambda s: Condition(name="c", oracle=perfect, episodes=1, seed_base=s),
            lambda s: sweep(six_mixed, SweepAxis.ALPHA, [0.1], perfect, seed_base=s),
        ],
    }
    for name, builds in refusals.items():
        for build in builds:
            for seed in (top, low, 10**20):
                with pytest.raises(ValueError, match=rf"^{name} must lie in \[-2\*\*63, 2\*\*63\)"):
                    build(seed)
    # the ends of the range are seeds; a condition's last episode must be one too
    assert OracleSpec(kind=OracleKind.PERFECT, seed=top - 1).seed == top - 1
    assert Condition(name="c", oracle=perfect, episodes=2, seed_base=low + 1).seed_base == low + 1
    with pytest.raises(ValueError, match=f"seed_base \\+ episodes - 1 must lie .*got {top}$"):
        Condition(name="c", oracle=perfect, episodes=2, seed_base=top - 1)


def test_run_condition_asks_an_external_oracle_only_through_a_session(six_mixed, solo_game):
    oracle = OracleSpec(kind=OracleKind.EXTERNAL, external=ExternalEndpointSpec(command=("stub",)))
    condition = Condition(name="ext", oracle=oracle, episodes=3)
    # run_condition opens no session: the first query of the first episode raises
    with pytest.raises(RuntimeError, match="requires an open plugin session"):
        run_condition(condition, six_mixed)
    # a lone agent asks nothing, and no consistency query is sampled
    result = run_condition(condition, solo_game)
    assert (result.nash_rate, result.consistency) == (1.0, None)


def test_run_condition_without_logs_aggregates_as_with_them(six_mixed):
    cond = Condition(name="c", oracle=noisy(0.7), episodes=60, seed_base=9)
    logs = []
    kept = run_condition(cond, six_mixed, on_log=logs.append)
    bare = run_condition(cond, six_mixed)
    assert len(logs) == 60
    assert kept == bare


def test_on_log_gets_each_log_in_episode_order_as_run_episode_gives_it(six_mixed):
    cond = Condition(name="c", oracle=noisy(0.7), episodes=12, seed_base=4)
    logs = []
    run_condition(cond, six_mixed, on_log=logs.append)
    direct = [
        run_episode(
            EpisodeConfig(
                game=six_mixed, oracles=(cond.effective_oracle(),) * six_mixed.n,
                initial=cond.initial, max_rounds=cond.max_rounds, rule=cond.rule,
                seed=cond.seed_base + i, episode_id=i, record_queries=False,
            )
        )
        for i in range(cond.episodes)
    ]
    assert [log.config.episode_id for log in logs] == list(range(12))
    assert logs == direct


def test_sample_only_condition_hands_no_log(six_mixed):
    logs = []
    cond = Condition(name="random", oracle=None, episodes=5, seed_base=1, sample_only=True)
    run_condition(cond, six_mixed, on_log=logs.append)
    assert logs == []


def test_rate_monotone_in_consistency_with_matched_seeds(six_mixed):
    rates = []
    for p in (0.64, 0.86):
        cond = Condition(
            name=f"p{p}", oracle=noisy(p), episodes=150, seed_base=500,
            initial=InitialPartition(kind="random"),
        )
        result = run_condition(cond, six_mixed)
        rates.append(result.nash_rate)
    se = math.sqrt(0.25 / 150)
    assert rates[1] > rates[0] - 2 * se


def test_welfare_of_mixed_profiles_beats_weakest_clone(six_mixed):
    # the diversity claim that holds under the potential-per-agent proxy:
    # a mixed roster never does worse than a roster cloned from its weakest
    # member (cloning the strongest can beat mixed when solo play dominates)
    def welfare(game):
        cond = Condition(
            name="w", oracle=noisy(0.86, seed=0), episodes=80, seed_base=11,
            initial=InitialPartition(kind="random"),
        )
        return run_condition(cond, game).welfare_mean

    mixed = welfare(six_mixed)
    clones = []
    for agent in six_mixed.agents:
        clone = GameSpec.from_profiles([list(agent.profile.values)] * 6)
        clones.append(welfare(clone))
    assert mixed >= min(clones) - 1e-9


# ---------------------------------------------------------------------------
# bootstrap

@pytest.mark.parametrize("n", [1, 37, 400, 1001])
def test_bootstrap_ci_matches_one_chunk_reference(n, monkeypatch):
    monkeypatch.setattr(experiments, "BOOTSTRAP_ITERATIONS", 2000)
    rng = derived_rng("chunks", n)
    samples = [rng.random() for _ in range(n)]
    # 2000 resamples span several chunks for every n above 16
    assert bootstrap_ci([samples], [n]) == [
        brute_bootstrap_ci(samples, iterations=2000, level=0.95, seed=n)
    ]


@pytest.mark.parametrize("n", [1, 37])
def test_bootstrap_ci_in_one_resample_chunks_matches_the_reference(n, monkeypatch):
    monkeypatch.setattr(experiments, "_BOOTSTRAP_CHUNK", 1)
    monkeypatch.setattr(experiments, "BOOTSTRAP_ITERATIONS", 300)
    rng = derived_rng("chunks", n)
    samples = [rng.random() for _ in range(n)]
    assert bootstrap_ci([samples, samples[::-1]], [n, n]) == [
        brute_bootstrap_ci(s, iterations=300, level=0.95, seed=n) for s in (samples, samples[::-1])
    ]


@pytest.mark.parametrize("iterations", [1, 7, 1000])
def test_batched_bootstrap_equals_lone_calls(iterations, monkeypatch):
    monkeypatch.setattr(experiments, "BOOTSTRAP_ITERATIONS", iterations)
    # mixed lengths (n = 1 included) and seeds, for several iteration
    # counts (1 included); several sets share a stream and one is
    # bootstrapped twice
    rng = derived_rng("batch", 0)
    sets = [[float(rng.random() < 0.6) for _ in range(n)] for n in (400, 1, 37, 400, 400, 37, 1, 5)]
    sets.append(sets[0])
    seeds = [3, 3, 3, 3, 4, 3, 5, 3, 3]
    batched = bootstrap_ci(sets, seeds)
    lone = [bootstrap_ci([s], [sd])[0] for s, sd in zip(sets, seeds)]
    assert batched == lone
    assert batched[1] == brute_bootstrap_ci(sets[1], iterations=iterations, level=0.95, seed=3)
    monkeypatch.setattr(experiments, "BOOTSTRAP_ITERATIONS", 50)
    assert bootstrap_ci(sets[:3], [9] * 3) == [bootstrap_ci([s], [9])[0] for s in sets[:3]]
    assert bootstrap_ci([], []) == []


_QUANTILE_SIZES = list(range(1, 130)) + [199, 400, 401, 999, 1000, 1001, 4096, 9999, 10_000]


@pytest.mark.parametrize("rows", ["floats", "flags", "ties", "nan"])
def test_quantile_helper_equals_np_quantile(rows):
    rng = np.random.default_rng(7)
    alpha = 1 - 0.95
    qs = (alpha / 2, 1 - alpha / 2, 0.0, 0.5, 1.0, 0.3)
    for n in _QUANTILE_SIZES:
        if rows == "floats":
            row = rng.random(n)
        elif rows == "flags":
            row = (rng.random(n) < 0.6).astype(float)
        else:
            row = rng.integers(0, 4, n) / 7
        if rows == "nan":
            row[rng.integers(0, n)] = np.nan
        got = _quantiles(row, qs)
        want = np.quantile(row, qs).tolist()
        if rows == "nan":
            assert all(math.isnan(x) for x in got + want), n
        else:
            assert got == want, n


def test_bootstrap_rejects_empty_sets_and_unmatched_parameters():
    with pytest.raises(ValueError, match="at least one sample"):
        bootstrap_ci([[0.5], []], [0, 0])
    with pytest.raises(ValueError, match="one seed per sample set"):
        bootstrap_ci([[0.5], [0.2]], [1])


def test_bootstrap_degenerate_samples(monkeypatch):
    monkeypatch.setattr(experiments, "BOOTSTRAP_ITERATIONS", 200)
    [(lo, hi)] = bootstrap_ci([[0.4] * 25], [1])
    assert lo == hi == pytest.approx(0.4)


def test_bootstrap_width_matches_binomial_se():
    rng = derived_rng("bern", 4)
    samples = [1.0 if rng.random() < 0.732 else 0.0 for _ in range(400)]
    [(lo, hi)] = bootstrap_ci([samples], [4])
    half_width = (hi - lo) / 2
    assert half_width == pytest.approx(0.043, abs=0.01)


def test_bootstrap_coverage(monkeypatch):
    monkeypatch.setattr(experiments, "BOOTSTRAP_ITERATIONS", 600)
    hits = 0
    trials = 300
    for t in range(trials):
        rng = derived_rng("cover", t)
        samples = [rng.random() for _ in range(1000)]
        [(lo, hi)] = bootstrap_ci([samples], [t])
        hits += lo <= 0.5 <= hi
    assert hits / trials >= 0.94


def test_bootstrap_is_seeded(monkeypatch):
    monkeypatch.setattr(experiments, "BOOTSTRAP_ITERATIONS", 500)
    rng = derived_rng("seeded-ci", 0)
    samples = [rng.random() for _ in range(50)]
    assert bootstrap_ci([samples], [1]) == bootstrap_ci([samples], [1])
    assert bootstrap_ci([samples], [1]) != bootstrap_ci([samples], [2])


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
        seed_base=2,
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
    assert failed.name == "lambda=0.2" and failed.n_episodes == 0
    assert math.isnan(failed.ci_low) and math.isnan(failed.ci_high)
    assert math.isnan(cells[1].delta)
    alone = []
    for cell in (cells[0], cells[2]):
        result = run_condition(
            Condition(
                name=f"lambda={cell.value:g}",
                oracle=replace(oracle, epsilon=cell.value, critical_gap=None),
                episodes=30,
                seed_base=6,
            ),
            six_mixed,
        )
        [(lo, hi)] = bootstrap_ci([result.stable_flags], [6])
        alone.append(replace(result, ci_low=lo, ci_high=hi))
    assert [cells[0].result, cells[2].result] == alone
    # the two cells' intervals differ, so a mix-up of cells would show
    assert (alone[0].ci_low, alone[0].ci_high) != (alone[1].ci_low, alone[1].ci_high)


@pytest.mark.parametrize(
    "axis, values, message",
    [
        (SweepAxis.AGENT_COUNT, [3, 0], "agents=0: agent counts lie in 1..20"),
        (SweepAxis.AGENT_COUNT, [3, 21], "agents=21: agent counts lie in 1..20"),
        (SweepAxis.AGENT_COUNT, [3, math.inf], "agents=inf: not a whole number"),
        (SweepAxis.DIMENSION, [2, 2.5], "dimension=2.5: not a whole number"),
        (SweepAxis.ALPHA, [0.2, -0.1], "alpha=-0.1: alpha must be > 0"),
        (SweepAxis.ALPHA, [0.2, "0.1"], "alpha='0.1': not a float"),
        (SweepAxis.ALPHA, [0.2, None], "alpha=None: not a float"),
        (SweepAxis.ALPHA, [0.2, True], "alpha=True: not a float"),
        (SweepAxis.BETA, [1.2, 10**400], f"beta={10**400}: not a float"),
    ],
    ids=[
        "agents-0", "agents-21", "agents-inf", "dimension-2.5", "alpha-negative",
        "alpha-string", "alpha-null", "alpha-bool", "beta-int-beyond-float",
    ],
)
def test_sweep_refuses_a_cell_before_any_cell_runs(six_mixed, monkeypatch, axis, values, message):
    monkeypatch.setattr(experiments, "run_condition", pytest.fail)
    for build in (sweep_cells, sweep):
        with pytest.raises(ValueError, match=f"^sweep cell {re.escape(message)}$"):
            build(six_mixed, axis, values, noisy(0.86), episodes=20, seed_base=6)


def test_sweep_runs_the_cells_sweep_cells_builds(six_mixed):
    built = sweep_cells(six_mixed, SweepAxis.AGENT_COUNT, [4, 6], noisy(0.86), episodes=20,
                        seed_base=6)
    assert [(value, game.n, c.name) for value, game, c in built] == [
        (4.0, 4, "agents=4"), (6.0, 6, "agents=6"),
    ]
    # both cells draw from the profile pool of the largest count
    assert built[0][1].agents == built[1][1].agents[:4]
    cells = sweep(six_mixed, SweepAxis.AGENT_COUNT, [4, 6], noisy(0.86), episodes=20, seed_base=6)
    assert [(c.value, c.delta, c.result.name) for c in cells] == [
        (value, value_gap_delta(game), condition.name) for value, game, condition in built
    ]


def test_beta_sweep_runs_each_cell_on_the_game_at_that_beta(six_mixed):
    oracle = noisy(0.86)
    cells = sweep(six_mixed, SweepAxis.BETA, [1.0, 1.6], oracle, episodes=20, seed_base=3)
    for cell in cells:
        game = six_mixed.with_params(beta=cell.value)
        result = run_condition(
            Condition(name=f"beta={cell.value:g}", oracle=oracle, episodes=20, seed_base=3),
            game,
        )
        [(lo, hi)] = bootstrap_ci([result.stable_flags], [3])
        assert cell.result == replace(result, ci_low=lo, ci_high=hi)
        assert cell.delta == value_gap_delta(game)
    # the two betas give the cells different games
    assert cells[0].result.welfare_mean != cells[1].result.welfare_mean


def test_dimension_sweep_runs(six_mixed):
    cells = sweep(
        six_mixed, SweepAxis.DIMENSION, [2, 3], noisy(0.86), episodes=20, seed_base=4
    )
    assert all(0 <= c.result.nash_rate <= 1 for c in cells)


# ---------------------------------------------------------------------------
# output files

def test_results_csv_schema(tmp_path, six_mixed, monkeypatch):
    monkeypatch.setattr(experiments, "BOOTSTRAP_ITERATIONS", 100)
    cond = Condition(
        name="tiny", oracle=noisy(0.86), episodes=10, seed_base=1,
        initial=InitialPartition(kind="random"),
    )
    result = run_condition(cond, six_mixed)
    [(lo, hi)] = bootstrap_ci([result.stable_flags], [1])
    result = replace(result, ci_low=lo, ci_high=hi)
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


def test_every_agent_of_a_two_agent_game_has_a_consistency_query(dominated_pair):
    for seed in range(5):
        queries = sample_queries(dominated_pair, 40, seed)
        assert len(queries) == 40 and {q.agent for q in queries} == {0, 1}
        assert all(q.candidate.mask | 1 << q.agent != q.current.mask for q in queries)


def test_generated_games_of_one_pool_share_a_roster_prefix():
    big = generate_game(5, 2, 0.15, 1.3, seed=3, pool=5)
    assert generate_game(3, 2, 0.15, 1.3, seed=3, pool=5).agents == big.agents[:3]
    for n in (5, 0, -1):
        with pytest.raises(ValueError, match=f"^agent count {n} outside 1..3, the profile pool$"):
            generate_game(n, 2, 0.15, 1.3, seed=3, pool=3)


def test_run_condition_on_one_agent_game(solo_game, deadline):
    condition = Condition(name="solo", oracle=noisy(0.8), episodes=5, seed_base=1)
    with deadline(10):
        result = run_condition(condition, solo_game)
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


_PAPER_SHAPED_RUN = """
import sys
from importlib import resources
from pathlib import Path
from coalitions.experiments import Manifest, run_manifest
conditions = ("random", "greedy", "standard", "cot", "self_consistency", "staged")
run_manifest(Manifest(
    game_path=Path(str(resources.files("coalitions.data").joinpath("six_mixed.json"))),
    output_dir=Path(sys.argv[1]), seed=0, jobs=1,
    conditions=tuple({"name": c, "episodes": 20} for c in conditions),
    sweeps=(
        {"axis": "agents", "values": [4, 6], "episodes": 20},
        {"axis": "alpha", "values": [0.10, 0.20], "episodes": 20},
    ),
))
print(*sys.modules, sep="\\n")
"""


def test_a_paper_shaped_run_imports_no_numpy_ma(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(experiments.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PAPER_SHAPED_RUN, str(tmp_path)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    loaded = set(done.stdout.split())
    assert "numpy" in loaded and (tmp_path / "results.csv").is_file()
    assert "numpy.ma" not in loaded


def test_a_condition_that_raises_leaves_no_log_file(tmp_path, monkeypatch, six_mixed):
    from coalitions.experiments import Manifest
    from coalitions.game import save_game

    save_game(six_mixed, tmp_path / "game.json")
    real_run, real_write = experiments.run_episode, experiments.write_episode_log
    seen, written = [], []

    def failing(config):
        # each earlier episode's log went to the file as it returned
        assert written == seen
        if config.episode_id == 5:
            raise RuntimeError("forced failure")
        seen.append(config.episode_id)
        return real_run(config)

    def write(log, target):
        written.append(log.config.episode_id)
        real_write(log, target)

    monkeypatch.setattr(experiments, "run_episode", failing)
    monkeypatch.setattr(experiments, "write_episode_log", write)
    out = tmp_path / "out"
    manifest = Manifest(
        game_path=tmp_path / "game.json", output_dir=out, seed=0, jobs=1,
        conditions=({"name": "staged", "episodes": 20},), sweeps=(),
    )
    with pytest.raises(RuntimeError, match="forced failure"):
        run_manifest(manifest)
    # five episodes were written to the temp file before the failure
    assert seen == written == [0, 1, 2, 3, 4]
    assert sorted(p.name for p in out.iterdir()) == ["run_metadata.json"]


def test_runs_are_serial(tmp_path):
    from coalitions.experiments import Manifest

    fields = dict(
        game_path=tmp_path / "game.json", output_dir=tmp_path / "out", seed=0,
        conditions=(), sweeps=(),
    )
    with pytest.raises(ValueError, match="runs are serial: jobs must be 1, got 2"):
        Manifest(jobs=2, **fields)
    with pytest.raises(ValueError, match="runs are serial: jobs must be 1, got 2"):
        run_manifest(Manifest(jobs=1, **fields), jobs=2)
    assert not (tmp_path / "out").exists()


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


def test_condition_spec_sets_the_initial_partition_and_round_budget():
    spec = {"name": "staged", "initial": "singletons", "max_rounds": "7"}
    condition = condition_from_spec(spec, episodes=50, seed_base=9)
    assert condition.initial == InitialPartition(kind="singletons")
    assert condition.max_rounds == 7
    default = condition_from_spec({"name": "staged"}, episodes=50, seed_base=9)
    assert (default.initial.kind, default.max_rounds) == ("random", 30)
    with pytest.raises(ValueError, match="unknown initial partition kind 'grand'"):
        condition_from_spec({"name": "staged", "initial": "grand"}, episodes=50, seed_base=9)


# each builtin condition's oracle as oracle_to_dict JSON, pinned: the table's
# defaults, the OracleSpec fields and the Condition fields together must keep
# building exactly these
_NOISE = (
    '{"critical_gap": 0.3, "epsilon": 0.15, "kind": "consistency_noise", '
    '"majority_k": %d, "p_critical": %s, "p_easy": 0.98, "seed": 0}'
)
BUILTIN_CONDITION_ORACLES = {
    "random": None,
    "greedy": (
        '{"critical_gap": 0.3, "epsilon": 0.15, "kind": "perfect", '
        '"majority_k": 1, "p_critical": 0.86, "p_easy": 0.98, "seed": 0}'
    ),
    "standard": _NOISE % (1, "0.64"),
    "cot": _NOISE % (1, "0.74"),
    "self_consistency": _NOISE % (3, "0.79"),
    "staged": _NOISE % (1, "0.86"),
}


def test_builtin_conditions_build_the_recorded_oracles():
    from coalitions.dynamics import DeviationRule, oracle_to_dict

    assert set(BUILTIN_CONDITION_ORACLES) == set(builtin_condition_table()["conditions"])
    for name, expected in BUILTIN_CONDITION_ORACLES.items():
        condition = condition_from_spec({"name": name}, episodes=400, seed_base=0)
        oracle = condition.oracle
        got = None if oracle is None else json.dumps(oracle_to_dict(oracle), sort_keys=True)
        assert got == expected, name
        rule = DeviationRule.BEST_IMPROVING if name == "greedy" else DeviationRule.FIRST_IMPROVING
        assert (condition.initial, condition.rule, condition.max_rounds) == (
            InitialPartition(kind="random"), rule, 30,
        )


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
