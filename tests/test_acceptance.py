"""Acceptance suite: one test per exit criterion, one printed line each.

Every tolerance is pinned here; nothing defers to later calibration.  Each
criterion prints `ACCEPTANCE nn PASS/FAIL <name>` so a run can be audited
from the log alone (run with -s or read captured output).
"""

import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from time import perf_counter

import pytest

from brute_force import brute_value
from prompt_corpus import completion_corpus

from coalitions.game import (
    Coalition,
    Partition,
    check_potential_alignment,
    coalition_value,
    per_capita_value,
    value_gap_delta,
)
from coalitions.preferences import (
    ChoiceRecord,
    ExternalEndpointSpec,
    OracleKind,
    OracleSpec,
    decide,
    derived_rng,
    estimate_epsilon,
)
from coalitions.stability import (
    enumerate_partitions,
    find_nash_stable,
    verify_individual,
    verify_nash,
)
from coalitions.dynamics import (
    DeviationRule,
    EpisodeConfig,
    EpisodeOutcome,
    InitialPartition,
    convergence_bound,
    run_episode,
    write_episode_log,
)
from coalitions.bounds import (
    BoundInputs,
    consistency_regression,
    gamma_formula_bound,
    measure_bound_inputs,
    stability_lower_bound,
)
from coalitions.experiments import Condition, SweepAxis, generate_game, run_condition, sweep
from coalitions.plugin import open_sessions, parse_declaration

PERFECT = OracleSpec(kind=OracleKind.PERFECT)

REFERENCE_POINTS = [
    (0.71, 0.521),
    (0.64, 0.418),
    (0.74, 0.584),
    (0.79, 0.627),
    (0.86, 0.732),
]


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {name}")
        raise
    elapsed = perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"ACCEPTANCE {num:02d} PASS {name} [{elapsed:.2f}s]")


def noisy(p: float, seed: int = 0, k: int = 1) -> OracleSpec:
    return OracleSpec(
        kind=OracleKind.CONSISTENCY_NOISE, p_critical=p, p_easy=0.98,
        epsilon=0.15, critical_gap=0.3, seed=seed, majority_k=k,
    )


def test_c01_worked_example_arithmetic(trio):
    with criterion(1, "worked-example arithmetic", 1.0):
        t0 = perf_counter()
        pair = Coalition.of([0, 1])
        grand = Coalition.of([0, 1, 2])
        v_pair = coalition_value(trio, pair)
        pc_pair = per_capita_value(trio, pair, 0)
        v_grand = coalition_value(trio, grand)
        pc_grand = per_capita_value(trio, grand, 1)
        compute_time = perf_counter() - t0
        assert v_pair == pytest.approx(0.21, abs=5e-3)
        assert pc_pair == pytest.approx(0.10, abs=5e-3)
        assert v_grand == pytest.approx(0.07, abs=5e-3)
        assert pc_grand == pytest.approx(0.02, abs=5e-3)
        assert compute_time < 1e-3


def test_c02_counterexample_nonexistence(dominated_pair):
    with criterion(2, "counterexample nonexistence", 1.0):
        assert find_nash_stable(dominated_pair) == []

        split = verify_nash(dominated_pair, Partition.from_blocks(2, [[0], [1]]))
        assert not split.stable
        assert split.witness.agent == 1 and split.witness.to_members == (0,)
        assert split.witness.value_before == pytest.approx(0.25, abs=5e-3)
        assert split.witness.value_after == pytest.approx(0.316, abs=5e-3)

        merged = verify_nash(dominated_pair, Partition.from_blocks(2, [[0, 1]]))
        assert not merged.stable
        assert merged.witness.agent == 0 and merged.witness.to_members == ()
        assert merged.witness.value_before == pytest.approx(0.316, abs=5e-3)
        assert merged.witness.value_after == pytest.approx(0.85, abs=5e-3)

        log = run_episode(EpisodeConfig(game=dominated_pair, oracles=(PERFECT,), seed=1))
        assert log.outcome is EpisodeOutcome.TIMEOUT
        assert log.round_count == 30


def test_c03_bound_arithmetic():
    with criterion(3, "bound arithmetic", 1.0):
        t0 = perf_counter()
        report = stability_lower_bound(
            BoundInputs(p=0.86, p_easy=0.98, k_eff=5, k_n=15, gamma=0.90,
                        delta=0.08, epsilon_bar=0.17)
        )
        gamma_bound = gamma_formula_bound(0.08, 0.17)
        compute_time = perf_counter() - t0
        assert report.lower_bound == pytest.approx(0.346, abs=5e-3)
        assert gamma_bound == pytest.approx(0.375, abs=5e-3)
        assert compute_time < 1e-3


def test_c04_logit_curve():
    with criterion(4, "logit choice curve at the rationality bound", 5.0):
        from coalitions.preferences import Verdict

        oracle = OracleSpec(kind=OracleKind.LOGIT, epsilon=0.15, seed=404)
        draws = 100_000
        hits = sum(
            decide(oracle, 0.15, ("curve", i)) is Verdict.PREFER_CANDIDATE
            for i in range(draws)
        )
        rate = hits / draws
        assert rate == pytest.approx(1 / (1 + math.exp(-1)), abs=0.01)


def test_c05_potential_monotonicity_and_convergence_bound():
    with criterion(5, "potential monotonicity and convergence bound", 120.0):
        accepted = 0
        attempt = 0
        while accepted < 200:
            attempt += 1
            assert attempt < 5000, "filter yield collapsed"
            rng = derived_rng("family", attempt)
            n = 2 + rng.randrange(7)  # 2..8 agents
            game = generate_game(n, 3, 0.15, 1.3, seed=attempt, lo=0.0, hi=1.0)
            if not check_potential_alignment(game).passed:
                continue
            accepted += 1
            bound = convergence_bound(game)
            initials = (
                InitialPartition(kind="singletons"),
                InitialPartition(kind="random"),
                InitialPartition(kind="random"),
            )
            for k, initial in enumerate(initials):
                log = run_episode(
                    EpisodeConfig(
                        game=game, oracles=(PERFECT,), initial=initial,
                        seed=1000 * attempt + k, episode_id=k, max_rounds=500,
                    )
                )
                assert log.outcome is EpisodeOutcome.NASH_STABLE
                for r in log.rounds:
                    if r.deviation is not None:
                        assert r.phi_after > r.phi_before + 1e-12
                assert log.deviation_count <= bound.max_deviations + 1e-9
                assert verify_nash(game, log.terminal_partition).stable


def test_c06_delta_gap_reproduction(six_mixed):
    # The paper states delta 0.082 at alpha 0.15, and 0.065, 0.082 and 0.098
    # at alpha 0.10, 0.15 and 0.20.  Under the engine's definition of delta
    # (the smallest nonzero per-capita gap one agent sees, over coalitions of
    # size <= 4) those figures are wrong for this profile table:
    #  - {0,1,2,5} and {0,1,4,5} share agent 0.  Their summed componentwise
    #    maxima are exactly 2.22 and 2.23, and a size-only cost cancels
    #    between equal sizes, so their per-capita values differ by
    #    0.01 / (3 * 4) = 1/1200 at every alpha.  Any minimum gap is at most
    #    that.
    #  - No pair of coalitions sharing an agent, of any size, has per-capita
    #    or coalition-value gaps within the old 2e-3 of all three figures, so
    #    no quantity that picks one such pair's gap could meet them either.
    # The engine's delta must be that witness gap, and the pair enumeration
    # must confirm that no smaller nonzero gap exists.  Whether the paper's
    # delta is another quantity, or was computed on another table, waits
    # until PAPER.md holds the paper's full text.
    paper = {0.10: 0.065, 0.15: 0.082, 0.20: 0.098}
    max_size = 4
    with criterion(6, "delta-gap reproduction", 10.0):
        def summed_max(members):
            return sum(
                max(Fraction(str(six_mixed.profile(i)[j])) for i in members)
                for j in range(six_mixed.d)
            )

        witness = (summed_max((0, 1, 4, 5)) - summed_max((0, 1, 2, 5))) / (
            six_mixed.d * max_size
        )
        assert witness == Fraction(1, 1200)

        alphas = sorted(paper)
        members = {
            mask: [i for i in range(six_mixed.n) if mask >> i & 1]
            for mask in range(1, 1 << six_mixed.n)
        }
        values = [
            {m: brute_value(six_mixed.with_params(alpha=a), ms) for m, ms in members.items()}
            for a in alphas
        ]
        shares = [{m: v / len(members[m]) for m, v in table.items()} for table in values]
        smallest = [math.inf] * len(alphas)
        for agent in range(six_mixed.n):
            mine = [m for m in members if m >> agent & 1]
            for a, b in combinations(mine, 2):
                share_gaps = [abs(t[a] - t[b]) for t in shares]
                for gaps in (share_gaps, [abs(t[a] - t[b]) for t in values]):
                    assert not all(
                        abs(gap - paper[alpha]) <= 2e-3 for gap, alpha in zip(gaps, alphas)
                    ), f"coalitions {members[a]} and {members[b]} meet the paper's sweep"
                if len(members[a]) <= max_size and len(members[b]) <= max_size:
                    smallest = [
                        min(s, g) if g > 1e-9 else s for s, g in zip(smallest, share_gaps)
                    ]

        for alpha, reference in zip(alphas, smallest):
            delta = value_gap_delta(six_mixed.with_params(alpha=alpha), max_size=max_size)
            assert delta == pytest.approx(float(witness), abs=1e-12), (
                f"delta {delta!r} at alpha={alpha} is not the witness gap 1/1200"
            )
            assert delta == pytest.approx(reference, abs=1e-12), (
                f"delta {delta!r} at alpha={alpha} disagrees with the pair enumeration "
                f"{reference!r}"
            )


def test_c07_consistency_to_stability(six_mixed):
    with criterion(7, "consistency-to-stability monotonicity and bound", 600.0):
        seed_base = 42  # matched across the four batches
        levels = (0.64, 0.74, 0.79, 0.86)
        rates = []
        for p in levels:
            cond = Condition(
                name=f"p={p}", oracle=noisy(p), episodes=400, seed_base=seed_base,
                initial=InitialPartition(kind="random"),
            )
            result = run_condition(cond, six_mixed, bootstrap_iterations=2000)
            rates.append(result.nash_rate)
            measured = measure_bound_inputs(six_mixed, result.logs, cond.effective_oracle())
            bound = stability_lower_bound(measured).lower_bound
            assert result.nash_rate >= bound, (
                f"rate {result.nash_rate:.3f} below measured bound {bound:.3f} at p={p}"
            )
        for i, (a, b) in enumerate(zip(rates, rates[1:])):
            se = math.sqrt(a * (1 - a) / 400 + b * (1 - b) / 400)
            assert b > a - 2 * se, f"rates not increasing at step {i}: {rates}"
        assert rates == sorted(rates), f"rates not in increasing order: {rates}"

        fit = consistency_regression(REFERENCE_POINTS)
        assert fit.slope == pytest.approx(1.41, abs=0.05)
        assert fit.intercept == pytest.approx(-0.48, abs=0.05)
        assert fit.r_squared >= 0.98


def test_c08_scaling_trend(six_mixed):
    with criterion(8, "agent-count scaling trend", 600.0):
        from coalitions.bounds import scaling_prediction

        cells = sweep(
            six_mixed, SweepAxis.AGENT_COUNT, [4, 6, 8, 10], noisy(0.86),
            episodes=400, seed_base=8,
        )
        rates = [c.result.nash_rate for c in cells]
        for a, b in zip(rates, rates[1:]):
            assert b <= a + 1e-9, f"scaling rates increased: {rates}"
        assert scaling_prediction(6) == pytest.approx(0.776, abs=0.01)
        assert scaling_prediction(8) == pytest.approx(0.672, abs=0.01)
        assert scaling_prediction(10) == pytest.approx(0.601, abs=0.01)


def test_c09_verification_query_count(six_mixed):
    with criterion(9, "verification query count", 1.0):
        partition = Partition.from_blocks(6, [[0, 5], [1], [2], [3], [4]])
        t0 = perf_counter()
        report = verify_nash(six_mixed, partition)
        compute_time = perf_counter() - t0
        assert report.queries_used == 30
        assert compute_time < 1e-3
        other = Partition.from_blocks(6, [[1, 2], [0], [3], [4], [5]])
        assert verify_nash(six_mixed, other).queries_used == 30


def test_c10_hierarchy_and_replay_determinism(six_mixed, tmp_path):
    with criterion(10, "stability hierarchy and replay determinism", 60.0):
        from coalitions.cli import main as cli_main

        nash_count = 0
        for partition in enumerate_partitions(6):
            if verify_nash(six_mixed, partition).stable:
                nash_count += 1
                assert verify_individual(six_mixed, partition).stable
        assert nash_count >= 1

        rules = (DeviationRule.FIRST_IMPROVING, DeviationRule.BEST_IMPROVING,
                 DeviationRule.RANDOM_IMPROVING)
        for i in range(100):
            rng = derived_rng("replay-audit", i)
            oracle = noisy(0.6 + 0.38 * rng.random(), seed=i)
            cfg = EpisodeConfig(
                game=six_mixed,
                oracles=(oracle,) * 6,
                initial=InitialPartition(kind="random"),
                rule=rules[i % 3],
                seed=9000 + i,
                episode_id=i,
            )
            path = tmp_path / f"ep{i}.jsonl"
            write_episode_log(run_episode(cfg), path)
            assert cli_main(["replay", str(path)]) == 0


def test_c11_epsilon_round_trip():
    with criterion(11, "epsilon estimation round trip", 30.0):
        for eps, lo, hi in ((0.15, 0.12, 0.18), (0.22, 0.18, 0.26)):
            oracle = OracleSpec(kind=OracleKind.LOGIT, epsilon=eps, seed=11)
            rng = derived_rng("accept-log", int(eps * 100))
            rows = []
            for i in range(10_000):
                dv = -0.5 + rng.random()
                rows.append(ChoiceRecord(dv, decide(oracle, dv, ("a11", i))))
            est = estimate_epsilon(rows, seed=11)
            assert est.found
            assert lo <= est.estimate <= hi, (
                f"estimate {est.estimate:.3f} outside [{lo}, {hi}] for eps={eps}"
            )


def test_c12_plugin_protocol(six_mixed):
    with criterion(12, "plugin wire protocol", 10.0):
        corpus = completion_corpus()
        assert len(corpus) == 50
        parsed = sum(parse_declaration(text).verdict is v for text, v in corpus)
        assert parsed == 50

        endpoint = ExternalEndpointSpec(
            command=(sys.executable, "-m", "coalitions.oracle_stub", "--mode", "candidate"),
            timeout_s=10.0,
        )
        oracle = OracleSpec(kind=OracleKind.EXTERNAL, external=endpoint)
        cfg = EpisodeConfig(game=six_mixed, oracles=(oracle,) * 6, seed=12, max_rounds=30)
        with open_sessions(cfg.oracles) as sessions:
            log = run_episode(cfg, external=sessions)
        assert log.error is None
        assert log.round_count == 30  # an unconditional joiner never settles
        assert log.summary.n_queries >= 30
