"""Bound calculators, critical-decision accounting, gamma, regression, gate."""

import math

import pytest

from coalitions.game import GameSpec, Partition, per_capita_table
from coalitions.preferences import OracleKind, OracleSpec
from coalitions.stability import iter_deviation_checks
from coalitions.dynamics import EpisodeConfig, EpisodeOutcome, InitialPartition, run_episode
from coalitions.bounds import (
    BoundInputs,
    consistency_regression,
    count_critical_decisions,
    deterministic_preconditions_met,
    estimate_gamma,
    gamma_formula_bound,
    measure_bound_inputs,
    scaling_prediction,
    stability_lower_bound,
)

PERFECT = OracleSpec(kind=OracleKind.PERFECT)

# published consistency / stability-rate pairs for the five prompting
# regimes (greedy, standard, chain-of-thought, self-consistency, staged)
REFERENCE_POINTS = [
    (0.71, 0.521),
    (0.64, 0.418),
    (0.74, 0.584),
    (0.79, 0.627),
    (0.86, 0.732),
]


def inputs(**kwargs) -> BoundInputs:
    base = dict(p=0.86, p_easy=0.98, k_eff=5, k_n=15, gamma=0.90, delta=0.08, epsilon_bar=0.17)
    base.update(kwargs)
    return BoundInputs(**base)


# ---------------------------------------------------------------------------
# closed-form arithmetic

def test_reference_lower_bound():
    report = stability_lower_bound(inputs())
    assert report.lower_bound == pytest.approx(0.346, abs=5e-3)
    assert report.consistency_factor == pytest.approx(0.86**5 * 0.98**10, abs=1e-12)
    assert report.structure_factor == 0.90
    assert report.lower_bound == pytest.approx(
        report.consistency_factor * report.structure_factor, abs=1e-15
    )


def test_reference_gamma_formula():
    assert gamma_formula_bound(0.08, 0.17) == pytest.approx(0.375, abs=5e-3)
    report = stability_lower_bound(inputs())
    assert report.gamma_formula_bound == pytest.approx(0.375, abs=5e-3)


def test_bound_is_one_under_perfect_consistency():
    report = stability_lower_bound(inputs(p=1.0, p_easy=1.0, gamma=1.0))
    assert report.lower_bound == 1.0


def test_bound_monotonicity():
    base = stability_lower_bound(inputs()).lower_bound
    assert stability_lower_bound(inputs(p=0.9)).lower_bound > base
    assert stability_lower_bound(inputs(p_easy=0.99)).lower_bound > base
    assert stability_lower_bound(inputs(gamma=0.95)).lower_bound > base
    assert stability_lower_bound(inputs(k_eff=6)).lower_bound < base


def test_bound_input_validation():
    with pytest.raises(ValueError):
        inputs(p=0.0)
    with pytest.raises(ValueError):
        inputs(k_eff=20)  # exceeds k_n
    with pytest.raises(ValueError):
        inputs(delta=0.0)


# ---------------------------------------------------------------------------
# critical decision accounting

def brute_counts(game, partition, epsilon):
    pc = per_capita_table(game)
    k_eff = k_n = 0
    for agent, own, target, joined in iter_deviation_checks(partition.masks):
        k_n += 1
        gap = abs(pc[joined] - pc[own]) if joined != own else 0.0
        k_eff += gap < 2 * epsilon
    return k_eff, k_n


def test_zero_epsilon_counts_nothing(six_mixed):
    partition = Partition.from_blocks(6, [[0, 1], [2, 3], [4, 5]])
    k_eff, k_n = count_critical_decisions(six_mixed, partition, 0.0)
    assert (k_eff, k_n) == (0, 18)


def test_huge_epsilon_counts_everything(six_mixed):
    partition = Partition.from_blocks(6, [[0, 1], [2, 3], [4, 5]])
    k_eff, k_n = count_critical_decisions(six_mixed, partition, 10.0)
    assert k_eff == k_n == 18


def test_counts_match_brute_force_and_grow_with_epsilon(six_mixed):
    partition = Partition.from_blocks(6, [[0, 1, 2], [3, 4], [5]])
    last = 0
    for eps in (0.0, 0.05, 0.1, 0.15, 0.25, 0.5):
        k_eff, k_n = count_critical_decisions(six_mixed, partition, eps)
        assert (k_eff, k_n) == brute_counts(six_mixed, partition, eps)
        assert k_n == 18
        assert k_eff >= last
        last = k_eff


def test_query_total_matches_verification(six_mixed):
    partition = Partition.singletons(6)
    _, k_n = count_critical_decisions(six_mixed, partition, 0.15)
    assert k_n == 36  # 6 agents x (5 other blocks + solo)


# ---------------------------------------------------------------------------
# gamma estimation

def run_batch(game, oracle, episodes, seed_base, max_rounds=30):
    logs = []
    for idx in range(episodes):
        logs.append(
            run_episode(
                EpisodeConfig(
                    game=game,
                    oracles=(oracle,),
                    initial=InitialPartition(kind="random"),
                    seed=seed_base + idx,
                    episode_id=idx,
                    record_queries=False,
                    max_rounds=max_rounds,
                )
            )
        )
    return logs


def test_gamma_is_one_for_perfect_on_convergent_game(six_mixed):
    logs = run_batch(six_mixed, PERFECT, 50, seed_base=100)
    assert estimate_gamma(logs) == 1.0


def test_gamma_is_zero_on_counterexample(dominated_pair):
    logs = run_batch(dominated_pair, PERFECT, 20, seed_base=5)
    assert estimate_gamma(logs) == 0.0


def test_gamma_on_noisy_batch(six_mixed):
    oracle = OracleSpec(
        kind=OracleKind.CONSISTENCY_NOISE, p_critical=0.86, p_easy=0.98,
        critical_gap=0.3, seed=900,
    )
    logs = run_batch(six_mixed, oracle, 1000, seed_base=900)
    consistent = [l for l in logs if l.summary.consistent]
    assert len(consistent) >= 30  # enough consistent episodes to estimate from
    assert 0.8 <= estimate_gamma(logs) <= 1.0


def test_gamma_undefined_without_consistent_episodes(six_mixed):
    oracle = OracleSpec(
        kind=OracleKind.CONSISTENCY_NOISE, p_critical=0.51, p_easy=0.51,
        critical_gap=10.0, seed=31,
    )
    logs = run_batch(six_mixed, oracle, 30, seed_base=31)
    if any(l.summary.consistent for l in logs):
        pytest.skip("flip storm unexpectedly produced a consistent episode")
    with pytest.raises(ValueError, match="no consistent episodes"):
        estimate_gamma(logs)


def test_measured_inputs_reflect_oracle(six_mixed):
    oracle = OracleSpec(
        kind=OracleKind.CONSISTENCY_NOISE, p_critical=0.75, p_easy=0.98,
        critical_gap=0.3, seed=55,
    )
    logs = run_batch(six_mixed, oracle, 300, seed_base=55)
    measured = measure_bound_inputs(six_mixed, logs, oracle)
    assert measured.p == pytest.approx(0.75, abs=0.03)
    assert measured.p_easy == pytest.approx(0.98, abs=0.01)
    assert measured.k_n >= measured.k_eff > 0
    rate = sum(l.outcome is EpisodeOutcome.NASH_STABLE for l in logs) / len(logs)
    bound = stability_lower_bound(measured).lower_bound
    se = math.sqrt(rate * (1 - rate) / len(logs))
    assert rate >= bound - 3 * se


# ---------------------------------------------------------------------------
# scaling prediction

def test_scaling_values():
    assert scaling_prediction(6) == pytest.approx(0.776, abs=1e-3)
    assert scaling_prediction(8) == pytest.approx(0.672, abs=1e-3)
    assert scaling_prediction(10) == pytest.approx(0.601, abs=1e-3)
    assert scaling_prediction(1) == 1.0
    assert scaling_prediction(4) == pytest.approx(0.95, abs=1e-12)


# ---------------------------------------------------------------------------
# regression

def test_regression_on_reference_points():
    fit = consistency_regression(REFERENCE_POINTS)
    assert fit.slope == pytest.approx(1.41, abs=0.05)
    assert fit.intercept == pytest.approx(-0.48, abs=0.05)
    assert fit.r_squared >= 0.98


def test_regression_two_points_is_exact():
    fit = consistency_regression([(0.5, 0.2), (0.9, 0.8)])
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.slope == pytest.approx(1.5)


def test_regression_degenerate_errors():
    with pytest.raises(ValueError, match="degenerate"):
        consistency_regression([(0.5, 0.2), (0.5, 0.8)])
    with pytest.raises(ValueError):
        consistency_regression([(0.5, 0.2)])


# ---------------------------------------------------------------------------
# deterministic gate

def test_gate_fails_on_reference_game_for_realistic_epsilon(six_mixed):
    report = deterministic_preconditions_met(six_mixed, 0.15)
    assert not report.met
    assert not report.gap_ok
    assert any("epsilon >= delta/2" in r for r in report.reasons)


def test_gate_fails_on_counterexample_via_alignment(dominated_pair):
    report = deterministic_preconditions_met(dominated_pair, 0.01)
    assert not report.met
    assert not report.aligned
    assert report.gap_ok  # 0.01 < 0.0653 / 2


def test_gate_passes_for_single_agent(solo_game):
    report = deterministic_preconditions_met(solo_game, 0.15)
    assert report.met
    assert math.isinf(report.delta)
