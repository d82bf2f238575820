"""Stability certification, partition enumeration, and search."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from brute_force import brute_deviation_checks, brute_partitions

from coalitions.game import Coalition, GameSpec, Partition, deviation_plan, per_capita_table
from coalitions.preferences import derived_rng
from coalitions.stability import (
    BlockingSetWitness,
    StabilityConcept,
    bell_number,
    enumerate_partitions,
    find_nash_stable,
    is_nash_stable_masks,
    iter_deviation_checks,
    random_partition,
    verify_core,
    verify_individual,
    verify_nash,
)

BELLS = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 12: 4213597}


def brute_nash_reversed(game: GameSpec, partition: Partition) -> bool:
    """Order-reversed re-implementation used as an independent check."""
    pc = per_capita_table(game)
    masks = list(partition.masks)
    for agent in reversed(range(game.n)):
        own = next(m for m in masks if m >> agent & 1)
        targets = [0] + [m for m in reversed(masks) if m != own]
        for target in targets:
            joined = target | 1 << agent
            if joined != own and pc[joined] > pc[own] + 1e-12:
                return False
    return True


# ---------------------------------------------------------------------------
# enumeration

@pytest.mark.parametrize("n,count", [(1, 1), (3, 5), (6, 203)])
def test_enumeration_counts(n, count):
    parts = list(enumerate_partitions(n))
    assert len(parts) == count
    assert len(set(parts)) == count
    assert bell_number(n) == count


def test_bell_numbers_match_reference_table():
    for n, b in BELLS.items():
        assert bell_number(n) == b


def test_enumeration_cap():
    from coalitions.game import EnumerationBudgetError

    with pytest.raises(EnumerationBudgetError):
        list(enumerate_partitions(13))


def test_random_partition_is_uniform():
    rng = derived_rng("uniform-test", 0)
    counts = {}
    draws = 12_000
    for _ in range(draws):
        key = random_partition(4, rng).masks
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 15
    expected = draws / 15
    for c in counts.values():
        assert abs(c - expected) < 5 * math.sqrt(expected)


# ---------------------------------------------------------------------------
# Nash verification

def test_counterexample_split_partition(dominated_pair):
    report = verify_nash(dominated_pair, Partition.from_blocks(2, [[0], [1]]))
    assert not report.stable
    w = report.witness
    assert (w.agent, w.to_members) == (1, (0,))
    assert w.value_before == pytest.approx(0.25)
    assert w.value_after == pytest.approx(0.316, abs=1e-3)


def test_counterexample_merged_partition(dominated_pair):
    report = verify_nash(dominated_pair, Partition.from_blocks(2, [[0, 1]]))
    assert not report.stable
    w = report.witness
    assert (w.agent, w.to_members) == (0, ())
    assert w.value_before == pytest.approx(0.316, abs=1e-3)
    assert w.value_after == pytest.approx(0.85)


def test_single_agent_partition_is_stable(solo_game):
    report = verify_nash(solo_game, Partition.singletons(1))
    assert report.stable and report.witness is None


def test_query_count_is_agents_times_blocks(six_mixed):
    partition = Partition.from_blocks(6, [[0, 1], [2], [3], [4], [5]])
    report = verify_nash(six_mixed, partition)
    assert report.queries_used == 30  # 6 agents x (4 other blocks + solo)
    grand = Partition.from_blocks(6, [[0, 1, 2, 3, 4, 5]])
    assert verify_nash(six_mixed, grand).queries_used == 6


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_query_count_property_and_order_independence(seed):
    game = GameSpec.from_profiles(
        [
            [0.2 + 0.6 * derived_rng("p", seed, i, j).random() for j in range(2)]
            for i in range(5)
        ]
    )
    partition = random_partition(5, derived_rng("part", seed))
    report = verify_nash(game, partition)
    assert report.queries_used == game.n * len(partition)
    assert report.stable == brute_nash_reversed(game, partition)
    assert is_nash_stable_masks(game, partition.masks) == report.stable
    masks = list(partition.masks)
    assert list(iter_deviation_checks(masks)) == brute_deviation_checks(masks)
    shuffled = list(range(game.n))
    derived_rng("agents", seed).shuffle(shuffled)
    assert list(iter_deviation_checks(masks, shuffled)) == brute_deviation_checks(
        masks, shuffled
    )


def test_deviation_checks_match_reference_on_every_small_partition():
    for n in range(1, 7):
        for masks in brute_partitions(n):
            assert list(iter_deviation_checks(masks)) == brute_deviation_checks(masks)
            # blocks in a non-canonical order keep that order as targets
            backwards = masks[::-1]
            assert list(iter_deviation_checks(backwards)) == brute_deviation_checks(backwards)


@given(st.data())
def test_deviation_checks_match_reference_in_drawn_orders(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    masks = data.draw(st.sampled_from(brute_partitions(n)))
    order = data.draw(
        st.permutations(range(n)) | st.lists(st.integers(min_value=0, max_value=n - 1))
    )
    assert list(iter_deviation_checks(masks, order)) == brute_deviation_checks(masks, order)


def test_plan_entries_share_one_targets_tuple_per_block():
    for masks in brute_partitions(6):
        plan = deviation_plan(tuple(masks))
        assert [agent for agent, _, _ in plan] == list(range(6))
        for own in masks:
            entries = [e for e in plan if e[1] == own]
            assert [agent for agent, _, _ in entries] == [i for i in range(6) if own >> i & 1]
            shared = entries[0][2]
            assert shared == tuple(m for m in masks if m != own) + (0,)
            assert all(targets is shared for _, _, targets in entries)


def test_deviation_plan_rejects_masks_that_are_not_a_partition():
    for masks in [(0b11, 0b01), (0b100,), (0b101,), (0b1, 0b1)]:
        with pytest.raises(ValueError, match="do not partition"):
            deviation_plan(masks)


def test_behavioral_verification_with_perfect_oracle(six_mixed):
    from coalitions.preferences import OracleKind, OracleSpec

    oracle = OracleSpec(kind=OracleKind.PERFECT)
    ground = verify_nash(six_mixed, Partition.singletons(6))
    behavioral = verify_nash(six_mixed, Partition.singletons(6), oracle)
    assert behavioral.mode == "behavioral"
    assert behavioral.stable == ground.stable
    assert behavioral.queries_used == ground.queries_used


# ---------------------------------------------------------------------------
# individual stability

def test_nash_implies_individual_over_all_partitions(six_mixed):
    for partition in enumerate_partitions(6):
        if verify_nash(six_mixed, partition).stable:
            assert verify_individual(six_mixed, partition).stable


def test_counterexample_is_individually_stable_but_not_nash(dominated_pair):
    split = Partition.from_blocks(2, [[0], [1]])
    assert not verify_nash(dominated_pair, split).stable
    assert verify_individual(dominated_pair, split).stable  # H would veto L's move


def test_individual_instability_with_welcoming_receiver(parasite_game):
    # s1 (agent 0) flees the dead weight; receiver s2 strictly gains too
    partition = Partition.from_blocks(3, [[0, 2], [1]])
    report = verify_individual(parasite_game, partition)
    assert not report.stable
    assert report.witness.agent == 0
    assert report.witness.to_members == (1,)
    pc = per_capita_table(parasite_game)
    assert pc[0b011] > pc[0b010]  # receiver strictly better off


# ---------------------------------------------------------------------------
# core stability

def test_single_agent_core(solo_game):
    assert verify_core(solo_game, Partition.singletons(1)).stable


def test_blocking_sets_in_parasited_partition(parasite_game):
    partition = Partition.from_blocks(3, [[0, 2], [1]])
    report = verify_core(parasite_game, partition)
    assert not report.stable
    assert isinstance(report.witness, BlockingSetWitness)
    # the parasited host alone already blocks, so it is found first
    assert report.witness.members == (0,)
    assert report.witness.value_after > report.witness.values_before[0] + 1e-12
    # the complementary pair is a blocking set too (joint deviation where
    # both strictly gain), it just is not the first one enumerated
    pc = per_capita_table(parasite_game)
    assert pc[0b011] > pc[0b101] + 1e-12  # host beats its parasite pair
    assert pc[0b011] > pc[0b010] + 1e-12  # partner beats its singleton


def test_core_and_nash_verdicts_can_disagree(dominated_pair):
    split = Partition.from_blocks(2, [[0], [1]])
    assert verify_core(dominated_pair, split).stable
    assert not verify_nash(dominated_pair, split).stable


def test_core_respects_max_block_size(parasite_game):
    partition = Partition.from_blocks(3, [[0, 2], [1]])
    capped = verify_core(parasite_game, partition, max_block_size=1)
    assert not capped.stable
    assert capped.queries_used <= 3
    assert not verify_core(parasite_game, partition).stable


def brute_core(game: GameSpec, partition: Partition) -> bool:
    pc = per_capita_table(game)
    current = {
        i: pc[c.mask] for c in partition.coalitions for i in c.members
    }
    for size in range(1, game.n + 1):
        for combo in combinations(range(game.n), size):
            mask = sum(1 << i for i in combo)
            if all(pc[mask] > current[i] + 1e-12 for i in combo):
                return False
    return True


def test_core_matches_brute_force_on_all_six_agent_partitions(six_mixed):
    for partition in enumerate_partitions(6):
        assert verify_core(six_mixed, partition).stable == brute_core(
            six_mixed, partition
        )


# ---------------------------------------------------------------------------
# exhaustive search

def test_no_stable_partition_in_counterexample(dominated_pair):
    assert find_nash_stable(dominated_pair) == []


def test_six_agent_game_has_stable_partition(six_mixed):
    stable = find_nash_stable(six_mixed)
    assert stable == [Partition.singletons(6)]


def test_single_agent_search(solo_game):
    assert find_nash_stable(solo_game) == [Partition.singletons(1)]


def test_gate_passing_random_games_have_stable_partitions():
    from coalitions.experiments import generate_game
    from coalitions.game import check_potential_alignment

    found = 0
    seed = 0
    while found < 20:
        seed += 1
        rng = derived_rng("gate-family", seed)
        n = 2 + rng.randrange(5)
        game = generate_game(n, 3, 0.15, 1.3, seed=seed, lo=0.0, hi=1.0)
        if not check_potential_alignment(game).passed:
            continue
        found += 1
        assert find_nash_stable(game), f"aligned monotone game without stable partition (seed {seed})"
