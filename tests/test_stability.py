"""Stability certification, partition enumeration, and search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brute_force import brute_core, brute_deviation_checks, brute_partitions

from coalitions.game import (
    TIE_EPS,
    EnumerationBudgetError,
    Coalition,
    GameSpec,
    Partition,
    deviation_plan,
    _subset_max,
    per_capita_table,
)
from coalitions.preferences import derived_rng
from coalitions.stability import (
    BlockingSetWitness,
    StabilityConcept,
    _nash_stable,
    _stable_blocks,
    bell_number,
    enumerate_partitions,
    find_nash_stable,
    is_nash_stable_masks,
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
            if joined != own and pc[joined] - pc[own] > 1e-12:
                return False
    return True


def plan_checks(masks, agents=None) -> list[tuple[int, int, int, int]]:
    """The checks of `deviation_plan(masks)` flattened to (agent, own,
    target, joined), its entries taken in `agents` order (default: the
    plan's own), as the random-improving scan indexes them."""
    plan = deviation_plan(tuple(masks))
    entries = plan if agents is None else [plan[agent] for agent in agents]
    return [
        (agent, own, target, target | 1 << agent)
        for agent, own, targets in entries
        for target in targets
    ]


SCORES = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def small_games(draw) -> GameSpec:
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 3))
    profiles = draw(st.lists(st.lists(SCORES, min_size=d, max_size=d), min_size=n, max_size=n))
    alpha = draw(st.just(math.ulp(0.0)) | st.floats(0.0, 2.0, exclude_min=True))
    beta = draw(st.just(1.0) | st.floats(1.0, 3.0))
    return GameSpec.from_profiles(profiles, alpha=alpha, beta=beta)


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
    with pytest.raises(EnumerationBudgetError):
        list(enumerate_partitions(13))


def test_search_refuses_more_agents_than_the_cap_before_building_a_table():
    game = GameSpec.from_profiles([[0.5]] * 13)
    before = per_capita_table.cache_info()
    with pytest.raises(EnumerationBudgetError, match="at most 12 agents"):
        find_nash_stable(game)
    assert per_capita_table.cache_info() == before


def test_random_partition_rejects_an_empty_roster():
    with pytest.raises(ValueError, match="n must be >= 1"):
        random_partition(0, derived_rng("empty", 0))


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
    assert plan_checks(masks) == brute_deviation_checks(masks)
    shuffled = list(range(game.n))
    derived_rng("agents", seed).shuffle(shuffled)
    assert plan_checks(masks, shuffled) == brute_deviation_checks(masks, shuffled)


def test_deviation_checks_match_reference_on_every_small_partition():
    for n in range(1, 7):
        for masks in brute_partitions(n):
            assert plan_checks(masks) == brute_deviation_checks(masks)
            # blocks in a non-canonical order keep that order as targets
            backwards = masks[::-1]
            assert plan_checks(backwards) == brute_deviation_checks(backwards)


@given(st.data())
def test_deviation_checks_match_reference_in_drawn_orders(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    masks = data.draw(st.sampled_from(brute_partitions(n)))
    order = data.draw(
        st.permutations(range(n)) | st.lists(st.integers(min_value=0, max_value=n - 1))
    )
    assert plan_checks(masks, order) == brute_deviation_checks(masks, order)


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


@pytest.mark.parametrize("verify", [verify_nash, verify_individual, verify_core])
def test_verifiers_reject_a_partition_of_another_size(verify, six_mixed):
    with pytest.raises(ValueError, match="partition size does not match the game"):
        verify(six_mixed, Partition.singletons(5))


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


def core_report(report) -> tuple:
    """(stable, witness members or None, queries_used): `brute_core`'s form."""
    return report.stable, report.witness and report.witness.members, report.queries_used


def test_core_matches_brute_force_on_all_six_agent_partitions(six_mixed):
    for partition in enumerate_partitions(6):
        assert core_report(verify_core(six_mixed, partition)) == brute_core(six_mixed, partition)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_core_matches_brute_force_on_random_partitions(data):
    game = data.draw(small_games())
    partition = Partition.from_masks(game.n, data.draw(st.sampled_from(brute_partitions(game.n))))
    report = verify_core(game, partition)
    assert core_report(report) == brute_core(game, partition)
    if report.witness is not None:
        pc = per_capita_table(game)
        assert report.witness.value_after == pc[Coalition.of(report.witness.members).mask]
        assert report.witness.values_before == tuple(
            pc[c.mask] for i in report.witness.members for c in partition.coalitions if i in c
        )


@given(small_games())
@settings(max_examples=100, deadline=None)
def test_no_coalition_pays_its_best_member_more_than_going_solo(game):
    pc = np.frombuffer(per_capita_table(game))
    best_solo = _subset_max(pc[[1 << i for i in range(game.n)]])
    assert not np.any(pc - best_solo > TIE_EPS)  # mask 0 is nan and never exceeds
    singletons = Partition.singletons(game.n)
    assert verify_core(game, singletons).stable
    assert verify_individual(game, singletons).stable


def test_core_certifies_all_singletons_of_a_twenty_agent_game():
    from coalitions.experiments import generate_game

    report = verify_core(generate_game(20, 3, 0.15, 1.3, seed=0), Partition.singletons(20))
    assert report.stable and report.queries_used == 2**20 - 1 and report.witness is None


# ---------------------------------------------------------------------------
# exhaustive search

def test_no_stable_partition_in_counterexample(dominated_pair):
    assert find_nash_stable(dominated_pair) == []


def test_six_agent_game_has_stable_partition(six_mixed):
    stable = find_nash_stable(six_mixed)
    assert stable == [Partition.singletons(6)]


def test_nash_predicate_uses_the_difference_form_at_the_tie_bound():
    # pc[0b11] - pc[0b01] exceeds TIE_EPS, though pc[0b11] > pc[0b01] + TIE_EPS
    # does not hold in floats: agent 0 strictly prefers joining agent 1
    b, a = -0.009129825816118098, -0.009129825815118097
    assert a - b > TIE_EPS and not a > b + TIE_EPS
    pc = [math.nan, b, 10.0, a]
    assert not _nash_stable(pc, (0b01, 0b10))


def test_search_uses_the_difference_form_at_the_tie_bound():
    # the tie-bound floats above: the singletons fail on agent 0, the pair on agent 1
    b, a = -0.009129825816118098, -0.009129825815118097
    assert _stable_blocks([math.nan, b, 10.0, a], 2) == []


def brute_nash_stable(game: GameSpec) -> list[Partition]:
    return [p for p in enumerate_partitions(game.n) if verify_nash(game, p).stable]


@given(small_games())
@settings(max_examples=60, deadline=None)
def test_search_matches_the_brute_filter(game):
    assert find_nash_stable(game) == brute_nash_stable(game)


def test_search_returns_every_partition_when_all_coalitions_tie():
    # agent i holds skill i alone: every coalition S is worth |S| / n - alpha * |S|
    n = 6
    game = GameSpec.from_profiles(
        [[float(i == j) for j in range(n)] for i in range(n)], alpha=0.05, beta=1.0
    )
    stable = find_nash_stable(game)
    assert len(stable) == bell_number(n) == 203
    assert stable == list(enumerate_partitions(n)) == brute_nash_stable(game)


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
