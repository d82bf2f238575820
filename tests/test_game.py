"""Value function, structural predicates, and serialization."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from brute_force import brute_alignment, brute_delta, brute_value

from coalitions.dynamics import convergence_bound
from coalitions.experiments import generate_game
from coalitions.preferences import derived_rng
from coalitions.game import (
    MAX_AGENTS,
    CapabilityProfile,
    Coalition,
    EMPTY_COALITION,
    GameSpec,
    Partition,
    check_potential_alignment,
    coalition_value,
    coalition_value_range,
    game_from_dict,
    game_to_dict,
    iter_partition_blocks,
    per_capita_table,
    per_capita_value,
    potential,
    value_gap_delta,
    value_table,
)


# ---------------------------------------------------------------------------
# coalition_value / per_capita_value

def test_worked_pair_value(trio):
    v = coalition_value(trio, Coalition.of([0, 1]))
    assert v == pytest.approx(0.21, abs=5e-3)
    assert v == pytest.approx(brute_value(trio, [0, 1]), abs=1e-12)
    assert per_capita_value(trio, Coalition.of([0, 1]), 0) == pytest.approx(0.10, abs=5e-3)


def test_worked_grand_value(trio):
    v = coalition_value(trio, Coalition.of([0, 1, 2]))
    assert v == pytest.approx(0.07, abs=5e-3)
    assert per_capita_value(trio, Coalition.of([0, 1, 2]), 2) == pytest.approx(
        0.02, abs=5e-3
    )


def test_all_zero_singleton_value():
    game = GameSpec.from_profiles([[0.0, 0.0, 0.0]])
    assert coalition_value(game, Coalition.of([0])) == pytest.approx(-0.15, abs=1e-12)


def test_dominated_pair_values(dominated_pair):
    assert coalition_value(dominated_pair, Coalition.of([0])) == pytest.approx(0.85)
    assert coalition_value(dominated_pair, Coalition.of([1])) == pytest.approx(0.25)
    assert per_capita_value(dominated_pair, Coalition.of([0, 1]), 0) == pytest.approx(
        0.316, abs=1e-3
    )


def test_empty_coalition_has_no_value(trio):
    with pytest.raises(ValueError, match="empty coalition has no value"):
        coalition_value(trio, EMPTY_COALITION)


def test_per_capita_requires_membership(trio):
    with pytest.raises(ValueError, match="not a member"):
        per_capita_value(trio, Coalition.of([0, 1]), 2)
    assert per_capita_value(trio, Coalition.of([2]), 2) == coalition_value(
        trio, Coalition.of([2])
    )


@given(st.permutations([0, 1, 2]))
def test_member_order_is_irrelevant(order):
    game = GameSpec.from_profiles([[0.3, 0.9], [0.8, 0.1], [0.5, 0.5]])
    assert coalition_value(game, Coalition.of(order)) == coalition_value(
        game, Coalition.of([0, 1, 2])
    )


@given(
    st.lists(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=2),
        min_size=2,
        max_size=4,
    ),
    st.sampled_from([(0.1, 0.2), (1.0, 1.2), (1.3, 1.6)]),
)
@settings(max_examples=60)
def test_value_decreases_in_alpha_and_beta(profiles, params):
    lo, hi = params
    base = GameSpec.from_profiles(profiles, alpha=0.15, beta=1.3)
    members = Coalition.of(range(len(profiles)))
    if lo < 1:  # alpha pair
        a_lo = GameSpec.from_profiles(profiles, alpha=lo, beta=1.3)
        a_hi = GameSpec.from_profiles(profiles, alpha=hi, beta=1.3)
        assert coalition_value(a_hi, members) <= coalition_value(a_lo, members)
    else:  # beta pair, |S| >= 2 so cost grows
        b_lo = GameSpec.from_profiles(profiles, beta=lo)
        b_hi = GameSpec.from_profiles(profiles, beta=hi)
        assert coalition_value(b_hi, members) <= coalition_value(b_lo, members)
    del base


# ---------------------------------------------------------------------------
# value tables: the subset-DP kernel against per-mask coalition_value

unit_scores = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1, allow_nan=False))


@st.composite
def random_games(draw):
    n, d = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    profiles = draw(st.lists(st.lists(unit_scores, min_size=d, max_size=d), min_size=n, max_size=n))
    return GameSpec.from_profiles(
        profiles,
        alpha=draw(st.floats(0.01, 1.0)),
        beta=draw(st.floats(1.0, 2.0)),
    )


@given(random_games())
@settings(max_examples=60, deadline=None)
def test_value_kernel_matches_per_mask_values(game):
    masks = range(1, 1 << game.n)
    direct = [coalition_value(game, m) for m in masks]
    values, per_capita = value_table(game), per_capita_table(game)
    assert math.isnan(values[0]) and math.isnan(per_capita[0])
    assert list(values[1:]) == direct
    assert list(per_capita[1:]) == [v / m.bit_count() for m, v in zip(masks, direct)]
    for k in range(1, game.n + 1):
        sized = [v for m, v in zip(masks, direct) if m.bit_count() <= k]
        assert coalition_value_range(game, k) == max(sized) - min(sized)
    assert convergence_bound(game).value_range == max(max(direct), 0.0) - min(min(direct), 0.0)
    assert value_gap_delta(game, max_size=game.n) == brute_delta(game, game.n)


# ---------------------------------------------------------------------------
# potential

def test_potential_of_counterexample_partitions(dominated_pair):
    split = Partition.from_blocks(2, [[0], [1]])
    merged = Partition.from_blocks(2, [[0, 1]])
    assert potential(dominated_pair, split) == pytest.approx(1.10, abs=1e-12)
    assert potential(dominated_pair, merged) == pytest.approx(0.631, abs=5e-4)


def test_potential_single_zero_agent():
    game = GameSpec.from_profiles([[0.0]])
    assert potential(game, Partition.singletons(1)) == pytest.approx(-0.15)


def test_potential_is_additive_over_coalitions(six_mixed):
    partition = Partition.from_blocks(6, [[0, 1], [2, 3, 4], [5]])
    total = sum(coalition_value(six_mixed, c) for c in partition.coalitions)
    assert potential(six_mixed, partition) == pytest.approx(total, abs=1e-12)


# ---------------------------------------------------------------------------
# value_gap_delta

def test_delta_on_dominated_pair(dominated_pair):
    # distinct per-capita values 0.85, 0.25, ~0.3153; the smallest gap is
    # between the weak agent's solo and shared values
    delta = value_gap_delta(dominated_pair)
    assert delta == pytest.approx(0.31532833799826254 - 0.25, abs=1e-12)
    assert delta == pytest.approx(brute_delta(dominated_pair, 2), abs=1e-12)


def test_delta_on_six_agent_game(six_mixed):
    # Every profile entry lies on a 0.01 grid and d = 3.  The size-only cost
    # cancels between two coalitions of the same size, so two size-4
    # coalitions sharing an agent differ in per-capita value by a multiple of
    # 0.01 / (3 * 4) = 1/1200 at every alpha; gaps across sizes are far
    # larger here.
    for alpha in (0.10, 0.15, 0.20):
        game = six_mixed.with_params(alpha=alpha)
        delta = value_gap_delta(game, max_size=4)
        assert delta == pytest.approx(brute_delta(game, 4), abs=1e-12)
        assert delta == pytest.approx(1.0 / 1200.0, abs=1e-12)


def test_delta_ignores_duplicate_values():
    # two clones plus a third agent: the third sees identical values for
    # both pairings, which must merge rather than produce a zero gap
    game = GameSpec.from_profiles([[0.6, 0.2], [0.6, 0.2], [0.3, 0.9]])
    delta = value_gap_delta(game)
    assert delta > 0
    assert delta == pytest.approx(brute_delta(game, 3), abs=1e-12)


def test_delta_single_agent_is_infinite():
    game = GameSpec.from_profiles([[0.4]])
    assert math.isinf(value_gap_delta(game))


def test_delta_budget_error():
    from coalitions.game import EnumerationBudgetError

    game = GameSpec.from_profiles([[0.5]] * 20)
    with pytest.raises(EnumerationBudgetError):
        value_gap_delta(game, max_size=12, budget=1000)


# ---------------------------------------------------------------------------
# structural checks

grid_scores = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(0, 100).map(lambda k: k / 100),
    st.floats(0, 1, allow_nan=False),
)


@st.composite
def dominated_pairs(draw):
    """A game with two agents i != j whose profile p_j dominates p_i."""
    n, d = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    profiles = draw(st.lists(st.lists(grid_scores, min_size=d, max_size=d), min_size=n, max_size=n))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    profiles[j] = [max(a, b) for a, b in zip(profiles[i], profiles[j])]
    game = GameSpec.from_profiles(
        profiles, alpha=draw(st.floats(0.01, 1.0)), beta=draw(st.floats(1.0, 2.0))
    )
    return game, i, j


@given(dominated_pairs())
@settings(max_examples=150, deadline=None)
def test_dominating_agent_adds_at_least_as_much_value(case):
    # capability monotonicity holds by construction, so exactly: no TIE_EPS
    game, i, j = case
    values = value_table(game)
    avoid = 1 << i | 1 << j
    for base in range(1 << game.n):
        if base & avoid:
            continue
        assert values[base | 1 << i] <= values[base | 1 << j]
        assert coalition_value(game, base | 1 << i) <= coalition_value(game, base | 1 << j)


def test_alignment_fails_on_dominated_pair(dominated_pair):
    report = check_potential_alignment(dominated_pair)
    assert not report.passed
    w = report.witness
    assert w.agent == 1 and w.target_members == (0,)
    assert w.per_capita_before == pytest.approx(0.25)
    assert w.per_capita_after == pytest.approx(0.3153, abs=5e-4)
    assert w.potential_before == pytest.approx(1.10)
    assert w.potential_after == pytest.approx(0.631, abs=5e-4)


def test_alignment_passes_for_single_agent(solo_game):
    assert check_potential_alignment(solo_game).passed


def test_alignment_on_six_agent_game_finds_zero_gain_moves(six_mixed):
    # The 0.01 profile grid admits improving moves that swap coverage
    # between coalitions without changing the total, so strict alignment
    # fails through exact-tie witnesses rather than actual decreases.
    report = check_potential_alignment(six_mixed)
    assert not report.passed
    w = report.witness
    assert w.per_capita_after > w.per_capita_before
    assert w.potential_after == pytest.approx(w.potential_before, abs=1e-9)


def test_alignment_matches_brute_force(six_mixed, dominated_pair, trio):
    games = [six_mixed, dominated_pair, trio]
    for attempt in range(1, 51):  # the game family C05 draws from
        n = 2 + derived_rng("family", attempt).randrange(7)
        games.append(generate_game(n, 3, 0.15, 1.3, seed=attempt, lo=0.0, hi=1.0))
    for game in games:
        report = check_potential_alignment(game)
        passed, partitions, deviations, witness = brute_alignment(game)
        assert report.passed == passed
        assert report.partitions_checked == partitions
        assert report.deviations_checked == deviations
        if witness is None:
            assert report.witness is None
            continue
        w = report.witness
        assert (
            w.partition.masks,
            w.agent,
            w.target_members,
            w.per_capita_before,
            w.per_capita_after,
            w.potential_before,
            w.potential_after,
        ) == witness


# ---------------------------------------------------------------------------
# types and serialization

def test_profile_bounds_enforced():
    with pytest.raises(ValueError):
        CapabilityProfile((0.2, 1.2))
    with pytest.raises(ValueError):
        CapabilityProfile((-0.1,))


def test_game_invariants():
    with pytest.raises(ValueError, match="alpha"):
        GameSpec.from_profiles([[0.5]], alpha=0.0)
    with pytest.raises(ValueError, match="beta"):
        GameSpec.from_profiles([[0.5]], beta=0.9)
    with pytest.raises(ValueError, match="profile"):
        GameSpec.from_profiles([[0.5, 0.5], [0.5]])
    # every accepted game fits the 2**n value table
    assert GameSpec.from_profiles([[0.5]] * MAX_AGENTS).n == MAX_AGENTS
    with pytest.raises(ValueError, match=f"at most {MAX_AGENTS} agents"):
        GameSpec.from_profiles([[0.5]] * (MAX_AGENTS + 1))


def test_partition_invariants():
    with pytest.raises(ValueError, match="disjoint"):
        Partition.from_blocks(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="cover"):
        Partition.from_blocks(3, [[0], [2]])
    with pytest.raises(ValueError, match="empty"):
        Partition(3, (Coalition.of([0, 1, 2]), Coalition(0)))


def test_partition_canonical_order():
    a = Partition.from_blocks(4, [[3, 1], [0, 2]])
    b = Partition.from_blocks(4, [[2, 0], [1, 3]])
    assert a == b
    assert a.coalitions[0].members == (0, 2)


def test_game_json_round_trip(six_mixed):
    data = json.loads(json.dumps(game_to_dict(six_mixed)))
    assert game_from_dict(data) == six_mixed
    # the optional "aggregation" key may only name the one value function
    assert "aggregation" not in data
    assert game_from_dict({**data, "aggregation": "componentwise_max"}) == six_mixed
    with pytest.raises(ValueError, match="aggregation"):
        game_from_dict({**data, "aggregation": "componentwise_spread"})


def test_partition_block_iterator_counts():
    assert sum(1 for _ in iter_partition_blocks(1)) == 1
    assert sum(1 for _ in iter_partition_blocks(3)) == 5
    assert sum(1 for _ in iter_partition_blocks(6)) == 203
