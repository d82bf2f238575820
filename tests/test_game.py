"""Value function, structural predicates, and serialization."""

import json
import math
import os
import pickle
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from brute_force import brute_alignment, brute_delta, brute_value

import coalitions
from coalitions.dynamics import convergence_bound
from coalitions.experiments import generate_game
from coalitions.preferences import derived_rng
from coalitions.game import (
    MAX_AGENTS,
    TIE_EPS,
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
    mask_members,
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
# value tables: the subset-DP kernel against per-mask brute_value

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
    direct = [brute_value(game, list(mask_members(m))) for m in masks]
    values, per_capita = value_table(game), per_capita_table(game)
    assert math.isnan(values[0]) and math.isnan(per_capita[0])
    assert list(values[1:]) == direct
    assert [coalition_value(game, m) for m in masks] == direct
    assert list(per_capita[1:]) == [v / m.bit_count() for m, v in zip(masks, direct)]
    assert coalition_value_range(game) == max(direct) - min(direct)
    assert convergence_bound(game).value_range == max(max(direct), 0.0) - min(min(direct), 0.0)
    assert value_gap_delta(game, max_size=game.n) == brute_delta(game, game.n)


@given(random_games())
@settings(max_examples=40, deadline=None)
def test_value_gap_delta_matches_enumeration_at_every_size(game):
    for k in range(1, game.n + 1):
        assert value_gap_delta(game, max_size=k) == brute_delta(game, k)
    with pytest.raises(ValueError, match="max_size must be >= 1"):
        value_gap_delta(game, max_size=0)


@pytest.mark.parametrize("n", [1, 6, 13])  # 13 > BLOCK_BITS: more than one DP block
def test_tables_are_packed_float64(n):
    game = generate_game(n, 3, 0.15, 1.3, seed=n)
    for table in (value_table(game), per_capita_table(game)):
        assert isinstance(table, array) and table.typecode == "d"
        assert len(table) == 1 << n
        assert table.buffer_info()[1] * table.itemsize == 8 << n


def test_subset_dp_runs_once_per_game(monkeypatch):
    import coalitions.game as game_module

    calls = []
    kernel = game_module._value_blocks

    def counted(game):
        calls.append(game)
        return kernel(game)

    monkeypatch.setattr(game_module, "_value_blocks", counted)
    value_table.cache_clear()
    per_capita_table.cache_clear()
    game = generate_game(7, 3, 0.15, 1.3, seed=3)
    value_table(game)
    per_capita_table(game)
    value_gap_delta(game, 4)
    coalition_value_range(game)
    convergence_bound(game)
    assert calls == [game]


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


def brute_phi(game, blocks):
    return sum(brute_value(game, list(b)) for b in blocks)


def test_alignment_on_six_agent_game_finds_zero_gain_moves(six_mixed):
    # six_mixed has improving moves that lower Phi outright: the walk's first
    # witness is agent 0 leaving {0,4,5} for {2,3}, which loses 0.023333.
    report = check_potential_alignment(six_mixed)
    assert not report.passed
    w = report.witness
    assert (w.agent, w.target_members) == (0, (2, 3))
    assert w.partition.blocks() == [[0, 4, 5], [1], [2, 3]]
    assert w.per_capita_before == brute_value(six_mixed, [0, 4, 5]) / 3
    assert w.per_capita_after == brute_value(six_mixed, [0, 2, 3]) / 3
    assert w.per_capita_before == pytest.approx(0.035886, abs=1e-6)
    assert w.per_capita_after == pytest.approx(0.041442, abs=1e-6)
    before = brute_phi(six_mixed, [[0, 4, 5], [1], [2, 3]])
    after = brute_phi(six_mixed, [[4, 5], [1], [0, 2, 3]])
    assert w.potential_before == pytest.approx(before, abs=1e-12)
    assert w.potential_after == pytest.approx(after, abs=1e-12)
    assert w.potential_after - w.potential_before == pytest.approx(-0.023333, abs=1e-6)
    # The 0.01 profile grid also admits improving moves that swap coverage
    # between coalitions without changing the total: agent 3 leaving {3,5}
    # for {4}.  In the game of agents 3, 4 and 5 alone it is the only move
    # that fails, with a change of Phi that is zero up to rounding, and the
    # check counts it as a failure (a tie in Phi is not a strict rise).
    sub = GameSpec.from_profiles(
        [six_mixed.profile(i).values for i in (3, 4, 5)],
        alpha=six_mixed.alpha, beta=six_mixed.beta,
    )
    report = check_potential_alignment(sub)
    assert not report.passed
    w = report.witness
    assert (w.agent, w.target_members, w.partition.blocks()) == (0, (1,), [[0, 2], [1]])
    assert w.per_capita_after - w.per_capita_before > 0.004
    assert w.potential_after == pytest.approx(w.potential_before, abs=1e-15)
    assert not brute_alignment(sub)


def assert_valid_witness(game, w):
    """The witness is a strictly improving move that does not strictly raise
    Phi, shown in the partition {S, T} plus singletons, by brute values."""
    n = game.n
    blocks = [tuple(b) for b in w.partition.blocks()]
    own = next(b for b in blocks if w.agent in b)
    target = w.target_members
    assert w.agent not in target
    assert (target in blocks) if target else len(own) > 1
    assert all(len(b) == 1 for b in blocks if b not in (own, target))
    assert sorted(i for b in blocks for i in b) == list(range(n))
    joined = sorted(target + (w.agent,))
    rest = [i for i in own if i != w.agent]
    assert w.per_capita_before == brute_value(game, list(own)) / len(own)
    assert w.per_capita_after == brute_value(game, joined) / len(joined)
    assert w.per_capita_after - w.per_capita_before > TIE_EPS
    moved = [b for b in blocks if b not in (own, target)] + [joined] + ([rest] if rest else [])
    phi_before, phi_after = brute_phi(game, blocks), brute_phi(game, moved)
    assert w.potential_before == pytest.approx(phi_before, abs=1e-12)
    assert w.potential_after == pytest.approx(phi_after, abs=1e-12)
    assert phi_after - phi_before <= TIE_EPS + 1e-12


def test_alignment_matches_brute_force(six_mixed, dominated_pair, trio):
    games = [six_mixed, dominated_pair, trio]
    for attempt in range(1, 51):  # the game family C05 draws from
        n = 2 + derived_rng("family", attempt).randrange(7)
        games.append(generate_game(n, 3, 0.15, 1.3, seed=attempt, lo=0.0, hi=1.0))
    for game in games:
        report = check_potential_alignment(game)
        assert report.passed == brute_alignment(game)
        if report.passed:
            assert report.witness is None
        else:
            assert_valid_witness(game, report.witness)


@st.composite
def alignment_games(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    profiles = draw(st.lists(st.lists(unit_scores, min_size=d, max_size=d), min_size=n, max_size=n))
    alpha = draw(st.just(math.ulp(0.0)) | st.floats(0.0, 2.0, exclude_min=True))
    beta = draw(st.just(1.0) | st.floats(1.0, 3.0))
    return GameSpec.from_profiles(profiles, alpha=alpha, beta=beta)


@given(alignment_games())
@settings(max_examples=150, deadline=None)
def test_alignment_over_moves_matches_the_partition_walk(game):
    report = check_potential_alignment(game)
    assert report.passed == brute_alignment(game)
    if not report.passed:
        assert_valid_witness(game, report.witness)


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
    with pytest.raises(ValueError, match="at least one agent"):
        GameSpec(agents=(), d=1)
    with pytest.raises(ValueError, match="at least one agent"):
        GameSpec.from_profiles([])
    pair = GameSpec.from_profiles([[0.5], [0.3]])
    with pytest.raises(ValueError, match="agent ids must be 0..n-1 in order"):
        GameSpec(agents=pair.agents[::-1], d=1)
    # every accepted game fits the 2**n value table
    assert GameSpec.from_profiles([[0.5]] * MAX_AGENTS).n == MAX_AGENTS
    with pytest.raises(ValueError, match=f"at most {MAX_AGENTS} agents"):
        GameSpec.from_profiles([[0.5]] * (MAX_AGENTS + 1))


@pytest.mark.parametrize(
    "n, alpha, beta",
    [
        (2, math.inf, 1.3),
        (1, math.inf, 1.3),
        (2, 0.15, math.inf),
        (1, 0.15, math.inf),  # 1**inf is 1, but beta itself is not finite
        (2, 1e308, 3.0),  # a finite alpha whose cost overflows
        (2, 0.15, 1e6),  # 2**1e6 raises OverflowError
    ],
)
def test_a_size_cost_that_is_not_finite_is_rejected(n, alpha, beta):
    with pytest.raises(ValueError, match="finite"):
        GameSpec.from_profiles([[0.5]] * n, alpha=alpha, beta=beta)


def test_a_game_without_a_capability_dimension_is_rejected():
    agents = [{"id": 0, "profile": []}, {"id": 1, "profile": []}]
    with pytest.raises(ValueError, match="at least one capability dimension, got d=0"):
        game_from_dict({"d": 0, "agents": agents})
    with pytest.raises(ValueError, match="got d=0"):
        GameSpec.from_profiles([[], []])


def test_the_largest_finite_size_costs_give_finite_values():
    for alpha, beta in ((1e307, 3.0), (8e307, 1.0), (0.15, 1000.0)):
        game = GameSpec.from_profiles([[0.5], [0.3]], alpha=alpha, beta=beta)
        assert all(math.isfinite(v) for v in value_table(game)[1:])
        assert math.isfinite(coalition_value_range(game))
    # one agent pays alpha * 1**beta
    assert GameSpec.from_profiles([[0.5]], alpha=1e308, beta=1e6).n == 1


def test_partition_invariants():
    with pytest.raises(ValueError, match="disjoint"):
        Partition.from_blocks(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="cover"):
        Partition.from_blocks(3, [[0], [2]])
    with pytest.raises(ValueError, match="empty"):
        Partition(3, (Coalition.of([0, 1, 2]), Coalition(0)))


def test_partitions_from_masks_share_coalitions_and_keep_their_checks():
    a = Partition.from_masks(4, (0b0101, 0b1010))
    b = Partition.from_masks(4, (0b1010, 0b0101))
    assert a == b
    assert all(x is y for x, y in zip(a.coalitions, b.coalitions))
    with pytest.raises(ValueError, match="non-negative"):
        Partition.from_masks(3, (0b011, -4))
    with pytest.raises(ValueError, match="disjoint"):
        Partition.from_masks(3, (0b011, 0b110))
    # a rejected mask is not cached: it raises every time
    with pytest.raises(ValueError, match="non-negative"):
        Partition.from_masks(3, (-4, 0b011))


def test_partition_canonical_order():
    a = Partition.from_blocks(4, [[3, 1], [0, 2]])
    b = Partition.from_blocks(4, [[2, 0], [1, 3]])
    assert a == b
    assert a.coalitions[0].members == (0, 2)


_PICKLE_GAME = """
import pickle, sys
from coalitions.game import GameSpec

game = GameSpec.from_profiles([[0.9, 0.1], [0.2, 0.8]], labels=["coder", "writer"])
if sys.argv[1] == "dump":
    hash(game)  # caches the hash under this interpreter's PYTHONHASHSEED
    sys.stdout.buffer.write(pickle.dumps(game))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    assert loaded == game and hash(loaded) == hash(game)
    assert {game: "found"}[loaded] == "found"
"""


def test_a_pickled_game_hashes_under_the_loading_hash_seed():
    """The cached hash does not travel: string labels hash per PYTHONHASHSEED."""
    src = str(Path(coalitions.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(seed: str, mode: str, data: bytes = b"") -> bytes:
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", _PICKLE_GAME, mode], input=data, capture_output=True, env=env
        )
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    run("2", "load", run("1", "dump"))


def test_a_pickled_game_drops_its_cached_hash():
    game = GameSpec.from_profiles([[0.9, 0.1], [0.2, 0.8]], labels=["coder", "writer"])
    hash(game)
    assert "_hash" in game.__dict__
    loaded = pickle.loads(pickle.dumps(game))
    assert "_hash" not in loaded.__dict__
    assert loaded == game and hash(loaded) == hash(game)


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
