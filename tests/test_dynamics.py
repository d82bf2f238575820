"""Episode runner, convergence bounds, logs, and replay."""

import hashlib
import json
import math

import pytest
from hypothesis import given, strategies as st

from brute_force import brute_episode, brute_header_line, brute_partitions, brute_round_dict

from coalitions.game import TIE_EPS, Coalition, GameSpec, Partition, check_potential_alignment
from coalitions.preferences import ExternalEndpointSpec, OracleKind, OracleSpec, Verdict
from coalitions.stability import verify_nash
from coalitions.dynamics import (
    ConvergenceBound,
    DeviationEvent,
    DeviationRule,
    EpisodeConfig,
    EpisodeLog,
    EpisodeOutcome,
    EpisodeSummary,
    InitialPartition,
    QueryRecord,
    RoundRecord,
    config_from_dict,
    config_to_dict,
    _header_line,
    convergence_bound,
    episode_log_lines,
    replay_file,
    replay_lines,
    run_episode,
)

PERFECT = OracleSpec(kind=OracleKind.PERFECT)


def perfect_config(game, **kwargs) -> EpisodeConfig:
    kwargs.setdefault("oracles", (PERFECT,))
    return EpisodeConfig(game=game, **kwargs)


# ---------------------------------------------------------------------------
# trajectories

def test_counterexample_cycles_to_timeout(dominated_pair):
    log = run_episode(perfect_config(dominated_pair, seed=1))
    assert log.outcome is EpisodeOutcome.TIMEOUT
    assert log.round_count == 30
    assert log.rounds[0].deviation.agent == 1  # weak agent joins the strong one
    assert log.rounds[0].deviation.to_members == (0, 1)
    assert log.rounds[1].deviation.agent == 0  # strong agent walks out
    assert log.rounds[1].deviation.to_members == (0,)
    # the two-state cycle repeats for the whole episode
    for i, r in enumerate(log.rounds):
        assert r.deviation.agent == (1 if i % 2 == 0 else 0)
    assert not log.summary.ground_truth_stable


def test_single_agent_is_immediately_stable(solo_game):
    log = run_episode(perfect_config(solo_game, seed=3))
    assert log.outcome is EpisodeOutcome.NASH_STABLE
    assert log.round_count == 1
    assert log.deviation_count == 0


def test_six_agent_perfect_run_reaches_verified_stability(six_mixed):
    for seed in range(8):
        log = run_episode(
            perfect_config(six_mixed, seed=seed, initial=InitialPartition(kind="random"))
        )
        assert log.outcome is EpisodeOutcome.NASH_STABLE
        assert verify_nash(six_mixed, log.terminal_partition).stable
        assert log.summary.consistent


def test_rounds_apply_exactly_one_deviation(six_mixed):
    log = run_episode(
        perfect_config(six_mixed, seed=5, initial=InitialPartition(kind="random"))
    )
    for before, after in zip(log.rounds, log.rounds[1:]):
        assert before.deviation is not None  # non-final rounds always move
        dev = before.deviation
        # applying the recorded move to the previous partition gives the next
        target = set(dev.to_members) - {dev.agent}
        moved = []
        for b in before.partition_before:
            nb = set(b) - {dev.agent}
            if nb == target and target:
                nb.add(dev.agent)
            if nb:
                moved.append(frozenset(nb))
        if not target:
            moved.append(frozenset({dev.agent}))
        assert set(moved) == {frozenset(b) for b in after.partition_before}


NOISE = OracleKind.CONSISTENCY_NOISE

# Literal sha256 digests of the JSONL of six_mixed episodes from random
# starts, so a change to the draw stream or the log bytes fails here even when
# replay, which compares the engine with itself, still passes.
# case: (config keywords, outcome, rounds, queries, digest)
PINNED_EPISODES = {
    "noise_k1": (
        dict(oracles=(OracleSpec(kind=NOISE, p_critical=0.7, seed=5),), seed=7, episode_id=3),
        "nash_stable", 22, 105,
        "72b86e01d3e0305a96266d910fd06a2c8cd4bd6f42d98823c5d2d6124fdd1050",
    ),
    "noise_k3": (
        dict(
            oracles=(OracleSpec(kind=NOISE, p_critical=0.6, p_easy=0.9, seed=2, majority_k=3),),
            seed=1, episode_id=12, record_queries=False,
        ),
        "nash_stable", 29, 199,
        "9e7d30aaa849bec6ccf1b768f38108630a4ec786cfacf9e8e519ab997996a4c8",
    ),
    "logit": (
        dict(oracles=(OracleSpec(kind=OracleKind.LOGIT, epsilon=0.1, seed=9),), seed=4, episode_id=250),
        "timeout", 30, 56,
        "7a9c8f3c4bb57affdefe286d8935611583bd76d0511c50083fd6616bb48ab63f",
    ),
    "perfect_best": (
        dict(oracles=(PERFECT,), seed=3, episode_id=8, rule=DeviationRule.BEST_IMPROVING),
        "nash_stable", 5, 120,
        "6510125a2591c72b120a10a08fbee7131f1a95cb9c473f78df3e9a4b6e7bf0c0",
    ),
    "noise_random": (
        dict(
            oracles=(OracleSpec(kind=NOISE, p_critical=0.8, seed=-4),),
            seed=2, episode_id=0, rule=DeviationRule.RANDOM_IMPROVING, record_queries=False,
        ),
        "nash_stable", 11, 84,
        "d49d5ca35a8bbbd03ed4f0c4aa5975cb1c5e47a1d02ed06ff88f8a32395481cc",
    ),
    "mixed_oracles": (
        dict(
            oracles=tuple(
                OracleSpec(kind=NOISE, p_critical=0.75, seed=s)
                if s % 2
                else OracleSpec(kind=OracleKind.LOGIT, epsilon=0.2, seed=s, majority_k=3)
                for s in range(6)
            ),
            seed=6, episode_id=2**40, rule=DeviationRule.RANDOM_IMPROVING,
        ),
        "timeout", 30, 135,
        "a37214a078c78351d646c84a7f1961ebd493ba847facc8b2845a2561764c7161",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_EPISODES))
def test_episode_log_bytes_are_pinned(six_mixed, case):
    kwargs, outcome, rounds, queries, digest = PINNED_EPISODES[case]
    log = run_episode(
        EpisodeConfig(game=six_mixed, initial=InitialPartition(kind="random"), **kwargs)
    )
    assert (log.outcome.value, log.round_count, log.summary.n_queries) == (outcome, rounds, queries)
    text = "\n".join(episode_log_lines(log)) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# round lines against json.dumps of the reference dict form

FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 1e-13, -1e-13, 5e-13, 1e300, -1e300, -0.5, 0.1 + 0.2, 1 / 3]
)
MASKS = st.integers(min_value=0, max_value=2**20 - 1)
QUERIES = st.builds(
    QueryRecord,
    agent=st.integers(min_value=0, max_value=19),
    target_mask=MASKS,
    delta_v=FLOATS,
    verdict=st.sampled_from(Verdict),
    critical=st.booleans(),
    matched=st.none() | st.booleans(),
)
ROUNDS = st.builds(
    RoundRecord,
    index=st.integers(min_value=0, max_value=2**40),
    masks_before=st.lists(MASKS, max_size=6).map(tuple),
    n_queries=st.integers(min_value=0, max_value=10**6),
    deviation=st.none() | st.builds(
        DeviationEvent, agent=st.integers(min_value=0, max_value=19), from_mask=MASKS, to_mask=MASKS
    ),
    phi_before=FLOATS,
    phi_after=FLOATS,
    queries=st.lists(QUERIES, max_size=5).map(tuple),
)


COUNTS = st.integers(min_value=0, max_value=10**6)
SUMMARIES = st.builds(
    EpisodeSummary, COUNTS, COUNTS, COUNTS, COUNTS, COUNTS,
    st.booleans(), st.booleans(), FLOATS, FLOATS,
)


@given(
    rounds=st.lists(ROUNDS, max_size=4),
    chain=st.booleans(),
    record_queries=st.booleans(),
    summary=SUMMARIES,
    outcome=st.sampled_from(EpisodeOutcome),
    terminal=st.sampled_from(brute_partitions(3)),
    error=st.none() | st.text(max_size=8),
)
def test_round_lines_match_reference_json(
    trio, rounds, chain, record_queries, summary, outcome, terminal, error
):
    # the round lines, then the terminal line, each against json.dumps of
    # its dict form
    if chain:
        # each round starts at the very float the previous one ended at,
        # as in run_episode's records
        for i in range(1, len(rounds)):
            rounds[i] = rounds[i]._replace(phi_before=rounds[i - 1].phi_after)
    config = EpisodeConfig(game=trio, oracles=(PERFECT,), record_queries=record_queries)
    partition = Partition.from_masks(3, terminal)
    log = EpisodeLog(
        config, tuple(rounds), outcome, partition, len(rounds), 7, summary, error=error
    )
    lines = episode_log_lines(log)
    assert len(lines) == len(rounds) + 2
    for line, r in zip(lines[1:-1], rounds):
        ref = json.dumps(
            brute_round_dict(r, record_queries), sort_keys=True, separators=(",", ":")
        )
        assert line == ref
    terminal_ref = {
        "type": "terminal",
        "outcome": outcome.value,
        "partition": partition.blocks(),
        "rounds": len(rounds),
        "deviations": 7,
        "summary": {
            "n_queries": summary.n_queries,
            "critical_queries": summary.critical_queries,
            "critical_matched": summary.critical_matched,
            "easy_queries": summary.easy_queries,
            "easy_matched": summary.easy_matched,
            "consistent": summary.consistent,
            "ground_truth_stable": summary.ground_truth_stable,
            "phi_initial": round(summary.phi_initial, 12),
            "phi_terminal": round(summary.phi_terminal, 12),
        },
        "verification": verify_nash(trio, partition).to_dict(),
        "error": error,
    }
    assert lines[-1] == json.dumps(terminal_ref, sort_keys=True, separators=(",", ":"))


INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# -0.0 and integer parameters compare equal to 0.0 and floats but encode
# differently, so a header cache keyed by equality would mix them up.
UNIT = st.floats(min_value=0.0, max_value=1.0) | st.just(-0.0)
ENDPOINTS = st.builds(
    ExternalEndpointSpec,
    command=st.lists(st.text(max_size=6), min_size=1, max_size=3).map(tuple),
    timeout_s=st.floats(min_value=0.1, max_value=60.0),
    protocol=st.sampled_from(["standard", "cot", "staged"]),
) | st.builds(ExternalEndpointSpec, url=st.text(min_size=1, max_size=12))
ORACLES = st.builds(
    OracleSpec,
    kind=st.sampled_from([OracleKind.PERFECT, OracleKind.LOGIT, OracleKind.CONSISTENCY_NOISE]),
    epsilon=st.floats(min_value=0.01, max_value=1.0) | st.just(1),
    critical_gap=st.none() | UNIT,
    seed=INT64,
    majority_k=st.sampled_from([1, 3, 5]),
) | st.builds(OracleSpec, kind=st.just(OracleKind.EXTERNAL), external=ENDPOINTS, seed=INT64)


@st.composite
def episode_configs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    d = draw(st.integers(min_value=1, max_value=3))
    game = GameSpec.from_profiles(
        draw(st.lists(st.lists(UNIT, min_size=d, max_size=d), min_size=n, max_size=n)),
        alpha=draw(st.floats(min_value=0.01, max_value=1.0) | st.just(1)),
        beta=draw(st.floats(min_value=1.0, max_value=3.0) | st.integers(min_value=1, max_value=3)),
    )
    kind = draw(st.sampled_from(["singletons", "random", "explicit"]))
    partition = None
    if kind == "explicit":
        partition = Partition.from_masks(n, draw(st.sampled_from(brute_partitions(n))))
    return EpisodeConfig(
        game=game,
        oracles=tuple(draw(st.lists(ORACLES, min_size=1, max_size=1) | st.lists(
            ORACLES, min_size=n, max_size=n
        ))),
        initial=InitialPartition(kind=kind, partition=partition),
        max_rounds=draw(st.integers(min_value=1, max_value=10**6)),
        rule=draw(st.sampled_from(list(DeviationRule))),
        seed=draw(INT64),
        episode_id=draw(INT64),
        record_queries=draw(st.booleans()),
    )


@given(config=episode_configs(), engine=st.text(max_size=8))
def test_header_line_matches_reference_json(config, engine):
    assert _header_line(config, engine) == brute_header_line(config, engine)
    # episodes of one condition share the cached members
    again = EpisodeConfig(
        config.game, config.oracles, config.initial, config.max_rounds, config.rule,
        config.seed ^ 1, config.episode_id ^ 1, config.record_queries,
    )
    assert _header_line(again, engine) == brute_header_line(again, engine)


def test_equal_configs_that_encode_differently_get_their_own_headers():
    def config(alpha, zero, epsilon, record_queries):
        game = GameSpec.from_profiles([[zero, 0.5], [1.0, zero]], alpha=alpha)
        oracle = OracleSpec(kind=OracleKind.LOGIT, epsilon=epsilon)
        return EpisodeConfig(game=game, oracles=(oracle,), record_queries=record_queries)

    forms = [config(1, 0.0, 1, True), config(1.0, -0.0, 1.0, 1)]
    assert forms[0] == forms[1] and hash(forms[0].game) == hash(forms[1].game)
    both_orders = forms + forms[::-1]
    lines = [_header_line(c, "e") for c in both_orders]
    assert lines == [brute_header_line(c, "e") for c in both_orders]
    assert lines[0] != lines[1]


# the scan against the plain reference episode

PROBABILITY = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
# agent 0 alone gets exactly its per-capita value by joining agent 1
EXACT_TIE_GAME = GameSpec.from_profiles([[0.5], [1.0]], alpha=0.25, beta=1)
# agent 0 alone loses exactly TIE_EPS by joining agent 1: the per-capita
# values are -1e-12 alone and -4e-12 / 2 together, all exact in binary64
EPS_TIE_GAME = GameSpec.from_profiles([[0.0], [0.0]], alpha=1e-12, beta=2)


@st.composite
def internal_oracles(draw):
    p_critical, p_easy = sorted((draw(PROBABILITY), draw(PROBABILITY | st.just(1.0))))
    return OracleSpec(
        kind=draw(st.sampled_from(
            [OracleKind.PERFECT, OracleKind.LOGIT, OracleKind.CONSISTENCY_NOISE]
        )),
        epsilon=draw(st.floats(min_value=0.01, max_value=1.0)),
        p_critical=p_critical,
        p_easy=p_easy,
        critical_gap=draw(st.none() | st.floats(min_value=0.0, max_value=1.0)),
        seed=draw(INT64),
        majority_k=draw(st.sampled_from([1, 3, 5])),
    )


@st.composite
def internal_episode_configs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.integers(min_value=1, max_value=3))
    game = draw(st.builds(
        GameSpec.from_profiles,
        st.lists(st.lists(UNIT, min_size=d, max_size=d), min_size=n, max_size=n),
        alpha=st.floats(min_value=0.01, max_value=0.5),
        beta=st.floats(min_value=1.0, max_value=2.0),
    ) | st.sampled_from([EXACT_TIE_GAME, EPS_TIE_GAME]))
    n = game.n
    kind = draw(st.sampled_from(["singletons", "random", "explicit"]))
    partition = None
    if kind == "explicit":
        partition = Partition.from_masks(n, draw(st.sampled_from(brute_partitions(n))))
    shared = draw(internal_oracles())
    oracles = draw(
        st.just((shared,)) | st.lists(internal_oracles() | st.just(shared), min_size=n, max_size=n)
    )
    return EpisodeConfig(
        game=game,
        oracles=tuple(oracles),
        initial=InitialPartition(kind=kind, partition=partition),
        max_rounds=draw(st.integers(min_value=1, max_value=12)),
        rule=draw(st.sampled_from(list(DeviationRule))),
        seed=draw(INT64),
        episode_id=draw(INT64),
        record_queries=draw(st.booleans()),
    )


@given(config=internal_episode_configs())
def test_episode_scan_matches_reference(config):
    assert episode_log_lines(run_episode(config)) == brute_episode(config)


def test_episode_scan_answers_exact_ties_without_a_draw():
    # agent 0 alone against joining agent 1 is a tie, the gap being 0 or
    # exactly TIE_EPS: perfect and consistency-noise oracles answer it
    # Indifferent, whatever the seed, and no oracle's answer counts as
    # matched or mismatched
    oracles = [PERFECT]
    for seed in range(20):
        oracles += [
            OracleSpec(kind=OracleKind.CONSISTENCY_NOISE, p_critical=0.5, p_easy=0.5, seed=seed),
            OracleSpec(kind=OracleKind.CONSISTENCY_NOISE, seed=seed, majority_k=3),
            OracleSpec(kind=OracleKind.LOGIT, epsilon=0.1, seed=seed),
        ]
    for game, gap in ((EXACT_TIE_GAME, 0.0), (EPS_TIE_GAME, -TIE_EPS)):
        for episode, oracle in enumerate(oracles):
            config = EpisodeConfig(game=game, oracles=(oracle,), episode_id=episode)
            log = run_episode(config)
            tie = log.rounds[0].queries[0]
            assert (tie.agent, tie.target_mask, tie.delta_v) == (0, 0b10, gap)
            assert tie.matched is None
            if oracle.kind is not OracleKind.LOGIT:
                assert tie.verdict is Verdict.INDIFFERENT
            assert episode_log_lines(log) == brute_episode(config)


def test_wrong_size_explicit_initial_partition_is_rejected(six_mixed):
    for n in (4, 8):
        start = InitialPartition(kind="explicit", partition=Partition.singletons(n))
        with pytest.raises(ValueError, match=f"covers {n} agents, but the game has 6"):
            perfect_config(six_mixed, initial=start)


def test_engine_caches_are_bounded():
    from coalitions import dynamics, game

    for cached in (
        game.deviation_plan,
        game.mask_members,
        game.value_table,
        game.per_capita_table,
        dynamics._random_masks,
        dynamics._header_config,
        dynamics._members_json,
        dynamics._partition_json,
        dynamics._verification_json,
        dynamics._successor,
    ):
        assert cached.cache_info().maxsize is not None, cached.__name__


@pytest.mark.parametrize("n", range(1, 7))
def test_successor_is_the_sorted_partition_after_the_move(n):
    from coalitions.dynamics import _successor

    for masks in brute_partitions(n):
        blocks = tuple(masks)
        for agent in range(n):
            bit = 1 << agent
            own = next(m for m in blocks if m & bit)
            for target in [m for m in blocks if m != own] + [0]:
                if target == 0 and own == bit:
                    continue  # going solo while alone is no move
                after = [m for m in blocks if m not in (own, target)]
                after += [m for m in (own & ~bit, target | bit) if m]
                lowest = lambda m: min(i for i in range(n) if m >> i & 1)
                expected = tuple(sorted(after, key=lowest))
                assert _successor(blocks, own, target, target | bit) == expected


def test_random_initial_partitions_are_the_seeded_draws(six_mixed):
    from coalitions.preferences import derived_rng
    from coalitions.stability import random_partition

    initial = InitialPartition(kind="random")
    for episode in range(20):
        expected = random_partition(6, derived_rng("init", 7, episode))
        assert initial.realize(6, 7, episode) == expected
        assert initial.block_masks(6, 7, episode) == expected.masks


def test_explicit_initial_partition(six_mixed):
    start = Partition.from_blocks(6, [[0, 1, 2], [3, 4, 5]])
    log = run_episode(
        perfect_config(
            six_mixed, seed=2, initial=InitialPartition(kind="explicit", partition=start)
        )
    )
    assert tuple(map(tuple, log.rounds[0].partition_before)) == ((0, 1, 2), (3, 4, 5))
    assert log.outcome is EpisodeOutcome.NASH_STABLE


def test_phi_strictly_increases_under_alignment():
    from coalitions.experiments import generate_game

    found = 0
    seed = 0
    while found < 10:
        seed += 1
        game = generate_game(4, 3, 0.15, 1.3, seed=seed, lo=0.0, hi=1.0)
        if not check_potential_alignment(game).passed:
            continue
        found += 1
        for ep in range(3):
            log = run_episode(
                perfect_config(game, seed=ep, episode_id=ep,
                               initial=InitialPartition(kind="random"))
            )
            assert log.outcome is EpisodeOutcome.NASH_STABLE
            for r in log.rounds:
                if r.deviation is not None:
                    assert r.phi_after > r.phi_before + 1e-12


def test_best_improving_takes_largest_gain(parasite_game):
    # from {{0,2},{1}} agent 0 has two improving moves: solo (pc 0.4) and
    # joining agent 1 (pc ~0.327); first-improving applies the scan order
    # winner while best-improving must take the larger gain
    start = InitialPartition(
        kind="explicit", partition=Partition.from_blocks(3, [[0, 2], [1]])
    )
    first = run_episode(perfect_config(parasite_game, seed=1, initial=start))
    best = run_episode(
        perfect_config(
            parasite_game, seed=1, initial=start, rule=DeviationRule.BEST_IMPROVING
        )
    )
    assert first.rounds[0].deviation.agent == 0
    assert first.rounds[0].deviation.to_members == (0, 1)  # scan hits the join first
    assert best.rounds[0].deviation.agent == 0
    assert best.rounds[0].deviation.to_members == (0,)  # solo pays more


def test_random_improving_is_seeded(six_mixed):
    cfg = perfect_config(
        six_mixed,
        seed=9,
        initial=InitialPartition(kind="random"),
        rule=DeviationRule.RANDOM_IMPROVING,
    )
    a, b = run_episode(cfg), run_episode(cfg)
    assert episode_log_lines(a) == episode_log_lines(b)


def test_consistency_counters(six_mixed):
    oracle = OracleSpec(
        kind=OracleKind.CONSISTENCY_NOISE, p_critical=0.7, p_easy=0.95,
        critical_gap=0.3, seed=17,
    )
    log = run_episode(
        EpisodeConfig(
            game=six_mixed, oracles=(oracle,), seed=17,
            initial=InitialPartition(kind="random"),
        )
    )
    s = log.summary
    assert s.critical_queries + s.easy_queries <= s.n_queries
    assert 0 <= s.critical_matched <= s.critical_queries
    assert s.consistent == (
        s.critical_matched == s.critical_queries and s.easy_matched == s.easy_queries
    )


# ---------------------------------------------------------------------------
# convergence bound

def test_bound_for_single_agent(solo_game):
    b = convergence_bound(solo_game)
    assert b == ConvergenceBound(0.0, 0.0, math.inf, 0.5 - 0.15)


def test_bound_on_counterexample_game(dominated_pair):
    b = convergence_bound(dominated_pair)
    assert b.delta == pytest.approx(0.0653283, abs=1e-6)
    assert b.value_range == pytest.approx(0.85)  # all values positive: range to 0
    assert b.max_deviations == pytest.approx(2 * 0.85 / b.delta)
    assert b.max_rounds == pytest.approx(2 * b.max_deviations)
    # assumptions fail here, so non-termination does not contradict the bound
    assert not check_potential_alignment(dominated_pair).passed
    log = run_episode(perfect_config(dominated_pair, seed=4))
    assert log.outcome is EpisodeOutcome.TIMEOUT


def test_bound_respected_by_perfect_runs(six_mixed):
    b = convergence_bound(six_mixed)
    for seed in range(5):
        log = run_episode(
            perfect_config(six_mixed, seed=seed, initial=InitialPartition(kind="random"))
        )
        assert log.deviation_count <= b.max_deviations


# ---------------------------------------------------------------------------
# serialization and replay

def test_config_round_trip(six_mixed):
    cfg = EpisodeConfig(
        game=six_mixed,
        oracles=(OracleSpec(kind=OracleKind.CONSISTENCY_NOISE, p_critical=0.8, seed=3),),
        initial=InitialPartition(kind="random"),
        max_rounds=12,
        rule=DeviationRule.BEST_IMPROVING,
        seed=44,
        episode_id=7,
        record_queries=False,
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_replay_is_byte_identical(six_mixed):
    oracle = OracleSpec(kind=OracleKind.CONSISTENCY_NOISE, p_critical=0.8, seed=5)
    log = run_episode(
        EpisodeConfig(
            game=six_mixed, oracles=(oracle,), seed=5,
            initial=InitialPartition(kind="random"),
        )
    )
    report = replay_lines(episode_log_lines(log))
    assert report.identical
    assert report.version_warning is None


def test_replay_detects_tampering(six_mixed):
    log = run_episode(perfect_config(six_mixed, seed=6, initial=InitialPartition(kind="random")))
    lines = episode_log_lines(log)
    idx = 1  # first round record
    lines[idx] = lines[idx].replace('"phi_before":', '"phi_before": 9 + 0 * ', 1)
    report = replay_lines(lines)
    assert not report.identical
    assert report.first_divergence == idx


def test_replay_warns_on_version_mismatch(six_mixed):
    log = run_episode(perfect_config(six_mixed, seed=8))
    lines = episode_log_lines(log)
    lines[0] = lines[0].replace('"engine":"', '"engine":"0.0.0-old', 1)
    report = replay_lines(lines)
    assert report.identical  # content still matches
    assert report.version_warning is not None


def condition_log_lines(game, episodes: int) -> list[str]:
    oracle = OracleSpec(kind=OracleKind.CONSISTENCY_NOISE, p_critical=0.8, seed=11)
    lines = []
    for i in range(episodes):
        cfg = EpisodeConfig(
            game=game, oracles=(oracle,), seed=11, episode_id=i,
            initial=InitialPartition(kind="random"),
        )
        lines += episode_log_lines(run_episode(cfg))
    return lines


def test_replay_file_splits_episodes_at_headers(six_mixed, tmp_path):
    lines = condition_log_lines(six_mixed, 3)
    headers = [i for i, ln in enumerate(lines) if '"type":"header"' in ln]
    assert len(headers) == 3
    path = tmp_path / "condition.jsonl"
    path.write_text("\n".join(lines) + "\n")
    report = replay_file(path)
    assert report.identical and report.lines_checked == len(lines)

    # a spaced header and one with an escaped "header" still start episodes
    spaced = json.dumps(json.loads(lines[headers[1]]), indent=1).replace("\n", "")
    assert '"type": "header"' in spaced
    lines[headers[1]] = spaced
    lines[headers[2]] = lines[headers[2]].replace('"type":"header"', '"type":"\\u0068eader"')
    tampered = headers[2] + 1
    lines[tampered] = lines[tampered].replace('"type":"round"', '"type":"round","x":1')
    path.write_text("\n".join(lines) + "\n")
    report = replay_file(path)
    assert not report.identical
    assert report.first_divergence == tampered
    assert report.lines_checked == tampered + 1


def test_replay_file_needs_a_leading_header(six_mixed, tmp_path):
    lines = condition_log_lines(six_mixed, 2)
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(ValueError, match="must start with a header record"):
        replay_file(path)
    rounds_only = [ln for ln in lines if '"type":"header"' not in ln]
    path.write_text("\n".join(rounds_only) + "\n")
    with pytest.raises(ValueError, match="contains no header record"):
        replay_file(path)


def test_summary_mode_still_replays(six_mixed):
    cfg = perfect_config(
        six_mixed, seed=10, initial=InitialPartition(kind="random"), record_queries=False
    )
    log = run_episode(cfg)
    assert all(r.queries == () for r in log.rounds)
    assert replay_lines(episode_log_lines(log)).identical


def test_external_failure_aborts_with_error(six_mixed):
    from coalitions.preferences import ExternalEndpointSpec

    oracle = OracleSpec(
        kind=OracleKind.EXTERNAL,
        external=ExternalEndpointSpec(command=("/nonexistent-plugin",), timeout_s=0.5),
    )
    from coalitions.plugin import OracleWireError, open_sessions

    with pytest.raises(OracleWireError):
        with open_sessions((oracle,)) as sessions:
            pass
