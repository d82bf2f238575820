"""Oracle decision models, consistency measurement, epsilon estimation."""

import hashlib
import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from brute_force import brute_coin, brute_decide, brute_epsilon_bins, unit_uniform

from coalitions.game import Coalition, EMPTY_COALITION, TIE_EPS
from coalitions.preferences import (
    ChoiceRecord,
    InsufficientDataError,
    OracleKind,
    OracleSpec,
    PreferenceQuery,
    Verdict,
    answer,
    answer_majority,
    _COUNTERS,
    _key_bytes,
    _majority_coin,
    _uniform,
    decide,
    derived_rng,
    draw_prefix,
    draw_threshold,
    episode_decider,
    episode_draws,
    estimate_epsilon,
    logit_accept_probability,
    measure_consistency,
    query_delta,
    read_choice_log,
    write_choice_log,
)

PERFECT = OracleSpec(kind=OracleKind.PERFECT)


def logit(eps: float, seed: int = 0) -> OracleSpec:
    return OracleSpec(kind=OracleKind.LOGIT, epsilon=eps, seed=seed)


def noisy(p: float, p_easy: float = 0.98, gap: float = 0.3, seed: int = 0, k: int = 1) -> OracleSpec:
    return OracleSpec(
        kind=OracleKind.CONSISTENCY_NOISE,
        p_critical=p,
        p_easy=p_easy,
        critical_gap=gap,
        seed=seed,
        majority_k=k,
    )


def accept_rate(oracle: OracleSpec, delta: float, trials: int, tag: str = "t") -> float:
    hits = 0
    for i in range(trials):
        hits += decide(oracle, delta, (tag, i)) is Verdict.PREFER_CANDIDATE
    return hits / trials


# ---------------------------------------------------------------------------
# model correctness

def test_perfect_verdict_on_worked_example(trio):
    # moving from the 0/1 pair to join agent 2 raises per-capita value
    q = PreferenceQuery(agent=0, current=Coalition.of([0, 1]), candidate=Coalition.of([2]))
    delta = query_delta(trio, q)
    assert delta == pytest.approx(0.0183333, abs=1e-6)
    assert answer(PERFECT, trio, q).verdict is Verdict.PREFER_CANDIDATE
    back = PreferenceQuery(agent=0, current=Coalition.of([0, 2]), candidate=Coalition.of([1]))
    assert answer(PERFECT, trio, back).verdict is Verdict.PREFER_CURRENT


def test_perfect_is_indifferent_on_exact_tie(trio):
    assert decide(PERFECT, 0.0, ()) is Verdict.INDIFFERENT


def test_logit_probability_at_one_bound_gap():
    assert logit_accept_probability(0.15, 0.15) == pytest.approx(
        1 / (1 + math.exp(-1)), abs=1e-12
    )
    assert logit_accept_probability(0.0, 0.15) == 0.5
    assert logit_accept_probability(1e6, 1e-6) == pytest.approx(1.0)


def test_logit_empirical_rate_at_bound():
    rate = accept_rate(logit(0.15), 0.15, 20_000)
    assert rate == pytest.approx(0.731, abs=0.02)


def test_logit_rate_monotone_in_gap():
    oracle = logit(0.15, seed=3)
    grid = [-0.3, -0.15, -0.05, 0.0, 0.05, 0.15, 0.3]
    rates = [accept_rate(oracle, g, 12_000, tag=f"g{g}") for g in grid]
    for a, b in zip(rates, rates[1:]):
        assert b > a - 0.01


def test_logit_converges_to_perfect():
    sharp = logit(1e-6, seed=5)
    for i, delta in enumerate([-0.5, -0.05, -0.01, 0.01, 0.05, 0.5]):
        v = decide(sharp, delta, ("sharp", i))
        assert v is decide(PERFECT, delta, ())


def test_epsilon_rationality_rate_above_logit_floor():
    # at gaps beyond the bound, accepting the better option must beat 0.73
    for delta in (0.16, 0.2, 0.3):
        assert accept_rate(logit(0.15, seed=9), delta, 8_000, tag=f"d{delta}") > 0.72
    assert accept_rate(noisy(0.86, seed=9), 0.2, 8_000, tag="cn") > 0.72


def test_consistency_noise_flip_rates():
    oracle = noisy(0.8, p_easy=0.95, gap=0.3, seed=11)
    critical = accept_rate(oracle, 0.1, 20_000, tag="crit")  # correct = candidate
    easy = accept_rate(oracle, 0.5, 20_000, tag="easy")
    assert critical == pytest.approx(0.8, abs=0.01)
    assert easy == pytest.approx(0.95, abs=0.01)
    # flipping lands on the wrong side for negative gaps too
    wrong = accept_rate(oracle, -0.1, 20_000, tag="neg")
    assert wrong == pytest.approx(0.2, abs=0.01)


def test_consistency_noise_tie_is_deterministic():
    oracle = noisy(0.6, seed=2)
    for i in range(50):
        assert decide(oracle, 0.0, ("tie", i)) is Verdict.INDIFFERENT


def test_replay_determinism():
    oracle = logit(0.2, seed=42)
    first = [decide(oracle, 0.01 * i - 0.2, ("seq", i)) for i in range(200)]
    second = [decide(oracle, 0.01 * i - 0.2, ("seq", i)) for i in range(200)]
    assert first == second


def test_distinct_streams_decorrelate():
    oracle = logit(0.2, seed=42)
    a = [decide(oracle, 0.0, ("a", i)) for i in range(500)]
    b = [decide(oracle, 0.0, ("b", i)) for i in range(500)]
    assert a != b


# ---------------------------------------------------------------------------
# majority voting

def test_majority_boost_on_easy_decisions(trio):
    # per-answer accuracy 0.8 -> best-of-3 accuracy 0.8^3 + 3 * 0.8^2 * 0.2
    oracle = noisy(0.8, p_easy=0.8, gap=1.0, seed=7, k=3)
    q = PreferenceQuery(agent=0, current=Coalition.of([0, 1]), candidate=Coalition.of([2]))
    hits = 0
    trials = 100_000
    for i in range(trials):
        hits += (
            answer_majority(oracle, trio, q, ctx=("maj", i)).verdict
            is Verdict.PREFER_CANDIDATE
        )
    assert hits / trials == pytest.approx(0.896, abs=0.01)


def test_majority_k1_matches_single_answer(trio):
    oracle = noisy(0.7, seed=13, k=1)
    q = PreferenceQuery(agent=1, current=Coalition.of([1]), candidate=Coalition.of([0]))
    for i in range(100):
        assert (
            answer_majority(oracle, trio, q, ctx=("one", i)).verdict
            is answer(oracle, trio, q, ctx=("one", i)).verdict
        )


def test_majority_of_perfect_is_perfect(trio):
    oracle = OracleSpec(kind=OracleKind.PERFECT, majority_k=5)
    q = PreferenceQuery(agent=0, current=Coalition.of([0, 1]), candidate=Coalition.of([2]))
    assert answer_majority(oracle, trio, q).verdict is answer(PERFECT, trio, q).verdict


def test_majority_k_must_be_odd():
    with pytest.raises(ValueError):
        noisy(0.8, k=2)


# ---------------------------------------------------------------------------
# consistency measurement

def queries_with_gap(game, gap_sign=1):
    qs = []
    for agent in range(game.n):
        others = [i for i in range(game.n) if i != agent]
        qs.append(
            PreferenceQuery(
                agent=agent,
                current=Coalition.of([agent]),
                candidate=Coalition.of(others[:1]) if gap_sign else EMPTY_COALITION,
            )
        )
    return qs


def test_perfect_oracle_is_fully_consistent(six_mixed):
    report = measure_consistency(PERFECT, six_mixed, queries_with_gap(six_mixed), repeats=10)
    assert report.agreement == 1.0
    assert report.modal_rate == 1.0


def test_flip_model_agreement_matches_two_point_formula(six_mixed):
    # all-critical queries with keep probability p agree pairwise with
    # probability p^2 + (1-p)^2
    p = 0.86
    oracle = noisy(p, gap=10.0, seed=21)  # everything critical
    report = measure_consistency(
        oracle, six_mixed, queries_with_gap(six_mixed), repeats=1000
    )
    assert report.agreement == pytest.approx(p * p + (1 - p) * (1 - p), abs=0.02)
    assert report.modal_rate == pytest.approx(p, abs=0.02)


def test_sharp_logit_is_consistent_on_clear_gaps(six_mixed):
    report = measure_consistency(
        logit(1e-4, seed=3), six_mixed, queries_with_gap(six_mixed), repeats=25
    )
    assert report.agreement == pytest.approx(1.0, abs=1e-6)


def test_measure_consistency_needs_repeats(six_mixed):
    with pytest.raises(ValueError):
        measure_consistency(PERFECT, six_mixed, queries_with_gap(six_mixed), repeats=1)
    with pytest.raises(ValueError, match="at least one query"):
        measure_consistency(PERFECT, six_mixed, [])


# ---------------------------------------------------------------------------
# epsilon estimation

def logit_choice_log(eps: float, n: int = 10_000, seed: int = 0) -> list[ChoiceRecord]:
    rng = derived_rng("gen-log", seed)
    oracle = logit(eps, seed=seed)
    out = []
    for i in range(n):
        dv = -0.5 + rng.random()
        out.append(ChoiceRecord(dv, decide(oracle, dv, ("log", i)), agent=i % 3))
    return out


def accept_choice_log(eps: float) -> list[ChoiceRecord]:
    """The choice log acceptance criterion C11 estimates from."""
    oracle = OracleSpec(kind=OracleKind.LOGIT, epsilon=eps, seed=11)
    rng = derived_rng("accept-log", int(eps * 100))
    out = []
    for i in range(10_000):
        dv = -0.5 + rng.random()
        out.append(ChoiceRecord(dv, decide(oracle, dv, ("a11", i))))
    return out


def random_verdict_log() -> list[ChoiceRecord]:
    rng = derived_rng("rand-verdicts", 0)
    return [
        ChoiceRecord(
            -0.5 + rng.random(),
            Verdict.PREFER_CANDIDATE if rng.random() < 0.5 else Verdict.PREFER_CURRENT,
        )
        for _ in range(10_000)
    ]


@pytest.mark.parametrize("eps,lo,hi", [(0.15, 0.12, 0.18), (0.22, 0.18, 0.26)])
def test_epsilon_round_trip(eps, lo, hi):
    rows = logit_choice_log(eps, seed=1)
    est = estimate_epsilon(rows, seed=1)
    assert est.found
    assert lo <= est.estimate <= hi
    assert est.ci_low < est.estimate < est.ci_high
    # the CI repeats for a seed; another seed moves the CI, not the estimate
    again = estimate_epsilon(rows, seed=1)
    assert (again.ci_low, again.ci_high) == (est.ci_low, est.ci_high)
    other = estimate_epsilon(rows, seed=2)
    assert other.estimate == est.estimate
    assert (other.ci_low, other.ci_high) != (est.ci_low, est.ci_high)


@pytest.mark.parametrize("log", [lambda: accept_choice_log(0.15), random_verdict_log])
def test_epsilon_binning_matches_loop_reference(log):
    rows = log()
    est = estimate_epsilon(rows, bootstrap_iterations=0)
    centers, rates, crossing = brute_epsilon_bins(rows)
    assert (est.bin_centers, est.bin_rates, est.estimate) == (centers, rates, crossing)


def test_epsilon_of_perfect_log_is_zero():
    rows = [
        ChoiceRecord(dv, decide(PERFECT, dv, ()))
        for dv in (x / 1000 - 0.5 for x in range(1001))
        if abs(dv) > 1e-9
    ]
    est = estimate_epsilon(rows, min_per_bin=10)
    assert est.found and est.estimate == 0.0


def test_epsilon_not_found_for_random_verdicts():
    est = estimate_epsilon(random_verdict_log())
    assert not est.found and est.estimate is None


def test_epsilon_requires_both_signs():
    rows = [ChoiceRecord(0.1 + i / 100, Verdict.PREFER_CANDIDATE) for i in range(100)]
    with pytest.raises(ValueError, match="both signs"):
        estimate_epsilon(rows)


def test_epsilon_insufficient_data():
    rows = [ChoiceRecord((-1) ** i * (i + 1) / 100, Verdict.PREFER_CANDIDATE) for i in range(40)]
    with pytest.raises(InsufficientDataError):
        estimate_epsilon(rows, min_per_bin=30)


def test_choice_log_round_trip(tmp_path):
    rows = logit_choice_log(0.2, n=50, seed=9)
    path = tmp_path / "log.csv"
    write_choice_log(rows, path)
    back = read_choice_log(path)
    assert [(r.delta_v, r.verdict, r.agent) for r in back] == [
        (r.delta_v, r.verdict, r.agent) for r in rows
    ]


def test_majority_verdict_tie_breaks_to_current():
    from coalitions.preferences import majority_verdict

    assert (
        majority_verdict(
            [Verdict.PREFER_CANDIDATE, Verdict.PREFER_CURRENT, Verdict.INDIFFERENT]
        )
        is Verdict.PREFER_CURRENT
    )
    assert majority_verdict([]) is Verdict.PREFER_CURRENT
    assert (
        majority_verdict([Verdict.INDIFFERENT, Verdict.INDIFFERENT, Verdict.PREFER_CANDIDATE])
        is Verdict.INDIFFERENT
    )


# ---------------------------------------------------------------------------
# draw keys

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1) | st.just(0)


@given(seed=INT64, episode=INT64, round_index=INT64, ordinal=INT64, rep=INT64)
def test_draw_prefix_plus_counters_is_the_episode_key(seed, episode, round_index, ordinal, rep):
    key = draw_prefix(seed, episode) + _COUNTERS.pack(
        b"i", round_index, b"i", ordinal, b"i", rep
    )
    assert key == _key_bytes(("pref", seed, episode, round_index, ordinal, rep))
    copy, pack = episode_draws(draw_prefix(seed, episode))
    h = copy()
    h.update(pack(b"i", round_index, b"i", ordinal, b"i", rep))
    assert h.digest() == hashlib.blake2b(key, digest_size=8).digest()
    oracle = logit(0.1, seed=seed)
    decider = episode_decider(oracle, draw_prefix(seed, episode))
    for delta in (-0.05, 0.05, 0.5):
        assert decider(delta, round_index, ordinal) is decide(
            oracle, delta, (episode, round_index, ordinal)
        )


@given(
    seed=INT64,
    episode=INT64,
    round_index=INT64,
    ordinal=INT64,
    k=st.sampled_from([1, 3, 5]),
)
def test_episode_coin_draws_are_the_full_key_draws(seed, episode, round_index, ordinal, k):
    coin = _majority_coin(draw_prefix(seed, episode), k)
    draws = [
        _uniform(_key_bytes(("pref", seed, episode, round_index, ordinal, rep)))
        for rep in range(k)
    ]
    # a threshold at each draw and just above it puts the order statistic
    # the majority turns on exactly at that draw
    thresholds = [0.0, 1.0] + draws + [math.nextafter(u, math.inf) for u in draws]
    for p in thresholds:
        expected = brute_coin(seed, episode, k, p, round_index, ordinal)
        assert coin(p, round_index, ordinal) is expected


def test_decide_survives_pickling():
    import pickle

    oracle = noisy(0.6, seed=4)
    before = decide(oracle, 0.1, ("pickle", 0))  # builds the cached model
    thresholds = oracle.draw_thresholds
    copy = pickle.loads(pickle.dumps(oracle))
    assert copy == oracle
    assert decide(copy, 0.1, ("pickle", 0)) is before
    assert copy.draw_thresholds == thresholds


def test_draw_stream_is_pinned():
    # literal draws: a change to the key layout or the hash shows up here,
    # even one that keeps the engine consistent with itself
    assert unit_uniform("pref", 0, 0, 1, 1, 0) == 0.20769568127927668
    assert unit_uniform("pref", 5, 3, 2, 7, 1) == 0.8714974591049148
    assert unit_uniform("pref", -1, 2**63 - 1, -(2**63), 0, 2) == 0.7154448331483027
    assert unit_uniform("consistency", 0, 4, 9) == 0.4459040746480864


def test_oracle_spec_validation():
    with pytest.raises(ValueError, match="epsilon"):
        OracleSpec(kind=OracleKind.LOGIT, epsilon=0.0)
    with pytest.raises(ValueError, match="p_critical"):
        OracleSpec(kind=OracleKind.CONSISTENCY_NOISE, p_critical=0.99, p_easy=0.9)
    with pytest.raises(ValueError, match="endpoint"):
        OracleSpec(kind=OracleKind.EXTERNAL)
    assert OracleSpec(kind=OracleKind.CONSISTENCY_NOISE, epsilon=0.2).gap_threshold == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# decision closures against the reference models

def test_exact_ties_per_model():
    # perfect and consistency-noise answer a tie Indifferent without a draw
    # (the episode scan's ties: test_dynamics); logit has no tie rule and
    # draws a fair coin
    for delta in (0.0, -0.0, TIE_EPS, -TIE_EPS, TIE_EPS / 2):
        for oracle in (PERFECT, noisy(0.6), noisy(0.6, k=3)):
            verdicts = {decide(oracle, delta, ("tie", i), rep) for i in range(50) for rep in (0, 1)}
            assert verdicts == {Verdict.INDIFFERENT}
    for oracle in (logit(0.1), logit(0.1, seed=3)):
        decider = episode_decider(oracle, draw_prefix(oracle.seed, 0))
        verdicts = {decider(0.0, 1, o) for o in range(1, 50)}
        assert verdicts == {Verdict.PREFER_CANDIDATE, Verdict.PREFER_CURRENT}
        assert {decide(oracle, 0.0, ("tie", i)) for i in range(50)} == verdicts


PROBABILITY = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def internal_oracles(draw):
    kind = draw(st.sampled_from([OracleKind.PERFECT, OracleKind.LOGIT, OracleKind.CONSISTENCY_NOISE]))
    p_critical, p_easy = sorted((draw(PROBABILITY), draw(PROBABILITY)))
    return OracleSpec(
        kind=kind,
        epsilon=draw(st.floats(min_value=0.01, max_value=1.0)),
        p_critical=p_critical,
        p_easy=p_easy,
        critical_gap=draw(st.none() | st.floats(min_value=0.0, max_value=1.0)),
        seed=draw(INT64),
        majority_k=draw(st.sampled_from([1, 3, 5])),
    )


@given(
    oracle=internal_oracles(),
    episode=INT64,
    round_index=INT64,
    ordinal=INT64,
    arbitrary=st.floats(min_value=-2.0, max_value=2.0),
)
def test_decision_closures_match_reference(oracle, episode, round_index, ordinal, arbitrary):
    gap = oracle.gap_threshold
    deltas = [0.0, TIE_EPS, -TIE_EPS, arbitrary]
    for edge in (gap, -gap):
        deltas += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    # only logit has an episode decider; the scan decides the other kinds
    # inline (test_dynamics checks it against the reference episode)
    if oracle.kind is OracleKind.LOGIT:
        decider = episode_decider(oracle, draw_prefix(oracle.seed, episode))
    else:
        with pytest.raises(ValueError, match="no episode decider"):
            episode_decider(oracle, draw_prefix(oracle.seed, episode))
        decider = None
    ctx = (episode, round_index, ordinal)
    for delta in deltas:
        reps = [brute_decide(oracle, delta, ctx, rep) for rep in range(oracle.majority_k)]
        (modal, count), = Counter(reps).most_common(1)
        assert count > oracle.majority_k // 2  # k is odd: never a tie
        if decider is not None:
            assert decider(delta, round_index, ordinal) is modal
        for rep, expected in enumerate(reps):
            assert decide(oracle, delta, ctx, rep) is expected


# ---------------------------------------------------------------------------
# draw thresholds

DEFAULTS = OracleSpec(kind=OracleKind.CONSISTENCY_NOISE)
EDGE_PROBABILITIES = [
    1.0, math.nextafter(1.0, 0.0), 2.0**-64, 5e-324, DEFAULTS.p_critical, DEFAULTS.p_easy,
] + [math.nextafter(p, to) for p in (DEFAULTS.p_critical, DEFAULTS.p_easy) for to in (0.0, 1.0)]


@given(
    x=st.integers(min_value=0, max_value=2**64 - 1),
    p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True) | st.sampled_from(EDGE_PROBABILITIES),
)
def test_draw_threshold_matches_the_float_draw(x, p):
    # p at a draw and just above it puts the threshold right at x as well
    u = x / 2.0**64
    for q in (p, u, math.nextafter(u, 1.0)):
        if not 0.0 < q <= 1.0:
            continue
        threshold = draw_threshold(q)
        t = int.from_bytes(threshold, "big")
        for y in (x, t - 1, t, 2**64 - 1):
            if 0 <= y < 2**64:
                assert (y.to_bytes(8, "big") < threshold) == (y / 2.0**64 < q)


def test_draw_threshold_edges():
    assert draw_threshold(1.0) == (2**64 - 2**10).to_bytes(8, "big")
    assert draw_threshold(0.0) == bytes(8)
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="draw probabilities"):
            draw_threshold(p)
    oracle = noisy(0.6, p_easy=1.0)
    assert oracle.draw_thresholds == (draw_threshold(0.6), draw_threshold(1.0))
