"""Prompt rendering, declaration parsing, and the wire protocol."""

import json
import random
import sys
import textwrap
import threading
import time

import pytest

from coalitions import plugin
from coalitions.game import Coalition, GameSpec
from coalitions.stability import enumerate_partitions
from coalitions.preferences import (
    ExternalEndpointSpec,
    OracleKind,
    OracleParseFailure,
    OracleSpec,
    PreferenceQuery,
    Verdict,
    answer_majority,
)
from prompt_corpus import completion_corpus
from coalitions.plugin import (
    DECLARATION_MENU,
    ExternalSession,
    OracleIdMismatchError,
    OracleTimeoutError,
    OracleWireAnswer,
    OracleWireError,
    OracleWireQuery,
    PROTOCOLS,
    STAGED_HEADERS,
    StdioEndpoint,
    open_sessions,
    parse_declaration,
    render_prompt,
)

STUB = (sys.executable, "-m", "coalitions.oracle_stub")


def stub_endpoint(*extra: str, timeout_s: float = 5.0) -> ExternalEndpointSpec:
    return ExternalEndpointSpec(command=STUB + extra, timeout_s=timeout_s)


def worked_query() -> PreferenceQuery:
    return PreferenceQuery(agent=0, current=Coalition.of([0, 1]), candidate=Coalition.of([2]))


# ---------------------------------------------------------------------------
# rendering

def test_staged_prompt_headers_in_order(trio):
    text = render_prompt("staged", trio, worked_query())
    positions = [text.index(h) for h in STAGED_HEADERS]
    assert positions == sorted(positions)
    assert DECLARATION_MENU in text
    assert "Confidence: [low/medium/high]" in text


def test_current_coalition_maxima(trio):
    text = render_prompt("staged", trio, worked_query())
    # componentwise maxima of the 0/1 pair from the specialist trio
    assert "Math: 0.68, Facts: 0.65, Logic: 0.40" in text
    # candidate block shows the coalition after joining (agents 0 and 2)
    assert "Math: 0.68, Facts: 0.40, Logic: 0.76" in text


def test_solo_candidate_renders_agent_alone(trio):
    q = PreferenceQuery(agent=0, current=Coalition.of([0, 1]), candidate=Coalition(0))
    text = render_prompt("staged", trio, q)
    assert "CANDIDATE COALITION (if you join): agent 0\n" in text
    assert "Math: 0.68, Facts: 0.30, Logic: 0.40" in text


def test_rendering_is_deterministic(trio):
    a = render_prompt("cot", trio, worked_query())
    b = render_prompt("cot", trio, worked_query())
    assert a == b
    assert render_prompt("standard", trio, worked_query()) != a


def test_generic_dimension_names():
    game = GameSpec.from_profiles([[0.5, 0.5, 0.5, 0.5], [0.1, 0.9, 0.2, 0.8]])
    q = PreferenceQuery(agent=0, current=Coalition.of([0]), candidate=Coalition.of([1]))
    text = render_prompt("staged", game, q)
    assert "Skill_1" in text and "Skill_4" in text


def test_render_rejects_foreign_query(trio):
    q = PreferenceQuery(agent=5, current=Coalition.of([5]), candidate=Coalition.of([1]))
    with pytest.raises(ValueError):
        render_prompt("staged", trio, q)
    with pytest.raises(ValueError):
        render_prompt("freestyle", trio, worked_query())


# ---------------------------------------------------------------------------
# parsing

def test_parse_corpus_fully_succeeds():
    corpus = completion_corpus()
    assert len(corpus) == 50
    for text, expected in corpus:
        assert parse_declaration(text) is expected


def test_parse_last_declaration_wins():
    text = (
        "Step 3 draft: I prefer: CANDIDATE because coverage looks better.\n"
        "Step 4 reveals heavy coordination costs.\n"
        "## Step 5: Final Preference\nI prefer: CURRENT\nConfidence: high\n"
    )
    assert parse_declaration(text) is Verdict.PREFER_CURRENT


def test_parse_skips_option_menu():
    assert (
        parse_declaration(DECLARATION_MENU + "\nI prefer: INDIFFERENT")
        is Verdict.INDIFFERENT
    )


def test_parse_failure_on_empty_and_garbage():
    for text in ("", "no declaration here", "prefer nothing"):
        with pytest.raises(OracleParseFailure):
            parse_declaration(text)


# ---------------------------------------------------------------------------
# stdio transport

def test_round_trip_thousand_queries():
    endpoint = StdioEndpoint(STUB + ("--mode", "candidate"))
    try:
        for i in range(1000):
            q = OracleWireQuery(
                query_id=f"q{i}", prompt="p", agent=0, current=(0,), candidate=(1,)
            )
            a = endpoint.exchange(q.query_id, q.to_json_line(), timeout_s=5.0)
            assert a.query_id == f"q{i}"
            assert a.verdict == "CANDIDATE"
    finally:
        endpoint.close()


def test_timeout_fires_within_ten_percent():
    endpoint = StdioEndpoint(STUB + ("--mode", "sleep", "--sleep-s", "5"))
    try:
        q = OracleWireQuery(query_id="t", prompt="p", agent=0, current=(0,), candidate=())
        start = time.monotonic()
        with pytest.raises(OracleTimeoutError):
            endpoint.exchange(q.query_id, q.to_json_line(), timeout_s=0.5)
        elapsed = time.monotonic() - start
        assert 0.5 <= elapsed <= 0.55
    finally:
        endpoint.close()


def test_malformed_answer_is_protocol_error():
    endpoint = StdioEndpoint(STUB + ("--mode", "malformed"))
    try:
        q = OracleWireQuery(query_id="m", prompt="p", agent=0, current=(0,), candidate=())
        with pytest.raises(OracleWireError):
            endpoint.exchange(q.query_id, q.to_json_line(), timeout_s=5.0)
    finally:
        endpoint.close()


def test_id_mismatch_is_rejected():
    endpoint = StdioEndpoint(STUB + ("--mode", "mismatch"))
    try:
        q = OracleWireQuery(query_id="x", prompt="p", agent=0, current=(0,), candidate=())
        with pytest.raises(OracleIdMismatchError):
            endpoint.exchange(q.query_id, q.to_json_line(), timeout_s=5.0)
    finally:
        endpoint.close()


def test_dead_command_raises_wire_error():
    with pytest.raises(OracleWireError):
        StdioEndpoint(("/no/such/binary",))


def test_unpollable_pipes_are_rejected_up_front(monkeypatch):
    monkeypatch.delattr(plugin.select, "poll")
    with pytest.raises(OracleWireError, match="select.poll"):
        StdioEndpoint(STUB)


def script_endpoint(tmp_path, source: str) -> StdioEndpoint:
    """A stdio endpoint running `source` as a plugin script."""
    script = tmp_path / "plugin_script.py"
    script.write_text(textwrap.dedent(source))
    return StdioEndpoint((sys.executable, str(script)))


def wire_line(query_id: str) -> str:
    q = OracleWireQuery(query_id=query_id, prompt="p", agent=0, current=(0,), candidate=())
    return q.to_json_line()


def test_late_answer_is_dropped_after_a_timeout(tmp_path):
    endpoint = script_endpoint(tmp_path, """
        import json, sys, time
        first = True
        for line in sys.stdin:
            if first:
                time.sleep(0.5)
                first = False
            answer = {"query_id": json.loads(line)["query_id"], "verdict": "CURRENT"}
            sys.stdout.write(json.dumps(answer) + "\\n")
            sys.stdout.flush()
    """)
    try:
        for query_id in ("q0", "q1"):  # the plugin is still asleep on q0
            with pytest.raises(OracleTimeoutError):
                endpoint.exchange(query_id, wire_line(query_id), timeout_s=0.2)
        for query_id in ("q2", "q3", "q4"):
            answer = endpoint.exchange(query_id, wire_line(query_id), timeout_s=5.0)
            assert answer.query_id == query_id
    finally:
        endpoint.close()


def test_query_writes_to_a_plugin_that_stops_reading_time_out(tmp_path, deadline):
    # ~100 KB of query lines: more than a pipe holds, so the writes fill it
    endpoint = script_endpoint(tmp_path, """
        import time
        time.sleep(60)
    """)
    prompt = "x" * 1000
    try:
        start = time.monotonic()
        with deadline(10):
            for i in range(100):
                q = OracleWireQuery(
                    query_id=f"q{i}", prompt=prompt, agent=0, current=(0,), candidate=()
                )
                with pytest.raises(OracleTimeoutError):
                    endpoint.exchange(q.query_id, q.to_json_line(), timeout_s=0.01)
        assert time.monotonic() - start < 5.0
        assert endpoint._unsent  # the pipe filled up
    finally:
        endpoint.close()


def test_unsent_query_bytes_go_out_ahead_of_the_next_query(tmp_path, deadline):
    # the plugin reads nothing for a while, then answers every line it gets:
    # the timed-out queries arrive whole and their answers are dropped late
    endpoint = script_endpoint(tmp_path, """
        import json, sys, time
        time.sleep(0.5)
        for line in sys.stdin:
            answer = {"query_id": json.loads(line)["query_id"], "verdict": "CURRENT"}
            sys.stdout.write(json.dumps(answer) + "\\n")
            sys.stdout.flush()
    """)
    prompt = "x" * 1000
    try:
        with deadline(10):
            for i in range(100):
                q = OracleWireQuery(
                    query_id=f"q{i}", prompt=prompt, agent=0, current=(0,), candidate=()
                )
                with pytest.raises(OracleTimeoutError):
                    endpoint.exchange(q.query_id, q.to_json_line(), timeout_s=0.001)
            assert endpoint._unsent
            assert endpoint.exchange("last", wire_line("last"), timeout_s=5.0).query_id == "last"
    finally:
        endpoint.close()


def test_answer_split_across_writes_is_joined(tmp_path):
    endpoint = script_endpoint(tmp_path, """
        import json, sys, time
        for line in sys.stdin:
            answer = {"query_id": json.loads(line)["query_id"], "verdict": "CANDIDATE"}
            text = json.dumps(answer) + "\\n"
            sys.stdout.write(text[:9])
            sys.stdout.flush()
            time.sleep(0.05)
            sys.stdout.write(text[9:])
            sys.stdout.flush()
    """)
    try:
        for query_id in ("s0", "s1"):
            answer = endpoint.exchange(query_id, wire_line(query_id), timeout_s=5.0)
            assert (answer.query_id, answer.verdict) == (query_id, "CANDIDATE")
    finally:
        endpoint.close()


def test_last_line_without_newline_is_read_at_end_of_stream(tmp_path):
    endpoint = script_endpoint(tmp_path, """
        import json, sys
        query = json.loads(sys.stdin.readline())
        sys.stdout.write(json.dumps({"query_id": query["query_id"], "verdict": "CURRENT"}))
    """)
    try:
        assert endpoint.exchange("last", wire_line("last"), timeout_s=5.0).verdict == "CURRENT"
    finally:
        endpoint.close()


def test_end_of_stream_while_waiting_is_wire_error(tmp_path):
    endpoint = script_endpoint(tmp_path, """
        import sys
        sys.stdin.readline()
    """)
    try:
        with pytest.raises(OracleWireError, match="plugin closed its output stream"):
            endpoint.exchange("gone", wire_line("gone"), timeout_s=5.0)
    finally:
        endpoint.close()


def test_sessions_start_no_threads(trio):
    before = threading.active_count()
    spec = stub_endpoint("--mode", "current")
    with open_sessions([OracleSpec(kind=OracleKind.EXTERNAL, external=spec)]) as sessions:
        sessions[spec].ask(trio, worked_query(), (), 0)
        assert threading.active_count() == before
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# sessions and majority integration

def test_session_answers_and_parse_fallback(trio):
    spec = stub_endpoint("--mode", "current")
    session = ExternalSession(spec)
    try:
        assert session.ask(trio, worked_query(), ctx=(1, 2, 3), rep=0) is Verdict.PREFER_CURRENT
    finally:
        session.close()


def test_majority_defaults_to_current_when_all_attempts_fail(trio):
    class FailingSession:
        def ask(self, game, q, ctx, rep):
            raise OracleParseFailure("nothing parseable")

    oracle = OracleSpec(
        kind=OracleKind.EXTERNAL, majority_k=3, external=stub_endpoint()
    )
    verdict = answer_majority(
        oracle, trio, worked_query(), ctx=(0,), external=FailingSession()
    )
    assert verdict is Verdict.PREFER_CURRENT


def test_a_non_string_verdict_is_a_wire_error():
    with pytest.raises(OracleWireError, match="verdict must be a string"):
        OracleWireAnswer.from_json('{"query_id": "a", "verdict": 5, "raw": ""}')
    with pytest.raises(OracleWireError, match="verdict must be a string"):
        OracleWireAnswer.from_json('{"query_id": "a", "verdict": ["CURRENT"]}')


def test_a_non_string_confidence_is_not_read(trio, answering_plugin):
    command = answering_plugin(verdict="CURRENT", confidence=5, raw="")
    session = ExternalSession(ExternalEndpointSpec(command=command, timeout_s=5.0))
    try:
        assert session.ask(trio, worked_query(), (), 0) is Verdict.PREFER_CURRENT
    finally:
        session.close()


@pytest.mark.parametrize("verdict", ["MAYBE", ""])
def test_an_unknown_verdict_word_falls_back_to_the_raw_text(verdict, trio, answering_plugin):
    command = answering_plugin(verdict=verdict, raw="I prefer: CANDIDATE")
    session = ExternalSession(ExternalEndpointSpec(command=command, timeout_s=5.0))
    try:
        assert session.ask(trio, worked_query(), (), 0) is Verdict.PREFER_CANDIDATE
    finally:
        session.close()


def test_wire_answer_validation():
    with pytest.raises(OracleWireError):
        OracleWireAnswer.from_json("not json")
    with pytest.raises(OracleWireError):
        OracleWireAnswer.from_json('["list", "not", "object"]')
    ok = OracleWireAnswer.from_json('{"query_id": "a", "raw": "I prefer: CURRENT"}')
    assert ok.verdict is None and ok.raw.startswith("I prefer")


# ---------------------------------------------------------------------------
# the bytes a session sends

def all_queries(game: GameSpec):
    """Every deviation query of every partition of the game's agents."""
    for partition in enumerate_partitions(game.n):
        blocks = partition.coalitions
        for own in blocks:
            for agent in own.members:
                for target in [b for b in blocks if b != own] + [Coalition(0)]:
                    yield PreferenceQuery(agent=agent, current=own, candidate=target)


def reference_line(protocol: str, game: GameSpec, q: PreferenceQuery, query_id: str) -> str:
    return OracleWireQuery(
        query_id=query_id,
        prompt=render_prompt(protocol, game, q),
        agent=q.agent,
        current=q.current.members,
        candidate=q.candidate.members,
    ).to_json_line()


class RecordingEndpoint:
    """Records each line a session sends; answers through `inner` when
    given, else with CURRENT."""

    def __init__(self, inner=None):
        self.inner = inner
        self.sent: list[str] = []
        self.answers: list[OracleWireAnswer] = []

    def exchange(self, query_id, line, timeout_s):
        self.sent.append(line)
        if self.inner is None:
            answer = OracleWireAnswer(query_id, "CURRENT", "")
        else:
            answer = self.inner.exchange(query_id, line, timeout_s)
        self.answers.append(answer)
        return answer

    def close(self):
        if self.inner is not None:
            self.inner.close()


def recording_session(protocol: str = "standard", inner=None) -> ExternalSession:
    session = ExternalSession(ExternalEndpointSpec(command=STUB, protocol=protocol))
    session._endpoint.close()  # the recorder takes the spawned stub's place
    session._endpoint = RecordingEndpoint(inner)
    return session


def random_game(n: int, d: int, seed: int) -> GameSpec:
    rng = random.Random(seed)
    return GameSpec.from_profiles([[round(rng.random(), 3) for _ in range(d)] for _ in range(n)])


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_session_lines_are_the_reference_lines(protocol):
    games = [random_game(n, 3, n) for n in range(1, 6)] + [random_game(5, 2, 7)]
    session = recording_session(protocol)
    expected = []
    for game in games:
        for q in all_queries(game):
            for rep in range(2):  # the second ask is served from the cache
                query_id = f"q-3-x-{rep}-{session.queries_sent}"
                session.ask(game, q, ctx=(3, "x"), rep=rep)
                expected.append(reference_line(protocol, game, q, query_id))
    assert session._endpoint.sent == expected
    assert "Skill_2" in expected[-1]


def test_a_session_evicts_its_oldest_fragments(trio, monkeypatch):
    monkeypatch.setattr(plugin, "_FRAGMENT_CACHE_SIZE", 2)
    fragments: dict = {}
    for key in "abcb":
        plugin._cache(fragments, key, key.upper())
    assert fragments == {"b": "B", "c": "C"}  # "a" went first; "b" was replaced in place
    session = recording_session("staged")
    expected = []
    for q in all_queries(trio):
        expected.append(reference_line("staged", trio, q, f"q-5-0-{session.queries_sent}"))
        session.ask(trio, q, ctx=(5,), rep=0)
        assert max(map(len, (session._heads, session._currents, session._candidates))) <= 2
    assert session._endpoint.sent == expected


def test_equal_games_keep_their_own_prompts():
    plus = GameSpec.from_profiles([[0.0, 0.5, 0.9], [0.3, 0.2, 0.1]])
    minus = GameSpec.from_profiles([[-0.0, 0.5, 0.9], [0.3, 0.2, 0.1]])
    assert plus == minus
    q = PreferenceQuery(agent=0, current=Coalition.of([0]), candidate=Coalition.of([1]))
    session = recording_session()
    for game in (plus, minus, plus):
        session.ask(game, q, (), 0)
    first, second, third = session._endpoint.sent
    assert "Math: -0.00" in second and "Math: -0.00" not in first + third
    assert second == reference_line("standard", minus, q, "q--0-1")


def test_stdio_plugin_receives_the_reference_bytes(tmp_path, trio):
    echo = script_endpoint(tmp_path, """
        import json, sys
        for line in sys.stdin.buffer:
            query = json.loads(line)
            answer = {"query_id": query["query_id"], "verdict": "CURRENT",
                      "raw": line.decode("ascii")}
            sys.stdout.write(json.dumps(answer) + "\\n")
            sys.stdout.flush()
    """)
    session = recording_session("staged", inner=echo)
    try:
        for q in all_queries(trio):
            session.ask(trio, q, ctx=(1, 2), rep=0)
            session.ask(trio, q, ctx=(1, 2), rep=0)
    finally:
        session.close()
    recorder = session._endpoint
    received = [a.raw for a in recorder.answers]
    assert received == [line + "\n" for line in recorder.sent]
    assert recorder.sent[-1] == reference_line(
        "staged", trio, q, f"q-1-2-0-{session.queries_sent - 1}"
    )


# ---------------------------------------------------------------------------
# full episode over the wire

def test_full_episode_through_stub(six_mixed):
    from coalitions.dynamics import EpisodeConfig, EpisodeOutcome, run_episode

    spec = stub_endpoint("--mode", "candidate")
    oracle = OracleSpec(kind=OracleKind.EXTERNAL, external=spec)
    cfg = EpisodeConfig(game=six_mixed, oracles=(oracle,) * 6, seed=1, max_rounds=30)
    with open_sessions(cfg.oracles) as sessions:
        log = run_episode(cfg, external=sessions)
    assert log.error is None
    assert log.outcome is EpisodeOutcome.TIMEOUT  # an always-joiner never settles
    assert log.summary.n_queries >= 30


def test_episode_aborts_on_transport_timeout(six_mixed):
    from coalitions.dynamics import EpisodeConfig, EpisodeOutcome, run_episode

    spec = stub_endpoint("--mode", "sleep", "--sleep-s", "5", timeout_s=0.2)
    oracle = OracleSpec(kind=OracleKind.EXTERNAL, external=spec)
    cfg = EpisodeConfig(game=six_mixed, oracles=(oracle,) * 6, seed=2)
    with open_sessions(cfg.oracles) as sessions:
        log = run_episode(cfg, external=sessions)
    assert log.outcome is EpisodeOutcome.ERROR
    assert "Timeout" in log.error


def test_episode_ends_in_error_on_a_non_string_verdict(six_mixed, answering_plugin):
    from coalitions.dynamics import EpisodeConfig, EpisodeOutcome, run_episode

    spec = ExternalEndpointSpec(command=answering_plugin(verdict=5, raw=""), timeout_s=5.0)
    oracle = OracleSpec(kind=OracleKind.EXTERNAL, external=spec)
    cfg = EpisodeConfig(game=six_mixed, oracles=(oracle,) * 6, seed=2)
    with open_sessions(cfg.oracles) as sessions:
        log = run_episode(cfg, external=sessions)
    assert log.outcome is EpisodeOutcome.ERROR
    assert "verdict must be a string" in log.error
