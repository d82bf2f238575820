"""External preference-oracle plugin boundary.

Renders prompt templates for a deviation query, speaks a line-delimited JSON
protocol to a child process, and parses the final preference declaration
out of free-form completions.  The engine never knows what is on the other
side; any program that answers the wire format on its stdout can act as an
oracle.

Wire format, one JSON object per line, UTF-8:

    query:  {"v": 1, "query_id": str, "prompt": str, "agent": int,
             "current": [ids], "candidate": [ids]}
    answer: {"query_id": str, "verdict": "CURRENT"|"CANDIDATE"|"INDIFFERENT",
             "confidence": "low"|"medium"|"high", "raw": str}

`verdict` may be omitted if `raw` carries a parseable declaration.  The
engine reads only `verdict` and `raw`; a `verdict` that is present must be
a string.  The prompt still asks for a confidence, and plugins may send one.

A plugin has one query in flight at a time.  The endpoint reads the
child's stdout itself, with no reader thread: after writing a query it polls
the pipe until an answer line arrives or the query's deadline passes, so it
needs POSIX pipes that `select.poll` can wait on.  A query that timed out is
not answered twice: its late answer, if one comes, is dropped, and the next
query is matched with its own answer.  A session caches the JSON-escaped
prompt fragments of the game it is asked about, a bounded number per kind,
and assembles each query line from them; the bytes are those of
`OracleWireQuery.to_json_line()`.
"""

from __future__ import annotations

import json
import math
import os
import re
import select
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Sequence

from .game import GameSpec
from .preferences import (
    ExternalEndpointSpec,
    OracleParseFailure,
    OracleSpec,
    PreferenceQuery,
    Verdict,
)

WIRE_VERSION = 1

PROTOCOLS = ("standard", "cot", "staged")

STAGED_HEADERS = (
    "## Step 1: Capability Analysis",
    "## Step 2: Complementarity Assessment",
    "## Step 3: Value Estimation",
    "## Step 4: Coordination Cost Analysis",
    "## Step 5: Final Preference",
)

DECLARATION_MENU = "I prefer: [CURRENT / CANDIDATE / INDIFFERENT]"
CONFIDENCE_MENU = "Confidence: [low/medium/high]"


class OracleTransportError(RuntimeError):
    """Base for failures talking to an external oracle."""


class OracleTimeoutError(OracleTransportError):
    pass


class OracleWireError(OracleTransportError):
    """Malformed traffic or a dead endpoint."""


class OracleIdMismatchError(OracleTransportError):
    """The answer does not echo the query id."""


# ---------------------------------------------------------------------------
# prompt rendering

def dimension_names(d: int) -> tuple[str, ...]:
    if d == 3:
        return ("math", "facts", "logic")
    return tuple(f"skill_{i + 1}" for i in range(d))

_DIM_TITLES = {"math": "Mathematical reasoning", "facts": "Factual knowledge",
               "logic": "Logical analysis"}


def _title(name: str) -> str:
    return _DIM_TITLES.get(name, name.replace("_", " ").capitalize())


def _short(name: str) -> str:
    return name.capitalize()


def _maxima(game: GameSpec, members: Sequence[int]) -> list[float]:
    return [
        max(game.profile(i)[j] for i in members) for j in range(game.d)
    ]


def _member_list(members: Sequence[int]) -> str:
    return ", ".join(f"agent {i}" for i in members) if members else "(empty)"


def _score_row(names: Sequence[str], scores: Sequence[float]) -> str:
    return ", ".join(f"{_short(n)}: {s:.2f}" for n, s in zip(names, scores))


def render_prompt(
    protocol: str,
    game: GameSpec,
    query: PreferenceQuery,
) -> str:
    """Deterministic prompt text for one deviation query.

    The candidate block shows the coalition as it would look after the agent
    joins; a solo move renders the agent alone.  Scores print with two
    decimals; the task asks for every skill dimension of the game.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown prompt protocol {protocol!r}")
    if query.agent >= game.n:
        raise ValueError("query agent is not part of the game")
    names = dimension_names(game.d)
    agent = query.agent
    profile = game.profile(agent)
    current = list(query.current.members)
    candidate = sorted(query.candidate.members + (agent,))

    lines = [f"You are agent {agent} with capabilities:"]
    for name, score in zip(names, profile):
        lines.append(f"- {_title(name)}: {score:.2f}")
    lines.append("")
    lines.append("Evaluate whether to stay in your current coalition")
    lines.append("or switch to a different one.")
    lines.append("")
    lines.append(f"CURRENT COALITION: {_member_list(current)}")
    lines.append("Capabilities (max per dim):")
    lines.append("  " + _score_row(names, _maxima(game, current)))
    lines.append("")
    lines.append(f"CANDIDATE COALITION (if you join): {_member_list(candidate)}")
    lines.append("Capabilities (max per dim):")
    lines.append("  " + _score_row(names, _maxima(game, candidate)))
    lines.append("")
    lines.append(f"TASK: Answer questions requiring [{', '.join(names)}]")
    lines.append("")

    if protocol == "staged":
        lines += [
            STAGED_HEADERS[0],
            "List what each member contributes.",
            "",
            STAGED_HEADERS[1],
            "Identify strengths (>0.8) and gaps (<0.7).",
            "",
            STAGED_HEADERS[2],
            "Estimate task performance (0-1) for each coalition.",
            "",
            STAGED_HEADERS[3],
            "Assess communication overhead per coalition size.",
            "",
            STAGED_HEADERS[4],
        ]
    elif protocol == "cot":
        lines += [
            "Think step by step about capability coverage and coordination",
            "costs before declaring your preference.",
            "",
        ]
    else:
        lines.append("State your preference directly.")
        lines.append("")
    lines.append(DECLARATION_MENU)
    lines.append(CONFIDENCE_MENU)
    lines.append("Reason: [one sentence]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# declaration parsing

_DECL_RE = re.compile(
    r"i\s*prefer\s*:?\s*\[?\s*(current|candidate|indifferent)\b", re.IGNORECASE
)

_VERDICTS = {
    "current": Verdict.PREFER_CURRENT,
    "candidate": Verdict.PREFER_CANDIDATE,
    "indifferent": Verdict.INDIFFERENT,
}


def parse_declaration(raw: str) -> Verdict:
    """Extract the final preference declaration from a completion.

    Scans for the last "I prefer: X" occurrence, skipping the literal option
    menu (where the captured word is followed by a slash).  Raises
    OracleParseFailure when no declaration is found.
    """
    last = None
    for m in _DECL_RE.finditer(raw):
        tail = raw[m.end() : m.end() + 8].lstrip()
        if tail.startswith("/"):
            continue  # the instruction menu, not an answer
        last = m
    if last is None:
        raise OracleParseFailure("no preference declaration found")
    return _VERDICTS[last.group(1).lower()]


# ---------------------------------------------------------------------------
# wire types

@dataclass(frozen=True, slots=True)
class OracleWireQuery:
    query_id: str
    prompt: str
    agent: int
    current: tuple[int, ...]
    candidate: tuple[int, ...]

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "v": WIRE_VERSION,
                "query_id": self.query_id,
                "prompt": self.prompt,
                "agent": self.agent,
                "current": list(self.current),
                "candidate": list(self.candidate),
            },
            separators=(",", ":"),
        )


@dataclass(frozen=True, slots=True)
class OracleWireAnswer:
    query_id: str
    verdict: str | None
    raw: str

    @classmethod
    def from_json(cls, text: str) -> "OracleWireAnswer":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise OracleWireError(f"malformed answer line: {exc}") from exc
        if not isinstance(data, dict) or "query_id" not in data:
            raise OracleWireError("answer must be an object with a query_id")
        verdict = data.get("verdict")
        if verdict is not None and not isinstance(verdict, str):
            raise OracleWireError(f"answer verdict must be a string, got {verdict!r}")
        return cls(
            query_id=str(data["query_id"]),
            verdict=verdict,
            raw=str(data.get("raw", "")),
        )


# ---------------------------------------------------------------------------
# transports

class StdioEndpoint:
    """One child process speaking the line protocol, one query in flight.

    Each exchange writes the query line, then polls the plugin's stdout
    until an answer line arrives or the deadline, which starts before the
    write, passes.  The write does not block: a plugin that stops reading
    fills the pipe, and the exchange then waits for room only until the
    deadline.  Bytes left unwritten go out ahead of the next query line, so
    the plugin never reads a torn line.  The ids of timed-out queries are
    remembered, and a late answer carrying one is dropped when it turns up
    during a later exchange.
    """

    def __init__(self, command: Sequence[str]):
        if not hasattr(select, "poll"):
            raise OracleWireError(
                "external oracles need POSIX pipes that select.poll can wait "
                "on, which this platform lacks"
            )
        try:
            self._proc = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                bufsize=0,
            )
        except OSError as exc:
            raise OracleWireError(f"cannot start plugin {command!r}: {exc}") from exc
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._stdin = self._proc.stdin.fileno()
        self._stdout = self._proc.stdout.fileno()
        os.set_blocking(self._stdin, False)
        self._poll = select.poll()
        self._poll.register(self._stdout, select.POLLIN)
        self._write_poll = select.poll()
        self._write_poll.register(self._stdin, select.POLLOUT)
        self._unsent = b""
        self._buffer = bytearray()
        self._eof = False
        self._abandoned: set[str] = set()

    def exchange(self, query_id: str, line: str, timeout_s: float) -> OracleWireAnswer:
        """Send the query line `line` (without its newline), whose id is
        `query_id`, and return the answer that echoes that id."""
        deadline = time.monotonic() + timeout_s
        data = (line + "\n").encode("utf-8")
        if not self._write(self._unsent + data if self._unsent else data, deadline):
            self._abandoned.add(query_id)
            raise OracleTimeoutError(
                f"plugin took no query within {timeout_s:.3f}s; query {query_id} abandoned"
            )
        while True:
            answer_line = self._read_line(deadline)
            if answer_line is None:
                self._abandoned.add(query_id)
                raise OracleTimeoutError(
                    f"no answer within {timeout_s:.3f}s for query {query_id}"
                )
            try:
                text = answer_line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise OracleWireError(f"malformed answer line: {exc}") from exc
            answer = OracleWireAnswer.from_json(text)
            if answer.query_id == query_id:
                return answer
            if answer.query_id not in self._abandoned:
                raise OracleIdMismatchError(
                    f"expected answer to {query_id}, got {answer.query_id}"
                )
            self._abandoned.discard(answer.query_id)  # a late answer

    def _write(self, data: bytes, deadline: float) -> bool:
        """Write `data` to the plugin, or keep what the pipe had no room for
        before the deadline in `_unsent` and return False."""
        sent = 0
        while True:
            try:
                sent += os.write(self._stdin, data[sent:] if sent else data)
            except BlockingIOError:
                pass  # the pipe is full
            except OSError as exc:
                raise OracleWireError(f"plugin pipe closed: {exc}") from exc
            if sent == len(data):
                self._unsent = b""
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._write_poll.poll(math.ceil(remaining * 1000)):
                self._unsent = data[sent:]
                return False

    def _read_line(self, deadline: float) -> bytes | None:
        """The next line from the plugin without its newline, or None when
        the deadline passes first.  End of stream also ends a last line that
        has no newline."""
        buffer = self._buffer
        while True:
            end = buffer.find(b"\n")
            if end >= 0:
                line = bytes(buffer[:end])
                del buffer[: end + 1]
                return line
            if self._eof:
                if buffer:
                    line = bytes(buffer)
                    buffer.clear()
                    return line
                raise OracleWireError("plugin closed its output stream")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            if self._poll.poll(math.ceil(remaining * 1000)):
                chunk = os.read(self._stdout, 1 << 16)
                if chunk:
                    buffer += chunk
                else:
                    self._eof = True

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait(timeout=2)
        self._proc.stdin.close()
        self._proc.stdout.close()


# A query line, as `OracleWireQuery.to_json_line()` writes it.  Its prompt is
# cut where the current block, the candidate block and the closing block
# (task and protocol) begin.  The part before the cuts depends only on the
# agent, the current block on the current mask, the candidate block on the
# agent and the candidate mask, and the closing block on neither.
# render_prompt writes each block heading once, in this order.
_LINE = (
    '{"v":' + str(WIRE_VERSION) + ',"query_id":%s,"prompt":"%s%s%s%s",'
    '"agent":%d,"current":[%s],"candidate":[%s]}'
)
_BLOCK_STARTS = ("CURRENT COALITION: ", "CANDIDATE COALITION (if you join): ", "TASK: ")
_FRAGMENT_CACHE_SIZE = 4096


def _escaped(text: str) -> str:
    """`text` as the inside of a JSON string, escaped as json.dumps does."""
    return _json_string(text)[1:-1]


def _cache(fragments: dict, key, value) -> None:
    if len(fragments) >= _FRAGMENT_CACHE_SIZE and key not in fragments:
        del fragments[next(iter(fragments))]  # the oldest entry
    fragments[key] = value


class ExternalSession:
    """A live connection to one plugin endpoint, usable as an oracle backend.

    The session keeps the JSON-escaped prompt fragments of the game it was
    last asked about, so a query whose fragments were rendered before is
    sent without rendering or escaping its prompt again.  The game is
    matched by identity: equal games can still render differently (`-0.0`
    prints as "-0.00").  Each fragment cache holds at most
    `_FRAGMENT_CACHE_SIZE` entries; the oldest goes first.
    """

    def __init__(self, endpoint: ExternalEndpointSpec):
        self.spec = endpoint
        self._endpoint = StdioEndpoint(endpoint.command)
        self.queries_sent = 0
        self._game: GameSpec | None = None
        self._closing = ""
        self._heads: dict[int, str] = {}
        # current block and member ids by the current mask; candidate block
        # and member ids by (agent, candidate mask)
        self._currents: dict[int, tuple[str, str]] = {}
        self._candidates: dict[tuple[int, int], tuple[str, str]] = {}

    def _render(self, game: GameSpec, q: PreferenceQuery) -> None:
        """Render the query's prompt and cache its fragments."""
        prompt = render_prompt(self.spec.protocol, game, q)
        a, b, c = (prompt.index(start) for start in _BLOCK_STARTS)
        self._closing = _escaped(prompt[c:])
        _cache(self._heads, q.agent, _escaped(prompt[:a]))
        _cache(
            self._currents, q.current.mask,
            (_escaped(prompt[a:b]), ",".join(map(str, q.current.members))),
        )
        _cache(
            self._candidates, (q.agent, q.candidate.mask),
            (_escaped(prompt[b:c]), ",".join(map(str, q.candidate.members))),
        )

    def _wire_line(self, game: GameSpec, q: PreferenceQuery, query_id: str) -> str:
        """The line `ask` sends: `OracleWireQuery(query_id, render_prompt(...),
        ...).to_json_line()`, assembled from cached fragments."""
        if game is not self._game:
            self._game = game
            self._heads.clear()
            self._currents.clear()
            self._candidates.clear()
        agent = q.agent
        head = self._heads.get(agent)
        current = self._currents.get(q.current.mask)
        candidate = self._candidates.get((agent, q.candidate.mask))
        if head is None or current is None or candidate is None:
            self._render(game, q)
            head = self._heads[agent]
            current = self._currents[q.current.mask]
            candidate = self._candidates[(agent, q.candidate.mask)]
        return _LINE % (
            _json_string(query_id), head, current[0], candidate[0], self._closing,
            agent, current[1], candidate[1],
        )

    def ask(
        self, game: GameSpec, q: PreferenceQuery, ctx: Sequence[int | str], rep: int
    ) -> Verdict:
        query_id = "q-" + "-".join(map(str, ctx)) + f"-{rep}-{self.queries_sent}"
        line = self._wire_line(game, q, query_id)
        self.queries_sent += 1
        answer = self._endpoint.exchange(query_id, line, self.spec.timeout_s)
        if answer.verdict:
            verdict = _VERDICTS.get(answer.verdict.strip().lower())
            if verdict is not None:
                return verdict
        return parse_declaration(answer.raw)

    def close(self) -> None:
        self._endpoint.close()


@contextmanager
def open_sessions(oracles: Iterable[OracleSpec]):
    """Open one session per distinct external endpoint among the oracles."""
    sessions: dict[ExternalEndpointSpec, ExternalSession] = {}
    try:
        for oracle in oracles:
            if oracle.external is not None and oracle.external not in sessions:
                sessions[oracle.external] = ExternalSession(oracle.external)
        yield sessions
    finally:
        for s in sessions.values():
            s.close()
