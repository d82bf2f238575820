"""Improving-dynamics episodes.

One episode runs round-based deviation search: agents are scanned in a fixed
order, each is asked about every deviation target (other coalitions plus
going solo, in `deviation_plan` order), and the first declared
improvement is applied, one deviation per round.  An episode ends when a
full scan finds no willing deviator (stable) or when the round budget runs
out (timeout, counted as unstable).

Every round is logged with the potential before and after, the issued
queries, and whether each answer matched the ground-truth comparison, so a
log can be replayed byte-for-byte from its embedded config and audited for
consistency after the fact.  Recorded queries come from a per-game pool, so
the logs of a run hold one record object per distinct query, and each
record's JSON text is built once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from pathlib import Path
from typing import IO, NamedTuple, Sequence

from ._version import ENGINE_VERSION
from .game import (
    GameSpec,
    Partition,
    TIE_EPS,
    coalition_value_bounds,
    game_from_dict,
    game_to_dict,
    deviation_plan,
    mask_coalition,
    mask_members,
    per_capita_table,
    value_gap_delta,
    value_table,
)
from .preferences import (
    ExternalEndpointSpec,
    OracleKind,
    OracleSpec,
    PreferenceQuery,
    Verdict,
    answer_majority,
    check_seed,
    derived_rng,
    draw_prefix,
    episode_draws,
    logit_accept_probability,
)
from .stability import is_nash_stable_masks, random_partition, verify_nash


class DeviationRule(Enum):
    FIRST_IMPROVING = "first"
    BEST_IMPROVING = "best"
    RANDOM_IMPROVING = "random"


class EpisodeOutcome(Enum):
    NASH_STABLE = "nash_stable"
    TIMEOUT = "timeout"
    ERROR = "error"


@dataclass(frozen=True, slots=True)
class InitialPartition:
    """Starting structure: all singletons, a seeded uniform draw, or explicit."""

    kind: str = "singletons"  # singletons | random | explicit
    partition: Partition | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("singletons", "random", "explicit"):
            raise ValueError(f"unknown initial partition kind {self.kind!r}")
        if self.kind == "explicit" and self.partition is None:
            raise ValueError("explicit initial partition requires a partition")

    def block_masks(self, n: int, seed: int, episode_id: int) -> tuple[int, ...]:
        """Block masks of the starting partition, ordered by smallest member."""
        if self.kind == "singletons":
            return tuple(1 << i for i in range(n))
        if self.kind == "explicit":
            assert self.partition is not None
            return self.partition.masks
        return _random_masks(n, seed, episode_id)

    def realize(self, n: int, seed: int, episode_id: int) -> Partition:
        if self.kind == "explicit":
            assert self.partition is not None
            return self.partition
        return Partition.from_masks(n, self.block_masks(n, seed, episode_id))


@lru_cache(maxsize=1 << 12)
def _random_masks(n: int, seed: int, episode_id: int) -> tuple[int, ...]:
    # Cached: conditions and sweep cells with matched seeds start episode i
    # from the same partition.
    return random_partition(n, derived_rng("init", seed, episode_id)).masks


# not slotted: Condition and sweep take EpisodeConfig.rule and .max_rounds,
# class attributes that slots would make member descriptors, as defaults
@dataclass(frozen=True)
class EpisodeConfig:
    game: GameSpec
    oracles: tuple[OracleSpec, ...]
    initial: InitialPartition = InitialPartition()
    max_rounds: int = 30
    rule: DeviationRule = DeviationRule.FIRST_IMPROVING
    seed: int = 0
    episode_id: int = 0
    record_queries: bool = True

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        check_seed("seed", self.seed)
        check_seed("episode_id", self.episode_id)
        oracles = self.oracles
        if len(oracles) == 1:
            oracles = oracles * self.game.n
        if len(oracles) != self.game.n:
            raise ValueError("need one oracle per agent (or a single shared one)")
        if self.initial.kind == "explicit" and self.initial.partition.n != self.game.n:
            raise ValueError(
                f"explicit initial partition covers {self.initial.partition.n} agents, "
                f"but the game has {self.game.n}"
            )
        object.__setattr__(self, "oracles", tuple(oracles))


# The round records are NamedTuples: immutable, and built per query and
# per round by the episode loop at a fraction of a frozen dataclass's cost.

class QueryRecord(NamedTuple):
    """One issued query and its answer.  Recorded episodes take their
    records from a per-game pool (`_query_pool`): equal records may be one
    shared object, so identity carries no meaning."""

    agent: int
    target_mask: int  # 0 = solo move
    delta_v: float
    verdict: Verdict
    critical: bool
    matched: bool | None  # None on exact ties


class DeviationEvent(NamedTuple):
    """One applied move.  Episodes take their events from a bounded cache
    (`_deviation_event`): equal events may be one shared object, so
    identity carries no meaning."""

    agent: int
    from_mask: int  # the agent's block before the move
    to_mask: int  # the agent's block after the move (its singleton when solo)


class RoundRecord(NamedTuple):
    index: int
    masks_before: tuple[int, ...]  # block masks at the start of the round
    n_queries: int
    deviation: DeviationEvent | None
    phi_before: float
    phi_after: float
    queries: tuple[QueryRecord, ...] = ()


@dataclass(frozen=True, slots=True)
class EpisodeSummary:
    n_queries: int
    critical_queries: int
    critical_matched: int
    easy_queries: int
    easy_matched: int
    consistent: bool
    ground_truth_stable: bool
    phi_initial: float
    phi_terminal: float

    def to_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "critical_queries": self.critical_queries,
            "critical_matched": self.critical_matched,
            "easy_queries": self.easy_queries,
            "easy_matched": self.easy_matched,
            "consistent": self.consistent,
            "ground_truth_stable": self.ground_truth_stable,
            "phi_initial": round(self.phi_initial, 12),
            "phi_terminal": round(self.phi_terminal, 12),
        }


@dataclass(frozen=True, slots=True)
class EpisodeLog:
    config: EpisodeConfig
    rounds: tuple[RoundRecord, ...]
    outcome: EpisodeOutcome
    terminal_partition: Partition
    round_count: int
    deviation_count: int
    summary: EpisodeSummary
    error: str | None = None


# Records built without the Python-level `__new__` of a NamedTuple: one C
# call each, fields in declaration order.
_query_record = partial(tuple.__new__, QueryRecord)
_round_record = partial(tuple.__new__, RoundRecord)
# One event per (agent, from, to) while cached.
_deviation_event = lru_cache(maxsize=1 << 10)(DeviationEvent)

# A game's pool is emptied when it reaches this many records.
_QUERY_POOL_CAP = 1 << 16


@lru_cache(maxsize=8)
def _query_pool(game: "_Same") -> dict:
    """The recorded queries of the game that `game` wraps, one record per
    key `(own, joined, verdict, critical, matched)`.  Within one game the
    key fixes the record: `joined & own` is the agent's bit, `joined` less
    that bit is the target, and the delta is read from the game's per-capita
    table.  The delta is never part of a key: 0.0 == -0.0, yet they print
    differently."""
    return {}


def _pooled(pool: dict, key: tuple, fields: tuple) -> QueryRecord:
    """Put the record of `fields` into `pool` under `key`, emptying a full
    pool first."""
    if len(pool) >= _QUERY_POOL_CAP:
        pool.clear()
    record = pool[key] = _query_record(fields)
    return record


def run_episode(config: EpisodeConfig, external=None) -> EpisodeLog:
    """Run one seeded episode to stability, timeout, or oracle failure.

    `external` maps ExternalEndpointSpec to live plugin sessions; required
    only when some oracle has kind EXTERNAL.  Identical configs produce
    identical logs.

    The scan answers internal oracles inline from each agent's rule (see
    `_agent_rules`): perfect answers the correct verdict, consistency noise
    the correct one when its draw digest falls below the threshold of the
    query's criticality, and logit takes the move when its draw falls below
    `logit_accept_probability`.  External oracles answer through a decider
    call.
    """
    game = config.game
    n = game.n
    vals = value_table(game)
    pc = per_capita_table(game)
    rules = _agent_rules(config, external)
    record = config.record_queries
    first_wins = config.rule is not DeviationRule.BEST_IMPROVING
    candidate, current = Verdict.PREFER_CANDIDATE, Verdict.PREFER_CURRENT
    indifferent = Verdict.INDIFFERENT
    noise, logit = OracleKind.CONSISTENCY_NOISE, OracleKind.LOGIT
    from_bytes = int.from_bytes
    pool = _query_pool(_Same(game)) if record else None

    blocks = config.initial.block_masks(n, config.seed, config.episode_id)
    phi = sum(vals[b] for b in blocks)

    rounds: list[RoundRecord] = []
    outcome = EpisodeOutcome.TIMEOUT
    error: str | None = None
    deviations = 0
    n_queries = 0
    crit_total = crit_match = easy_total = easy_match = 0
    phi_initial = phi

    from .plugin import OracleTransportError  # deferred: only needed on failure paths

    round_index = ordinal = 0
    try:
        for round_index in range(1, config.max_rounds + 1):
            plan = deviation_plan(blocks)
            if config.rule is DeviationRule.RANDOM_IMPROVING:
                order = list(range(n))
                derived_rng("scan", config.seed, config.episode_id, round_index).shuffle(order)
                plan = [plan[agent] for agent in order]

            masks_before = blocks
            queries: list[QueryRecord] = []
            ordinal = 0
            chosen: tuple[int, int, int, int] | None = None  # agent, own, target, joined
            best_delta = -math.inf

            for agent, own, targets in plan:
                bit = 1 << agent
                kind, gap, epsilon, copy, pack, t_critical, t_easy, k, decider = rules[agent]
                pc_own = pc[own]
                for target in targets:
                    ordinal += 1
                    joined = target | bit
                    if joined == own:
                        # going solo while already alone: structural tie
                        if record:
                            key = (own, own, indifferent, False, None)
                            queries.append(pool.get(key) or _pooled(
                                pool, key, (agent, 0, 0.0, indifferent, False, None)
                            ))
                        continue
                    delta = pc[joined] - pc_own
                    size = -delta if delta < 0 else delta
                    critical = size < gap
                    if kind is logit or decider is not None:
                        if decider is not None:
                            verdict = decider(delta, round_index, ordinal, own, target)
                        else:
                            # no tie rule: an exact tie takes the move with
                            # probability 1/2; for k > 1, the move is taken
                            # when most of the k draws fall below p, stopping
                            # once one side holds a majority
                            p = logit_accept_probability(delta, epsilon)
                            h = copy()
                            h.update(pack(b"i", round_index, b"i", ordinal, b"i", 0))
                            accepted = from_bytes(h.digest(), "big") / 2.0**64 < p
                            if k > 1:
                                need = k // 2 + 1
                                hits = 1 if accepted else 0
                                rep = 1
                                while hits < need and rep - hits < need:
                                    h = copy()
                                    h.update(pack(b"i", round_index, b"i", ordinal, b"i", rep))
                                    hits += from_bytes(h.digest(), "big") / 2.0**64 < p
                                    rep += 1
                                accepted = hits == need
                            verdict = candidate if accepted else current
                        if size <= TIE_EPS:
                            matched = None
                        else:
                            matched = verdict is (candidate if delta > 0 else current)
                    elif size <= TIE_EPS:
                        verdict, matched = indifferent, None
                    else:
                        if kind is noise:
                            # correct when the digest falls below the threshold;
                            # for k > 1, when most of the k draws do, stopping
                            # once one side holds a majority
                            threshold = t_critical if critical else t_easy
                            h = copy()
                            h.update(pack(b"i", round_index, b"i", ordinal, b"i", 0))
                            matched = h.digest() < threshold
                            if k > 1:
                                need = k // 2 + 1
                                hits = 1 if matched else 0
                                rep = 1
                                while hits < need and rep - hits < need:
                                    h = copy()
                                    h.update(pack(b"i", round_index, b"i", ordinal, b"i", rep))
                                    hits += h.digest() < threshold
                                    rep += 1
                                matched = hits == need
                        else:  # perfect
                            matched = True
                        verdict = candidate if (delta > 0) == matched else current
                    if matched is not None:
                        if critical:
                            crit_total += 1
                            crit_match += matched
                        else:
                            easy_total += 1
                            easy_match += matched
                    if record:
                        key = (own, joined, verdict, critical, matched)
                        queries.append(pool.get(key) or _pooled(
                            pool, key, (agent, target, delta, verdict, critical, matched)
                        ))
                    if verdict is candidate:
                        if first_wins:
                            chosen = (agent, own, target, joined)
                            break
                        if delta > best_delta:
                            best_delta = delta
                            chosen = (agent, own, target, joined)
                else:
                    continue
                break  # the first improving move ends the scan
            n_queries += ordinal

            if chosen is None:
                rounds.append(
                    _round_record((round_index, masks_before, ordinal, None, phi, phi, tuple(queries)))
                )
                outcome = EpisodeOutcome.NASH_STABLE
                break

            agent, own, target, joined = chosen
            rest = own & ~(1 << agent)
            phi_after = phi - vals[own] + (vals[rest] if rest else 0.0) + vals[joined]
            if target:
                phi_after -= vals[target]
            blocks = _successor(blocks, own, target, joined)
            deviations += 1
            rounds.append(
                _round_record(
                    (
                        round_index,
                        masks_before,
                        ordinal,
                        _deviation_event(agent, own, joined),
                        phi,
                        phi_after,
                        tuple(queries),
                    )
                )
            )
            phi = phi_after
    except OracleTransportError as exc:
        n_queries += ordinal  # the failed query counts
        outcome = EpisodeOutcome.ERROR
        error = f"{type(exc).__name__}: {exc}"

    terminal = Partition.from_masks(n, blocks)
    summary = EpisodeSummary(
        n_queries=n_queries,
        critical_queries=crit_total,
        critical_matched=crit_match,
        easy_queries=easy_total,
        easy_matched=easy_match,
        # consistent: no non-tie answer contradicted the ground truth
        consistent=crit_match == crit_total and easy_match == easy_total,
        ground_truth_stable=is_nash_stable_masks(game, blocks),
        phi_initial=phi_initial,
        phi_terminal=phi,
    )
    return EpisodeLog(
        config=config,
        rounds=tuple(rounds),
        outcome=outcome,
        terminal_partition=terminal,
        round_count=len(rounds),
        deviation_count=deviations,
        summary=summary,
        error=error,
    )


@lru_cache(maxsize=1 << 12)
def _successor(
    blocks: tuple[int, ...], own: int, target: int, joined: int
) -> tuple[int, ...]:
    """The block masks after the agent `joined & ~target` leaves `own` and
    joins `target` (0 = goes solo), ordered by smallest member.  Cached:
    episodes of a condition revisit the same partitions and moves."""
    rest = own & ~(joined & ~target)
    new_blocks = [m for m in blocks if m != own and m != target]
    if rest:
        new_blocks.append(rest)
    new_blocks.append(joined)
    return tuple(sorted(new_blocks, key=lambda m: m & -m))


def _agent_rules(config: EpisodeConfig, external) -> list[tuple]:
    """How each agent's oracle answers in this episode, resolved once:
    `(kind, gap, epsilon, copy, pack, t_critical, t_easy, k, decider)`.

    Logit and consistency-noise rules carry the episode's draw state
    (`copy`, `pack` of `episode_draws`) and `majority_k`, noise rules also
    `oracle.draw_thresholds`; the scan draws them inline.  Perfect rules
    need nothing to draw.  External rules carry a decider that asks the
    agent's plugin session; the scan calls it.  A rule is built once per
    oracle object: `config.oracles` usually holds one spec n times, and
    keying by identity skips hashing the frozen dataclass.
    """
    made: dict[int, tuple] = {}
    rules = []
    for agent, oracle in enumerate(config.oracles):
        kind = oracle.kind
        if kind is OracleKind.EXTERNAL:
            decider = _external_decider(oracle, config, agent, external)
            rules.append((kind, oracle.gap_threshold, None, None, None, None, None, 1, decider))
            continue
        rule = made.get(id(oracle))
        if rule is None:
            copy = pack = t_critical = t_easy = None
            if kind is not OracleKind.PERFECT:
                copy, pack = episode_draws(draw_prefix(oracle.seed, config.episode_id))
            if kind is OracleKind.CONSISTENCY_NOISE:
                t_critical, t_easy = oracle.draw_thresholds
            rule = made[id(oracle)] = (
                kind, oracle.gap_threshold, oracle.epsilon, copy, pack, t_critical, t_easy,
                oracle.majority_k, None,
            )
        rules.append(rule)
    return rules


def _external_decider(oracle: OracleSpec, config: EpisodeConfig, agent: int, external):
    def decide_external(delta, round_index, ordinal, own, target):
        if external is None or oracle.external not in external:
            raise RuntimeError("external oracle requires an open plugin session")
        q = PreferenceQuery(
            agent=agent, current=mask_coalition(own), candidate=mask_coalition(target)
        )
        return answer_majority(
            oracle, config.game, q,
            ctx=(config.episode_id, round_index, ordinal),
            external=external[oracle.external],
        )

    return decide_external


@dataclass(frozen=True, slots=True)
class ConvergenceBound:
    max_deviations: float
    max_rounds: float
    delta: float
    value_range: float


def convergence_bound(game: GameSpec) -> ConvergenceBound:
    """Worst-case deviation and round counts for improving dynamics.

    The potential lies between n * min(min v, 0) and n * max(max v, 0), so
    the value range here extends the coalition value spread to the zero
    baseline; a range that ignored the baseline would undercount whenever
    every coalition value is positive.  Deviations are bounded by
    n * range / gap and rounds by n times that, with the gap taken over all
    coalition sizes.  An infinite gap means no agent ever sees two distinct
    values, so no strict improvement is possible and the bounds are zero.
    """
    delta = value_gap_delta(game, max_size=game.n)  # > DEDUP_EPS, or inf
    lo, hi = coalition_value_bounds(game)
    spread = max(hi, 0.0) - min(lo, 0.0)
    if math.isinf(delta):
        return ConvergenceBound(0.0, 0.0, delta, spread)
    max_dev = game.n * spread / delta
    return ConvergenceBound(max_dev, game.n * max_dev, delta, spread)


# ---------------------------------------------------------------------------
# JSONL serialization and replay

def _canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _initial_to_dict(initial: InitialPartition) -> dict:
    return {
        "kind": initial.kind,
        "partition": initial.partition.blocks() if initial.partition else None,
    }


def _initial_from_dict(data: dict, n: int) -> InitialPartition:
    part = data.get("partition")
    return InitialPartition(
        kind=data["kind"],
        partition=Partition.from_blocks(n, part) if part else None,
    )


def oracle_to_dict(oracle: OracleSpec) -> dict:
    out = {
        "kind": oracle.kind.value,
        "epsilon": oracle.epsilon,
        "p_critical": oracle.p_critical,
        "p_easy": oracle.p_easy,
        "critical_gap": oracle.critical_gap,
        "seed": oracle.seed,
        "majority_k": oracle.majority_k,
    }
    if oracle.external is not None:
        out["external"] = {
            "command": list(oracle.external.command),
            "timeout_s": oracle.external.timeout_s,
            "protocol": oracle.external.protocol,
        }
    return out


#: The keys an oracle dict may give, each with its cast (None: as given).
#: A key left out takes the field's default in OracleSpec or
#: ExternalEndpointSpec.
_ORACLE_KEYS = {
    "epsilon": float,
    "p_critical": float,
    "p_easy": float,
    "critical_gap": None,
    "seed": int,
    "majority_k": int,
}
_ENDPOINT_KEYS = {"timeout_s": float, "protocol": None}


def _given(data: dict, keys: dict) -> dict:
    return {
        key: data[key] if cast is None else cast(data[key])
        for key, cast in keys.items()
        if key in data
    }


def oracle_from_dict(data: dict) -> OracleSpec:
    """The oracle an `oracle_to_dict`-shaped dict describes.

    The one way outside input (logs, manifests, CLI flags) becomes an
    OracleSpec: only the keys given are passed on, so every default is the
    dataclass field's.
    """
    fields = _given(data, _ORACLE_KEYS)
    e = data.get("external")
    if e is not None:
        if not isinstance(e, dict):
            raise ValueError(f"an external oracle's endpoint must be an object, got {e!r}")
        if e.get("url") is not None:  # older headers write "url": null
            raise ValueError(
                "HTTP endpoints were removed: an external oracle needs a plugin command"
            )
        command = e.get("command") or ()
        if isinstance(command, str):  # tuple() would split it into characters
            raise ValueError(
                f"an external oracle's plugin command is a list of arguments, got {command!r}"
            )
        fields["external"] = ExternalEndpointSpec(
            command=tuple(command), **_given(e, _ENDPOINT_KEYS)
        )
    return OracleSpec(kind=OracleKind(data["kind"]), **fields)


def config_to_dict(config: EpisodeConfig) -> dict:
    return {
        "game": game_to_dict(config.game),
        "oracles": [oracle_to_dict(o) for o in config.oracles],
        "initial": _initial_to_dict(config.initial),
        "max_rounds": config.max_rounds,
        "rule": config.rule.value,
        "seed": config.seed,
        "episode_id": config.episode_id,
        "record_queries": config.record_queries,
    }


@lru_cache(maxsize=8)
def _game_from_json(text: str) -> GameSpec:
    """The game of a game dict's canonical JSON, shared: the episodes of one
    log replay against one GameSpec, so the caches keyed by game identity
    hit.  Dicts with equal canonical text encode identically; `0.0` and
    `-0.0` give two texts, and two games."""
    return game_from_dict(json.loads(text))


def config_from_dict(data: dict) -> EpisodeConfig:
    game = _game_from_json(_canonical(data["game"]))
    return EpisodeConfig(
        game=game,
        oracles=tuple(oracle_from_dict(o) for o in data["oracles"]),
        initial=_initial_from_dict(data["initial"], game.n),
        max_rounds=int(data["max_rounds"]),
        rule=DeviationRule(data["rule"]),
        seed=int(data["seed"]),
        episode_id=int(data["episode_id"]),
        record_queries=bool(data["record_queries"]),
    )


@lru_cache(maxsize=1 << 14)
def _members_json(mask: int) -> str:
    """The JSON text of a block's member list, e.g. "[0,2,5]"."""
    return "[" + ",".join(map(str, mask_members(mask))) + "]"


@lru_cache(maxsize=1 << 12)
def _partition_json(masks: tuple[int, ...]) -> str:
    """The JSON text of a partition's member lists without the brackets,
    e.g. "[0,2],[1]"."""
    return ",".join(map(_members_json, masks))


_NONFINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_json(x: float) -> str:
    """`json.dumps(round(x, 12))`: json writes finite floats with repr."""
    text = repr(round(x, 12))
    return _NONFINITE_JSON.get(text, text)


_MATCHED_JSON = {None: "null", False: "0", True: "1"}
# canonical JSON of a round (keys sorted), up to the optional "queries" key
_ROUND_HEAD = (
    '{"deviation":%s,"index":%d,"n_queries":%d,"partition":[%s],'
    '"phi_after":%s,"phi_before":%s'
)
_DEVIATION = '{"agent":%d,"from":%s,"to":%s}'
_QUERY = '[%d,%s,%s,"%s",%d,%s]'
# canonical JSON of the terminal record
_TERMINAL = (
    '{"deviations":%d,"error":%s,"outcome":"%s","partition":[%s],"rounds":%d,'
    '"summary":%s,"type":"terminal","verification":%s}'
)


@lru_cache(maxsize=1 << 12)
def _verification_json(game: "_Same", masks: tuple[int, ...]) -> str:
    """The canonical JSON of the ground-truth `verify_nash` report of a
    partition of the game that `game` wraps."""
    return _canonical(verify_nash(game.obj, Partition.from_masks(game.obj.n, masks)).to_dict())


@lru_cache(maxsize=1 << 10)
def _query_json(q: "_Same") -> str:
    """The JSON text of the query record that `q` wraps.  Keyed by identity:
    records that compare equal can print differently (0.0 and -0.0)."""
    q = q.obj
    return _QUERY % (
        q.agent,
        _members_json(q.target_mask),
        _float_json(q.delta_v),
        q.verdict.value,
        q.critical,
        _MATCHED_JSON[q.matched],
    )


def _round_line(r: RoundRecord, record_queries: bool, phi_before: str, phi_after: str) -> str:
    """One round as canonical JSON (sorted keys, no spaces), built from text
    fragments instead of a dict passed through json.dumps; `phi_before`
    and `phi_after` are the texts of the round's potentials."""
    dev = r.deviation
    line = _ROUND_HEAD % (
        "null" if dev is None else _DEVIATION % (
            dev.agent, _members_json(dev.from_mask), _members_json(dev.to_mask)
        ),
        r.index,
        r.n_queries,
        _partition_json(r.masks_before),
        phi_after,
        phi_before,
    )
    if record_queries:
        line += ',"queries":[%s]' % ",".join(map(_query_json, map(_Same, r.queries)))
    return line + ',"type":"round"}'


class _Same:
    """A cache key that matches only the very object it wraps.

    Values that compare equal can still encode differently (`1` and `1.0`,
    `0.0` and `-0.0`), so a cache of encodings keyed by `==` could hand one
    config the bytes of another.  The key holds its object, so the object's
    id is not reused while the entry lives.
    """

    __slots__ = ("obj",)

    def __init__(self, obj) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other) -> bool:
        return self.obj is other.obj


@lru_cache(maxsize=64)
def _header_config(members: tuple[_Same, ...]) -> str:
    """The header's config members that the episodes of a condition share,
    as canonical JSON without braces: every key but `episode_id` (sorted
    first) and `seed` (sorted last).  `members` wraps the config's game,
    initial partition, max_rounds, rule, record_queries, then its oracles."""
    game, initial, max_rounds, rule, record_queries, *oracles = (m.obj for m in members)
    config = EpisodeConfig(game, tuple(oracles), initial, max_rounds, rule, 0, 0, record_queries)
    shared = config_to_dict(config)
    del shared["episode_id"], shared["seed"]
    return _canonical(shared)[1:-1]


def _header_line(config: EpisodeConfig) -> str:
    """The header as canonical JSON: the cached shared members with the
    episode's id and seed formatted in."""
    shared = _header_config(
        tuple(
            map(
                _Same,
                (
                    config.game,
                    config.initial,
                    config.max_rounds,
                    config.rule,
                    config.record_queries,
                    *config.oracles,
                ),
            )
        )
    )
    return '{"config":{"episode_id":%d,%s,"seed":%d},"engine":%s,"type":"header"}' % (
        config.episode_id,
        shared,
        config.seed,
        json.dumps(ENGINE_VERSION),
    )


def episode_log_lines(log: EpisodeLog) -> list[str]:
    """Serialize a log as JSONL: header, one line per round, terminal line.

    Every line is canonical JSON (sorted keys, no spaces).  The terminal line
    embeds an exhaustive ground-truth verification of the final partition so
    a log is auditable without re-running anything.
    """
    lines = [_header_line(log.config)]
    record_queries = log.config.record_queries
    # A round starts at the potential the previous one ended at: the very
    # float object in run_episode's records, so its text is reused.  Only
    # identity is trusted; 0.0 == -0.0, yet they print differently.
    phi, text = None, ""
    for r in log.rounds:
        before = text if r.phi_before is phi else _float_json(r.phi_before)
        phi = r.phi_after
        text = before if phi is r.phi_before else _float_json(phi)
        lines.append(_round_line(r, record_queries, before, text))
    masks = log.terminal_partition.masks
    lines.append(
        _TERMINAL % (
            log.deviation_count,
            json.dumps(log.error),
            log.outcome.value,
            _partition_json(masks),
            log.round_count,
            _canonical(log.summary.to_dict()),
            _verification_json(_Same(log.config.game), masks),
        )
    )
    return lines


def write_episode_log(log: EpisodeLog, target: str | Path | IO[str]) -> None:
    text = "\n".join(episode_log_lines(log)) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")


@dataclass(frozen=True, slots=True)
class ReplayReport:
    identical: bool
    lines_checked: int
    first_divergence: int | None = None
    recorded_line: str | None = None
    replayed_line: str | None = None
    version_warning: str | None = None


def replay_lines(recorded: Sequence[str]) -> ReplayReport:
    """Re-run the episodes embedded in recorded log lines and diff every line.

    A condition log with several episodes is split at its header records
    and each episode is replayed in turn.  Only lines that can be headers
    are parsed: a header holds the JSON string "header", written as such or
    with a \\u escape in it.
    """
    lines = [s for s in (ln.strip() for ln in recorded) if s]
    if not lines:
        raise ValueError("empty episode log")
    starts = []
    headers = []
    for i, ln in enumerate(lines):
        if '"header"' in ln or "\\u" in ln:
            record = json.loads(ln)
            if isinstance(record, dict) and record.get("type") == "header":
                starts.append(i)
                headers.append(record)
    if not starts:
        raise ValueError("episode log contains no header record")
    if starts[0] != 0:
        raise ValueError("episode log must start with a header record")
    starts.append(len(lines))
    checked = 0
    warning = None
    for header, a, b in zip(headers, starts, starts[1:]):
        report = _replay_episode(header, lines[a:b])
        warning = warning or report.version_warning
        if not report.identical:
            return ReplayReport(
                identical=False,
                lines_checked=checked + report.lines_checked,
                first_divergence=a + (report.first_divergence or 0),
                recorded_line=report.recorded_line,
                replayed_line=report.replayed_line,
                version_warning=warning,
            )
        checked += report.lines_checked
    return ReplayReport(identical=True, lines_checked=checked, version_warning=warning)


def _replay_episode(header: dict, recorded: list[str]) -> ReplayReport:
    """Replay one episode: `recorded` holds its stripped, non-blank lines,
    and `header` is its first line, already parsed."""
    warning = None
    if header.get("engine") != ENGINE_VERSION:
        warning = (
            f"log written by engine {header.get('engine')!r}, "
            f"replaying with {ENGINE_VERSION!r}"
        )
    config = config_from_dict(header["config"])
    for agent, oracle in enumerate(config.oracles):
        if oracle.kind is OracleKind.EXTERNAL:
            raise ValueError(
                f"agent {agent} answers through an external oracle; "
                "replay re-runs only built-in oracles"
            )
    fresh = episode_log_lines(run_episode(config))
    # compare content below the header so a version bump alone is a warning,
    # not a divergence
    for i in range(1, max(len(recorded), len(fresh))):
        rec = recorded[i] if i < len(recorded) else None
        new = fresh[i] if i < len(fresh) else None
        if rec != new:
            return ReplayReport(
                identical=False,
                lines_checked=i + 1,
                first_divergence=i,
                recorded_line=rec,
                replayed_line=new,
                version_warning=warning,
            )
    return ReplayReport(
        identical=True, lines_checked=len(recorded), version_warning=warning
    )


def replay_file(path: str | Path) -> ReplayReport:
    """Replay a log file, one episode or a whole condition's, as
    `replay_lines` replays its lines."""
    return replay_lines(Path(path).read_text(encoding="utf-8").splitlines())
