"""Independent brute-force references for the value function, the δ gap,
the deviation scan, the potential-alignment check, core stability, the
binning of choice logs, the bootstrap CI of a mean, the oracle decision
models, the episode coin's draws, whole episodes, and the dict form of an
episode's round and header lines.

These recompute from explicit member lists, the game's profiles and the
choice rows with plain Python loops, without calling the engine's value,
gap, scan or binning code, so tests can check the engine against them.
The episode and core references are the exceptions that prove the rule:
they read the engine's value tables, which have references of their own.
The episode reference also reads the terminal verification and re-runs
only the scan; the core reference walks the sets one by one.
"""

import hashlib
import json
import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np

from coalitions._version import ENGINE_VERSION
from coalitions.dynamics import DeviationRule, config_to_dict
from coalitions.game import TIE_EPS, GameSpec, Partition, per_capita_table, value_table
from coalitions.preferences import (
    CRITICAL_IRRATIONAL_RATE,
    ChoiceRecord,
    OracleKind,
    OracleSpec,
    Verdict,
    _crossing,
    _key_bytes,
    _uniform,
    derived_rng,
    logit_accept_probability,
    majority_verdict,
)
from coalitions.stability import verify_nash


def brute_value(game: GameSpec, members: list[int]) -> float:
    """Independent recomputation from explicit member lists."""
    total = 0.0  # left to right, the order the engine adds dimensions in
    for j in range(game.d):
        total += max(game.profile(i)[j] for i in members)
    return total / game.d - game.alpha * len(members) ** game.beta


def brute_delta(game: GameSpec, max_size: int) -> float:
    """Smallest nonzero per-capita gap any one agent sees, by enumeration."""
    best = math.inf
    for agent in range(game.n):
        seen = set()
        others = [i for i in range(game.n) if i != agent]
        for k in range(0, max_size):
            for combo in combinations(others, k):
                members = sorted((agent,) + combo)
                seen.add(brute_value(game, members) / len(members))
        vals = sorted(seen)
        # near-equal values from float noise are merged by the gap threshold
        for a, b in zip(vals, vals[1:]):
            if b - a > 1e-9:
                best = min(best, b - a)
    return best


def brute_deviation_checks(
    masks: list[int], agents: list[int] | None = None
) -> list[tuple[int, int, int, int]]:
    """(agent, own, target, joined) for every deviation check: each agent in
    `agents` order (default ascending) against every other block in the
    given order, then alone (target 0), self-comparisons included."""
    n = sum(bin(m).count("1") for m in masks)
    checks = []
    for agent in range(n) if agents is None else agents:
        own = [m for m in masks if m >> agent & 1][0]
        for target in masks:
            if target != own:
                checks.append((agent, own, target, target | 1 << agent))
        checks.append((agent, own, 0, 1 << agent))
    return checks


def brute_partitions(n: int) -> list[list[int]]:
    """Block masks of every partition of 0..n-1 in lexicographic
    restricted-growth order, blocks ordered by smallest member."""
    out = []

    def extend(i: int, blocks: list[int]) -> None:
        if i == n:
            out.append(list(blocks))
            return
        for b in range(len(blocks) + 1):
            if b == len(blocks):
                blocks.append(0)
            blocks[b] |= 1 << i
            extend(i + 1, blocks)
            blocks[b] &= ~(1 << i)
            if not blocks[b]:
                blocks.pop()

    extend(0, [])
    return out


def brute_alignment(game: GameSpec) -> bool:
    """Whether the exact-potential check passes, over every partition: each
    agent tries every other block and then going solo, and a strictly
    improving move must strictly raise the total value, summed as
    phi - v(own) - v(target) + v(joined) + v(rest)."""

    memo: dict[int, float] = {}

    def v(mask: int) -> float:
        if mask not in memo:
            memo[mask] = brute_value(game, [i for i in range(game.n) if mask >> i & 1])
        return memo[mask]

    def pc(mask: int) -> float:
        return v(mask) / bin(mask).count("1")

    for blocks in brute_partitions(game.n):
        phi = 0
        for b in blocks:
            phi += v(b)
        for agent in range(game.n):
            own = [m for m in blocks if m >> agent & 1][0]
            for target in [m for m in blocks if m != own] + [0]:
                joined = target | 1 << agent
                if joined == own or pc(joined) - pc(own) <= TIE_EPS:
                    continue
                rest = own & ~(1 << agent)
                phi_new = (
                    phi
                    - v(own)
                    - (v(target) if target else 0.0)
                    + v(joined)
                    + (v(rest) if rest else 0.0)
                )
                if phi_new <= phi + TIE_EPS:
                    return False
    return True


def brute_core(game: GameSpec, partition: Partition) -> tuple[bool, tuple[int, ...] | None, int]:
    """Core stability by a walk over every nonempty set in (size,
    lexicographic) order, each member's gain checked on its own:
    (stable, the first blocking set's members or None, that set's rank, or
    2**n - 1 when none blocks)."""
    pc = per_capita_table(game)
    current = {i: pc[c.mask] for c in partition.coalitions for i in c.members}
    rank = 0
    for size in range(1, game.n + 1):
        for combo in combinations(range(game.n), size):
            rank += 1
            mask = sum(1 << i for i in combo)
            if all(pc[mask] - current[i] > TIE_EPS for i in combo):
                return False, combo, rank
    return True, None, rank


def brute_epsilon_bins(
    rows: list[ChoiceRecord], bins: int = 10
) -> tuple[tuple[float, ...], tuple[float, ...], float | None]:
    """Bin centers, per-bin irrational-choice rates and the threshold
    crossing of a choice log, binned row by row (the crossing itself is the
    engine's `_crossing`, which the binning feeds)."""
    rows = [r for r in rows if abs(r.delta_v) > TIE_EPS]
    width = max(abs(r.delta_v) for r in rows) / bins
    totals = [0] * bins
    bad = [0] * bins
    for r in rows:
        b = min(int(abs(r.delta_v) / width), bins - 1)
        totals[b] += 1
        wrong = Verdict.PREFER_CURRENT if r.delta_v > 0 else Verdict.PREFER_CANDIDATE
        if r.verdict is wrong:
            bad[b] += 1
    centers = tuple((b + 0.5) * width for b in range(bins))
    rates = tuple(bad[b] / totals[b] if totals[b] else math.nan for b in range(bins))
    return centers, rates, _crossing(centers, rates, CRITICAL_IRRATIONAL_RATE)


def brute_bootstrap_ci(
    samples: list[float], iterations: int, level: float, seed: int
) -> tuple[float, float]:
    """Percentile bootstrap CI of the mean with every resample drawn in one
    index matrix, from the same seeded numpy stream as the engine."""
    arr = np.asarray(samples, dtype=float)
    digest = hashlib.blake2b(f"bootstrap:{seed}".encode(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    idx = rng.integers(0, len(arr), size=(iterations, len(arr)))
    means = arr[idx].mean(axis=1)
    alpha = 1 - level
    lo, hi = np.quantile(means, [alpha / 2, 1 - alpha / 2])
    return float(lo), float(hi)


def unit_uniform(*parts: int | str) -> float:
    """Deterministic uniform draw in [0, 1) keyed by the given coordinates:
    the engine's key layout and digest-to-float map, drawn from scratch."""
    return _uniform(_key_bytes(parts))


def brute_decide(
    oracle: OracleSpec,
    delta: float,
    ctx: tuple,
    rep: int = 0,
) -> Verdict:
    """One draw of an internal oracle, every model written out in one
    function: the reference for `decide` and the episode scan's inline
    draws.  The draw is keyed by ("pref", oracle.seed, *ctx, rep)."""
    kind = oracle.kind
    if kind is OracleKind.PERFECT:
        if delta > TIE_EPS:
            return Verdict.PREFER_CANDIDATE
        if delta < -TIE_EPS:
            return Verdict.PREFER_CURRENT
        return Verdict.INDIFFERENT
    if kind is OracleKind.LOGIT:
        p = logit_accept_probability(delta, oracle.epsilon)
        hit, miss = Verdict.PREFER_CANDIDATE, Verdict.PREFER_CURRENT
    elif kind is OracleKind.CONSISTENCY_NOISE:
        if abs(delta) <= TIE_EPS:
            return Verdict.INDIFFERENT
        if delta > 0:
            hit, miss = Verdict.PREFER_CANDIDATE, Verdict.PREFER_CURRENT
        else:
            hit, miss = Verdict.PREFER_CURRENT, Verdict.PREFER_CANDIDATE
        p = oracle.p_critical if abs(delta) < oracle.gap_threshold else oracle.p_easy
    else:
        raise ValueError(f"no reference model for oracle kind {kind}")
    return hit if unit_uniform("pref", oracle.seed, *ctx, rep) < p else miss


def brute_header_line(config) -> str:
    """A log's header line as the canonical JSON (sorted keys, no spaces)
    of its whole dict, the config re-encoded for every episode."""
    return json.dumps(
        {"type": "header", "engine": ENGINE_VERSION, "config": config_to_dict(config)},
        sort_keys=True,
        separators=(",", ":"),
    )


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def brute_round_dict(r, record_queries: bool) -> dict:
    """The dict a round line is the canonical JSON of (sorted keys, no
    spaces): float fields rounded to 12 places, blocks and targets as member
    lists, query flags as 0/1 and an exact tie's `matched` as null."""
    out = {
        "type": "round",
        "index": r.index,
        "partition": [_members(m) for m in r.masks_before],
        "n_queries": r.n_queries,
        "deviation": None,
        "phi_before": round(r.phi_before, 12),
        "phi_after": round(r.phi_after, 12),
    }
    if r.deviation is not None:
        out["deviation"] = {
            "agent": r.deviation.agent,
            "from": _members(r.deviation.from_mask),
            "to": _members(r.deviation.to_mask),
        }
    if record_queries:
        out["queries"] = [
            [
                q.agent,
                _members(q.target_mask),
                round(q.delta_v, 12),
                q.verdict.value,
                int(q.critical),
                None if q.matched is None else int(q.matched),
            ]
            for q in r.queries
        ]
    return out


def brute_episode(config) -> list[str]:
    """The JSONL lines of an episode with internal oracles, the scan written
    out plainly: every query answered as the majority verdict of
    `brute_decide` over `majority_k` draws, blocks kept as a list sorted by
    smallest member, the potential updated as the engine adds it up
    (phi - v(own) + v(rest) + v(joined) - v(target))."""
    game, n = config.game, config.game.n
    pc, v = per_capita_table(game), value_table(game)
    blocks = list(config.initial.block_masks(n, config.seed, config.episode_id))
    phi = phi_initial = sum(v[b] for b in blocks)
    rounds = []
    outcome = "timeout"
    totals = {True: [0, 0], False: [0, 0]}  # critical -> [queries, matched]
    consistent = True
    n_queries = deviations = 0
    for index in range(1, config.max_rounds + 1):
        agents = list(range(n))
        if config.rule is DeviationRule.RANDOM_IMPROVING:
            derived_rng("scan", config.seed, config.episode_id, index).shuffle(agents)
        queries = []
        chosen = None
        ordinal = 0
        for agent, own, target, joined in brute_deviation_checks(blocks, agents):
            if chosen is not None and config.rule is not DeviationRule.BEST_IMPROVING:
                break
            ordinal += 1
            if joined == own:
                queries.append(SimpleNamespace(
                    agent=agent, target_mask=0, delta_v=0.0,
                    verdict=Verdict.INDIFFERENT, critical=False, matched=None,
                ))
                continue
            oracle = config.oracles[agent]
            delta = pc[joined] - pc[own]
            verdict = majority_verdict(
                brute_decide(oracle, delta, (config.episode_id, index, ordinal), rep)
                for rep in range(oracle.majority_k)
            )
            critical = abs(delta) < oracle.gap_threshold
            matched = None
            if delta > TIE_EPS:
                matched = verdict is Verdict.PREFER_CANDIDATE
            elif delta < -TIE_EPS:
                matched = verdict is Verdict.PREFER_CURRENT
            if matched is not None:
                totals[critical][0] += 1
                totals[critical][1] += matched
                consistent = consistent and matched
            queries.append(SimpleNamespace(
                agent=agent, target_mask=target, delta_v=delta,
                verdict=verdict, critical=critical, matched=matched,
            ))
            if verdict is Verdict.PREFER_CANDIDATE and (chosen is None or delta > chosen[4]):
                chosen = (agent, own, target, joined, delta)
        n_queries += ordinal
        record = SimpleNamespace(
            index=index, masks_before=tuple(blocks), n_queries=ordinal,
            deviation=None, phi_before=phi, phi_after=phi,
            queries=queries,
        )
        rounds.append(record)
        if chosen is None:
            outcome = "nash_stable"
            break
        agent, own, target, joined, _ = chosen
        rest = own & ~(1 << agent)
        phi_after = phi - v[own] + (v[rest] if rest else 0.0) + v[joined]
        if target:
            phi_after -= v[target]
        blocks = [b for b in blocks if b not in (own, target)] + [rest, joined]
        blocks = sorted((b for b in blocks if b), key=lambda b: min(_members(b)))
        record.deviation = SimpleNamespace(agent=agent, from_mask=own, to_mask=joined)
        record.phi_after = phi = phi_after
        deviations += 1

    terminal = Partition.from_masks(n, tuple(blocks))
    verification = verify_nash(game, terminal).to_dict()
    summary = {
        "n_queries": n_queries,
        "critical_queries": totals[True][0],
        "critical_matched": totals[True][1],
        "easy_queries": totals[False][0],
        "easy_matched": totals[False][1],
        "consistent": consistent,
        "ground_truth_stable": verification["stable"],
        "phi_initial": round(phi_initial, 12),
        "phi_terminal": round(phi, 12),
    }
    lines = [brute_header_line(config)]
    lines += [_canonical(brute_round_dict(r, config.record_queries)) for r in rounds]
    lines.append(_canonical({
        "type": "terminal",
        "outcome": outcome,
        "partition": [_members(b) for b in blocks],
        "rounds": len(rounds),
        "deviations": deviations,
        "summary": summary,
        "verification": verification,
        "error": None,
    }))
    return lines


def _canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
