"""Preference oracles over coalition comparisons.

An oracle answers "stay in the current coalition or join the candidate?"
under one of four decision models: perfect value comparison, logit choice
with precision 1/epsilon, a two-point flip model that returns the correct
verdict with a consistency probability (lower on close calls than on clear
ones), or an external plugin process.

All randomness is counter-based: each draw hashes (oracle seed, stream
coordinates, repeat index), so answers are replay-deterministic and one
episode's draws do not depend on any other episode's.

`decide` writes out each internal model for one draw.  The episode scan in
`dynamics.run_episode` answers the same models inline, drawing the same
keys from `episode_draws` and folding `majority_k` of them per query.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .game import Coalition, GameSpec, TIE_EPS, per_capita_table


class Verdict(Enum):
    PREFER_CURRENT = "current"
    PREFER_CANDIDATE = "candidate"
    INDIFFERENT = "indifferent"


class OracleKind(Enum):
    PERFECT = "perfect"
    LOGIT = "logit"
    CONSISTENCY_NOISE = "consistency_noise"
    EXTERNAL = "external"


class OracleParseFailure(RuntimeError):
    """An external answer carried no parseable preference declaration."""


class InsufficientDataError(ValueError):
    """A choice log is too thin to bin reliably."""


@dataclass(frozen=True, slots=True)
class ExternalEndpointSpec:
    """How to start an external preference plugin and how to prompt it.

    A plugin is a child process, started from `command`, that speaks the
    line protocol of `coalitions.plugin` on its stdin and stdout.  The
    engine waits on its pipes with `select.poll`, so it needs POSIX pipes.
    """

    command: tuple[str, ...]
    timeout_s: float = 10.0
    protocol: str = "staged"

    def __post_init__(self) -> None:
        if not self.command:
            raise ValueError("an external oracle needs a plugin command")


# not slotted: cached_property keeps its values in the instance dict
@dataclass(frozen=True)
class OracleSpec:
    """Parameterized decision model; immutable and safe to share."""

    kind: OracleKind
    epsilon: float = 0.15
    p_critical: float = 0.86
    p_easy: float = 0.98
    critical_gap: float | None = None  # defaults to 2 * epsilon
    seed: int = 0
    majority_k: int = 1
    external: ExternalEndpointSpec | None = None

    def __post_init__(self) -> None:
        if self.kind is OracleKind.LOGIT and not self.epsilon > 0:
            raise ValueError("logit oracles require epsilon > 0")
        if self.kind is OracleKind.CONSISTENCY_NOISE:
            if not 0 < self.p_critical <= 1 or not 0 < self.p_easy <= 1:
                raise ValueError("consistency probabilities must lie in (0, 1]")
            if self.p_critical > self.p_easy:
                raise ValueError("p_critical must not exceed p_easy")
        if self.majority_k < 1 or self.majority_k % 2 == 0:
            raise ValueError("majority_k must be an odd integer >= 1")
        if self.kind is OracleKind.EXTERNAL and self.external is None:
            raise ValueError("external oracles need an endpoint spec")
        check_seed("seed", self.seed)

    @cached_property
    def gap_threshold(self) -> float:
        """Value gap below which a decision counts as critical."""
        return 2.0 * self.epsilon if self.critical_gap is None else self.critical_gap

    @cached_property
    def draw_thresholds(self) -> tuple[bytes, bytes]:
        """`(draw_threshold(p_critical), draw_threshold(p_easy))`: an episode
        draw is correct when its digest falls below the threshold of the
        query's criticality.  Made once per spec."""
        return draw_threshold(self.p_critical), draw_threshold(self.p_easy)


@dataclass(frozen=True, slots=True)
class PreferenceQuery:
    """One comparison: stay in `current` or join `candidate`.

    `candidate` excludes the agent; the empty coalition means "go solo".
    """

    agent: int
    current: Coalition
    candidate: Coalition

    def __post_init__(self) -> None:
        if self.agent not in self.current:
            raise ValueError("agent must belong to the current coalition")
        if self.agent in self.candidate:
            raise ValueError("candidate coalition must not contain the agent")


# ---------------------------------------------------------------------------
# counter-based randomness

def check_seed(name: str, value: int) -> None:
    """Raise ValueError unless `value` fits a draw key: `_key_bytes` packs
    every seed and episode id as a signed 64-bit integer.  Seeds are checked
    where they enter (oracles, episode configs, conditions, manifests,
    sweeps, `estimate_epsilon`), before anything runs or is written."""
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{name} must lie in [-2**63, 2**63), got {value}")


def _key_bytes(parts: Sequence[int | str]) -> bytes:
    buf = bytearray()
    for p in parts:
        if isinstance(p, str):
            raw = p.encode("utf-8")
            buf += b"s" + len(raw).to_bytes(2, "big") + raw
        else:
            buf += b"i" + struct.pack(">q", p)
    return bytes(buf)


#: The (round, ordinal, rep) counters of an episode draw, laid out as
#: `_key_bytes` lays out three integers.
_COUNTERS = struct.Struct(">cqcqcq")


def draw_prefix(seed: int, episode: int) -> bytes:
    """Constant head of the draw keys of one episode for one oracle seed.

    `prefix + _COUNTERS.pack(b"i", round, b"i", ordinal, b"i", rep)` is
    `_key_bytes(("pref", seed, episode, round, ordinal, rep))`, the key of
    `decide` at ctx (episode, round, ordinal), so drawing an episode from
    the prefix changes no draw.
    """
    return _key_bytes(("pref", seed, episode))


def _uniform(key: bytes) -> float:
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@lru_cache(maxsize=1024)
def draw_threshold(p: float) -> bytes:
    """The 8-byte big-endian T with `digest < T` exactly when the draw
    `int.from_bytes(digest, "big") / 2.0**64` of `_uniform` is below p.

    T is the smallest integer x whose draw is not below p, found by
    bisection over that same float expression, so the byte comparison
    agrees with the float one wherever int-to-float rounding lands,
    p = 1.0 included (T = 2**64 - 2**10, whose draw rounds to 1.0).
    Cached by p: a replayed episode builds one spec per agent.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"draw probabilities lie in [0, 1], got {p}")
    lo, hi = 0, 2**64  # the draw of hi is 1.0, never below p
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2.0**64 < p:
            lo = mid + 1
        else:
            hi = mid
    return lo.to_bytes(8, "big")


def episode_draws(prefix: bytes):
    """`(copy, pack)` for the draws of one episode: after `h = copy()` and
    `h.update(pack(b"i", round_index, b"i", ordinal, b"i", rep))`,
    `h.digest()` is the digest of the draw keyed `prefix + (round_index,
    ordinal, rep)`.  The hash state after `prefix` is built once; each draw
    copies it and feeds only the packed counters."""
    return hashlib.blake2b(prefix, digest_size=8).copy, _COUNTERS.pack


def _derived_seed(parts: Sequence[int | str]) -> int:
    digest = hashlib.blake2b(_key_bytes(parts), digest_size=16).digest()
    return int.from_bytes(digest, "big")


def derived_rng(*parts: int | str) -> random.Random:
    """A fresh random.Random seeded from the given coordinates."""
    return random.Random(_derived_seed(parts))


# ---------------------------------------------------------------------------
# decision models

def query_delta(game: GameSpec, q: PreferenceQuery) -> float:
    """Per-capita gain of taking the candidate move (join target or go solo)."""
    pc = per_capita_table(game)
    joined = q.candidate.mask | 1 << q.agent
    return pc[joined] - pc[q.current.mask]


def logit_accept_probability(delta: float, epsilon: float) -> float:
    """Probability a logit chooser with precision 1/epsilon takes the move."""
    x = delta / epsilon
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-min(x, 700.0)))
    return math.exp(max(x, -700.0)) / (1.0 + math.exp(max(x, -700.0)))


def decide(
    oracle: OracleSpec,
    delta: float,
    ctx: Sequence[int | str],
    rep: int = 0,
) -> Verdict:
    """Apply the oracle's decision model to a raw per-capita gap: one draw.

    Exact ties (|delta| <= TIE_EPS) are answered Indifferent by the perfect
    and consistency-noise models, without a draw, so structural
    self-comparisons inject no noise there.  Logit has no tie rule: at
    delta = 0 it draws and takes the move with probability 1/2.

    The draw is keyed by ("pref", oracle.seed, *ctx, rep).  The episode
    scan folds majority_k such draws at ctx (episode, round, ordinal).
    """
    kind = oracle.kind
    if kind is OracleKind.LOGIT:
        p = logit_accept_probability(delta, oracle.epsilon)
        if _uniform(_key_bytes(("pref", oracle.seed, *ctx, rep))) < p:
            return Verdict.PREFER_CANDIDATE
        return Verdict.PREFER_CURRENT
    if kind is not OracleKind.PERFECT and kind is not OracleKind.CONSISTENCY_NOISE:
        raise ValueError(f"decide() does not handle oracle kind {kind}")
    size = abs(delta)
    if size <= TIE_EPS:
        return Verdict.INDIFFERENT
    correct = True
    if kind is OracleKind.CONSISTENCY_NOISE:
        # the correct verdict with probability p, the opposite one otherwise
        p = oracle.p_critical if size < oracle.gap_threshold else oracle.p_easy
        correct = _uniform(_key_bytes(("pref", oracle.seed, *ctx, rep))) < p
    if (delta > 0) == correct:
        return Verdict.PREFER_CANDIDATE
    return Verdict.PREFER_CURRENT


def answer(
    oracle: OracleSpec,
    game: GameSpec,
    q: PreferenceQuery,
    ctx: Sequence[int | str],
    rep: int = 0,
    external=None,
) -> Verdict:
    """Answer one preference query.

    `ctx` are the stream coordinates (for episodes: id, round, ordinal) that
    key this call's randomness.  External oracles are routed through the
    plugin session passed as `external`; transport failures propagate so the
    caller can abort, while unparseable answers raise OracleParseFailure.
    """
    if oracle.kind is OracleKind.EXTERNAL:
        if external is None:
            raise RuntimeError(
                "external oracle requires an active plugin session; "
                "none was provided"
            )
        return external.ask(game, q, ctx=ctx, rep=rep)
    return decide(oracle, query_delta(game, q), ctx, rep)


_VERDICTS = tuple(Verdict)


def majority_verdict(verdicts: Iterable[Verdict]) -> Verdict:
    """Modal verdict; any tie in counts resolves to PreferCurrent."""
    verdicts = list(verdicts)
    counts = [verdicts.count(v) for v in _VERDICTS]
    top = max(counts)
    if counts.count(top) > 1:  # a tie, or no verdicts at all
        return Verdict.PREFER_CURRENT
    return _VERDICTS[counts.index(top)]


def answer_majority(
    oracle: OracleSpec,
    game: GameSpec,
    q: PreferenceQuery,
    ctx: Sequence[int | str],
    external,
) -> Verdict:
    """Repeat the query majority_k times and return the modal verdict.

    Repeats draw from independent sub-streams.  Parse failures from external
    plugins consume their attempt; if every attempt fails the verdict
    defaults to PreferCurrent, which never destabilizes a partition.
    """
    verdicts = []
    for rep in range(oracle.majority_k):
        try:
            verdicts.append(answer(oracle, game, q, ctx=ctx, rep=rep, external=external))
        except OracleParseFailure:
            continue
    return majority_verdict(verdicts)


# ---------------------------------------------------------------------------
# consistency measurement

#: times `measure_consistency` asks each query
CONSISTENCY_REPEATS = 10


def measure_consistency(
    oracle: OracleSpec,
    game: GameSpec,
    queries: Sequence[PreferenceQuery],
) -> float:
    """Estimate self-agreement by asking each query CONSISTENCY_REPEATS times.

    Returns the pairwise agreement rate averaged over the queries: the
    probability that two independent answers to the same query coincide,
    estimated without bias from all answer pairs.  Repeat `rep` of query
    `qi` is drawn at ctx ("consistency", 0, qi, rep).
    """
    if not queries:
        raise ValueError("measure_consistency needs at least one query")
    repeats = CONSISTENCY_REPEATS
    total = 0.0
    for qi, q in enumerate(queries):
        counts: dict[Verdict, int] = {}
        for rep in range(repeats):
            v = answer(oracle, game, q, ctx=("consistency", 0, qi, rep))
            counts[v] = counts.get(v, 0) + 1
        total += sum(c * (c - 1) for c in counts.values()) / (repeats * (repeats - 1))
    return total / len(queries)


# ---------------------------------------------------------------------------
# epsilon estimation from choice logs

#: Coverage of every bootstrap confidence interval the engine reports.
CI_LEVEL = 0.95


def _quantiles(row: np.ndarray, qs: Sequence[float]) -> list[float]:
    """`np.quantile(row, qs)` under its default "linear" method, bit for bit.

    `np.quantile` picks its partition points through `np.unique`, whose
    first call imports `numpy.ma` (~1.3 MB), so this repeats numpy's steps
    without it: virtual index `(n - 1) * q` for q in [0, 1], the order
    statistics at its floor and the next index (clamped to the row) from
    one `np.partition`, and numpy's two-sided lerp.  A row holding a NaN
    gives NaN.
    """
    if np.isnan(row).any():
        return [math.nan] * len(qs)
    top = len(row) - 1
    points = []
    for q in qs:
        virtual = top * q
        below = math.floor(virtual)
        points.append((virtual - below, below, min(below + 1, top)))
    ranked = np.partition(row, sorted({k for _, lo, hi in points for k in (lo, hi)}))
    out = []
    for t, lo, hi in points:
        a, b = float(ranked[lo]), float(ranked[hi])
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


#: Irrational-choice rate of a logit chooser at a gap exactly equal to its
#: rationality bound; the threshold the gap estimator inverts.
CRITICAL_IRRATIONAL_RATE = 1.0 / (1.0 + math.e)


@dataclass(frozen=True, slots=True)
class ChoiceRecord:
    delta_v: float
    verdict: Verdict
    agent: int = 0
    round_index: int = 0
    episode: int = 0


@dataclass(frozen=True, slots=True)
class EpsilonEstimate:
    estimate: float | None
    ci_low: float | None
    ci_high: float | None
    found: bool
    bin_centers: tuple[float, ...]
    bin_rates: tuple[float, ...]


def _is_irrational(delta: float, verdict: Verdict) -> bool:
    """Whether the verdict contradicts the sign of a gap that is not a tie."""
    return verdict is (Verdict.PREFER_CURRENT if delta > 0 else Verdict.PREFER_CANDIDATE)


def _crossing(centers: Sequence[float], rates: Sequence[float], threshold: float) -> float | None:
    """Where the rates first fall below `threshold`, interpolated between
    the centers of the bins either side: 0.0 if the first bin is already
    below, None if no bin is.  The bin before the first one below is not
    below (a NaN rate is never below), so the two rates differ."""
    for idx, rate in enumerate(rates):
        if rate < threshold:
            if idx == 0:
                return 0.0
            r0, r1 = rates[idx - 1], rate
            c0, c1 = centers[idx - 1], centers[idx]
            return c0 + (r0 - threshold) / (r0 - r1) * (c1 - c0)
    return None


def _bin_rates(counts: np.ndarray) -> tuple[list[int], list[float]]:
    """Per-bin totals and irrational-choice rates from key counts, where
    key = bin * 2 + irrational."""
    bad = counts[1::2].tolist()
    totals = (counts[0::2] + counts[1::2]).tolist()
    return totals, [b / t if t else math.nan for b, t in zip(bad, totals)]


def estimate_epsilon(
    choice_log: Sequence[ChoiceRecord],
    bins: int = 10,
    min_per_bin: int = 30,
    bootstrap_iterations: int = 500,
    seed: int = 0,
) -> EpsilonEstimate:
    """Estimate the rationality bound from logged (gap, verdict) choices.

    Bins choices by absolute gap, computes the irrational-choice rate per
    bin (the verdict contradicting the sign of the gap), and reads off the
    gap at which that rate falls through 1/(1+e), the rate a logit chooser
    shows when the gap equals its bound.  The crossing is interpolated
    between bin centers; a percentile bootstrap over log rows gives the
    CI_LEVEL CI, its percentiles from `_quantiles` as in `bootstrap_ci`.
    Every bin must hold min_per_bin >= 1 choices, so no rate is NaN; a
    resample that empties the bin before its crossing counts as having
    none.  Returns found=False when the rate never drops below the
    threshold, as with uniformly random verdicts.

    Each row is binned once into the key bin * 2 + irrational, so one
    bootstrap resample is one draw of row indices and one bincount.  The
    draws come from a numpy Generator seeded with the 128-bit blake2b key
    of ("epsilon-bootstrap", seed), so the CI is a function of the log and
    the seed; the point estimate does not depend on the seed.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if min_per_bin < 1:
        raise ValueError(f"min_per_bin must be >= 1, got {min_per_bin}")
    check_seed("seed", seed)
    records = [r for r in choice_log if abs(r.delta_v) > TIE_EPS]
    if not any(r.delta_v > 0 for r in records) or not any(r.delta_v < 0 for r in records):
        raise ValueError("choice log must contain gaps of both signs")
    # then some bin holds fewer than min_per_bin: refused before a
    # 2 * bins bincount is allocated
    if bins * min_per_bin > len(records):
        raise InsufficientDataError(
            f"{len(records)} choices cannot fill {bins} gap bins of at least "
            f"{min_per_bin} choices each"
        )
    gaps = np.abs([r.delta_v for r in records])
    width = float(gaps.max()) / bins  # > 0: every gap kept exceeds TIE_EPS
    irrational = [_is_irrational(r.delta_v, r.verdict) for r in records]
    keys = np.minimum((gaps / width).astype(np.int64), bins - 1) * 2 + irrational

    totals, rates = _bin_rates(np.bincount(keys, minlength=2 * bins))
    thin = min(totals)
    if thin < min_per_bin:
        raise InsufficientDataError(
            f"thinnest gap bin holds {thin} choices; need at least {min_per_bin}"
        )
    centers = tuple((b + 0.5) * width for b in range(bins))
    estimate = _crossing(centers, rates, CRITICAL_IRRATIONAL_RATE)
    if estimate is None:
        return EpsilonEstimate(
            estimate=None,
            ci_low=None,
            ci_high=None,
            found=False,
            bin_centers=centers,
            bin_rates=tuple(rates),
        )

    rng = np.random.default_rng(_derived_seed(("epsilon-bootstrap", seed)))
    resampled = []
    m = len(keys)
    # one resample at a time: an iterations x m index matrix would cost
    # 8 * iterations * m bytes
    for _ in range(bootstrap_iterations):
        sample = keys[rng.integers(0, m, m)]
        _, rs = _bin_rates(np.bincount(sample, minlength=2 * bins))
        est = _crossing(centers, rs, CRITICAL_IRRATIONAL_RATE)
        # a crossing read off an emptied bin is NaN: no crossing either
        if est is not None and not math.isnan(est):
            resampled.append(est)
    ci_low = ci_high = None
    if len(resampled) >= max(20, bootstrap_iterations // 2):
        ci_low, ci_high = _quantiles(
            np.array(resampled), ((1 - CI_LEVEL) / 2, (1 + CI_LEVEL) / 2)
        )
    return EpsilonEstimate(
        estimate=estimate,
        ci_low=ci_low,
        ci_high=ci_high,
        found=True,
        bin_centers=centers,
        bin_rates=tuple(rates),
    )


# ---------------------------------------------------------------------------
# choice log serialization

CHOICE_LOG_FIELDS = ("delta_v", "verdict", "agent", "round", "episode")


def write_choice_log(records: Iterable[ChoiceRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CHOICE_LOG_FIELDS)
        for r in records:
            writer.writerow([r.delta_v, r.verdict.value, r.agent, r.round_index, r.episode])


def read_choice_log(path: str | Path) -> list[ChoiceRecord]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.append(
                ChoiceRecord(
                    delta_v=float(row["delta_v"]),
                    verdict=Verdict(row["verdict"]),
                    agent=int(row.get("agent") or 0),
                    round_index=int(row.get("round") or 0),
                    episode=int(row.get("episode") or 0),
                )
            )
    return out
