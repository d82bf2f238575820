"""Game instances and the coalition value function.

A game is a roster of agents with capability profiles in [0, 1]^d plus the
coordination-cost parameters of the value function.  A coalition's value is
the mean of the componentwise maximum of its members' profiles minus a
superlinear size cost alpha * k**beta; agents compare coalitions by the
per-capita share of that value.  This is the engine's only value function.
Since the cost depends on size alone, an agent whose profile dominates
another's never adds less value to any coalition (capability monotonicity
holds by construction; see bounds.deterministic_preconditions_met).

Coalitions are bitmasks over agent ids, so set operations are O(1) and every
structural check below reduces to integer arithmetic over a precomputed
value table.  That table holds all 2**n coalitions, which bounds games to
MAX_AGENTS agents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from importlib import resources
from itertools import chain
from operator import or_
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

TIE_EPS = 1e-12
DEDUP_EPS = 1e-9
# the value table's limit: 2**20 masks, ~32 MB per cached table of floats
MAX_AGENTS = 20
DEFAULT_ALPHA = 0.15
DEFAULT_BETA = 1.3


class EnumerationBudgetError(ValueError):
    """Raised when an exhaustive check would exceed its configured cap."""


@dataclass(frozen=True)
class CapabilityProfile:
    """Skill vector of one agent, every entry in [0, 1]."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for v in self.values:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"capability scores must lie in [0, 1], got {v}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


@dataclass(frozen=True)
class AgentSpec:
    """One agent: a small integer id, a free-text label, and a profile.

    The label typically records model/configuration metadata; it plays no
    role in any value computation.
    """

    id: int
    label: str
    profile: CapabilityProfile


@dataclass(frozen=True)
class GameSpec:
    """A full game instance: agents plus value-function parameters."""

    agents: tuple[AgentSpec, ...]
    d: int
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        n = len(self.agents)
        if n < 1:
            raise ValueError("a game needs at least one agent")
        if n > MAX_AGENTS:
            raise ValueError(f"at most {MAX_AGENTS} agents supported, got {n}")
        if [a.id for a in self.agents] != list(range(n)):
            raise ValueError("agent ids must be 0..n-1 in order")
        for a in self.agents:
            if len(a.profile) != self.d:
                raise ValueError(
                    f"agent {a.id} profile has length {len(a.profile)}, expected d={self.d}"
                )
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if not self.beta >= 1:
            raise ValueError("beta must be >= 1")

    def __hash__(self) -> int:
        # cached: every value_table / per_capita_table lookup hashes the game
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.agents, self.d, self.alpha, self.beta))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # a hash is only valid under the PYTHONHASHSEED that made it
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def n(self) -> int:
        return len(self.agents)

    def profile(self, agent: int) -> CapabilityProfile:
        return self.agents[agent].profile

    @classmethod
    def from_profiles(
        cls,
        profiles: Sequence[Sequence[float]],
        alpha: float = DEFAULT_ALPHA,
        beta: float = DEFAULT_BETA,
        labels: Sequence[str] | None = None,
    ) -> "GameSpec":
        if not profiles:
            raise ValueError("a game needs at least one agent")
        d = len(profiles[0])
        agents = tuple(
            AgentSpec(
                id=i,
                label=labels[i] if labels else f"agent-{i}",
                profile=CapabilityProfile(tuple(p)),
            )
            for i, p in enumerate(profiles)
        )
        return cls(agents=agents, d=d, alpha=alpha, beta=beta)

    def with_params(self, **kwargs) -> "GameSpec":
        return replace(self, **kwargs)


@lru_cache(maxsize=1 << 14)
def mask_members(mask: int) -> tuple[int, ...]:
    """Ascending agent ids of a coalition bitmask.

    Every mask-to-members expansion goes through here.  The cache is bounded
    because a game of MAX_AGENTS agents has 2**20 masks.
    """
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


@dataclass(frozen=True)
class Coalition:
    """A set of agent ids, stored as a bitmask."""

    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("coalition mask must be non-negative")

    @classmethod
    def of(cls, members: Iterable[int]) -> "Coalition":
        mask = 0
        for m in members:
            if m < 0 or m >= MAX_AGENTS:
                raise ValueError(f"agent id {m} out of range")
            mask |= 1 << m
        return cls(mask)

    @property
    def members(self) -> tuple[int, ...]:
        return mask_members(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, agent: int) -> bool:
        return bool(self.mask >> agent & 1)

    def __iter__(self):
        return iter(self.members)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __repr__(self) -> str:
        return f"Coalition({set(self.members) if self.mask else '{}'})"


# Sentinel target for "the agent goes solo" in deviation comparisons.
EMPTY_COALITION = Coalition(0)


@dataclass(frozen=True)
class Partition:
    """An exclusive coalition structure over agents 0..n-1.

    Coalitions are stored in canonical order (ascending smallest member), so
    two partitions with the same blocks compare and hash equal.
    """

    n: int
    coalitions: tuple[Coalition, ...]

    def __post_init__(self) -> None:
        blocks = tuple(sorted(self.coalitions, key=lambda c: c.mask & -c.mask))
        object.__setattr__(self, "coalitions", blocks)
        union = 0
        for c in blocks:
            if c.is_empty:
                raise ValueError("partitions may not contain an empty coalition")
            if union & c.mask:
                raise ValueError("coalitions must be pairwise disjoint")
            union |= c.mask
        if union != (1 << self.n) - 1:
            raise ValueError(f"coalitions must cover exactly agents 0..{self.n - 1}")

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        return cls(n, tuple(Coalition.of(b) for b in blocks))

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Partition":
        return cls(n, tuple(Coalition(m) for m in masks))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, tuple(Coalition(1 << i) for i in range(n)))

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(c.mask for c in self.coalitions)

    def blocks(self) -> list[list[int]]:
        return [list(c.members) for c in self.coalitions]

    def __len__(self) -> int:
        return len(self.coalitions)

    def __iter__(self):
        return iter(self.coalitions)

    def __repr__(self) -> str:
        return "Partition(" + " | ".join(str(set(c.members)) for c in self.coalitions) + ")"


def _as_mask(coalition: Coalition | int) -> int:
    return coalition.mask if isinstance(coalition, Coalition) else int(coalition)


def _aggregate_mean(game: GameSpec, mask: int) -> float:
    profiles = [game.agents[i].profile.values for i in range(game.n) if mask >> i & 1]
    # added left to right like the value table; sum() compensates on
    # Python >= 3.12 and would differ from it in the last bit
    total = 0.0
    for column in zip(*profiles):
        total += max(column)
    return total / game.d


def coalition_value(game: GameSpec, coalition: Coalition | int) -> float:
    """Value of a coalition: aggregated capability minus coordination cost."""
    mask = _as_mask(coalition)
    if mask == 0:
        raise ValueError("empty coalition has no value")
    if mask >> game.n:
        raise ValueError("coalition contains agents outside the game")
    k = mask.bit_count()
    return _aggregate_mean(game, mask) - game.alpha * k**game.beta


def per_capita_value(game: GameSpec, coalition: Coalition | int, agent: int) -> float:
    """Equal share of the coalition value; the quantity agents compare."""
    mask = _as_mask(coalition)
    if not mask >> agent & 1:
        raise ValueError(f"agent {agent} is not a member of the coalition")
    return coalition_value(game, mask) / mask.bit_count()


def potential(game: GameSpec, partition: Partition) -> float:
    """Sum of coalition values over the partition."""
    if partition.n != game.n:
        raise ValueError("partition size does not match the game")
    return sum(coalition_value(game, c) for c in partition.coalitions)


# The value kernel works in blocks of 2**BLOCK_BITS masks (32 KB of float64).
# Arrays spanning the whole 2**n table, freed once the table was built, left
# holes in the heap: about 4 MB more peak memory for one n = 18 game.
BLOCK_BITS = 12


def _mask_sizes(n: int) -> np.ndarray:
    """Member count of every mask 0..2**n - 1, by the subset DP."""
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        lo = 1 << i
        np.add(sizes[:lo], 1, out=sizes[lo : 2 * lo])
    return sizes


def _subset_max(column: np.ndarray) -> np.ndarray:
    """out[m] = max of column[i] over the bits i of m, -inf at m = 0."""
    out = np.empty(1 << len(column))
    out[0] = -math.inf
    for i, x in enumerate(column):
        lo = 1 << i
        np.maximum(out[:lo], x, out=out[lo : 2 * lo])
    return out


def _value_blocks(game: GameSpec) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """coalition_value of every mask, as (first mask, values, sizes) blocks.

    A subset DP takes each dimension's componentwise max over the low
    BLOCK_BITS agents and, separately, over the rest; the block for high
    bits h combines h's maxima with every low maximum.  Entries equal
    coalition_value bit for bit: max is exact in any order, the dimensions
    are added left to right, and the size cost is the same Python
    expression, looked up by member count.  Mask 0 holds nan and size 0.
    """
    b = min(game.n, BLOCK_BITS)
    profiles = np.array([a.profile.values for a in game.agents])
    # per dimension: the max over the low agents and over the others
    maxima = [
        (_subset_max(profiles[:b, j]), _subset_max(profiles[b:, j])) for j in range(game.d)
    ]
    cost = np.array([game.alpha * k**game.beta for k in range(game.n + 1)])
    low_sizes, high_sizes = _mask_sizes(b), _mask_sizes(game.n - b)
    for h in range(1 << (game.n - b)):
        total = np.zeros(1 << b)
        for low, high in maxima:
            total += np.maximum(low, high[h])
        total /= game.d
        sizes = low_sizes + high_sizes[h]
        total -= cost[sizes]
        if h == 0:
            total[0] = math.nan  # the empty coalition has no value
        yield h << b, total, sizes


def _table(blocks: Iterator[np.ndarray]) -> tuple[float, ...]:
    # grown in place, without a list of the whole table beside it
    return tuple(chain.from_iterable(block.tolist() for block in blocks))


@lru_cache(maxsize=64)
def value_table(game: GameSpec) -> tuple[float, ...]:
    """Coalition values for every nonempty mask, indexed by mask.

    Index 0 holds nan (the empty coalition has no value).  Built in numpy by
    a subset DP over bitmasks (see _value_blocks): O(2**n * d) array work,
    entries equal to coalition_value exactly.  n <= MAX_AGENTS bounds it.
    """
    return _table((values for _, values, _ in _value_blocks(game)))


@lru_cache(maxsize=64)
def per_capita_table(game: GameSpec) -> tuple[float, ...]:
    """Per-capita coalition values for every nonempty mask, indexed by mask."""
    return _table((values / sizes for _, values, sizes in _value_blocks(game)))


def count_coalitions(n: int, max_size: int) -> int:
    return sum(math.comb(n, k) for k in range(1, min(max_size, n) + 1))


def value_gap_delta(
    game: GameSpec,
    max_size: int = 4,
    budget: int = 2_000_000,
) -> float:
    """Minimum nonzero per-capita value separation seen by any single agent.

    Takes, for each agent, the per-capita values of every coalition of
    size <= max_size containing it, merges values closer than DEDUP_EPS, and
    returns the smallest surviving gap.  Returns math.inf when every agent
    sees a single distinct value.

    On profiles whose entries lie on a grid g, a size-only cost cancels
    between two coalitions of equal size k, so their per-capita values differ
    by a multiple of g / (d * k) whatever alpha is.  Hence delta <=
    g / (d * max_size) as soon as two such coalitions of size max_size that
    share an agent differ by one grid step in their summed capabilities; on
    six_mixed (g = 0.01, d = 3) delta is 1/1200 at every alpha.
    """
    if count_coalitions(game.n, max_size) > budget:
        raise EnumerationBudgetError(
            f"value-gap enumeration over {count_coalitions(game.n, max_size)} "
            f"coalitions exceeds the budget of {budget}"
        )
    masks, per_capita = [], []
    for first, values, sizes in _value_blocks(game):
        kept = np.flatnonzero((sizes > 0) & (sizes <= max_size))
        masks.append(kept + first)
        per_capita.append(values[kept] / sizes[kept])
    masks, per_capita = np.concatenate(masks), np.concatenate(per_capita)
    best = math.inf
    for agent in range(game.n):
        gaps = np.diff(np.sort(per_capita[(masks >> agent) & 1 == 1]))
        gaps = gaps[gaps > DEDUP_EPS]
        if gaps.size:
            best = min(best, float(gaps.min()))
    return best


def coalition_value_bounds(
    game: GameSpec, max_size: int | None = None
) -> tuple[float, float]:
    """(min v(S), max v(S)) over nonempty coalitions of size <= max_size."""
    max_size = game.n if max_size is None else max_size
    lo, hi = math.inf, -math.inf
    for _, values, sizes in _value_blocks(game):
        kept = values[(sizes > 0) & (sizes <= max_size)]
        lo = min(lo, float(kept.min(initial=math.inf)))
        hi = max(hi, float(kept.max(initial=-math.inf)))
    return lo, hi


def coalition_value_range(game: GameSpec, max_size: int | None = None) -> float:
    """max v(S) - min v(S) over nonempty coalitions of size <= max_size."""
    lo, hi = coalition_value_bounds(game, max_size)
    return hi - lo


@dataclass(frozen=True)
class AlignmentWitness:
    partition: Partition
    agent: int
    target_members: tuple[int, ...]
    per_capita_before: float
    per_capita_after: float
    potential_before: float
    potential_after: float


@dataclass(frozen=True)
class AlignmentReport:
    passed: bool
    partitions_checked: int
    deviations_checked: int
    witness: AlignmentWitness | None = None


def iter_partition_blocks(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of 0..n-1 as tuples of bitmasks.

    Restricted-growth-string order; within a partition, blocks are ordered by
    smallest member.  Yields Bell(n) tuples.
    """
    if n <= 0:
        yield ()
        return
    a = [0] * n
    m = [0] * n
    while True:
        blocks = [0] * (m[n - 1] + 1)
        for i, ai in enumerate(a):
            blocks[ai] |= 1 << i
        yield tuple(blocks)
        i = n - 1
        while i > 0 and a[i] == m[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        m[i] = max(m[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            m[j] = m[j - 1]


@lru_cache(maxsize=1 << 8)
def deviation_plan(masks: tuple[int, ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The deviation scan of a partition as data: `(agent, own, targets)`
    for each agent, in ascending agent order, so `plan[agent]` is its entry.

    `masks` are the blocks of a partition of agents 0..n-1.  `targets` holds
    the blocks other than `own` in the given order, then 0 for the solo
    move; all members of a block share one targets tuple.  The solo move of
    an agent already alone is a self-comparison (`target | 1 << agent ==
    own`); it stays in the plan so every scan makes exactly n * |partition|
    checks.  Cached for the episode loop: improving dynamics keep returning
    to the same partitions (about 89 % of the paper manifest's ~93k scans
    hit a cache of this size; 91 % at four times the size).  One-shot scans
    build the plan uncached, through `iter_deviation_checks`.
    """
    n = sum(map(int.bit_count, masks))
    if reduce(or_, masks, 0) != (1 << n) - 1:
        raise ValueError(f"masks {masks} do not partition agents 0..{n - 1}")
    entries: list = [None] * n
    for i, own in enumerate(masks):
        targets = masks[:i] + masks[i + 1 :] + (0,)
        for agent in mask_members(own):
            entries[agent] = (agent, own, targets)
    return tuple(entries)


def iter_deviation_checks(
    masks: Sequence[int], agents: Iterable[int] | None = None
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (agent, own, target, joined) for every deviation comparison.

    The flat view of `deviation_plan(masks)`: `joined` is
    `target | 1 << agent`.  Agents come in `agents` order (default:
    ascending ids); each agent's targets are the other blocks in the given
    order, then the solo move (target 0).
    """
    # Uncached: one-shot callers (exhaustive sweeps, verification) visit
    # each partition once, so the cache would only miss, then evict the
    # entries the episode loop keeps returning to.
    plan = deviation_plan.__wrapped__(tuple(masks))
    for agent, own, targets in plan if agents is None else map(plan.__getitem__, agents):
        bit = 1 << agent
        for target in targets:
            yield agent, own, target, target | bit


def check_potential_alignment(
    game: GameSpec,
    partition_cap: int = 150_000,
) -> AlignmentReport:
    """Check that every strictly improving deviation strictly raises Phi.

    Exhausts all partitions; fails with the first witness where an agent's
    per-capita value improves but the total value does not strictly increase
    (a zero change counts as a failure).  Self-comparisons are not counted
    as deviations.
    """
    bell = _bell_number(game.n)
    if bell > partition_cap:
        raise EnumerationBudgetError(
            f"alignment check over {bell} partitions exceeds the cap of {partition_cap}"
        )
    vals = value_table(game)
    pc = per_capita_table(game)
    n = game.n
    partitions = 0
    deviations = 0
    for blocks in iter_partition_blocks(n):
        partitions += 1
        phi = sum(vals[b] for b in blocks)
        for agent, own, target, joined in iter_deviation_checks(blocks):
            if joined == own:
                continue
            deviations += 1
            if pc[joined] <= pc[own] + TIE_EPS:
                continue
            rest = own & ~(1 << agent)
            phi_new = (
                phi
                - vals[own]
                - (vals[target] if target else 0.0)
                + vals[joined]
                + (vals[rest] if rest else 0.0)
            )
            if phi_new <= phi + TIE_EPS:
                return AlignmentReport(
                    passed=False,
                    partitions_checked=partitions,
                    deviations_checked=deviations,
                    witness=AlignmentWitness(
                        partition=Partition.from_masks(n, blocks),
                        agent=agent,
                        target_members=mask_members(target),
                        per_capita_before=pc[own],
                        per_capita_after=pc[joined],
                        potential_before=phi,
                        potential_after=phi_new,
                    ),
                )
    return AlignmentReport(
        passed=True, partitions_checked=partitions, deviations_checked=deviations
    )


@lru_cache(maxsize=None)
def _bell_number(n: int) -> int:
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[-1]


# ---------------------------------------------------------------------------
# serialization

def game_to_dict(game: GameSpec) -> dict:
    return {
        "d": game.d,
        "alpha": game.alpha,
        "beta": game.beta,
        "agents": [
            {"id": a.id, "label": a.label, "profile": list(a.profile.values)}
            for a in game.agents
        ],
    }


def game_from_dict(data: dict) -> GameSpec:
    if not isinstance(data, dict):
        raise ValueError("a game must be a JSON object")
    # the value function is fixed; the optional key only names it
    aggregation = data.get("aggregation", "componentwise_max")
    if aggregation != "componentwise_max":
        raise ValueError(
            f"unsupported aggregation {aggregation!r}: only 'componentwise_max' is defined"
        )
    agents = tuple(
        AgentSpec(
            id=int(a["id"]),
            label=str(a.get("label", f"agent-{a['id']}")),
            profile=CapabilityProfile(tuple(a["profile"])),
        )
        for a in sorted(data["agents"], key=lambda a: a["id"])
    )
    return GameSpec(
        agents=agents,
        d=int(data["d"]),
        alpha=float(data.get("alpha", DEFAULT_ALPHA)),
        beta=float(data.get("beta", DEFAULT_BETA)),
    )


def load_game(path: str | Path) -> GameSpec:
    with open(path, encoding="utf-8") as fh:
        return game_from_dict(json.load(fh))


def save_game(game: GameSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(game_to_dict(game), indent=2) + "\n", encoding="utf-8")


def partition_from_dict(data: dict, n: int | None = None) -> Partition:
    if not isinstance(data, dict):
        raise ValueError('a partition must be a JSON object with a "coalitions" list')
    blocks = data["coalitions"]
    if n is None:
        n = data.get("n") or sum(len(b) for b in blocks)
    return Partition.from_blocks(int(n), blocks)


def load_partition(path: str | Path, n: int | None = None) -> Partition:
    with open(path, encoding="utf-8") as fh:
        return partition_from_dict(json.load(fh), n=n)


def builtin_game(name: str) -> GameSpec:
    """Load one of the packaged reference games.

    Available: "six_mixed" (six agents, three skill dimensions),
    "trio_specialists" (three complementary specialists),
    "dominated_pair" (two agents on one dimension, no stable partition).
    """
    ref = resources.files("coalitions.data").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ValueError(f"unknown builtin game {name!r}")
    return game_from_dict(json.loads(ref.read_text(encoding="utf-8")))
