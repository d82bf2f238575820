"""Static stability certification and partition enumeration.

Ground-truth verification compares per-capita values directly; behavioral
verification routes every deviation comparison through a preference oracle.
Each agent is checked against every other coalition of the partition plus
the solo move, which makes exactly n * |partition| checks.  One scan serves
every user: `game.deviation_plan`, a per-agent list of those checks, which
`dynamics.run_episode`, `verify_nash` (both modes), `verify_individual`,
`bounds.count_critical_decisions`, `experiments.sample_queries` and the
early-exit `_nash_stable` walk through its cache.  (Potential alignment
is a property of single moves, so `game.check_potential_alignment` walks
the (agent, S, T) triples instead.)  Every site states
"strictly prefers" in one form, `pc[x] - pc[y] > TIE_EPS`, the only form
`preferences.decide`, which sees just the difference, can share.

The core is a test on sets: T blocks when pc[T] - cur[i] > TIE_EPS for
every member i, cur[i] being i's current per-capita value.  Rounded
subtraction is monotone in the subtrahend, so the least of those
differences is exactly pc[T] minus the largest cur[i]: `verify_core`
compares every mask with `game._subset_max` of cur in one numpy pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterator, Sequence, TYPE_CHECKING

import numpy as np

from .game import (
    MAX_ENUM_AGENTS,
    EnumerationBudgetError,
    GameSpec,
    Partition,
    TIE_EPS,
    _subset_max,
    bell_number,
    deviation_plan,
    iter_partition_blocks,
    mask_coalition,
    mask_members,
    per_capita_table,
)

if TYPE_CHECKING:
    from .preferences import OracleSpec


class StabilityConcept(Enum):
    NASH = "nash"
    INDIVIDUAL = "individual"
    CORE = "core"


@dataclass(frozen=True, slots=True)
class DeviationWitness:
    """A profitable move certifying instability."""

    agent: int
    from_members: tuple[int, ...]
    to_members: tuple[int, ...]  # empty tuple means the agent goes solo
    value_before: float
    value_after: float

    def to_dict(self) -> dict:
        return {
            "agent": self.agent,
            "from": list(self.from_members),
            "to": list(self.to_members),
            "value_before": self.value_before,
            "value_after": self.value_after,
        }


@dataclass(frozen=True, slots=True)
class BlockingSetWitness:
    """A jointly deviating set certifying core instability."""

    members: tuple[int, ...]
    value_after: float
    values_before: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "blocking_set": list(self.members),
            "value_after": self.value_after,
            "values_before": list(self.values_before),
        }


@dataclass(frozen=True, slots=True)
class StabilityReport:
    concept: StabilityConcept
    stable: bool
    queries_used: int
    witness: DeviationWitness | BlockingSetWitness | None = None
    mode: str = "ground_truth"

    def to_dict(self) -> dict:
        return {
            "concept": self.concept.value,
            "stable": self.stable,
            "queries_used": self.queries_used,
            "mode": self.mode,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of agents 0..n-1 exactly once."""
    if n > MAX_ENUM_AGENTS:
        raise EnumerationBudgetError(
            f"partition enumeration supports at most {MAX_ENUM_AGENTS} agents "
            f"(Bell({n}) = {bell_number(n)})"
        )
    for blocks in iter_partition_blocks(n):
        yield Partition.from_masks(n, blocks)


@lru_cache(maxsize=None)
def _completions(remaining: int, open_blocks: int) -> int:
    # Ways to extend a restricted growth string with `remaining` items when
    # `open_blocks` blocks are already in use.
    if remaining == 0:
        return 1
    return open_blocks * _completions(remaining - 1, open_blocks) + _completions(
        remaining - 1, open_blocks + 1
    )


def random_partition(n: int, rng: random.Random) -> Partition:
    """Sample a partition of 0..n-1 uniformly over all Bell(n) partitions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    assignment = [0] * n
    open_blocks = 1
    for i in range(1, n):
        remaining = n - i - 1
        total = _completions(remaining + 1, open_blocks)
        pick = rng.randrange(total)
        weight_existing = _completions(remaining, open_blocks)
        if pick < open_blocks * weight_existing:
            assignment[i] = pick // weight_existing
        else:
            assignment[i] = open_blocks
            open_blocks += 1
    blocks = [0] * open_blocks
    for i, b in enumerate(assignment):
        blocks[b] |= 1 << i
    return Partition.from_masks(n, blocks)


def _witness(
    pc: Sequence[float], agent: int, own: int, target: int, joined: int
) -> DeviationWitness:
    return DeviationWitness(
        agent=agent,
        from_members=mask_members(own),
        to_members=mask_members(target),
        value_before=pc[own],
        value_after=pc[joined],
    )


def verify_nash(
    game: GameSpec,
    partition: Partition,
    oracle: "OracleSpec | None" = None,
    *,
    external=None,
) -> StabilityReport:
    """Certify Nash stability of a partition.

    Without an oracle this is the ground-truth check (direct value
    comparison).  With an oracle, each comparison is answered behaviorally
    via majority voting, which is how a run is verified when preferences are
    noisy.  The full scan always completes so queries_used is exactly
    n * |partition| either way.  The answer to the i-th check (from 1) is
    drawn at ctx ("verify", 0, 0, i).
    """
    if partition.n != game.n:
        raise ValueError("partition size does not match the game")
    if oracle is not None:
        from .preferences import PreferenceQuery, Verdict, answer_majority

    pc = per_capita_table(game)
    queries = 0
    witness = None
    for agent, own, targets in deviation_plan(partition.masks):
        for target in targets:
            queries += 1
            joined = target | 1 << agent
            if joined == own:
                continue
            if oracle is None:
                improves = pc[joined] - pc[own] > TIE_EPS
            else:
                q = PreferenceQuery(
                    agent=agent, current=mask_coalition(own), candidate=mask_coalition(target)
                )
                verdict = answer_majority(
                    oracle,
                    game,
                    q,
                    ctx=("verify", 0, 0, queries),
                    external=external,
                )
                improves = verdict is Verdict.PREFER_CANDIDATE
            if improves and witness is None:
                witness = _witness(pc, agent, own, target, joined)
    return StabilityReport(
        concept=StabilityConcept.NASH,
        stable=witness is None,
        queries_used=queries,
        witness=witness,
        mode="ground_truth" if oracle is None else "behavioral",
    )


def verify_individual(game: GameSpec, partition: Partition) -> StabilityReport:
    """Certify individual stability (ground truth).

    A deviation counts only when it strictly improves the deviator and no
    member of the receiving coalition strictly loses per capita.  Solo moves
    have no receiving members to object.
    """
    if partition.n != game.n:
        raise ValueError("partition size does not match the game")
    pc = per_capita_table(game)
    queries = 0
    witness = None
    for agent, own, targets in deviation_plan(partition.masks):
        for target in targets:
            queries += 1
            joined = target | 1 << agent
            if joined == own or witness is not None:
                continue
            if pc[joined] - pc[own] <= TIE_EPS:
                continue
            if target and pc[target] - pc[joined] > TIE_EPS:
                continue  # receiving coalition objects
            witness = _witness(pc, agent, own, target, joined)
    return StabilityReport(
        concept=StabilityConcept.INDIVIDUAL,
        stable=witness is None,
        queries_used=queries,
        witness=witness,
    )


def verify_core(game: GameSpec, partition: Partition) -> StabilityReport:
    """Certify core stability (ground truth) in one pass over all 2**n - 1 sets.

    A nonempty set T blocks when every member would earn strictly more in T
    standing alone than in its current coalition (see the module docstring).
    The witness is the first blocking set in (size, lexicographic) order and
    queries_used its rank; a stable partition uses all 2**n - 1.
    """
    if partition.n != game.n:
        raise ValueError("partition size does not match the game")
    n = game.n
    pc = per_capita_table(game)
    current = [0.0] * n
    for c in partition.coalitions:
        for i in c.members:
            current[i] = pc[c.mask]
    # mask 0: nan - (-inf) is nan, which never blocks
    blocks = np.frombuffer(pc) - _subset_max(np.array(current)) > TIE_EPS
    if not blocks.any():
        return StabilityReport(
            concept=StabilityConcept.CORE, stable=True, queries_used=(1 << n) - 1
        )
    candidates = chain.from_iterable(combinations(range(n), k) for k in range(1, n + 1))
    rank, members = next(
        (rank, combo)
        for rank, combo in enumerate(candidates, 1)
        if blocks[sum(1 << i for i in combo)]
    )
    return StabilityReport(
        concept=StabilityConcept.CORE,
        stable=False,
        queries_used=rank,
        witness=BlockingSetWitness(
            members=members,
            value_after=pc[sum(1 << i for i in members)],
            values_before=tuple(current[i] for i in members),
        ),
    )


def is_nash_stable_masks(game: GameSpec, masks: Sequence[int]) -> bool:
    """Fast ground-truth Nash test on raw block masks (early exit)."""
    return _nash_stable(per_capita_table(game), masks)


def _nash_stable(pc: Sequence[float], masks: Sequence[int]) -> bool:
    for agent, own, targets in deviation_plan(tuple(masks)):
        for target in targets:
            if pc[target | 1 << agent] - pc[own] > TIE_EPS:
                return False
    return True


def _content(pc: Sequence[float], own: int, target: int) -> bool:
    """No member of block `own` strictly prefers joining `target` (0: going solo)."""
    return not any(pc[target | 1 << a] - pc[own] > TIE_EPS for a in mask_members(own))


def _stable_blocks(pc: Sequence[float], n: int) -> list[tuple[int, ...]]:
    """The blocks of each Nash-stable partition of 0..n-1 (see find_nash_stable)."""

    def place(placed: tuple[int, ...], rest: int) -> Iterator[tuple[int, ...]]:
        if not rest:
            yield placed
        low = rest & -rest
        block = rest
        while block:  # each subset of the unplaced agents that holds the lowest
            if block & low and _content(pc, block, 0) and all(
                _content(pc, block, other) and _content(pc, other, block) for other in placed
            ):
                yield from place(placed + (block,), rest ^ block)
            block = (block - 1) & rest

    def growth_string(blocks: tuple[int, ...]) -> list[int]:  # iter_partition_blocks' order
        return [i for a in range(n) for i, b in enumerate(blocks) if b >> a & 1]

    return sorted(place((), (1 << n) - 1), key=growth_string)


def find_nash_stable(game: GameSpec) -> list[Partition]:
    """All ground-truth Nash-stable partitions, in `iter_partition_blocks` order.

    Nash stability is a test on pairs of blocks (Bogomolnaia & Jackson 2002):
    no member of either strictly prefers joining the other, and none going
    solo.  So the search places one block at a time and prunes at the first
    failing pair.  Deciding whether any exists is NP-complete for general
    hedonic games (Ballester 2004), so the search is exponential in the
    worst case.  MAX_ENUM_AGENTS stays: when every coalition ties (agent i's
    profile e_i, d = n, beta = 1), all Bell(n) partitions are stable.
    """
    if game.n > MAX_ENUM_AGENTS:
        raise EnumerationBudgetError(
            f"exhaustive search supports at most {MAX_ENUM_AGENTS} agents"
        )
    # once, as a list: each index into the array('d') would box a new float
    pc = per_capita_table(game).tolist()
    return [Partition.from_masks(game.n, blocks) for blocks in _stable_blocks(pc, game.n)]
