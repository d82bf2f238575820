"""Static stability certification and partition enumeration.

Ground-truth verification compares per-capita values directly; behavioral
verification routes every deviation comparison through a preference oracle.
Each agent is checked against every other coalition of the partition plus
the solo move, which makes exactly n * |partition| checks.  One scan kernel
serves every user: `game.deviation_plan`, a per-agent list of those checks,
which `dynamics.run_episode` walks directly through its cache, and its flat
view `iter_deviation_checks` (re-exported here), which builds the plan
uncached and yields one check at a time to `verify_nash` (both modes),
`verify_individual`, `bounds.count_critical_decisions`,
`experiments.sample_queries` and `game.check_potential_alignment`.  The
early-exit `_nash_stable` predicate keeps its own loop: `find_nash_stable`
visits 115,975 distinct partitions at n = 10 and mostly exits after a few
checks, so building a whole plan per partition would cost more (see there).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence, TYPE_CHECKING

from .game import (
    Coalition,
    EnumerationBudgetError,
    GameSpec,
    Partition,
    TIE_EPS,
    _bell_number,
    iter_deviation_checks,
    iter_partition_blocks,
    mask_members,
    per_capita_table,
)

if TYPE_CHECKING:
    from .preferences import OracleSpec

MAX_ENUM_AGENTS = 12


class StabilityConcept(Enum):
    NASH = "nash"
    INDIVIDUAL = "individual"
    CORE = "core"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def bell_number(n: int) -> int:
    """Number of set partitions of n elements."""
    return _bell_number(n)


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
    episode_id: int = 0,
    round_index: int = 0,
    external=None,
) -> StabilityReport:
    """Certify Nash stability of a partition.

    Without an oracle this is the ground-truth check (direct value
    comparison).  With an oracle, each comparison is answered behaviorally
    via majority voting, which is how a run is verified when preferences are
    noisy.  The full scan always completes so queries_used is exactly
    n * |partition| either way.
    """
    if partition.n != game.n:
        raise ValueError("partition size does not match the game")
    if oracle is not None:
        from .preferences import PreferenceQuery, Verdict, answer_majority

    pc = per_capita_table(game)
    queries = 0
    witness = None
    for agent, own, target, joined in iter_deviation_checks(partition.masks):
        queries += 1
        if joined == own:
            continue
        if oracle is None:
            improves = pc[joined] - pc[own] > TIE_EPS
        else:
            q = PreferenceQuery(
                agent=agent, current=Coalition(own), candidate=Coalition(target)
            )
            verdict = answer_majority(
                oracle,
                game,
                q,
                ctx=("verify", episode_id, round_index, queries),
                external=external,
            ).verdict
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
    for agent, own, target, joined in iter_deviation_checks(partition.masks):
        queries += 1
        if joined == own or witness is not None:
            continue
        if pc[joined] - pc[own] <= TIE_EPS:
            continue
        if target and pc[joined] < pc[target] - TIE_EPS:
            continue  # receiving coalition objects
        witness = _witness(pc, agent, own, target, joined)
    return StabilityReport(
        concept=StabilityConcept.INDIVIDUAL,
        stable=witness is None,
        queries_used=queries,
        witness=witness,
    )


def verify_core(
    game: GameSpec,
    partition: Partition,
    max_block_size: int | None = None,
    budget: int = 2_000_000,
) -> StabilityReport:
    """Certify core stability by brute force over candidate blocking sets.

    A nonempty set T blocks when every member would earn strictly more in T
    standing alone than in its current coalition.
    """
    if partition.n != game.n:
        raise ValueError("partition size does not match the game")
    n = game.n
    max_block_size = n if max_block_size is None else min(max_block_size, n)
    total = sum(math.comb(n, k) for k in range(1, max_block_size + 1))
    if total > budget:
        raise EnumerationBudgetError(
            f"core check over {total} subsets exceeds the budget of {budget}"
        )
    pc = per_capita_table(game)
    current = [0.0] * n
    for c in partition.coalitions:
        for i in c.members:
            current[i] = pc[c.mask]
    queries = 0
    for size in range(1, max_block_size + 1):
        for combo in combinations(range(n), size):
            queries += 1
            mask = 0
            for i in combo:
                mask |= 1 << i
            share = pc[mask]
            if all(share > current[i] + TIE_EPS for i in combo):
                return StabilityReport(
                    concept=StabilityConcept.CORE,
                    stable=False,
                    queries_used=queries,
                    witness=BlockingSetWitness(
                        members=combo,
                        value_after=share,
                        values_before=tuple(current[i] for i in combo),
                    ),
                )
    return StabilityReport(
        concept=StabilityConcept.CORE, stable=True, queries_used=queries
    )


def is_nash_stable_masks(game: GameSpec, masks: Sequence[int]) -> bool:
    """Fast ground-truth Nash test on raw block masks (early exit)."""
    return _nash_stable(per_capita_table(game), masks)


def _nash_stable(pc: Sequence[float], masks: Sequence[int]) -> bool:
    # Its own loop, not the deviation plan: it exits at the first improving
    # move and builds no agent -> block map.  Routed through the generator,
    # find_nash_stable over the 115,975 partitions of n=10 ran about 6x
    # slower (about 4x with a lazy owner lookup); each of those partitions
    # is visited once, so a cached plan would only be built and evicted.
    for own in masks:
        bits = own
        while bits:
            agent_bit = bits & -bits
            bits &= bits - 1
            pc_own = pc[own]
            for target in masks:
                if target == own:
                    continue
                if pc[target | agent_bit] > pc_own + TIE_EPS:
                    return False
            if own != agent_bit and pc[agent_bit] > pc_own + TIE_EPS:
                return False
    return True


def find_nash_stable(game: GameSpec) -> list[Partition]:
    """All ground-truth Nash-stable partitions; may be empty."""
    if game.n > MAX_ENUM_AGENTS:
        raise EnumerationBudgetError(
            f"exhaustive search supports at most {MAX_ENUM_AGENTS} agents"
        )
    pc = per_capita_table(game)  # once: a cached lookup still hashes the game
    return [
        Partition.from_masks(game.n, blocks)
        for blocks in iter_partition_blocks(game.n)
        if _nash_stable(pc, blocks)
    ]
