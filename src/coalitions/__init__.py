"""Deterministic engine for coalition formation games.

Agents carry capability profiles; coalition values trade capability
coverage against coordination costs; bounded-rational oracles answer
deviation queries; improving dynamics run seeded, replayable episodes; and
the stability, bound, and experiment layers certify and aggregate outcomes.
"""

from ._version import ENGINE_VERSION as __version__
from .game import (
    AgentSpec,
    CapabilityProfile,
    Coalition,
    EMPTY_COALITION,
    GameSpec,
    Partition,
    builtin_game,
    coalition_value,
    check_potential_alignment,
    load_game,
    per_capita_value,
    potential,
    value_gap_delta,
)
from .preferences import (
    OracleKind,
    OracleSpec,
    PreferenceQuery,
    Verdict,
    answer,
    answer_majority,
    estimate_epsilon,
    measure_consistency,
)
from .stability import (
    StabilityConcept,
    StabilityReport,
    bell_number,
    enumerate_partitions,
    find_nash_stable,
    verify_core,
    verify_individual,
    verify_nash,
)
from .dynamics import (
    DeviationRule,
    EpisodeConfig,
    EpisodeLog,
    EpisodeOutcome,
    InitialPartition,
    convergence_bound,
    replay_file,
    run_episode,
    write_episode_log,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    consistency_regression,
    count_critical_decisions,
    deterministic_preconditions_met,
    estimate_gamma,
    gamma_formula_bound,
    scaling_prediction,
    stability_lower_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
