"""Deterministic engine for coalition formation games.

Agents carry capability profiles; coalition values trade capability
coverage against coordination costs; bounded-rational oracles answer
deviation queries; improving dynamics run seeded, replayable episodes; and
the stability, bound, and experiment layers certify and aggregate outcomes.

The names below are re-exported from their submodules.  Each is looked up
on access (PEP 562), so importing the package imports no submodule, and
`coalitions.<name>` is always the submodule's current binding.
"""

from importlib import import_module as _import_module

from ._version import ENGINE_VERSION as __version__

#: each re-exported name, under the submodule that defines it
_EXPORTS = {
    "game": (
        "AgentSpec", "CapabilityProfile", "Coalition", "EMPTY_COALITION", "GameSpec",
        "Partition", "builtin_game", "coalition_value", "check_potential_alignment",
        "load_game", "per_capita_value", "potential", "value_gap_delta",
    ),
    "preferences": (
        "OracleKind", "OracleSpec", "PreferenceQuery", "Verdict", "answer",
        "answer_majority", "estimate_epsilon", "measure_consistency",
    ),
    "stability": (
        "StabilityConcept", "StabilityReport", "bell_number", "enumerate_partitions",
        "find_nash_stable", "verify_core", "verify_individual", "verify_nash",
    ),
    "dynamics": (
        "DeviationRule", "EpisodeConfig", "EpisodeLog", "EpisodeOutcome",
        "InitialPartition", "convergence_bound", "replay_file", "run_episode",
        "write_episode_log",
    ),
    "bounds": (
        "BoundInputs", "BoundReport", "consistency_regression", "count_critical_decisions",
        "deterministic_preconditions_met", "estimate_gamma", "gamma_formula_bound",
        "scaling_prediction", "stability_lower_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
