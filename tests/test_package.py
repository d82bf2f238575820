"""The package surface: lazy re-exports, and what importing a module loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import coalitions
from coalitions import bounds, dynamics, game, preferences, stability

SRC = Path(coalitions.__file__).resolve().parent.parent

#: every name the package re-exports, under the submodule that defines it
REEXPORTED = {
    game: (
        "AgentSpec", "CapabilityProfile", "Coalition", "EMPTY_COALITION", "GameSpec",
        "Partition", "builtin_game", "coalition_value", "check_potential_alignment",
        "load_game", "per_capita_value", "potential", "value_gap_delta",
    ),
    preferences: (
        "OracleKind", "OracleSpec", "PreferenceQuery", "Verdict", "answer",
        "answer_majority", "estimate_epsilon", "measure_consistency",
    ),
    stability: (
        "StabilityConcept", "StabilityReport", "bell_number", "enumerate_partitions",
        "find_nash_stable", "verify_core", "verify_individual", "verify_nash",
    ),
    dynamics: (
        "DeviationRule", "EpisodeConfig", "EpisodeLog", "EpisodeOutcome",
        "InitialPartition", "convergence_bound", "replay_file", "run_episode",
        "write_episode_log",
    ),
    bounds: (
        "BoundInputs", "BoundReport", "consistency_regression", "count_critical_decisions",
        "deterministic_preconditions_met", "estimate_gamma", "gamma_formula_bound",
        "scaling_prediction", "stability_lower_bound",
    ),
}


def modules_loaded_by(statement: str) -> set[str]:
    """The names in sys.modules after `statement` runs in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\n{statement}\nprint(*sys.modules, sep='\\n')"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    return set(done.stdout.split())


def test_the_oracle_stub_loads_no_engine_module_and_no_numpy():
    loaded = modules_loaded_by("import coalitions.oracle_stub")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.split(".")[0] == "coalitions"} == {
        "coalitions", "coalitions._version", "coalitions.oracle_stub",
    }


def test_the_harness_and_plugin_load_no_network_or_process_pool_stack():
    loaded = modules_loaded_by("import coalitions.experiments, coalitions.plugin")
    assert "coalitions.experiments" in loaded and "coalitions.plugin" in loaded
    assert not loaded & {"ssl", "http.client", "urllib.request", "multiprocessing"}


def test_all_holds_each_reexported_name_and_no_submodule():
    expected = sorted(name for names in REEXPORTED.values() for name in names)
    assert len(expected) == 47
    assert coalitions.__all__ == expected
    for module, names in REEXPORTED.items():
        for name in names:
            assert getattr(coalitions, name) is getattr(module, name)
    assert not {"bounds", "dynamics", "game", "preferences", "stability"} & set(coalitions.__all__)
    assert set(expected) | {"__version__"} <= set(dir(coalitions))
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        coalitions.nonesuch


def test_a_reexport_is_the_submodules_current_binding(monkeypatch):
    def patched(config):
        return None

    monkeypatch.setattr(dynamics, "run_episode", patched)
    assert coalitions.run_episode is patched
    monkeypatch.undo()
    assert coalitions.run_episode is dynamics.run_episode is not patched
