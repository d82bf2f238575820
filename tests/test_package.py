"""The package surface: lazy re-exports, what importing a module loads, and
the engine's slotted records."""

import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
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


#: the dataclasses whose instances keep a `__dict__`, and why
UNSLOTTED = {
    "GameSpec": "caches its hash in the instance dict; __getstate__ drops it from pickles",
    "OracleSpec": "its cached_property values live in the instance dict, and the CLI reads "
    "OracleSpec.epsilon as a class-level default",
    "EpisodeConfig": "Condition and sweep take EpisodeConfig.rule and .max_rounds as their "
    "defaults, which slots would turn into member descriptors",
}


def engine_dataclasses() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(coalitions.__path__):
        module = importlib.import_module(f"coalitions.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                if dataclasses.is_dataclass(obj):
                    found[name] = obj
    return found


def test_every_engine_dataclass_is_slotted_but_the_three_that_need_a_dict():
    classes = engine_dataclasses()
    assert len(classes) == 31
    with_dict = {name for name, cls in classes.items() if cls.__dictoffset__}
    assert with_dict == set(UNSLOTTED)
    for name, cls in classes.items():
        if name not in UNSLOTTED:
            assert "__slots__" in vars(cls), name


def test_slotted_records_round_trip_through_pickle_and_replace(six_mixed):
    log = dynamics.run_episode(
        dynamics.EpisodeConfig(
            game=six_mixed,
            oracles=(preferences.OracleSpec(kind=preferences.OracleKind.PERFECT),),
            initial=dynamics.InitialPartition(kind="random"),
            seed=5,
        )
    )
    record = preferences.ChoiceRecord(0.25, preferences.Verdict.PREFER_CANDIDATE, agent=2)
    for obj in (log.terminal_partition, log, record):
        assert not hasattr(obj, "__dict__")
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert dataclasses.replace(obj) == obj
    assert dataclasses.replace(record, episode=7).episode == 7
    moved = dataclasses.replace(log.terminal_partition, coalitions=(game.Coalition((1 << 6) - 1),))
    assert moved == game.Partition.from_blocks(6, [range(6)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.agent = 3
