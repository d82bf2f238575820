"""Span tracer that times the engine's public functions from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
namespace that holds it: the defining module, every `coalitions` module that
imported it with `from .x import y`, and the benchmark's own modules.
Methods are replaced on their class.  Each call records one span (name,
start, end, parent) in flat arrays kept in memory; `uninstall()` restores
the originals and `layer_metrics()` folds the spans into the per-layer
metrics that BENCHMARK.json declares.  Nothing inside `src/` is modified.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute) of every traced function; a dotted attribute names a
# method on a class.  The span name is "<module>.<function or method>".
TRACED = (
    ("game", "value_table"),
    ("game", "per_capita_table"),
    ("game", "value_gap_delta"),
    ("game", "coalition_value_range"),
    ("stability", "find_nash_stable"),
    ("stability", "verify_nash"),
    ("stability", "verify_individual"),
    ("stability", "verify_core"),
    ("stability", "is_nash_stable_masks"),
    ("stability", "random_partition"),
    ("preferences", "decide"),
    ("preferences", "measure_consistency"),
    ("preferences", "estimate_epsilon"),
    ("dynamics", "run_episode"),
    ("dynamics", "convergence_bound"),
    ("dynamics", "episode_log_lines"),
    ("dynamics", "replay_file"),
    ("experiments", "run_condition"),
    ("experiments", "sweep"),
    ("experiments", "bootstrap_ci"),
    ("experiments", "sample_queries"),
    ("experiments", "atomic_write"),
    ("bounds", "measure_bound_inputs"),
    ("plugin", "ExternalSession.ask"),
    ("plugin", "render_prompt"),
    ("plugin", "StdioEndpoint.exchange"),
)

class Tracer:
    """Records spans and counters for the traced functions of one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counters: dict[str, int] = {}
        # open spans: [index, time covered by finished children]
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> list:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self.self_time.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.start.append(perf_counter())
        return frame

    def _close(self, frame: list) -> None:
        t = perf_counter()
        idx, covered = frame
        self._stack.pop()
        dur = t - self.start[idx]
        self.end[idx] = t
        self.self_time[idx] = dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(args, None, exc)
                raise
            finally:
                tracer._close(frame)
            if observe is not None:
                observe(args, result, None)
            return result

        return traced

    def _wrap_context(self, name: str, fn, observe):
        tracer = self

        @contextmanager
        def traced(path, *args, **kwargs):
            frame = tracer._open(name)
            try:
                with fn(path, *args, **kwargs) as handle:
                    yield handle
            finally:
                tracer._close(frame)
            observe((path,), None, None)

        return traced

    # -- observers: counts measured at the same boundaries -----------------

    def _observers(self):
        import coalitions.game as game
        from coalitions.plugin import OracleTransportError
        from coalitions.preferences import OracleParseFailure
        from coalitions.stability import bell_number

        value_table = game.value_table
        misses_seen = [value_table.cache_info().misses]

        def table_masks(args, result, exc):
            misses = value_table.cache_info().misses
            if result is not None and misses != misses_seen[0]:
                misses_seen[0] = misses
                self.count("game.value_table.masks", len(result) - 1)

        def partitions(args, result, exc):
            self.count("stability.find_nash_stable.partitions", bell_number(args[0].n))

        def episode(args, log, exc):
            if log is not None:
                self.count("dynamics.run_episode.queries", log.summary.n_queries)
                self.count("dynamics.run_episode.rounds", log.round_count)
                self.count("dynamics.run_episode.deviations", log.deviation_count)
                self.count("dynamics.run_episode.stable", log.outcome.value == "nash_stable")

        def log_bytes(args, lines, exc):
            if lines is not None:
                self.count("dynamics.episode_log_lines.bytes", sum(len(x) + 1 for x in lines))

        def replay_lines(args, report, exc):
            if report is not None:
                self.count("dynamics.replay_file.lines", report.lines_checked)

        def write_bytes(args, result, exc):
            path = Path(args[0])
            if path.exists():
                self.count("experiments.write.bytes", path.stat().st_size)

        def ask_errors(args, result, exc):
            if isinstance(exc, OracleParseFailure):
                self.count("plugin.parse_failures")
            elif isinstance(exc, OracleTransportError):
                self.count("plugin.transport_errors")

        return {
            "game.value_table": table_masks,
            "stability.find_nash_stable": partitions,
            "dynamics.run_episode": episode,
            "dynamics.episode_log_lines": log_bytes,
            "dynamics.replay_file": replay_lines,
            "experiments.atomic_write": write_bytes,
            "plugin.ask": ask_errors,
        }

    # -- installation -----------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Rebind every traced function wherever the engine or the
        benchmark's own modules hold a reference to it."""
        observers = self._observers()
        holders = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "coalitions" or name.startswith("coalitions."))
        ] + list(extra_modules)
        for module_name, attr in TRACED:
            module = importlib.import_module(f"coalitions.{module_name}")
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original, observers.get(name)))
                continue
            original = getattr(module, attr)
            if attr == "atomic_write":
                wrapper = self._wrap_context(name, original, observers[name])
            else:
                wrapper = self._wrap(name, original, observers.get(name))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span to a compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            self_s=np.frombuffer(self.self_time),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Fold spans and counters into the per-layer metrics (all but the
        tracing overhead, which needs an untraced run to compare with)."""
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        self_s = np.frombuffer(self.self_time)

        def pick(name):
            nid = self._ids.get(name)
            return np.zeros(0) if nid is None else ids == nid

        def total(name, values=dur):
            mask = pick(name)
            return float(values[mask].sum()) if mask.size else 0.0

        def calls(name):
            mask = pick(name)
            return int(mask.sum()) if mask.size else 0

        c = self.counters.get
        out = {
            "game.value_table.s": total("game.value_table"),
            "game.value_table.masks": c("game.value_table.masks", 0),
            "game.per_capita_table.s": total("game.per_capita_table"),
            "game.value_gap_delta.s": total("game.value_gap_delta"),
            "game.coalition_value_range.s": total("game.coalition_value_range"),
            "stability.find_nash_stable.s": total("stability.find_nash_stable"),
            "stability.find_nash_stable.partitions": c("stability.find_nash_stable.partitions", 0),
            "stability.verify_nash.calls": calls("stability.verify_nash"),
            "stability.verify_nash.s": total("stability.verify_nash"),
            "stability.verify_individual.s": total("stability.verify_individual"),
            "stability.verify_core.s": total("stability.verify_core"),
            "stability.is_nash_stable_masks.calls": calls("stability.is_nash_stable_masks"),
            "stability.is_nash_stable_masks.s": total("stability.is_nash_stable_masks"),
            "stability.random_partition.calls": calls("stability.random_partition"),
            "stability.random_partition.s": total("stability.random_partition"),
            "preferences.decide.calls": calls("preferences.decide"),
            "preferences.decide.s": total("preferences.decide"),
            "preferences.measure_consistency.s": total("preferences.measure_consistency"),
            "preferences.estimate_epsilon.s": total("preferences.estimate_epsilon"),
            "dynamics.run_episode.calls": calls("dynamics.run_episode"),
            "dynamics.run_episode.s": total("dynamics.run_episode"),
            "dynamics.run_episode.self_s": total("dynamics.run_episode", self_s),
            "dynamics.run_episode.queries": c("dynamics.run_episode.queries", 0),
            "dynamics.run_episode.rounds": c("dynamics.run_episode.rounds", 0),
            "dynamics.run_episode.deviations": c("dynamics.run_episode.deviations", 0),
            "dynamics.convergence_bound.s": total("dynamics.convergence_bound"),
            "dynamics.episode_log_lines.s": total("dynamics.episode_log_lines"),
            "dynamics.episode_log_lines.bytes": c("dynamics.episode_log_lines.bytes", 0),
            "dynamics.replay_file.s": total("dynamics.replay_file"),
            "dynamics.replay_file.lines": c("dynamics.replay_file.lines", 0),
            "experiments.run_condition.s": total("experiments.run_condition"),
            "experiments.sweep.s": total("experiments.sweep"),
            "experiments.bootstrap_ci.calls": calls("experiments.bootstrap_ci"),
            "experiments.bootstrap_ci.s": total("experiments.bootstrap_ci"),
            "experiments.sample_queries.s": total("experiments.sample_queries"),
            # self time: file handling without the traced serialization inside
            "experiments.write.s": total("experiments.atomic_write", self_s),
            "experiments.write.bytes": c("experiments.write.bytes", 0),
            "bounds.measure_bound_inputs.s": total("bounds.measure_bound_inputs"),
            "plugin.ask.calls": calls("plugin.ask"),
            "plugin.render_prompt.s": total("plugin.render_prompt"),
            "plugin.exchange.wait_s": total("plugin.exchange"),
            "plugin.parse_failures": c("plugin.parse_failures", 0),
            "plugin.transport_errors": c("plugin.transport_errors", 0),
            "trace.spans": len(self.start),
        }
        episodes = out["dynamics.run_episode.calls"]
        deviations = out["dynamics.run_episode.deviations"]
        out["dynamics.stable_share"] = (
            c("dynamics.run_episode.stable", 0) / episodes if episodes else 0.0
        )
        out["dynamics.queries_per_deviation"] = (
            out["dynamics.run_episode.queries"] / deviations if deviations else 0.0
        )
        mask = pick("plugin.ask")
        asks = dur[mask] * 1e6 if mask.size else np.zeros(0)
        out["plugin.ask.p50_us"] = float(np.percentile(asks, 50)) if asks.size else 0.0
        out["plugin.ask.p99_us"] = float(np.percentile(asks, 99)) if asks.size else 0.0
        return out
