"""Batch experiment harness: conditions, sweeps, and statistics.

A condition names an oracle parameterization and an episode budget; running
it yields stability rates with bootstrap confidence intervals, convergence
rounds, a welfare proxy (terminal potential per agent), and a measured
consistency figure.  Sweeps rerun a condition across one axis (cost
parameters, agent count, capability dimension, or the oracle's rationality
bound) and emit one CSV row per cell.  Everything is seeded: the same
manifest always produces byte-identical outputs.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from importlib import resources
from numbers import Real
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .game import (
    MAX_AGENTS,
    GameSpec,
    deviation_plan,
    load_game,
    mask_coalition,
    potential,
    value_gap_delta,
)
from .preferences import (
    CI_LEVEL,
    OracleKind,
    OracleSpec,
    PreferenceQuery,
    _quantiles,
    check_seed,
    derived_rng,
    measure_consistency,
)
from .stability import is_nash_stable_masks, random_partition
from .dynamics import (
    DeviationRule,
    EpisodeConfig,
    EpisodeLog,
    EpisodeOutcome,
    InitialPartition,
    oracle_from_dict,
    run_episode,
    write_episode_log,
)

RESULT_COLUMNS = (
    "condition",
    "n_episodes",
    "nash_rate",
    "ci_lo",
    "ci_hi",
    "conv_mean",
    "conv_sd",
    "welfare_mean",
    "welfare_sd",
    "consistency",
)

SWEEP_COLUMNS = ("axis", "value") + RESULT_COLUMNS[1:] + ("delta",)

#: deviation queries `run_condition` samples to measure an oracle's consistency
CONSISTENCY_QUERIES = 30
#: agent-count and dimension sweep cells draw profiles from [lo, hi]^d
SWEEP_PROFILE_RANGE = (0.55, 0.85)


@dataclass(frozen=True, slots=True)
class Condition:
    """One experimental arm: an oracle template plus an episode budget.

    Oracles whose seed is 0 inherit seed_base, so two conditions that share
    a seed_base but differ in consistency parameters are driven by the same
    underlying random draws (matched seeds).
    """

    name: str
    oracle: OracleSpec | None
    episodes: int
    seed_base: int = 0
    initial: InitialPartition = InitialPartition(kind="random")
    rule: DeviationRule = EpisodeConfig.rule
    max_rounds: int = EpisodeConfig.max_rounds
    sample_only: bool = False

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        # episode i runs under seed seed_base + i
        check_seed("seed_base", self.seed_base)
        check_seed("seed_base + episodes - 1", self.seed_base + self.episodes - 1)
        if not self.sample_only and self.oracle is None:
            raise ValueError("dynamics conditions need an oracle")

    def effective_oracle(self) -> OracleSpec:
        """The oracle, seeded by seed_base if its seed is 0 (dynamics conditions only)."""
        if self.oracle.seed == 0:
            return replace(self.oracle, seed=self.seed_base)
        return self.oracle


@dataclass(frozen=True, slots=True)
class ConditionResult:
    name: str
    n_episodes: int
    nash_rate: float
    ci_low: float
    ci_high: float
    conv_mean: float | None
    conv_sd: float | None
    welfare_mean: float
    welfare_sd: float
    consistency: float | None
    ground_truth_rate: float
    n_errors: int
    # per episode, in order: 1.0 if it ended Nash-stable, else 0.0
    stable_flags: tuple[float, ...]

    def row(self) -> list:
        return [
            self.name,
            self.n_episodes,
            self.nash_rate,
            self.ci_low,
            self.ci_high,
            "" if self.conv_mean is None else self.conv_mean,
            "" if self.conv_sd is None else self.conv_sd,
            self.welfare_mean,
            self.welfare_sd,
            "" if self.consistency is None else self.consistency,
        ]


def _mean_sd(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation of a non-empty list."""
    m = sum(values) / len(values)
    if len(values) == 1:
        return m, 0.0
    var = sum((v - m) ** 2 for v in values) / (len(values) - 1)
    return m, math.sqrt(var)


def sample_queries(
    game: GameSpec, count: int, seed: int
) -> list[PreferenceQuery]:
    """Seeded deviation queries drawn from uniform random partitions.

    Structural self-comparisons (a lone agent going solo) are excluded:
    they are answered deterministically and carry no consistency signal.
    A one-agent game has no other comparison, so it yields no queries.
    """
    if game.n < 2:
        return []
    rng = derived_rng("consistency-queries", seed)
    queries = []
    while len(queries) < count:
        partition = random_partition(game.n, rng)
        agent = rng.randrange(game.n)
        _, own, targets = deviation_plan(partition.masks)[agent]
        # for n >= 2 an agent always has a move: another block, or going solo
        moves = [target for target in targets if target | 1 << agent != own]
        target = moves[rng.randrange(len(moves))]
        queries.append(
            PreferenceQuery(
                agent=agent, current=mask_coalition(own), candidate=mask_coalition(target)
            )
        )
    return queries


def run_condition(
    condition: Condition,
    game: GameSpec,
    *,
    on_log: Callable[[EpisodeLog], object] | None = None,
) -> ConditionResult:
    """Run every episode of a condition and aggregate the outcomes.

    Episode i uses seed seed_base + i; its log records no queries.
    Timeouts and errors count as unstable.  Convergence rounds average over
    stable episodes only.  The welfare proxy is the terminal potential
    divided by the agent count.  The consistency figure is
    `measure_consistency`'s agreement over CONSISTENCY_QUERIES sampled
    queries.  Both CI bounds are left NaN: `bootstrap_ci` over the
    `stable_flags` of several results fills them in one batch.  Each
    episode is folded into the aggregates as it returns, its log is handed
    to `on_log` (in episode order) and then dropped, so the memory a
    condition holds does not grow with its episode count.  A sample-only
    condition runs no episode and never calls `on_log`.
    """
    n = game.n
    stable_flags: list[float] = []
    welfare: list[float] = []
    conv_mean = conv_sd = consistency = None
    n_errors = 0
    if condition.sample_only:
        for idx in range(condition.episodes):
            partition = random_partition(n, derived_rng("sample", condition.seed_base, idx))
            stable_flags.append(1.0 if is_nash_stable_masks(game, partition.masks) else 0.0)
            welfare.append(potential(game, partition) / n)
        gt_rate = sum(stable_flags) / len(stable_flags)
    else:
        oracle = condition.effective_oracle()
        conv_rounds = []
        gt_count = 0
        for idx in range(condition.episodes):
            log = run_episode(
                EpisodeConfig(
                    game=game, oracles=(oracle,) * n, initial=condition.initial,
                    max_rounds=condition.max_rounds, rule=condition.rule,
                    seed=condition.seed_base + idx, episode_id=idx, record_queries=False,
                )
            )
            stable = log.outcome is EpisodeOutcome.NASH_STABLE
            stable_flags.append(1.0 if stable else 0.0)
            if stable:
                conv_rounds.append(float(log.round_count))
            welfare.append(log.summary.phi_terminal / n)
            gt_count += log.summary.ground_truth_stable
            n_errors += log.outcome is EpisodeOutcome.ERROR
            if on_log is not None:
                on_log(log)
        if conv_rounds:
            conv_mean, conv_sd = _mean_sd(conv_rounds)
        # an external oracle gets here only at n = 1, which samples no query:
        # otherwise its first query raised, as no plugin session is open
        queries = sample_queries(game, CONSISTENCY_QUERIES, condition.seed_base)
        if queries:
            consistency = measure_consistency(oracle, game, queries)
        gt_rate = gt_count / len(stable_flags)
    w_mean, w_sd = _mean_sd(welfare)
    return ConditionResult(
        name=condition.name,
        n_episodes=condition.episodes,
        nash_rate=sum(stable_flags) / len(stable_flags),
        ci_low=math.nan,
        ci_high=math.nan,
        conv_mean=conv_mean,
        conv_sd=conv_sd,
        welfare_mean=w_mean,
        welfare_sd=w_sd,
        consistency=consistency,
        ground_truth_rate=gt_rate,
        n_errors=n_errors,
        stable_flags=tuple(stable_flags),
    )


def _with_intervals(
    results: Sequence[ConditionResult], seeds: Sequence[int]
) -> list[ConditionResult]:
    """The results with the CIs of their stable flags, seeded by `seeds`,
    filled in by one `bootstrap_ci` call."""
    intervals = bootstrap_ci([r.stable_flags for r in results], seeds)
    return [replace(r, ci_low=lo, ci_high=hi) for r, (lo, hi) in zip(results, intervals)]


# ---------------------------------------------------------------------------
# statistics

#: resamples behind each bootstrap CI
BOOTSTRAP_ITERATIONS = 10_000
_BOOTSTRAP_CHUNK = 1 << 15


def bootstrap_ci(
    sample_sets: Sequence[Sequence[float]], seeds: Sequence[int]
) -> list[tuple[float, float]]:
    """Seeded CI_LEVEL percentile bootstrap CIs for the means of several
    sample sets.

    Returns one `(lo, hi)` per set, in order; `seeds` holds one seed per
    set.  A set's BOOTSTRAP_ITERATIONS resamples are drawn from a numpy
    generator seeded by `bootstrap:<seed>`, so its interval depends only on
    its samples and seed: it is the same whether the set comes alone or in
    a batch.  Sets that share `(seed, len(samples))` share that index
    stream, which is drawn once per call and gathered by each of them,
    chunk by chunk.
    """
    count = len(sample_sets)
    if len(seeds) != count:
        raise ValueError("need one seed per sample set")
    streams: dict[tuple[int, int], list[int]] = {}
    for i, samples in enumerate(sample_sets):
        if len(samples) < 1:
            raise ValueError("need at least one sample")
        streams.setdefault((seeds[i], len(samples)), []).append(i)
    alpha = 1 - CI_LEVEL
    iterations = BOOTSTRAP_ITERATIONS
    out: list[tuple[float, float]] = [(math.nan, math.nan)] * count
    for (s, n), members in streams.items():
        arrs = [np.asarray(sample_sets[i], dtype=float) for i in members]
        rng = np.random.default_rng(
            int.from_bytes(
                hashlib.blake2b(f"bootstrap:{s}".encode(), digest_size=8).digest(),
                "big",
            )
        )
        means = np.empty((len(members), iterations))
        # Generator.integers yields the same stream in any chunking; a chunk
        # of about 2**15 indices keeps the index matrix and each gather near
        # 256 KB, within cache
        chunk = max(1, min(iterations, _BOOTSTRAP_CHUNK // n))
        done = 0
        while done < iterations:
            take = min(chunk, iterations - done)
            idx = rng.integers(0, n, size=(take, n))
            for row, arr in zip(means, arrs):
                row[done : done + take] = arr[idx].mean(axis=1)
            done += take
        for i, row in zip(members, means):
            out[i] = tuple(_quantiles(row, (alpha / 2, 1 - alpha / 2)))
    return out


# ---------------------------------------------------------------------------
# game generation and sweeps

def generate_game(
    n: int,
    d: int,
    alpha: float,
    beta: float,
    seed: int,
    lo: float = 0.3,
    hi: float = 0.9,
    pool: int | None = None,
) -> GameSpec:
    """Seeded game with profiles drawn uniformly from [lo, hi]^d.

    With `pool` set, profiles come from the first n rows of a fixed
    seeded pool of that size, so games at different n share a roster
    prefix (used by agent-count sweeps to isolate the size effect from
    draw-to-draw luck).
    """
    rows = n if pool is None else pool
    if not 1 <= n <= rows:
        raise ValueError(f"agent count {n} outside 1..{rows}, the profile pool")
    rng = derived_rng("gamegen", seed, rows, d)
    profiles = [
        [lo + (hi - lo) * rng.random() for _ in range(d)] for _ in range(rows)
    ]
    return GameSpec.from_profiles(profiles[:n], alpha=alpha, beta=beta)


def _refuse_external(oracles: Sequence[tuple[str, OracleSpec | None]], runner: str) -> None:
    """Raise ValueError naming each `(name, oracle)` whose oracle is
    external: `runner` opens no plugin session for it."""
    external = [name for name, oracle in oracles if oracle and oracle.kind is OracleKind.EXTERNAL]
    if external:
        raise ValueError(
            f"{', '.join(external)}: an external oracle needs a plugin session, "
            f"and {runner} do not open one"
        )


class SweepAxis(Enum):
    ALPHA = "alpha"
    BETA = "beta"
    AGENT_COUNT = "agents"
    DIMENSION = "dimension"
    LAMBDA = "lambda"


@dataclass(frozen=True, slots=True)
class SweepCell:
    axis: SweepAxis
    value: float
    delta: float
    result: ConditionResult

    def row(self) -> list:
        return [self.axis.value, self.value] + self.result.row()[1:] + [self.delta]


def _cell_number(axis: SweepAxis, value) -> float:
    """A sweep value as a float.  A value that is not a number, or on the
    agent-count and dimension axes not a whole one, raises ValueError
    naming its cell, and so does an agent count outside 1..MAX_AGENTS:
    every agent-count cell draws from a profile pool of the largest count."""
    try:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise TypeError
        number = float(value)
    except (TypeError, OverflowError):
        raise ValueError(f"sweep cell {axis.value}={value!r}: not a float") from None
    whole = axis in (SweepAxis.AGENT_COUNT, SweepAxis.DIMENSION)
    if whole and not number.is_integer():
        raise ValueError(f"sweep cell {axis.value}={number:g}: not a whole number")
    if axis is SweepAxis.AGENT_COUNT and not 1 <= number <= MAX_AGENTS:
        raise ValueError(f"sweep cell {axis.value}={number:g}: agent counts lie in 1..{MAX_AGENTS}")
    return number


def sweep_cells(
    game: GameSpec,
    axis: SweepAxis,
    values: Sequence[float],
    oracle: OracleSpec,
    *,
    episodes: int = 200,
    seed_base: int,
    max_rounds: int = EpisodeConfig.max_rounds,
) -> list[tuple[float, GameSpec, Condition]]:
    """Every cell of a sweep as `(value, game, condition)`, built before
    any cell runs.

    Agent-count and dimension cells resample profiles from a seeded uniform
    generator over SWEEP_PROFILE_RANGE (the template supplies the remaining
    parameters); cost axes reuse the template's agents; the lambda axis
    reparameterizes the oracle's rationality bound (and with it the
    critical-gap threshold).  A value that is not a number, or that the
    cell's game, oracle or condition rejects, raises one ValueError naming
    the cell.  An external oracle is refused: a sweep opens no plugin
    session.
    """
    _refuse_external([(f"sweep {axis.value!r}", oracle)], "sweeps")
    check_seed("seed_base", seed_base)
    numbers = [_cell_number(axis, value) for value in values]
    cells = []
    for value in numbers:
        name = f"{axis.value}={value:g}"
        try:
            cell_game, cell_oracle = game, oracle
            if axis is SweepAxis.ALPHA:
                cell_game = game.with_params(alpha=value)
            elif axis is SweepAxis.BETA:
                cell_game = game.with_params(beta=value)
            elif axis is SweepAxis.AGENT_COUNT:
                cell_game = generate_game(
                    int(value), game.d, game.alpha, game.beta, seed_base,
                    *SWEEP_PROFILE_RANGE, pool=int(max(numbers)),
                )
            elif axis is SweepAxis.DIMENSION:
                cell_game = generate_game(
                    game.n, int(value), game.alpha, game.beta, seed_base,
                    *SWEEP_PROFILE_RANGE,
                )
            elif axis is SweepAxis.LAMBDA:
                cell_oracle = replace(oracle, epsilon=value, critical_gap=None)
            condition = Condition(
                name=name,
                oracle=cell_oracle,
                episodes=episodes,
                seed_base=seed_base,
                max_rounds=max_rounds,
            )
        except ValueError as exc:
            raise ValueError(f"sweep cell {name}: {exc}") from None
        cells.append((value, cell_game, condition))
    return cells


def sweep(
    game: GameSpec, axis: SweepAxis, values: Sequence[float], oracle: OracleSpec, **options
) -> list[SweepCell]:
    """Rerun one condition across an axis: run, in order, the cells that
    `sweep_cells` builds from the same arguments.

    A cell that raises while it runs becomes a row of 0 episodes and NaN
    rates, and its exception is logged; the other cells still run.  The CIs
    of the cells that ran come from one `bootstrap_ci` call after the last.
    """
    plan = sweep_cells(game, axis, values, oracle, **options)
    cells, ran = [], []
    for value, cell_game, condition in plan:
        try:
            result = run_condition(condition, cell_game)
            delta = value_gap_delta(cell_game)
        except Exception as exc:
            # imported here: a run that no cell fails loads no logging
            import logging

            logging.getLogger(__name__).error("sweep cell %s failed: %r", condition.name, exc)
            nan = math.nan
            result = ConditionResult(
                name=condition.name, n_episodes=0, nash_rate=nan, ci_low=nan, ci_high=nan,
                conv_mean=None, conv_sd=None, welfare_mean=nan, welfare_sd=nan,
                consistency=None, ground_truth_rate=nan, n_errors=0, stable_flags=(),
            )
            delta = nan
        else:
            ran.append(len(cells))
        cells.append(SweepCell(axis=axis, value=value, delta=delta, result=result))
    done = _with_intervals([cells[i].result for i in ran], [plan[i][2].seed_base for i in ran])
    for i, result in zip(ran, done):
        cells[i] = replace(cells[i], result=result)
    return cells


# ---------------------------------------------------------------------------
# output files

def output_file(path: str | Path) -> Path:
    """`path` as a Path, checked before anything is written: an existing
    directory there raises IsADirectoryError naming it."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    return path


@contextmanager
def atomic_write(path: str | Path):
    """Write to a temp file in the target directory, then rename into place.

    The file gets the mode open() would give it (0o666 less the umask), not
    the 0o600 of mkstemp.  An existing directory at `path` is refused before
    the temp file is made.
    """
    path = output_file(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        # the umask can only be read by setting it; restore it at once
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(results: Sequence[ConditionResult], path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for r in results:
            fh.write(",".join(_csv_cell(c) for c in r.row()) + "\n")


def write_sweep_csv(cells: Sequence[SweepCell], path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for c in cells:
            fh.write(",".join(_csv_cell(x) for x in c.row()) + "\n")


# ---------------------------------------------------------------------------
# manifests

def builtin_condition_table() -> dict:
    """The packaged condition parameter table."""
    text = resources.files("coalitions.data").joinpath("conditions.json").read_text(
        encoding="utf-8"
    )
    return json.loads(text)


def condition_from_spec(spec: dict, *, episodes: int, seed_base: int) -> Condition:
    """Build a Condition from a manifest entry, filling builtin defaults.

    A bare {"name": "staged"} pulls the packaged parameterization; explicit
    oracle fields override it.  The table's `defaults` fill the oracle keys
    the condition leaves out; what neither gives takes the OracleSpec and
    Condition field defaults.
    """
    table = builtin_condition_table()
    name = spec["name"]
    base = dict(table.get("conditions", {}).get(name, {}))
    merged = {**base, **spec}
    sample_only = bool(merged.get("sample_only", False))
    oracle = None
    if not sample_only:
        if not merged.get("oracle"):
            raise ValueError(f"condition {name!r} needs an oracle or sample_only")
        oracle = oracle_from_dict({**table.get("defaults", {}), **merged["oracle"]})
    options: dict = {}
    if "initial" in merged:
        options["initial"] = InitialPartition(kind=merged["initial"])
    if "rule" in merged:
        options["rule"] = DeviationRule(merged["rule"])
    if "max_rounds" in merged:
        options["max_rounds"] = int(merged["max_rounds"])
    return Condition(
        name=name,
        oracle=oracle,
        episodes=int(merged.get("episodes", episodes)),
        seed_base=int(merged.get("seed_base", seed_base)),
        sample_only=sample_only,
        **options,
    )


def _check_serial(jobs: int) -> None:
    if jobs != 1:
        raise ValueError(f"runs are serial: jobs must be 1, got {jobs}")


@dataclass(frozen=True, slots=True)
class Manifest:
    game_path: Path
    output_dir: Path
    seed: int
    jobs: int  # always 1: runs are serial
    conditions: tuple[dict, ...]
    sweeps: tuple[dict, ...]

    def __post_init__(self) -> None:
        _check_serial(self.jobs)
        check_seed("seed", self.seed)


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("a manifest is a JSON object")
    base = path.parent
    game_path = Path(data["game"])
    if not game_path.is_absolute():
        game_path = base / game_path
    output_dir = Path(data.get("output_dir", "results"))
    if not output_dir.is_absolute():
        output_dir = base / output_dir
    return Manifest(
        game_path=game_path,
        output_dir=output_dir,
        seed=int(data.get("seed", 0)),
        jobs=int(data.get("jobs", 1)),
        conditions=tuple(data.get("conditions", [])),
        sweeps=tuple(data.get("sweeps", [])),
    )


def run_manifest(manifest: Manifest, jobs: int = 1) -> dict[str, Path]:
    """Execute a manifest: per-condition logs, results.csv, sweep CSVs.

    Every condition and every sweep cell is built before anything is
    written, so a manifest entry they reject leaves no output; the sweeps
    still run after the conditions.  An external oracle is refused there
    too: a manifest opens no plugin session.  Runs
    are serial: `jobs` must be 1.  Each condition's episodes stream into
    its open `episodes_<name>.jsonl` as they finish, so a run's memory does
    not depend on the episode count; a condition that raises leaves no log
    file, because `atomic_write` removes its temp file.
    """
    _check_serial(jobs)
    game = load_game(manifest.game_path)
    conditions = [
        condition_from_spec(spec, episodes=400, seed_base=manifest.seed)
        for spec in manifest.conditions
    ]
    sweeps = [
        (
            SweepAxis(spec["axis"]),
            spec["values"],
            oracle_from_dict(spec.get("oracle", {"kind": "consistency_noise"})),
            {
                "seed_base": int(spec.get("seed_base", manifest.seed)),
                **{key: int(spec[key]) for key in ("episodes", "max_rounds") if key in spec},
            },
        )
        for spec in manifest.sweeps
    ]
    oracles = [(f"condition {c.name!r}", c.oracle) for c in conditions]
    oracles += [(f"sweep {axis.value!r}", oracle) for axis, _, oracle, _ in sweeps]
    _refuse_external(oracles, "manifests")
    for axis, values, oracle, options in sweeps:
        sweep_cells(game, axis, values, oracle, **options)
    out = manifest.output_dir
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    from ._version import ENGINE_VERSION

    meta_path = out / "run_metadata.json"
    with atomic_write(meta_path) as fh:
        json.dump(
            {
                "engine": ENGINE_VERSION,
                "seed": manifest.seed,
                "game": str(manifest.game_path),
                "welfare_proxy": "terminal potential divided by agent count",
                "nash_rate": "episodes ending stable before the round budget; "
                "timeouts and errors count as unstable",
                "conditions": [c.name for c in conditions],
                "sweeps": [axis.value for axis, _, _, _ in sweeps],
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    written["metadata"] = meta_path

    results = []
    seeds = []
    for condition in conditions:
        log_path = out / f"episodes_{condition.name}.jsonl"
        with atomic_write(log_path) as fh:
            results.append(
                run_condition(condition, game, on_log=partial(write_episode_log, target=fh))
            )
        seeds.append(condition.seed_base)
        written[f"episodes_{condition.name}"] = log_path
    if results:
        results_path = out / "results.csv"
        write_results_csv(_with_intervals(results, seeds), results_path)
        written["results"] = results_path

    for axis, values, oracle, options in sweeps:
        cells = sweep(game, axis, values, oracle, **options)
        sweep_path = out / f"sweep_{axis.value}.csv"
        write_sweep_csv(cells, sweep_path)
        written[f"sweep_{axis.value}"] = sweep_path
    return written
