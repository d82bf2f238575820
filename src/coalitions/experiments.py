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

import hashlib
import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .game import (
    Coalition,
    GameSpec,
    coalition_value,
    iter_deviation_checks,
    load_game,
    value_gap_delta,
)
from .preferences import (
    OracleKind,
    OracleSpec,
    PreferenceQuery,
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
    episode_log_lines,
    oracle_from_dict,
    run_episode,
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


@dataclass(frozen=True)
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
    rule: DeviationRule = DeviationRule.FIRST_IMPROVING
    max_rounds: int = 30
    sample_only: bool = False

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if not self.sample_only and self.oracle is None:
            raise ValueError("dynamics conditions need an oracle")

    def effective_oracle(self) -> OracleSpec | None:
        if self.oracle is None:
            return None
        if self.oracle.seed == 0:
            return replace(self.oracle, seed=self.seed_base)
        return self.oracle


@dataclass(frozen=True)
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
    logs: tuple[EpisodeLog, ...] = ()
    # per episode, in order: 1.0 if it ended Nash-stable, else 0.0
    stable_flags: tuple[float, ...] = ()

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
    if not values:
        return math.nan, math.nan
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
        checks = iter_deviation_checks(partition.masks, (agent,))
        moves = [(own, target) for _, own, target, joined in checks if joined != own]
        if not moves:
            continue
        own, target = moves[rng.randrange(len(moves))]
        queries.append(
            PreferenceQuery(agent=agent, current=Coalition(own), candidate=Coalition(target))
        )
    return queries


def run_condition(
    condition: Condition,
    game: GameSpec,
    *,
    jobs: int = 1,
    record_queries: bool = False,
    keep_logs: bool = True,
    consistency_queries: int = 30,
    consistency_repeats: int = 10,
    bootstrap_iterations: int = 10_000,
) -> ConditionResult:
    """Run every episode of a condition and aggregate the outcomes.

    Episode i uses seed seed_base + i; timeouts and errors count as
    unstable.  Convergence rounds average over stable episodes only.  The
    welfare proxy is the terminal potential divided by the agent count.
    The CI is the bootstrap of the stable flags seeded by seed_base;
    `bootstrap_iterations=0` draws none and leaves both bounds NaN, for a
    caller that bootstraps `stable_flags` of several results in one batch.
    """
    n = game.n
    if condition.sample_only:
        stable_flags = []
        welfare = []
        for idx in range(condition.episodes):
            partition = random_partition(
                n, derived_rng("sample", condition.seed_base, idx)
            )
            stable_flags.append(
                1.0 if is_nash_stable_masks(game, partition.masks) else 0.0
            )
            welfare.append(
                sum(coalition_value(game, c) for c in partition.coalitions) / n
            )
        rate = sum(stable_flags) / len(stable_flags)
        lo, hi = _interval(stable_flags, bootstrap_iterations, condition.seed_base)
        w_mean, w_sd = _mean_sd(welfare)
        return ConditionResult(
            name=condition.name,
            n_episodes=condition.episodes,
            nash_rate=rate,
            ci_low=lo,
            ci_high=hi,
            conv_mean=None,
            conv_sd=None,
            welfare_mean=w_mean,
            welfare_sd=w_sd,
            consistency=None,
            ground_truth_rate=rate,
            n_errors=0,
            stable_flags=tuple(stable_flags),
        )

    oracle = condition.effective_oracle()
    assert oracle is not None
    configs = [
        EpisodeConfig(
            game=game,
            oracles=(oracle,) * n,
            initial=condition.initial,
            max_rounds=condition.max_rounds,
            rule=condition.rule,
            seed=condition.seed_base + idx,
            episode_id=idx,
            record_queries=record_queries,
        )
        for idx in range(condition.episodes)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            logs = list(pool.map(run_episode, configs, chunksize=16))
    else:
        logs = [run_episode(c) for c in configs]

    stable_flags = [
        1.0 if log.outcome is EpisodeOutcome.NASH_STABLE else 0.0 for log in logs
    ]
    rate = sum(stable_flags) / len(stable_flags)
    lo, hi = _interval(stable_flags, bootstrap_iterations, condition.seed_base)
    conv_rounds = [
        float(log.round_count)
        for log in logs
        if log.outcome is EpisodeOutcome.NASH_STABLE
    ]
    conv_mean, conv_sd = _mean_sd(conv_rounds) if conv_rounds else (None, None)
    welfare = [log.summary.phi_terminal / n for log in logs]
    w_mean, w_sd = _mean_sd(welfare)
    consistency = None
    if oracle.kind is not OracleKind.EXTERNAL:
        queries = sample_queries(game, consistency_queries, condition.seed_base)
        if queries:
            consistency = measure_consistency(
                oracle, game, queries, repeats=consistency_repeats
            ).agreement
    gt_rate = sum(log.summary.ground_truth_stable for log in logs) / len(logs)
    return ConditionResult(
        name=condition.name,
        n_episodes=condition.episodes,
        nash_rate=rate,
        ci_low=lo,
        ci_high=hi,
        conv_mean=conv_mean,
        conv_sd=conv_sd,
        welfare_mean=w_mean,
        welfare_sd=w_sd,
        consistency=consistency,
        ground_truth_rate=gt_rate,
        n_errors=sum(log.outcome is EpisodeOutcome.ERROR for log in logs),
        logs=tuple(logs) if keep_logs else (),
        stable_flags=tuple(stable_flags),
    )


def _interval(flags: Sequence[float], iterations: int, seed: int) -> tuple[float, float]:
    """The bootstrap CI of one result's stable flags; NaN bounds for 0
    iterations."""
    if not iterations:
        return math.nan, math.nan
    return bootstrap_ci([flags], iterations=iterations, seed=seed)[0]


def _with_intervals(
    results: Sequence[ConditionResult], seeds: Sequence[int]
) -> list[ConditionResult]:
    """The results with the CIs of their stable flags, seeded by `seeds`,
    filled in by one `bootstrap_ci` call."""
    intervals = bootstrap_ci([r.stable_flags for r in results], seed=seeds)
    return [replace(r, ci_low=lo, ci_high=hi) for r, (lo, hi) in zip(results, intervals)]


# ---------------------------------------------------------------------------
# statistics

_BOOTSTRAP_CHUNK = 1 << 18


def bootstrap_ci(
    sample_sets: Sequence[Sequence[float]],
    iterations: int = 10_000,
    level: float = 0.95,
    seed: int | Sequence[int] = 0,
) -> list[tuple[float, float]]:
    """Seeded percentile bootstrap CIs for the means of several sample sets.

    Returns one `(lo, hi)` per set, in order.  `seed` is either one seed for
    every set or a sequence with one seed per set.  A set's resamples are
    drawn from a numpy generator seeded by `bootstrap:<seed>`, so its
    interval depends only on its samples, seed, `iterations` and `level`:
    it is the same whether the set comes alone or in a batch.  Sets that
    share `(seed, len(samples))` share that index stream, which is drawn
    once per call and gathered by each of them, chunk by chunk.
    """
    count = len(sample_sets)
    seeds = list(seed) if isinstance(seed, Sequence) else [seed] * count
    if len(seeds) != count:
        raise ValueError("need one seed per sample set")
    streams: dict[tuple[int, int], list[int]] = {}
    for i, samples in enumerate(sample_sets):
        if len(samples) < 1:
            raise ValueError("need at least one sample")
        streams.setdefault((seeds[i], len(samples)), []).append(i)
    alpha = 1 - level
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
        # of about 2**18 indices keeps the index matrix and each gather near
        # 2 MB
        chunk = max(1, min(iterations, _BOOTSTRAP_CHUNK // n))
        done = 0
        while done < iterations:
            take = min(chunk, iterations - done)
            idx = rng.integers(0, n, size=(take, n))
            for row, arr in zip(means, arrs):
                row[done : done + take] = arr[idx].mean(axis=1)
            done += take
        for i, row in zip(members, means):
            lo, hi = np.quantile(row, [alpha / 2, 1 - alpha / 2])
            out[i] = (float(lo), float(hi))
    return out


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    n_used: int


def wilcoxon_signed_rank(pairs: Sequence[tuple[float, float]]) -> WilcoxonResult:
    """Signed-rank test with the normal approximation (valid for ~n >= 6).

    Ties (zero differences) are dropped; equal magnitudes share average
    ranks, with the variance corrected accordingly.  The statistic is the
    smaller of the positive and negative rank sums; the p-value is
    two-sided.
    """
    diffs = [a - b for a, b in pairs if a != b]
    m = len(diffs)
    if m == 0:
        raise ValueError("all pairs are tied; the signed-rank test is undefined")
    order = sorted(range(m), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * m
    i = 0
    tie_correction = 0.0
    while i < m:
        j = i
        while j + 1 < m and abs(diffs[order[j + 1]]) == abs(diffs[order[i]]):
            j += 1
        avg_rank = (i + j) / 2 + 1
        t = j - i + 1
        tie_correction += t**3 - t
        for k in range(i, j + 1):
            ranks[order[k]] = avg_rank
        i = j + 1
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    statistic = min(w_plus, w_minus)
    mean = m * (m + 1) / 4
    var = m * (m + 1) * (2 * m + 1) / 24 - tie_correction / 48
    if var <= 0:
        raise ValueError("degenerate variance in signed-rank test")
    z = (w_plus - mean) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2))
    return WilcoxonResult(statistic=statistic, p_value=p, n_used=m)


@dataclass(frozen=True)
class BonferroniReport:
    alpha: float
    adjusted_alpha: float
    p_values: tuple[float, ...]
    adjusted_p: tuple[float, ...]
    significant: tuple[bool, ...]


def bonferroni_correct(p_values: Sequence[float], alpha: float = 0.01) -> BonferroniReport:
    """Family-wise correction applied whenever several tests run together."""
    m = len(p_values)
    if m == 0:
        raise ValueError("no p-values to correct")
    return BonferroniReport(
        alpha=alpha,
        adjusted_alpha=alpha / m,
        p_values=tuple(p_values),
        adjusted_p=tuple(min(1.0, p * m) for p in p_values),
        significant=tuple(p < alpha / m for p in p_values),
    )


@dataclass(frozen=True)
class PairwiseComparison:
    condition_a: str
    condition_b: str
    statistic: float
    p_value: float
    adjusted_p: float
    significant: bool


def pairwise_welfare_tests(
    results: Sequence[ConditionResult], alpha: float = 0.01
) -> list[PairwiseComparison]:
    """Signed-rank tests between all condition pairs on per-episode welfare.

    Episodes pair up by index (conditions are expected to share seed_base),
    and the family of tests is Bonferroni-corrected whenever more than one
    pair is compared.
    """
    with_logs = [r for r in results if r.logs]
    if len(with_logs) < 2:
        raise ValueError("need at least two conditions with retained logs")
    pairs = []
    tests = []
    n = min(len(r.logs) for r in with_logs)
    for i, a in enumerate(with_logs):
        for b in with_logs[i + 1 :]:
            welfare_pairs = [
                (
                    a.logs[k].summary.phi_terminal / a.logs[k].config.game.n,
                    b.logs[k].summary.phi_terminal / b.logs[k].config.game.n,
                )
                for k in range(n)
            ]
            tests.append(wilcoxon_signed_rank(welfare_pairs))
            pairs.append((a.name, b.name))
    correction = bonferroni_correct([t.p_value for t in tests], alpha=alpha)
    return [
        PairwiseComparison(
            condition_a=names[0],
            condition_b=names[1],
            statistic=t.statistic,
            p_value=t.p_value,
            adjusted_p=adj,
            significant=sig,
        )
        for names, t, adj, sig in zip(
            pairs, tests, correction.adjusted_p, correction.significant
        )
    ]


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
    if rows < n:
        raise ValueError("profile pool smaller than the requested agent count")
    rng = derived_rng("gamegen", seed, rows, d)
    profiles = [
        [lo + (hi - lo) * rng.random() for _ in range(d)] for _ in range(rows)
    ]
    return GameSpec.from_profiles(profiles[:n], alpha=alpha, beta=beta)


class SweepAxis(Enum):
    ALPHA = "alpha"
    BETA = "beta"
    AGENT_COUNT = "agents"
    DIMENSION = "dimension"
    LAMBDA = "lambda"


@dataclass(frozen=True)
class SweepCell:
    axis: SweepAxis
    value: float
    delta: float
    result: ConditionResult

    def row(self) -> list:
        return [self.axis.value, self.value] + self.result.row()[1:] + [self.delta]


def sweep(
    game: GameSpec,
    axis: SweepAxis,
    values: Sequence[float],
    oracle: OracleSpec,
    *,
    episodes: int = 200,
    seed_base: int = 0,
    max_rounds: int = 30,
    initial: InitialPartition = InitialPartition(kind="random"),
    jobs: int = 1,
    profile_lo: float = 0.55,
    profile_hi: float = 0.85,
) -> list[SweepCell]:
    """Rerun one condition across an axis; per-cell failures do not abort.

    Agent-count and dimension cells resample profiles from a seeded uniform
    generator (the template supplies the remaining parameters); cost axes
    reuse the template's agents; the lambda axis reparameterizes the oracle's
    rationality bound (and with it the critical-gap threshold).  The CIs of
    the cells that ran come from one `bootstrap_ci` call after the last cell.
    """
    cells = []
    for value in values:
        cell_game = game
        cell_oracle = oracle
        if axis is SweepAxis.ALPHA:
            cell_game = game.with_params(alpha=float(value))
        elif axis is SweepAxis.BETA:
            cell_game = game.with_params(beta=float(value))
        elif axis is SweepAxis.AGENT_COUNT:
            cell_game = generate_game(
                int(value), game.d, game.alpha, game.beta, seed_base,
                lo=profile_lo, hi=profile_hi, pool=int(max(values)),
            )
        elif axis is SweepAxis.DIMENSION:
            cell_game = generate_game(
                game.n, int(value), game.alpha, game.beta, seed_base,
                lo=profile_lo, hi=profile_hi,
            )
        elif axis is SweepAxis.LAMBDA:
            cell_oracle = replace(oracle, epsilon=float(value), critical_gap=None)
        condition = Condition(
            name=f"{axis.value}={value:g}",
            oracle=cell_oracle,
            episodes=episodes,
            seed_base=seed_base,
            initial=initial,
            max_rounds=max_rounds,
        )
        try:
            result = run_condition(
                condition, cell_game, jobs=jobs, keep_logs=False, bootstrap_iterations=0
            )
            delta = value_gap_delta(cell_game, max_size=min(cell_game.n, 4))
        except Exception as exc:  # record the failure, keep sweeping
            result = ConditionResult(
                name=f"{axis.value}={value:g} [failed: {exc}]",
                n_episodes=0,
                nash_rate=math.nan,
                ci_low=math.nan,
                ci_high=math.nan,
                conv_mean=None,
                conv_sd=None,
                welfare_mean=math.nan,
                welfare_sd=math.nan,
                consistency=None,
                ground_truth_rate=math.nan,
                n_errors=0,
            )
            delta = math.nan
        cells.append(SweepCell(axis=axis, value=float(value), delta=delta, result=result))
    # a failed cell's result has no stable flags
    ran = [i for i, cell in enumerate(cells) if cell.result.stable_flags]
    done = _with_intervals([cells[i].result for i in ran], [seed_base] * len(ran))
    for i, result in zip(ran, done):
        cells[i] = replace(cells[i], result=result)
    return cells


# ---------------------------------------------------------------------------
# output files

@contextmanager
def atomic_write(path: str | Path):
    """Write to a temp file in the target directory, then rename into place.

    The file gets the mode open() would give it (0o666 less the umask), not
    the 0o600 of mkstemp.
    """
    path = Path(path)
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


def condition_from_spec(
    spec: dict, *, episodes: int, seed_base: int, table: dict | None = None
) -> Condition:
    """Build a Condition from a manifest entry, filling builtin defaults.

    A bare {"name": "staged"} pulls the packaged parameterization; explicit
    oracle fields override it.
    """
    table = table if table is not None else builtin_condition_table()
    defaults = table.get("defaults", {})
    name = spec["name"]
    base = dict(table.get("conditions", {}).get(name, {}))
    merged = {**base, **spec}
    sample_only = bool(merged.get("sample_only", False))
    oracle = None
    if not sample_only:
        odata = dict(merged.get("oracle") or {})
        if not odata:
            raise ValueError(f"condition {name!r} needs an oracle or sample_only")
        odata.setdefault("p_easy", defaults.get("p_easy", 0.98))
        odata.setdefault("epsilon", defaults.get("epsilon", 0.15))
        odata.setdefault("critical_gap", defaults.get("critical_gap"))
        odata.setdefault("majority_k", defaults.get("majority_k", 1))
        oracle = oracle_from_dict(odata)
    initial = merged.get("initial", "random")
    return Condition(
        name=name,
        oracle=oracle,
        episodes=int(merged.get("episodes", episodes)),
        seed_base=int(merged.get("seed_base", seed_base)),
        initial=InitialPartition(kind=initial),
        rule=DeviationRule(merged.get("rule", "first")),
        max_rounds=int(merged.get("max_rounds", 30)),
        sample_only=sample_only,
    )


@dataclass(frozen=True)
class Manifest:
    game_path: Path
    output_dir: Path
    seed: int
    jobs: int
    conditions: tuple[dict, ...]
    sweeps: tuple[dict, ...]


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
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


def run_manifest(manifest: Manifest, jobs: int | None = None) -> dict[str, Path]:
    """Execute a manifest: per-condition logs, results.csv, sweep CSVs."""
    game = load_game(manifest.game_path)
    jobs = manifest.jobs if jobs is None else jobs
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
                "conditions": [c.get("name") for c in manifest.conditions],
                "sweeps": [s.get("axis") for s in manifest.sweeps],
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    written["metadata"] = meta_path

    results = []
    seeds = []
    for spec in manifest.conditions:
        condition = condition_from_spec(spec, episodes=400, seed_base=manifest.seed)
        result = run_condition(
            condition, game, jobs=jobs, keep_logs=True, bootstrap_iterations=0
        )
        log_path = out / f"episodes_{condition.name}.jsonl"
        with atomic_write(log_path) as fh:
            for log in result.logs:
                fh.write("\n".join(episode_log_lines(log)) + "\n")
        # only the rows are read from here on; the logs are on disk
        results.append(replace(result, logs=()))
        seeds.append(condition.seed_base)
        written[f"episodes_{condition.name}"] = log_path
    if results:
        results_path = out / "results.csv"
        write_results_csv(_with_intervals(results, seeds), results_path)
        written["results"] = results_path

    for spec in manifest.sweeps:
        axis = SweepAxis(spec["axis"])
        oracle = oracle_from_dict(
            spec.get(
                "oracle",
                {"kind": "consistency_noise", "p_critical": 0.86, "critical_gap": 0.3},
            )
        )
        cells = sweep(
            game,
            axis,
            spec["values"],
            oracle,
            episodes=int(spec.get("episodes", 200)),
            seed_base=int(spec.get("seed_base", manifest.seed)),
            max_rounds=int(spec.get("max_rounds", 30)),
            jobs=jobs,
        )
        sweep_path = out / f"sweep_{axis.value}.csv"
        write_sweep_csv(cells, sweep_path)
        written[f"sweep_{axis.value}"] = sweep_path
    return written
