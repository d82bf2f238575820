"""The benchmark workloads: set-up, timed work, and correctness checks.

Each workload has three steps.  `setup` builds the inputs from the seed and
is timed as part of setup_s.  `run` is the work timed as wall_s.  `check`
runs after the clock stops: it verifies the outputs, counts failures from
outside the engine and returns the digest that identifies the outputs.
Every size shrinks to a few items when `tiny` is set, which is how
the smoke test runs the harness quickly.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from coalitions.bounds import measure_bound_inputs
from coalitions.dynamics import (
    DeviationRule,
    EpisodeConfig,
    EpisodeOutcome,
    InitialPartition,
    convergence_bound,
    replay_file,
    replay_lines,
    run_episode,
    write_episode_log,
)
from coalitions import experiments
from coalitions.experiments import Manifest, generate_game, run_manifest
from coalitions.game import (
    builtin_game,
    coalition_value_range,
    per_capita_table,
    value_gap_delta,
    value_table,
)
from coalitions.plugin import open_sessions
from coalitions.preferences import (
    ChoiceRecord,
    ExternalEndpointSpec,
    OracleKind,
    OracleSpec,
    decide,
    derived_rng,
    estimate_epsilon,
)
from coalitions.stability import (
    enumerate_partitions,
    find_nash_stable,
    verify_core,
    verify_individual,
    verify_nash,
)


@dataclass
class Outcome:
    """What `check` found: work counts, failures and the output digest."""

    episodes: int = 0
    queries: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: dict[str, str] = field(default_factory=dict)

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _noisy(p: float, seed: int) -> OracleSpec:
    return OracleSpec(
        kind=OracleKind.CONSISTENCY_NOISE, p_critical=p, p_easy=0.98,
        epsilon=0.15, critical_gap=0.3, seed=seed,
    )


# ---------------------------------------------------------------------------
# paper: the paper manifest through run_manifest

PAPER_CONDITIONS = ("random", "greedy", "standard", "cot", "self_consistency", "staged")
PAPER_SWEEPS = (("agents", (4, 6, 8, 10)), ("alpha", (0.10, 0.15, 0.20)))
PAPER_REPLAYS_PER_FILE = 3


def setup_paper(seed: int, tiny: bool, out: Path) -> Manifest:
    episodes = 20 if tiny else 400
    game_path = Path(str(resources.files("coalitions.data").joinpath("six_mixed.json")))
    return Manifest(
        game_path=game_path,
        output_dir=out,
        seed=seed,
        jobs=1,
        conditions=tuple({"name": c, "episodes": episodes} for c in PAPER_CONDITIONS),
        sweeps=tuple(
            {"axis": axis, "values": list(values), "episodes": episodes}
            for axis, values in PAPER_SWEEPS
        ),
    )


@dataclass
class EpisodeTally:
    """Episodes, queries and errors counted as run_condition receives them."""

    episodes: int = 0
    queries: int = 0
    errors: list[str] = field(default_factory=list)


def run_paper(manifest: Manifest) -> EpisodeTally:
    # The sweep CSVs carry neither query counts nor errors, so every episode,
    # sweep cells included, is counted where run_condition calls run_episode.
    tally = EpisodeTally()
    inner = experiments.run_episode

    def counted(config, *args, **kwargs):
        log = inner(config, *args, **kwargs)
        tally.episodes += 1
        tally.queries += log.summary.n_queries
        if log.outcome is EpisodeOutcome.ERROR:
            tally.errors.append(f"episode {config.episode_id} (seed {config.seed}): {log.error}")
        return log

    experiments.run_episode = counted
    try:
        run_manifest(manifest, jobs=1)
    finally:
        experiments.run_episode = inner
    return tally


def check_paper(manifest: Manifest, tally: EpisodeTally) -> Outcome:
    out = Outcome()
    root = manifest.output_dir
    # run_metadata.json embeds the absolute game path, so it is not digested
    digested = ["results.csv"] + [f"sweep_{axis}.csv" for axis, _ in PAPER_SWEEPS]
    digested += [f"episodes_{c}.jsonl" for c in PAPER_CONDITIONS]
    for name in digested:
        path = root / name
        out.expect(path.is_file(), f"missing output {name}")
        if path.is_file():
            out.digest[name] = _sha256(path.read_bytes())

    out.episodes = tally.episodes
    out.queries = tally.queries
    out.attempted += tally.episodes
    out.failed += len(tally.errors)
    out.problems += [f"episode ended in error: {e}" for e in tally.errors[:5]]

    rows = (root / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    out.expect(
        [r.split(",")[0] for r in rows] == list(PAPER_CONDITIONS),
        f"results.csv lists conditions {[r.split(',')[0] for r in rows]}",
    )
    cell_episodes = manifest.sweeps[0]["episodes"]
    for axis, values in PAPER_SWEEPS:
        cells = (root / f"sweep_{axis}.csv").read_text(encoding="utf-8").splitlines()[1:]
        out.expect(len(cells) == len(values), f"sweep_{axis}.csv has {len(cells)} cells")
        for cell in cells:
            out.attempted += 1
            # sweep() records any exception as a cell of 0 episodes with NaN
            # rates and goes on; the CSV row leaves out the failure label
            columns = cell.split(",")
            if int(columns[2]) != cell_episodes or math.isnan(float(columns[3])):
                out.failed += 1
                out.problems.append(f"failed sweep cell: {cell[:120]}")

    terminals = 0
    for condition in PAPER_CONDITIONS:
        lines = (root / f"episodes_{condition}.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(ln) for ln in lines]
        starts = [i for i, r in enumerate(records) if r["type"] == "header"]
        ends = sum(r["type"] == "terminal" for r in records)
        out.expect(len(starts) == ends, f"{condition}: headers and terminals do not pair up")
        terminals += ends
        bounds = starts + [len(lines)]
        for a, b in list(zip(bounds, bounds[1:]))[:PAPER_REPLAYS_PER_FILE]:
            out.attempted += 1
            if not replay_lines(lines[a:b]).identical:
                out.failed += 1
                out.problems.append(f"{condition}: replay of line {a} diverged")
    swept = sum(len(values) for _, values in PAPER_SWEEPS) * cell_episodes
    out.expect(
        tally.episodes == terminals + swept,
        f"{tally.episodes} episodes ran, but the logs and sweeps account for {terminals + swept}",
    )
    return out


# ---------------------------------------------------------------------------
# structure: large-n static analysis with cold caches

@dataclass(frozen=True)
class StructureInputs:
    games: tuple
    search_game: object
    verify_game: object
    oracle: OracleSpec
    seed: int
    episodes: int


def setup_structure(seed: int, tiny: bool, out: Path) -> StructureInputs:
    sizes = (6, 8) if tiny else (14, 16, 18)
    return StructureInputs(
        games=tuple(generate_game(n, 3, 0.15, 1.3, seed=seed) for n in sizes),
        search_game=generate_game(6 if tiny else 10, 3, 0.15, 1.3, seed=seed),
        verify_game=generate_game(5 if tiny else 8, 3, 0.15, 1.3, seed=seed),
        oracle=_noisy(0.86, seed + 1),
        seed=seed,
        episodes=10 if tiny else 100,
    )


def run_structure(inp: StructureInputs) -> dict:
    per_game = []
    for game in inp.games:
        result = {
            "value_table": value_table(game),
            "per_capita_table": per_capita_table(game),
            "gap4": value_gap_delta(game, max_size=4),
            "range": coalition_value_range(game),
            "bound": convergence_bound(game) if game.n <= 16 else None,
            "logs": [
                run_episode(EpisodeConfig(
                    game=game, oracles=(inp.oracle,),
                    initial=InitialPartition(kind="random"),
                    seed=inp.seed * 1000 + i, episode_id=i, record_queries=False,
                ))
                for i in range(inp.episodes)
            ],
        }
        per_game.append(result)
    partitions = list(enumerate_partitions(inp.verify_game.n))
    return {
        "games": per_game,
        "stable": find_nash_stable(inp.search_game),
        "partitions": partitions,
        "nash": [verify_nash(inp.verify_game, p).stable for p in partitions],
        "individual": [verify_individual(inp.verify_game, p).stable for p in partitions],
        "core": [verify_core(inp.verify_game, p).stable for p in partitions],
    }


def check_structure(inp: StructureInputs, res: dict) -> Outcome:
    out = Outcome()
    numbers = []
    for game, r in zip(inp.games, res["games"]):
        out.attempted += 5 + (r["bound"] is not None)
        out.expect(len(r["value_table"]) == 1 << game.n, f"n={game.n}: value table size")
        out.expect(r["gap4"] > 0, f"n={game.n}: value gap {r['gap4']} is not positive")
        out.expect(r["range"] >= 0, f"n={game.n}: value range {r['range']} is negative")
        bound = None
        if r["bound"] is not None:
            b = r["bound"]
            bound = [b.max_deviations, b.max_rounds, b.delta, b.value_range]
            out.expect(all(math.isfinite(x) and x > 0 for x in bound), f"n={game.n}: bound {bound}")
        episodes = []
        for log in r["logs"]:
            out.episodes += 1
            out.attempted += 1
            out.queries += log.summary.n_queries
            if log.outcome is EpisodeOutcome.ERROR:
                out.failed += 1
                out.problems.append(f"n={game.n}: episode {log.config.episode_id} ended in error")
            episodes.append([log.outcome.value, log.round_count, log.summary.n_queries])
        numbers.append({
            "n": game.n,
            "value_sum": repr(math.fsum(r["value_table"][1:])),
            "per_capita_sum": repr(math.fsum(r["per_capita_table"][1:])),
            "gap4": repr(r["gap4"]),
            "range": repr(r["range"]),
            "bound": None if bound is None else [repr(x) for x in bound],
            "episodes": episodes,
        })

    out.attempted += 1
    for p in res["stable"]:
        out.expect(verify_nash(inp.search_game, p).stable, f"find_nash_stable returned unstable {p}")
    out.attempted += 3 * len(res["partitions"])
    for p, nash, indiv in zip(res["partitions"], res["nash"], res["individual"]):
        # Nash stability implies individual stability
        out.expect(not nash or indiv, f"Nash-stable {p} is not individually stable")
    numbers.append({
        "stable": [p.blocks() for p in res["stable"]],
        "nash": "".join("1" if x else "0" for x in res["nash"]),
        "individual": "".join("1" if x else "0" for x in res["individual"]),
        "core": "".join("1" if x else "0" for x in res["core"]),
    })
    out.digest["numbers"] = _sha256(json.dumps(numbers, sort_keys=True).encode())
    return out


# ---------------------------------------------------------------------------
# audit: recorded episodes written, replayed and measured

@dataclass(frozen=True)
class AuditInputs:
    game: object
    configs: tuple
    choices: tuple
    bootstrap_iterations: int
    out: Path


AUDIT_RULES = (
    DeviationRule.FIRST_IMPROVING,
    DeviationRule.BEST_IMPROVING,
    DeviationRule.RANDOM_IMPROVING,
)
# the band the epsilon round-trip acceptance criterion (C11) allows at 0.15
EPSILON_TRUE, EPSILON_BAND = 0.15, (0.12, 0.18)
BOUND_ORACLE = _noisy(0.8, 0)


def setup_audit(seed: int, tiny: bool, out: Path) -> AuditInputs:
    game = builtin_game("six_mixed")
    configs = []
    for i in range(20 if tiny else 400):
        # as in C10: every deviation rule, oracles of varying consistency
        rng = derived_rng("bench-audit", seed, i)
        configs.append(EpisodeConfig(
            game=game,
            oracles=(_noisy(0.6 + 0.38 * rng.random(), seed * 1000 + i + 1),),
            initial=InitialPartition(kind="random"),
            rule=AUDIT_RULES[i % 3],
            seed=seed * 1000 + i,
            episode_id=i,
            record_queries=True,
        ))
    # the 10k-row logit choice log of C11, which fixes its own seeds so the
    # estimate is the one that criterion checks
    oracle = OracleSpec(kind=OracleKind.LOGIT, epsilon=EPSILON_TRUE, seed=11)
    rng = derived_rng("accept-log", int(EPSILON_TRUE * 100))
    choices = []
    for i in range(10_000):
        dv = -0.5 + rng.random()
        choices.append(ChoiceRecord(dv, decide(oracle, dv, ("a11", i))))
    return AuditInputs(game, tuple(configs), tuple(choices), 20 if tiny else 500, out)


def run_audit(inp: AuditInputs) -> dict:
    logs = [run_episode(cfg) for cfg in inp.configs]
    inp.out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, log in enumerate(logs):
        path = inp.out / f"episode_{i:04d}.jsonl"
        write_episode_log(log, path)
        paths.append(path)
    return {
        "logs": logs,
        "paths": paths,
        "replays": [replay_file(p) for p in paths],
        "bound": measure_bound_inputs(inp.game, logs, BOUND_ORACLE),
        "epsilon": estimate_epsilon(
            inp.choices, seed=11, bootstrap_iterations=inp.bootstrap_iterations
        ),
    }


def check_audit(inp: AuditInputs, res: dict) -> Outcome:
    out = Outcome()
    files = hashlib.sha256()
    for log, path, replay in zip(res["logs"], res["paths"], res["replays"]):
        out.episodes += 1
        out.attempted += 2
        out.queries += log.summary.n_queries
        if log.outcome is EpisodeOutcome.ERROR:
            out.failed += 1
            out.problems.append(f"episode {log.config.episode_id} ended in error")
        if not replay.identical:
            out.failed += 1
            out.problems.append(f"replay of {path.name} diverged at line {replay.first_divergence}")
        files.update(path.read_bytes())
    est = res["epsilon"]
    lo, hi = EPSILON_BAND
    out.attempted += 2
    out.expect(est.found, "epsilon estimate not found")
    out.expect(est.found and lo <= est.estimate <= hi, f"epsilon estimate {est.estimate} outside [{lo}, {hi}]")
    out.expect(est.ci_low is not None, "epsilon estimate has no confidence interval")
    b = res["bound"]
    out.digest["logs"] = files.hexdigest()
    # the bootstrap CI is left out: its random stream is not part of replay
    out.digest["numbers"] = _sha256(json.dumps(
        [repr(x) for x in (b.p, b.p_easy, b.k_eff, b.k_n, b.gamma, b.delta, est.estimate)]
    ).encode())
    return out


# ---------------------------------------------------------------------------
# external: episodes against the packaged stdio oracle stub

@dataclass(frozen=True)
class ExternalInputs:
    oracles: dict
    configs: tuple


def setup_external(seed: int, tiny: bool, out: Path) -> ExternalInputs:
    game = builtin_game("six_mixed")
    oracles = {
        mode: OracleSpec(kind=OracleKind.EXTERNAL, external=ExternalEndpointSpec(
            command=(sys.executable, "-m", "coalitions.oracle_stub", "--mode", mode),
            timeout_s=10.0,
        ))
        for mode in ("current", "candidate")
    }
    configs = tuple(
        EpisodeConfig(
            game=game,
            oracles=(oracles["current" if i % 2 == 0 else "candidate"],),
            initial=InitialPartition(kind="random"),
            seed=seed * 100_000 + i,
            episode_id=i,
            max_rounds=30,
            record_queries=False,
        )
        for i in range(6 if tiny else 800)
    )
    return ExternalInputs(oracles, configs)


def run_external(inp: ExternalInputs) -> dict:
    with open_sessions(inp.oracles.values()) as sessions:
        logs = [run_episode(cfg, external=sessions) for cfg in inp.configs]
        asks = sum(s.queries_sent for s in sessions.values())
    return {"logs": logs, "asks": asks}


def check_external(inp: ExternalInputs, res: dict) -> Outcome:
    out = Outcome()
    expected_asks = 0
    counts = []
    for cfg, log in zip(inp.configs, res["logs"]):
        out.episodes += 1
        out.attempted += 1
        out.queries += log.summary.n_queries
        if log.outcome is EpisodeOutcome.ERROR:
            out.failed += 1
            out.problems.append(f"episode {cfg.episode_id}: {log.error}")
            continue
        n = cfg.game.n
        if cfg.oracles[0] is inp.oracles["current"]:
            # one full scan, nobody moves: n queries per block, and a lone
            # agent's solo move is a structural tie that is never sent
            blocks = cfg.initial.realize(n, cfg.seed, cfg.episode_id).coalitions
            want = (n * len(blocks), 1, EpisodeOutcome.NASH_STABLE)
            expected_asks += n * len(blocks) - sum(len(b) == 1 for b in blocks)
        else:
            # the first query of every round is accepted, until the budget ends
            want = (cfg.max_rounds, cfg.max_rounds, EpisodeOutcome.TIMEOUT)
            expected_asks += cfg.max_rounds
        got = (log.summary.n_queries, log.round_count, log.outcome)
        out.expect(got == want, f"episode {cfg.episode_id}: got {got}, expected {want}")
        counts.append(log.summary.n_queries)
    out.expect(res["asks"] == expected_asks, f"{res['asks']} oracle calls, expected {expected_asks}")
    out.digest["queries"] = _sha256(json.dumps(counts).encode())
    return out


# ---------------------------------------------------------------------------
# analysis: the structure, audit and external phases in one repetition
#
# Each phase alone is too short to give a steady median on a shared 2-CPU
# host within the benchmark's time budget, so they run back to back and are
# timed together; the traced run still separates their layers.

ANALYSIS_PHASES = {
    "structure": (setup_structure, run_structure, check_structure),
    "audit": (setup_audit, run_audit, check_audit),
    "external": (setup_external, run_external, check_external),
}


def setup_analysis(seed: int, tiny: bool, out: Path) -> dict:
    return {name: setup(seed, tiny, out / name)
            for name, (setup, _, _) in ANALYSIS_PHASES.items()}


def run_analysis(inputs: dict) -> dict:
    return {name: run(inputs[name]) for name, (_, run, _) in ANALYSIS_PHASES.items()}


def check_analysis(inputs: dict, results: dict) -> Outcome:
    out = Outcome()
    for name, (_, _, check) in ANALYSIS_PHASES.items():
        part = check(inputs[name], results[name])
        out.episodes += part.episodes
        out.queries += part.queries
        out.attempted += part.attempted
        out.failed += part.failed
        out.problems += [f"{name}: {p}" for p in part.problems]
        out.digest.update({f"{name}.{k}": v for k, v in part.digest.items()})
    return out


WORKLOADS = {
    "paper": (setup_paper, run_paper, check_paper),
    "analysis": (setup_analysis, run_analysis, check_analysis),
}
