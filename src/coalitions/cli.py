"""Command-line interface for the coalition game engine.

Exit codes follow one contract everywhere: 0 success (and stable / clean
replay / bound satisfied), 1 domain-negative (unstable partition, divergent
replay, no threshold found), 2 usage or I/O errors.  Every command prints its
result as one JSON object on stdout; a refused input or a failed file
operation prints one `error:` line on stderr instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import shlex
import sys
from pathlib import Path

from .game import (
    EnumerationBudgetError,
    GameSpec,
    Partition,
    check_potential_alignment,
    coalition_value_range,
    load_game,
    load_partition,
    value_gap_delta,
)
from .preferences import (
    OracleKind,
    OracleSpec,
    estimate_epsilon,
    read_choice_log,
)
from .stability import StabilityConcept, bell_number, verify_core, verify_individual, verify_nash
from .dynamics import oracle_from_dict, replay_file
from .bounds import (
    BoundInputs,
    consistency_regression,
    count_critical_decisions,
    deterministic_preconditions_met,
    stability_lower_bound,
)
from .experiments import (
    SweepAxis,
    load_manifest,
    output_file,
    run_manifest,
    sweep,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _emit(data: dict) -> None:
    """Print a command's result: every command prints one JSON object."""
    print(json.dumps(data, indent=2, sort_keys=True))


def _reason(exc: Exception) -> str:
    """An error line's account of `exc`: a `KeyError` names the missing key."""
    if isinstance(exc, KeyError) and exc.args:
        return f"missing key {exc.args[0]!r}"
    return str(exc)


def _read_or_exit(read, path: str, what: str, *args):
    """`read(path, *args)`; a missing or malformed file exits 2 with an error line."""
    try:
        return read(path, *args)
    except FileNotFoundError:
        print(f"error: {what} not found: {path}", file=sys.stderr)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot parse {what}: {_reason(exc)}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _load_game_or_exit(path: str) -> GameSpec:
    return _read_or_exit(load_game, path, "game file")


def _load_partition_or_exit(path: str, n: int) -> Partition:
    return _read_or_exit(load_partition, path, "partition file", n)


def _check_epsilon(epsilon: float) -> float:
    """`epsilon`, or ValueError when it is no tolerance: NaN, infinite or below 0."""
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"--epsilon must be finite and >= 0, got {epsilon}")
    return epsilon


#: oracle flags that are passed on only when given, by their oracle_from_dict key
_ORACLE_FLAGS = ("epsilon", "p_critical", "p_easy", "critical_gap", "majority_k")
#: the endpoint flags, which only an external oracle takes
_ENDPOINT_FLAGS = ("--oracle-cmd", "--oracle-timeout-ms", "--protocol")


def _oracle_from_args(args) -> OracleSpec:
    """The oracle the flags describe; flags no oracle can have, and endpoint
    flags without `--oracle external`, raise ValueError.

    The flags given become an `oracle_from_dict` dict, so a flag left out
    takes the OracleSpec or ExternalEndpointSpec default.
    """
    data = {"kind": args.oracle, "seed": args.seed}
    data.update(
        (key, getattr(args, key)) for key in _ORACLE_FLAGS if getattr(args, key) is not None
    )
    given = [f for f in _ENDPOINT_FLAGS if getattr(args, f[2:].replace("-", "_")) is not None]
    if args.oracle == OracleKind.EXTERNAL.value:
        endpoint = {"command": args.oracle_cmd, "protocol": args.protocol}
        if args.oracle_timeout_ms is not None:
            endpoint["timeout_s"] = args.oracle_timeout_ms / 1000.0
        data["external"] = {key: v for key, v in endpoint.items() if v is not None}
    elif given:
        raise ValueError(f"only --oracle external takes {', '.join(given)}")
    return oracle_from_dict(data)


def _add_oracle_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--oracle",
        default="perfect",
        choices=[k.value for k in OracleKind],
        help="decision model answering deviation queries",
    )
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--p-critical", type=float)
    parser.add_argument("--p-easy", type=float)
    parser.add_argument("--critical-gap", type=float)
    parser.add_argument("--majority-k", type=int)
    parser.add_argument(
        "--oracle-cmd",
        type=shlex.split,
        metavar="COMMAND",
        help="plugin command line as one shell-quoted string",
    )
    parser.add_argument("--oracle-timeout-ms", type=float)
    parser.add_argument("--protocol", choices=["standard", "cot", "staged"])


def cmd_inspect(args) -> int:
    game = _load_game_or_exit(args.game)
    epsilon = _check_epsilon(args.epsilon)
    delta = (
        value_gap_delta(game)
        if args.max_size is None
        else value_gap_delta(game, max_size=args.max_size)
    )
    report = {
        "n": game.n,
        "d": game.d,
        "alpha": game.alpha,
        "beta": game.beta,
        "bell_n": bell_number(game.n),
        "delta": None if math.isinf(delta) else delta,  # JSON has no Infinity
        "value_range": coalition_value_range(game),
    }
    try:
        aligned = check_potential_alignment(game)
    except EnumerationBudgetError as exc:
        report.update({"alignment": None, "gate": None,
                       "note": f"structural checks skipped: {exc}"})
    else:
        gate = deterministic_preconditions_met(delta, aligned, epsilon)
        report.update(
            {
                "alignment": "pass" if aligned.passed else "FAIL",
                "alignment_witness": None
                if aligned.passed
                else {
                    "agent": aligned.witness.agent,
                    "target": list(aligned.witness.target_members),
                    "partition": aligned.witness.partition.blocks(),
                    "per_capita": [
                        aligned.witness.per_capita_before,
                        aligned.witness.per_capita_after,
                    ],
                    "potential": [
                        aligned.witness.potential_before,
                        aligned.witness.potential_after,
                    ],
                },
                "epsilon": epsilon,
                "gate": "PASS" if gate.met else "FAIL",
                "gate_reasons": list(gate.reasons),
            }
        )
    _emit(report)
    return EXIT_OK


def cmd_run(args) -> int:
    manifest = _read_or_exit(load_manifest, args.manifest, "manifest")
    if not manifest.game_path.exists():
        raise ValueError(f"game file not found: {manifest.game_path}")
    try:
        manifest = dataclasses.replace(
            manifest,
            output_dir=Path(args.output_dir) if args.output_dir else manifest.output_dir,
            seed=manifest.seed if args.seed is None else args.seed,
        )
        written = run_manifest(manifest)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot run manifest: {_reason(exc)}", file=sys.stderr)
        return EXIT_USAGE
    _emit({name: str(path) for name, path in written.items()})
    return EXIT_OK


def cmd_verify(args) -> int:
    game = _load_game_or_exit(args.game)
    partition = _load_partition_or_exit(args.partition, game.n)
    concept = StabilityConcept(args.concept)
    oracle = _oracle_from_args(args)
    behavioral = oracle.kind is not OracleKind.PERFECT
    if behavioral and concept is not StabilityConcept.NASH:
        raise ValueError(
            f"--concept {concept.value} is checked against the game's values; "
            "only --concept nash takes an oracle"
        )
    if concept is StabilityConcept.INDIVIDUAL:
        report = verify_individual(game, partition)
    elif concept is StabilityConcept.CORE:
        report = verify_core(game, partition)
    elif not behavioral:
        report = verify_nash(game, partition)
    elif oracle.kind is OracleKind.EXTERNAL:
        from .plugin import OracleTransportError, open_sessions

        try:
            with open_sessions([oracle]) as sessions:
                report = verify_nash(
                    game, partition, oracle, external=sessions[oracle.external]
                )
        except OracleTransportError as exc:
            print(f"error: oracle plugin failed: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        report = verify_nash(game, partition, oracle)
    _emit(report.to_dict())
    return EXIT_OK if report.stable else EXIT_DOMAIN


def cmd_replay(args) -> int:
    report = _read_or_exit(replay_file, args.log, "log")
    if report.version_warning:
        print(f"warning: {report.version_warning}", file=sys.stderr)
    out = {
        "identical": report.identical,
        "lines_checked": report.lines_checked,
        "first_divergence": report.first_divergence,
    }
    if not report.identical:
        out["recorded"] = report.recorded_line
        out["replayed"] = report.replayed_line
    _emit(out)
    return EXIT_OK if report.identical else EXIT_DOMAIN


def cmd_bounds(args) -> int:
    if (args.game is None) != (args.partition is None):
        raise ValueError("--game and --partition must be given together")
    if args.epsilon is not None and args.game is None:
        raise ValueError("--epsilon needs --game and --partition")
    epsilon = OracleSpec.epsilon if args.epsilon is None else _check_epsilon(args.epsilon)
    params = _read_or_exit(
        lambda path: json.loads(Path(path).read_text(encoding="utf-8")), args.params, "params file"
    )
    if not isinstance(params, dict):
        raise ValueError("params must be a JSON object")
    if args.game is not None:
        game = _load_game_or_exit(args.game)
        partition = _load_partition_or_exit(args.partition, game.n)
        k_eff, k_n = count_critical_decisions(game, partition, epsilon)
        params["k_eff"], params["k_n"] = k_eff, k_n
    try:
        inputs = BoundInputs(
            p=float(params["p"]),
            p_easy=float(params["p_easy"]),
            k_eff=float(params["k_eff"]),
            k_n=float(params["k_n"]),
            gamma=float(params["gamma"]),
            delta=float(params["delta"]),
            epsilon_bar=float(params["epsilon_bar"]),
        )
    except KeyError as exc:
        print(f"error: params missing field {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError) as exc:
        print(f"error: invalid params: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(stability_lower_bound(inputs).to_dict())
    return EXIT_OK


def _read_points(path: str) -> list[tuple[float, float]]:
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        return [(float(row["consistency"]), float(row["nash_rate"])) for row in csv.DictReader(fh)]


def cmd_regress(args) -> int:
    points = _read_or_exit(_read_points, args.points, "points file")
    _emit(consistency_regression(points).to_dict())
    return EXIT_OK


def cmd_sweep(args) -> int:
    game = _load_game_or_exit(args.game)
    oracle = _oracle_from_args(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValueError("--values must be a comma-separated list of numbers") from None
    out = output_file(args.out or f"sweep_{args.axis}.csv")
    options = {} if args.episodes is None else {"episodes": args.episodes}
    cells = sweep(game, SweepAxis(args.axis), values, oracle, seed_base=args.seed, **options)
    write_sweep_csv(cells, out)
    _emit({"written": str(out), "cells": len(cells)})
    return EXIT_OK


def cmd_estimate_epsilon(args) -> int:
    records = _read_or_exit(read_choice_log, args.log, "choice log")
    # the flags given; estimate_epsilon's defaults stand for the rest
    options = {
        key: getattr(args, key)
        for key in ("bins", "min_per_bin", "seed")
        if getattr(args, key) is not None
    }
    est = estimate_epsilon(records, **options)
    out = {
        "found": est.found,
        "estimate": est.estimate,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "bin_centers": list(est.bin_centers),
        "bin_rates": [None if math.isnan(r) else r for r in est.bin_rates],
    }
    _emit(out)
    return EXIT_OK if est.found else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalitions",
        description="Coalition formation games: inspection, episodes, verification, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="structural report for a game file")
    p.add_argument("game")
    p.add_argument("--epsilon", type=float, default=OracleSpec.epsilon)
    p.add_argument("--max-size", type=int)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("run", help="execute an experiment manifest")
    p.add_argument("manifest")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="certify stability of a partition")
    p.add_argument("game")
    p.add_argument("--partition", required=True)
    p.add_argument(
        "--concept", default="nash", choices=[c.value for c in StabilityConcept]
    )
    p.add_argument("--seed", type=int, default=0)
    _add_oracle_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="re-run a recorded episode log and diff it")
    p.add_argument("log")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("bounds", help="evaluate the stability lower bound")
    p.add_argument("--params", required=True, help="JSON with p, p_easy, k_eff, k_n, gamma, delta, epsilon_bar")
    p.add_argument("--game", default=None)
    p.add_argument("--partition", default=None)
    p.add_argument("--epsilon", type=float, help=f"default {OracleSpec.epsilon}; needs --game")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("regress", help="fit stability rate on consistency")
    p.add_argument("points", help="CSV with consistency,nash_rate columns")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("sweep", help="rerun a condition across one axis")
    p.add_argument("game")
    p.add_argument("--axis", required=True, choices=[a.value for a in SweepAxis])
    p.add_argument("--values", required=True, help="comma-separated numbers")
    p.add_argument("--episodes", type=int)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_oracle_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "estimate-epsilon", help="estimate the rationality bound from a choice log"
    )
    p.add_argument("log", help="CSV choice log (delta_v, verdict, ...)")
    p.add_argument("--bins", type=int)
    p.add_argument("--min-per-bin", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_estimate_epsilon)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--values" in argv[:-1]:  # argparse takes "-1,0.2" for an option
        i = argv.index("--values")
        argv[i : i + 2] = [f"--values={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    # one error line for every refused input and failed file operation
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
