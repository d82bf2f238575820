"""Command-line interface for the coalition game engine.

Exit codes follow one contract everywhere: 0 success (and stable / clean
replay / bound satisfied), 1 domain-negative (unstable partition, divergent
replay, no threshold found), 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
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
    ExternalEndpointSpec,
    OracleKind,
    OracleSpec,
    estimate_epsilon,
    read_choice_log,
)
from .stability import StabilityConcept, bell_number, verify_core, verify_individual, verify_nash
from .dynamics import replay_file
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
    run_manifest,
    sweep,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _emit(data: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")


def _load_game_or_exit(path: str) -> GameSpec:
    try:
        return load_game(path)
    except FileNotFoundError:
        print(f"error: game file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot parse game file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_partition_or_exit(path: str, n: int) -> Partition:
    try:
        return load_partition(path, n=n)
    except FileNotFoundError:
        print(f"error: partition file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot parse partition: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _oracle_from_args(args) -> OracleSpec:
    """The oracle the flags describe; flags no oracle can have exit 2."""
    kind = OracleKind(args.oracle)
    try:
        external = None
        if kind is OracleKind.EXTERNAL:
            command = tuple(args.oracle_cmd) if args.oracle_cmd else None
            external = ExternalEndpointSpec(
                command=command,
                url=args.oracle_url,
                timeout_s=args.oracle_timeout_ms / 1000.0,
                protocol=args.protocol,
            )
        return OracleSpec(
            kind=kind,
            epsilon=args.epsilon,
            p_critical=args.p_critical,
            p_easy=args.p_easy,
            critical_gap=args.critical_gap,
            seed=args.seed,
            majority_k=args.majority_k,
            external=external,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_oracle_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--oracle",
        default="perfect",
        choices=[k.value for k in OracleKind],
        help="decision model answering deviation queries",
    )
    parser.add_argument("--epsilon", type=float, default=0.15)
    parser.add_argument("--p-critical", type=float, default=0.86)
    parser.add_argument("--p-easy", type=float, default=0.98)
    parser.add_argument("--critical-gap", type=float, default=None)
    parser.add_argument("--majority-k", type=int, default=1)
    parser.add_argument(
        "--oracle-cmd",
        type=shlex.split,
        default=None,
        metavar="COMMAND",
        help="plugin command line as one shell-quoted string",
    )
    parser.add_argument("--oracle-url", default=None)
    parser.add_argument("--oracle-timeout-ms", type=float, default=10_000.0)
    parser.add_argument(
        "--protocol", default="staged", choices=["standard", "cot", "staged"]
    )


def cmd_inspect(args) -> int:
    game = _load_game_or_exit(args.game)
    delta = value_gap_delta(game, max_size=args.max_size)
    report = {
        "n": game.n,
        "d": game.d,
        "alpha": game.alpha,
        "beta": game.beta,
        "bell_n": bell_number(game.n),
        "delta": delta,
        "value_range": coalition_value_range(game),
    }
    try:
        aligned = check_potential_alignment(game)
        gate = deterministic_preconditions_met(game, args.epsilon, max_size=args.max_size)
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
                "epsilon": args.epsilon,
                "gate": "PASS" if gate.met else "FAIL",
                "gate_reasons": list(gate.reasons),
            }
        )
    except EnumerationBudgetError as exc:
        report.update({"alignment": None, "gate": None,
                       "note": f"structural checks skipped: {exc}"})
    _emit(report, args.json)
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        manifest = load_manifest(args.manifest)
    except FileNotFoundError:
        print(f"error: manifest not found: {args.manifest}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot parse manifest: {exc}", file=sys.stderr)
        return EXIT_USAGE
    manifest = dataclasses.replace(
        manifest,
        output_dir=Path(args.output_dir) if args.output_dir else manifest.output_dir,
        seed=manifest.seed if args.seed is None else args.seed,
    )
    if not manifest.game_path.exists():
        print(f"error: game file not found: {manifest.game_path}", file=sys.stderr)
        return EXIT_USAGE
    jobs = args.jobs if args.jobs else manifest.jobs
    try:
        written = run_manifest(manifest, jobs=jobs)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot run manifest: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit({name: str(path) for name, path in written.items()}, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    game = _load_game_or_exit(args.game)
    partition = _load_partition_or_exit(args.partition, game.n)
    concept = StabilityConcept(args.concept)
    if concept is StabilityConcept.NASH:
        if args.oracle != "perfect" or args.oracle_cmd or args.oracle_url:
            oracle = _oracle_from_args(args)
            if oracle.kind is OracleKind.EXTERNAL:
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
        else:
            report = verify_nash(game, partition)
    elif concept is StabilityConcept.INDIVIDUAL:
        report = verify_individual(game, partition)
    else:
        report = verify_core(game, partition, max_block_size=args.max_block_size)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.stable else EXIT_DOMAIN


def cmd_replay(args) -> int:
    try:
        report = replay_file(args.log)
    except FileNotFoundError:
        print(f"error: log not found: {args.log}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse log: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    _emit(out, args.json)
    return EXIT_OK if report.identical else EXIT_DOMAIN


def cmd_bounds(args) -> int:
    if (args.game is None) != (args.partition is None):
        print("error: --game and --partition must be given together", file=sys.stderr)
        return EXIT_USAGE
    try:
        params = json.loads(Path(args.params).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: params file not found: {args.params}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: cannot parse params: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(params, dict):
        print("error: params must be a JSON object", file=sys.stderr)
        return EXIT_USAGE
    if args.game is not None:
        game = _load_game_or_exit(args.game)
        partition = _load_partition_or_exit(args.partition, game.n)
        k_eff, k_n = count_critical_decisions(game, partition, args.epsilon)
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
    report = stability_lower_bound(inputs)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_regress(args) -> int:
    import csv as _csv

    try:
        with open(args.points, newline="", encoding="utf-8") as fh:
            reader = _csv.DictReader(fh)
            points = [
                (float(row["consistency"]), float(row["nash_rate"])) for row in reader
            ]
    except FileNotFoundError:
        print(f"error: points file not found: {args.points}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        print(
            "error: points CSV needs consistency,nash_rate columns "
            f"({exc})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        fit = consistency_regression(points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(fit.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    game = _load_game_or_exit(args.game)
    oracle = _oracle_from_args(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print("error: --values must be a comma-separated list of numbers", file=sys.stderr)
        return EXIT_USAGE
    cells = sweep(
        game,
        SweepAxis(args.axis),
        values,
        oracle,
        episodes=args.episodes,
        seed_base=args.seed,
        jobs=args.jobs or 1,
    )
    out = Path(args.out) if args.out else Path(f"sweep_{args.axis}.csv")
    write_sweep_csv(cells, out)
    _emit({"written": str(out), "cells": len(cells)}, args.json)
    return EXIT_OK


def cmd_estimate_epsilon(args) -> int:
    try:
        records = read_choice_log(args.log)
    except FileNotFoundError:
        print(f"error: choice log not found: {args.log}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        print(f"error: cannot parse choice log: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        est = estimate_epsilon(
            records, bins=args.bins, min_per_bin=args.min_per_bin, seed=args.seed
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = {
        "found": est.found,
        "estimate": est.estimate,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "bin_centers": list(est.bin_centers),
        "bin_rates": [None if math.isnan(r) else r for r in est.bin_rates],
    }
    _emit(out, args.json)
    return EXIT_OK if est.found else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalitions",
        description="Coalition formation games: inspection, episodes, verification, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="structural report for a game file")
    p.add_argument("game")
    p.add_argument("--epsilon", type=float, default=0.15)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("run", help="execute an experiment manifest")
    p.add_argument("manifest")
    p.add_argument("--jobs", type=int, default=int(os.environ.get("COALITIONS_JOBS", "0")) or None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="certify stability of a partition")
    p.add_argument("game")
    p.add_argument("--partition", required=True)
    p.add_argument(
        "--concept", default="nash", choices=[c.value for c in StabilityConcept]
    )
    p.add_argument("--max-block-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    _add_oracle_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="re-run a recorded episode log and diff it")
    p.add_argument("log")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("bounds", help="evaluate the stability lower bound")
    p.add_argument("--params", required=True, help="JSON with p, p_easy, k_eff, k_n, gamma, delta, epsilon_bar")
    p.add_argument("--game", default=None)
    p.add_argument("--partition", default=None)
    p.add_argument("--epsilon", type=float, default=0.15)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("regress", help="fit stability rate on consistency")
    p.add_argument("points", help="CSV with consistency,nash_rate columns")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("sweep", help="rerun a condition across one axis")
    p.add_argument("game")
    p.add_argument("--axis", required=True, choices=[a.value for a in SweepAxis])
    p.add_argument("--values", required=True, help="comma-separated numbers")
    p.add_argument("--episodes", type=int, default=200)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=int(os.environ.get("COALITIONS_JOBS", "0")) or None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    _add_oracle_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "estimate-epsilon", help="estimate the rationality bound from a choice log"
    )
    p.add_argument("log", help="CSV choice log (delta_v, verdict, ...)")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--min-per-bin", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_estimate_epsilon)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
