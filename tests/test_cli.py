"""CLI subcommands, exit codes, and file formats."""

import collections
import json
import math
import shlex
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import coalitions.cli
import coalitions.game
from coalitions.cli import _oracle_from_args, build_parser, main
from coalitions.game import MAX_ENUM_AGENTS, GameSpec, save_game
from coalitions.preferences import (
    ChoiceRecord,
    OracleKind,
    OracleSpec,
    Verdict,
    decide,
    derived_rng,
    write_choice_log,
)
from coalitions.dynamics import (
    EpisodeConfig,
    InitialPartition,
    oracle_from_dict,
    oracle_to_dict,
    run_episode,
    write_episode_log,
)

PERFECT = OracleSpec(kind=OracleKind.PERFECT)


@pytest.fixture
def game_file(tmp_path, six_mixed):
    path = tmp_path / "game.json"
    save_game(six_mixed, path)
    return path


@pytest.fixture
def duo_file(tmp_path, dominated_pair):
    path = tmp_path / "duo.json"
    save_game(dominated_pair, path)
    return path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# inspect

def test_inspect_reference_game(game_file, capsys):
    assert run_cli("inspect", game_file, "--epsilon", "0.15") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 6 and report["d"] == 3
    assert report["bell_n"] == 203
    assert report["gate"] == "FAIL"
    assert any("epsilon >= delta/2" in r for r in report["gate_reasons"])
    assert "monotonicity" not in report


def test_inspect_counterexample_alignment_witness(duo_file, capsys):
    assert run_cli("inspect", duo_file) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alignment"] == "FAIL"
    assert report["alignment_witness"]["agent"] == 1


def test_inspect_single_agent(tmp_path, solo_game, capsys):
    path = tmp_path / "solo.json"
    save_game(solo_game, path)
    assert run_cli("inspect", path) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gate"] == "PASS"


@pytest.mark.parametrize("size", ["0", "-1"])
def test_inspect_rejects_a_max_size_below_one(size, game_file, capsys):
    assert run_cli("inspect", game_file, "--max-size", size) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: max_size must be >= 1, got {size}\n"
    assert captured.out == ""


def test_inspect_runs_each_structural_check_once(game_file, monkeypatch, capsys):
    calls = collections.Counter()
    for name in ("check_potential_alignment", "value_gap_delta"):
        original = getattr(coalitions.game, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("coalitions") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert run_cli("inspect", game_file) == 0
    assert json.loads(capsys.readouterr().out)["gate"] == "FAIL"
    assert calls == {"check_potential_alignment": 1, "value_gap_delta": 1}


def test_inspect_defaults_are_the_field_defaults(game_file, capsys):
    assert run_cli("inspect", game_file) == 0
    bare = capsys.readouterr().out
    assert run_cli("inspect", game_file, "--epsilon", "0.15", "--max-size", "4") == 0
    assert capsys.readouterr().out == bare
    assert json.loads(bare)["epsilon"] == 0.15


def all_tie_game_file(tmp_path, n):
    # agent i holds skill i alone: every coalition ties, so no move improves
    path = tmp_path / f"tie{n}.json"
    save_game(GameSpec.from_profiles(
        [[float(i == j) for j in range(n)] for i in range(n)], alpha=0.05, beta=1.0
    ), path)
    return path


def test_inspect_reports_alignment_up_to_the_enumeration_cap(tmp_path, capsys):
    path = all_tie_game_file(tmp_path, MAX_ENUM_AGENTS)
    start = time.process_time()
    assert run_cli("inspect", path) == 0
    assert time.process_time() - start < 2.0
    # parse_constant sees only the non-JSON words Infinity, -Infinity and NaN
    report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert report["n"] == 12
    assert report["alignment"] == "pass" and report["alignment_witness"] is None
    # no per-capita gap is nonzero, so delta is inf (null in JSON) and the gate holds
    assert report["delta"] is None
    assert report["gate"] == "PASS" and report["gate_reasons"] == []
    assert "note" not in report


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "-1", "-1e-300"])
def test_inspect_rejects_an_epsilon_that_is_not_finite_or_is_negative(
    epsilon, game_file, monkeypatch, capsys
):
    monkeypatch.setattr(coalitions.cli, "value_gap_delta", pytest.fail)
    assert run_cli("inspect", game_file, f"--epsilon={epsilon}") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --epsilon must be finite and >= 0, got {float(epsilon)}\n"
    assert captured.out == ""


def test_inspect_takes_a_zero_epsilon(game_file, capsys):
    assert run_cli("inspect", game_file, "--epsilon", "0") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["epsilon"] == 0.0 and report["gate"] == "FAIL"
    assert report["gate_reasons"] == ["potential alignment fails"]


def test_inspect_skips_alignment_above_the_enumeration_cap(tmp_path, capsys):
    path = all_tie_game_file(tmp_path, MAX_ENUM_AGENTS + 1)
    assert run_cli("inspect", path) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alignment"] is None and report["gate"] is None
    assert report["note"] == (
        "structural checks skipped: alignment check supports at most 12 agents"
    )


def test_inspect_missing_file(tmp_path, capsys):
    assert run_cli("inspect", tmp_path / "nope.json") == 2


def test_inspect_rejects_more_agents_than_supported(tmp_path, capsys):
    path = tmp_path / "big.json"
    agents = [{"id": i, "profile": [0.5]} for i in range(21)]
    path.write_text(json.dumps({"d": 1, "agents": agents}))
    assert run_cli("inspect", path) == 2
    err = capsys.readouterr().err
    assert "at most 20 agents" in err
    assert "Traceback" not in err


PAIR = [{"id": 0, "profile": [0.5]}, {"id": 1, "profile": [0.3]}]


@pytest.mark.parametrize(
    "content",
    [
        [1, 2],
        {"d": 1, "agents": [{"id": 0, "profile": 0.5}]},
        {"d": 1, "agents": [{"id": 0, "profile": [0.5]}], "aggregation": "componentwise_spread"},
        # JSON files may spell Infinity; a size cost must still be finite
        {"d": 1, "alpha": math.inf, "agents": PAIR},
        {"d": 1, "beta": math.inf, "agents": PAIR},
        {"d": 1, "alpha": 1e308, "beta": 3, "agents": PAIR},
        {"d": 1, "beta": 1e6, "agents": PAIR},
        # no capability dimension: every value would be 0 / 0
        {"d": 0, "agents": [{"id": 0, "profile": []}, {"id": 1, "profile": []}]},
    ],
    ids=[
        "bare-list", "scalar-profile", "unknown-aggregation",
        "infinite-alpha", "infinite-beta", "overflowing-cost", "overflowing-power",
        "no-dimension",
    ],
)
def test_inspect_malformed_game_file_exits_2(content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    assert run_cli("inspect", path) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot parse game file")
    assert captured.err.count("\n") == 1 and captured.out == ""


# ---------------------------------------------------------------------------
# verify

def write_partition(tmp_path, blocks, name="pi.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"coalitions": blocks}))
    return path


def test_verify_merged_counterexample(duo_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[0, 1]])
    code = run_cli("verify", duo_file, "--partition", part, "--concept", "nash")
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["stable"] is False
    assert report["witness"]["agent"] == 0
    assert report["witness"]["to"] == []  # walks out to solo


def test_verify_single_agent_stable(tmp_path, solo_game, capsys):
    path = tmp_path / "solo.json"
    save_game(solo_game, path)
    part = write_partition(tmp_path, [[0]])
    assert run_cli("verify", path, "--partition", part) == 0


def test_verify_core_is_fast(game_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[0, 1], [2, 3], [4, 5]])
    start = time.monotonic()
    code = run_cli("verify", game_file, "--partition", part, "--concept", "core")
    assert time.monotonic() - start < 1.0
    report = json.loads(capsys.readouterr().out)
    assert code == 1  # everyone prefers solo work here
    assert report["concept"] == "core"
    assert report["witness"]["blocking_set"] == [0]


def test_verify_individual_concept(duo_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[0], [1]])
    assert run_cli("verify", duo_file, "--partition", part, "--concept", "individual") == 0


def test_verify_refuses_a_game_whose_size_cost_overflows(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"d": 1, "beta": 1e6, "agents": PAIR}))
    assert run_cli("verify", path, "--partition", write_partition(tmp_path, [[0], [1]])) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot parse game file: size cost alpha * n**beta")
    assert captured.out == ""


def test_verify_bad_partition_file(game_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("verify", game_file, "--partition", bad) == 2


def test_verify_bare_list_partition_file_exits_2(game_file, tmp_path, capsys):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([[0, 1], [2, 3], [4, 5]]))
    assert run_cli("verify", game_file, "--partition", bare) == 2
    assert "error: cannot parse partition" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# replay

def episode_file(tmp_path, game, seed=1, name="ep.jsonl"):
    oracle = OracleSpec(
        kind=OracleKind.CONSISTENCY_NOISE, p_critical=0.8, p_easy=0.98,
        critical_gap=0.3, seed=seed,
    )
    log = run_episode(
        EpisodeConfig(
            game=game, oracles=(oracle,) * game.n, seed=seed,
            initial=InitialPartition(kind="random"),
        )
    )
    path = tmp_path / name
    write_episode_log(log, path)
    return path


def test_replay_clean_log(game_file, tmp_path, six_mixed):
    path = episode_file(tmp_path, six_mixed)
    assert run_cli("replay", path) == 0


def test_replay_tampered_log(tmp_path, six_mixed, capsys):
    path = episode_file(tmp_path, six_mixed, seed=2)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if '"type":"round"' in line and '"deviation":null' not in line:
            lines[i] = line.replace('"phi_before":', '"phi_before":1e9,"x":', 1)
            break
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", path) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["first_divergence"] == i


def test_replay_version_mismatch_warns(tmp_path, six_mixed, capsys):
    path = episode_file(tmp_path, six_mixed, seed=3)
    text = path.read_text().replace('"engine":"', '"engine":"0.0.0+', 1)
    path.write_text(text)
    assert run_cli("replay", path) == 0
    assert "warning" in capsys.readouterr().err


def test_replay_external_oracle_log_is_rejected(tmp_path, six_mixed, capsys):
    log = run_episode(
        EpisodeConfig(game=six_mixed, oracles=(OracleSpec(kind=OracleKind.PERFECT),))
    )
    path = tmp_path / "ext.jsonl"
    write_episode_log(log, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    for oracle in header["config"]["oracles"]:
        oracle["kind"] = "external"
        oracle["external"] = {
            "command": ["python", "-m", "coalitions.oracle_stub"],
            "url": None, "timeout_s": 1.0, "protocol": "staged",
        }
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", path) == 2
    err = capsys.readouterr().err
    assert "error: cannot parse log" in err
    assert "agent 0" in err and "external oracle" in err


# ---------------------------------------------------------------------------
# bounds / regress / estimate-epsilon

def test_bounds_command(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(
        json.dumps(
            {"p": 0.86, "p_easy": 0.98, "k_eff": 5, "k_n": 15, "gamma": 0.90,
             "delta": 0.08, "epsilon_bar": 0.17}
        )
    )
    assert run_cli("bounds", "--params", params) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lower_bound"] == pytest.approx(0.346, abs=5e-3)
    assert report["gamma_formula_bound"] == pytest.approx(0.375, abs=5e-3)


def test_bounds_with_partition_counts(game_file, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(
        json.dumps({"p": 0.86, "p_easy": 0.98, "gamma": 0.9, "delta": 0.08,
                    "epsilon_bar": 0.15})
    )
    part = tmp_path / "pi.json"
    part.write_text(json.dumps({"coalitions": [[0, 1], [2, 3], [4, 5]]}))
    code = run_cli(
        "bounds", "--params", params, "--game", game_file, "--partition", part,
        "--epsilon", "0.15",
    )
    assert code == 0
    assert "lower_bound" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--game", "--partition missing.json"), "error: partition file not found"),
        (("--game", "--partition short.json"), "error: cannot parse partition"),
        (("--game",), "must be given together"),
        (("--partition short.json",), "must be given together"),
    ],
)
def test_bounds_partition_usage_errors(flags, message, game_file, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(
        json.dumps({"p": 0.86, "p_easy": 0.98, "k_eff": 5, "k_n": 15, "gamma": 0.9,
                    "delta": 0.08, "epsilon_bar": 0.15})
    )
    # agents 4 and 5 are left out
    (tmp_path / "short.json").write_text(json.dumps({"coalitions": [[0, 1], [2, 3]]}))
    argv = ["bounds", "--params", params]
    for flag in flags:
        name, _, file = flag.partition(" ")
        argv += [name, tmp_path / file if file else game_file]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


BOUND_PARAMS = {"p": 0.86, "p_easy": 0.98, "k_eff": 5, "k_n": 15, "gamma": 0.9,
                "delta": 0.08, "epsilon_bar": 0.15}


@pytest.mark.parametrize(
    "params, message",
    [
        ({**BOUND_PARAMS, "p": 2}, "error: invalid params: consistency probabilities"),
        ({**BOUND_PARAMS, "gamma": "high"}, "error: invalid params: could not convert"),
        ({**BOUND_PARAMS, "delta": None}, "error: invalid params:"),
        (list(BOUND_PARAMS.values()), "error: params must be a JSON object"),
        (
            {k: v for k, v in BOUND_PARAMS.items() if k != "gamma"},
            "error: params missing field 'gamma'",
        ),
    ],
)
def test_bounds_invalid_params_exit_2(params, message, tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert run_cli("bounds", "--params", path) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def bounds_argv(tmp_path, game_file, *flags):
    """A `bounds` command line over the six-agent game in pairs."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps(BOUND_PARAMS))
    part = write_partition(tmp_path, [[0, 1], [2, 3], [4, 5]])
    return ["bounds", "--params", params, "--game", game_file, "--partition", part, *flags]


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "-1", "-1e-300"])
def test_bounds_rejects_an_epsilon_that_is_not_finite_or_is_negative(
    epsilon, game_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(coalitions.cli, "count_critical_decisions", pytest.fail)
    assert run_cli(*bounds_argv(tmp_path, game_file, f"--epsilon={epsilon}")) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --epsilon must be finite and >= 0, got {float(epsilon)}\n"
    assert captured.out == ""


def test_bounds_refuses_an_epsilon_without_a_game(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(BOUND_PARAMS))
    assert run_cli("bounds", "--params", params, "--epsilon", "0.15") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --epsilon needs --game and --partition\n"
    assert captured.out == ""


def test_bounds_counts_at_the_oracle_epsilon_by_default(game_file, tmp_path, capsys):
    reports = []
    for flags in ((), ("--epsilon", str(OracleSpec.epsilon)), ("--epsilon", "0")):
        assert run_cli(*bounds_argv(tmp_path, game_file, *flags)) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1] != reports[2]


def test_regress_command(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text(
        "consistency,nash_rate\n0.71,0.521\n0.64,0.418\n0.74,0.584\n0.79,0.627\n0.86,0.732\n"
    )
    assert run_cli("regress", points) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["slope"] == pytest.approx(1.41, abs=0.05)
    assert fit["intercept"] == pytest.approx(-0.48, abs=0.05)
    assert fit["r_squared"] >= 0.98


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "error: points file not found: "),
        ("consistency,rate\n0.71,0.521\n", "error: cannot parse points file: missing key 'nash_rate'"),
        # read, but no line can be fitted through them
        ("consistency,nash_rate\n0.71,0.521\n", "error: need at least two points\n"),
        ("consistency,nash_rate\n0.7,0.5\n0.7,0.6\n", "error: degenerate regression: "),
        # a fit JSON could not hold
        ("consistency,nash_rate\n0.5,0.3\nnan,0.4\n0.7,0.6\n",
         "error: regression points must be finite\n"),
        ("consistency,nash_rate\n1e308,0.3\n-1e308,0.4\n",
         "error: the fit overflows the float range\n"),
        ("consistency,nash_rate\n1e308,1e308\n1.7e308,-1e308\n",
         "error: the fit overflows the float range\n"),
        # every square is finite, but the sums are not: the slope is inf / inf
        ("consistency,nash_rate\n-1.3e154,-1.3e154\n1.3e154,1.3e154\n",
         "error: the fit overflows the float range\n"),
    ],
    ids=[
        "missing-file", "missing-column", "one-point", "equal-consistency",
        "nan-point", "overflowing-square", "overflowing-sum", "non-finite-fit",
    ],
)
def test_regress_unreadable_points_exit_2(content, message, tmp_path, capsys):
    points = tmp_path / "points.csv"
    if content is not None:
        points.write_text(content)
    assert run_cli("regress", points) == 2
    assert capsys.readouterr().err.startswith(message)


def test_estimate_epsilon_command(tmp_path, capsys):
    oracle = OracleSpec(kind=OracleKind.LOGIT, epsilon=0.15, seed=1)
    rng = derived_rng("cli-log", 1)
    rows = []
    for i in range(8000):
        dv = -0.5 + rng.random()
        rows.append(ChoiceRecord(dv, decide(oracle, dv, ("cli", i))))
    path = tmp_path / "choices.csv"
    write_choice_log(rows, path)
    assert run_cli("estimate-epsilon", path) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.10 <= report["estimate"] <= 0.20


def write_four_choices(tmp_path):
    rows = [ChoiceRecord(dv, decide(PERFECT, dv, ())) for dv in (-0.2, -0.1, 0.1, 0.2)]
    path = tmp_path / "choices.csv"
    write_choice_log(rows, path)
    return path


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_estimate_epsilon_without_bins_exits_2(bins, tmp_path, capsys):
    assert run_cli("estimate-epsilon", write_four_choices(tmp_path), "--bins", bins) == 2
    captured = capsys.readouterr()
    assert f"error: bins must be >= 1, got {bins}" in captured.err
    assert captured.out == ""


def test_estimate_epsilon_with_empty_bins_allowed_exits_2(tmp_path, capsys):
    # bins 1-8 are empty and bin 9 is the first below the threshold, so a
    # crossing would be read off an empty bin: NaN, which JSON cannot hold
    up, down = Verdict.PREFER_CANDIDATE, Verdict.PREFER_CURRENT
    rows = []
    for _ in range(20):
        rows += [ChoiceRecord(0.05, up), ChoiceRecord(0.05, down),
                 ChoiceRecord(-0.05, down), ChoiceRecord(-0.05, up)]
        rows += [ChoiceRecord(0.95, up)] * 2 + [ChoiceRecord(-0.95, down)] * 2
    path = tmp_path / "choices.csv"
    write_choice_log(rows, path)
    assert run_cli("estimate-epsilon", path, "--min-per-bin", "0") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: min_per_bin must be >= 1, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("bins", ["10000000000", "100000000000000000000"])
def test_estimate_epsilon_with_more_bins_than_choices_can_fill_exits_2(bins, tmp_path, capsys):
    # refused before a 2 * bins count array is allocated
    assert run_cli("estimate-epsilon", write_four_choices(tmp_path), "--bins", bins) == 2
    assert capsys.readouterr() == (
        "", f"error: 4 choices cannot fill {bins} gap bins of at least 30 choices each\n"
    )


def test_estimate_epsilon_with_a_thin_bin_exits_2(tmp_path, capsys):
    # four choices fill two bins of two in total, but three gaps share the
    # first bin and leave one in the second
    rows = [ChoiceRecord(dv, decide(PERFECT, dv, ())) for dv in (0.1, -0.2, 0.3, -1.0)]
    path = tmp_path / "choices.csv"
    write_choice_log(rows, path)
    assert run_cli("estimate-epsilon", path, "--bins", "2", "--min-per-bin", "2") == 2
    assert capsys.readouterr() == (
        "", "error: thinnest gap bin holds 1 choices; need at least 2\n"
    )


def test_estimate_epsilon_rejects_a_seed_no_draw_key_holds(tmp_path, capsys):
    path = write_four_choices(tmp_path)
    assert run_cli("estimate-epsilon", path, "--seed", 10**41) == 2
    assert capsys.readouterr() == ("", f"error: seed must lie in [-2**63, 2**63), got {10**41}\n")


def test_estimate_epsilon_passes_only_the_flags_given(tmp_path, monkeypatch, capsys):
    calls = []

    def estimate(records, **options):
        calls.append(options)
        raise ValueError("stop")

    monkeypatch.setattr(coalitions.cli, "estimate_epsilon", estimate)
    path = tmp_path / "choices.csv"
    write_choice_log([ChoiceRecord(0.1, Verdict.PREFER_CANDIDATE)], path)
    assert run_cli("estimate-epsilon", path) == 2
    assert run_cli("estimate-epsilon", path, "--bins", "5", "--seed", "3") == 2
    assert run_cli("estimate-epsilon", path, "--min-per-bin", "7") == 2
    assert calls == [{}, {"bins": 5, "seed": 3}, {"min_per_bin": 7}]
    assert capsys.readouterr().err == "error: stop\n" * 3


def test_estimate_epsilon_no_threshold(tmp_path):
    rng = derived_rng("cli-rand", 1)
    rows = [
        ChoiceRecord(
            -0.5 + rng.random(),
            Verdict.PREFER_CANDIDATE if rng.random() < 0.5 else Verdict.PREFER_CURRENT,
        )
        for _ in range(5000)
    ]
    path = tmp_path / "choices.csv"
    write_choice_log(rows, path)
    assert run_cli("estimate-epsilon", path) == 1


# ---------------------------------------------------------------------------
# run

def test_run_manifest(tmp_path, game_file, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "game": str(game_file),
                "output_dir": str(tmp_path / "out"),
                "seed": 2,
                "conditions": [{"name": "staged", "episodes": 15}],
            }
        )
    )
    assert run_cli("run", manifest) == 0
    written = json.loads(capsys.readouterr().out)
    assert (tmp_path / "out" / "results.csv").exists()
    assert "results" in written


def test_run_and_sweep_on_one_agent_game(tmp_path, solo_game, deadline, capsys):
    game_path = tmp_path / "solo.json"
    save_game(solo_game, game_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "game": str(game_path),
                "output_dir": str(tmp_path / "out"),
                "conditions": [{"name": "staged", "episodes": 5}, {"name": "greedy", "episodes": 5}],
                "sweeps": [{"axis": "alpha", "values": [0.1, 0.2], "episodes": 5}],
            }
        )
    )
    with deadline(20):
        assert run_cli("run", manifest) == 0
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["staged", "greedy"]
    with deadline(20):
        assert run_cli(
            "sweep", game_path, "--axis", "alpha", "--values", "0.1,0.2",
            "--episodes", "5", "--out", tmp_path / "sweep.csv",
        ) == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3


def test_run_missing_game(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"game": "missing.json", "conditions": []}))
    assert run_cli("run", manifest) == 2


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("inspect", {"agents": []}, "error: cannot parse game file: missing key 'd'"),
        ("replay", {"type": "header"}, "error: cannot parse log: missing key 'config'"),
        ("run", {"conditions": []}, "error: cannot parse manifest: missing key 'game'"),
        (
            "run", {"game": None, "conditions": [{"episodes": 2}]},
            "error: cannot run manifest: missing key 'name'",
        ),
    ],
    ids=["game-file", "log", "manifest", "manifest-condition"],
)
def test_a_missing_key_is_named(command, content, message, tmp_path, game_file, capsys):
    if "game" in content:
        content = {**content, "game": str(game_file), "output_dir": str(tmp_path / "out")}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content) + "\n")
    assert run_cli(command, path) == 2
    assert capsys.readouterr().err.strip() == message


# a valid plugin endpoint, which no manifest run may start
_EXTERNAL = {
    "kind": "external",
    "external": {"command": [sys.executable, "-m", "coalitions.oracle_stub"]},
}


@pytest.mark.parametrize(
    "manifest, message",
    [
        ({"conditions": [{"name": "mystery"}]}, "needs an oracle or sample_only"),
        (
            {"conditions": [{"name": "staged", "episodes": 2}],
             "sweeps": [{"axis": "gamma", "values": [0.1]}]},
            "'gamma' is not a valid SweepAxis",
        ),
        ([{"name": "staged"}], "a manifest is a JSON object"),
        ({"conditions": 5}, "cannot parse manifest"),
        (
            {"conditions": [{"name": "staged", "episodes": 2}], "jobs": 2},
            "error: cannot parse manifest: runs are serial: jobs must be 1, got 2",
        ),
        (
            {"conditions": [{"name": "plugin", "episodes": 2, "oracle": _EXTERNAL}]},
            "error: cannot run manifest: condition 'plugin': an external oracle needs a "
            "plugin session, and manifests do not open one",
        ),
        (
            {"sweeps": [{"axis": "alpha", "values": [0.1], "episodes": 2, "oracle": _EXTERNAL}]},
            "error: cannot run manifest: sweep 'alpha': an external oracle needs a "
            "plugin session, and manifests do not open one",
        ),
        # every seed must fit a draw key's signed 64-bit integer
        (
            {"seed": 10**20, "conditions": [{"name": "staged", "episodes": 2}]},
            f"error: cannot parse manifest: seed must lie in [-2**63, 2**63), got {10**20}",
        ),
        (
            {"conditions": [{"name": "staged", "episodes": 2, "seed_base": 2**63}]},
            f"error: cannot run manifest: seed_base must lie in [-2**63, 2**63), got {2**63}",
        ),
        (
            {"conditions": [{"name": "staged", "episodes": 2, "seed_base": 2**63 - 1}]},
            "error: cannot run manifest: seed_base + episodes - 1 must lie in "
            f"[-2**63, 2**63), got {2**63}",
        ),
        (
            {"sweeps": [{"axis": "alpha", "values": [0.1], "episodes": 2, "seed_base": -2**63 - 1}]},
            f"error: cannot run manifest: seed_base must lie in [-2**63, 2**63), got {-2**63 - 1}",
        ),
        # every sweep cell is built before anything is written, the
        # conditions' logs included
        (
            {"conditions": [{"name": "staged", "episodes": 2}],
             "sweeps": [{"axis": "alpha", "values": [0.1, -1], "episodes": 2}]},
            "error: cannot run manifest: sweep cell alpha=-1: alpha must be > 0",
        ),
        (
            {"conditions": [{"name": "staged", "episodes": 2}],
             "sweeps": [{"axis": "alpha", "values": [0.1, "x"], "episodes": 2}]},
            "error: cannot run manifest: sweep cell alpha='x': not a float",
        ),
        (
            {"conditions": [{"name": "staged", "episodes": 2}],
             "sweeps": [{"axis": "beta", "values": [None], "episodes": 2}]},
            "error: cannot run manifest: sweep cell beta=None: not a float",
        ),
        (
            {"conditions": [{"name": "staged", "episodes": 2}],
             "sweeps": [{"axis": "alpha", "values": [0.1], "episodes": 2,
                         "seed_base": 2**63 - 1}]},
            "error: cannot run manifest: sweep cell alpha=0.1: seed_base + episodes - 1 must "
            f"lie in [-2**63, 2**63), got {2**63}",
        ),
    ],
)
def test_run_bad_manifest_exits_2_and_writes_nothing(manifest, message, tmp_path, game_file, capsys):
    if isinstance(manifest, dict):
        manifest = {"game": str(game_file), "output_dir": str(tmp_path / "out"), **manifest}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("run", path, "--output-dir", tmp_path / "out") == 2
    captured = capsys.readouterr()
    assert "error: " in captured.err and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_seed_flag_no_draw_key_holds(tmp_path, game_file, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(
        {"game": str(game_file), "conditions": [{"name": "staged", "episodes": 2}]}
    ))
    assert run_cli("run", path, "--output-dir", tmp_path / "out", "--seed", 10**20) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot run manifest: seed must lie in [-2**63, 2**63), got {10**20}\n"
    )
    assert not (tmp_path / "out").exists()


def test_run_missing_manifest(tmp_path):
    assert run_cli("run", tmp_path / "none.json") == 2


def test_run_has_no_jobs_flag(tmp_path, game_file, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"game": str(game_file), "conditions": []}))
    with pytest.raises(SystemExit) as exc:
        run_cli("run", manifest, "--jobs", "2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_coalitions_jobs_does_not_change_a_run(tmp_path, game_file, monkeypatch):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"game": str(game_file), "conditions": [{"name": "staged", "episodes": 15}]})
    )
    assert run_cli("run", manifest, "--output-dir", tmp_path / "serial") == 0
    monkeypatch.setenv("COALITIONS_JOBS", "2")
    assert run_cli("run", manifest, "--output-dir", tmp_path / "env") == 0
    csv_bytes = [(tmp_path / d / "results.csv").read_bytes() for d in ("serial", "env")]
    assert csv_bytes[0] == csv_bytes[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("inspect", "{dir}"),
        ("replay", "{dir}"),
        ("regress", "{dir}"),
        ("run", "{dir}"),
        ("bounds", "--params", "{dir}"),
        ("estimate-epsilon", "{dir}"),
        ("sweep", "{game}", "--axis", "alpha", "--values", "0.1", "--episodes", "2",
         "--out", "{dir}"),
        ("run", "{manifest}", "--output-dir", "{game}"),
    ],
    ids=[
        "inspect", "replay", "regress", "run", "bounds-params", "estimate-epsilon",
        "sweep-out-dir", "run-output-dir-is-a-file",
    ],
)
def test_an_os_error_exits_2_with_an_error_line(argv, tmp_path, game_file, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"game": str(game_file), "conditions": [{"name": "staged", "episodes": 2}]})
    )
    paths = {"dir": tmp_path, "game": game_file, "manifest": manifest}
    assert run_cli(*(a.format(**paths) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_sweep_into_a_directory_fails_before_any_cell_runs(
    tmp_path, game_file, monkeypatch, capsys
):
    from coalitions import experiments

    calls = []
    real = experiments.run_condition

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_condition", counted)
    out = tmp_path / "cells"
    out.mkdir()
    code = run_cli(
        "sweep", game_file, "--axis", "agents", "--values", "4,6", "--episodes", "4",
        "--out", out,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert ".cells." not in err
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".cells.")]
    assert calls == []


# ---------------------------------------------------------------------------
# sweep

def test_sweep_command(game_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", game_file, "--axis", "alpha", "--values", "0.1,0.2",
        "--episodes", "8", "--oracle", "consistency_noise", "--out", out,
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("axis,value,n_episodes,nash_rate")
    assert header.endswith(",delta")


def test_sweep_rejects_a_seed_no_draw_key_holds(game_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ("sweep", game_file, "--axis", "alpha", "--values", "0.1", "--episodes", "2")
    assert run_cli(*argv, "--out", out, "--seed", 2**63) == 2
    assert capsys.readouterr() == ("", f"error: seed must lie in [-2**63, 2**63), got {2**63}\n")
    assert not out.exists()


def test_seed_changes_sweep_outputs(game_file, tmp_path):
    outs = []
    for seed in (1, 1, 2):
        out = tmp_path / f"s{seed}_{len(outs)}.csv"
        run_cli(
            "sweep", game_file, "--axis", "lambda", "--values", "0.15,0.2",
            "--episodes", "10", "--oracle", "consistency_noise", "--out", out,
            "--seed", seed,
        )
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_verify_rejects_a_seed_no_draw_key_holds(game_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[i] for i in range(6)])
    argv = ("verify", game_file, "--partition", part, "--oracle", "consistency_noise")
    assert run_cli(*argv, "--seed", 10**20) == 2
    assert capsys.readouterr() == ("", f"error: seed must lie in [-2**63, 2**63), got {10**20}\n")


def test_verify_with_behavioral_oracle(game_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[0], [1], [2], [3], [4], [5]])
    code = run_cli(
        "verify", game_file, "--partition", part, "--oracle", "consistency_noise",
        "--p-critical", "0.99", "--p-easy", "0.999", "--majority-k", "3",
        "--seed", "5",
    )
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "behavioral"
    assert code in (0, 1)  # noisy verification may flip, but must report mode


def test_verify_with_dead_oracle_plugin_exits_2(game_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[0, 1], [2, 3], [4, 5]])
    code = run_cli(
        "verify", game_file, "--partition", part, "--oracle", "external",
        "--oracle-cmd", tmp_path / "no-such-plugin",
    )
    assert code == 2
    assert "cannot start plugin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--oracle", "external"), "an external oracle needs a plugin command"),
        (("--oracle", "logit", "--epsilon", "0"), "logit oracles require epsilon > 0"),
    ],
)
def test_verify_with_impossible_oracle_flags_exits_2(flags, message, game_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[0, 1], [2, 3], [4, 5]])
    assert run_cli("verify", game_file, "--partition", part, *flags) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


_URL = "http://127.0.0.1:1/oracle"
_STUB = [sys.executable, "-m", "coalitions.oracle_stub"]
_NO_COMMAND = "an external oracle needs a plugin command"
_NO_HTTP = "HTTP endpoints were removed: " + _NO_COMMAND
_STRING_COMMAND = "an external oracle's plugin command is a list of arguments, got 'plugin --x'"


@pytest.mark.parametrize(
    "command, given, message",
    [
        ("verify", ("--oracle", "external", "--oracle-cmd", ""), _NO_COMMAND),
        ("verify", ("--oracle", "external", "--oracle-url", _URL), "unrecognized arguments"),
        ("run", {"url": _URL}, _NO_HTTP),
        ("run", {"command": _STUB, "url": _URL}, _NO_HTTP),
        ("run", {}, _NO_COMMAND),
        ("run", {"command": []}, _NO_COMMAND),
        ("run", {"command": None, "url": None}, _NO_COMMAND),  # a null url is still read
        ("run", "plugin", "an external oracle's endpoint must be an object, got 'plugin'"),
        ("run", {"command": "plugin --x"}, _STRING_COMMAND),
        ("replay", {"command": _STUB, "url": _URL}, _NO_HTTP),
        ("replay", {"command": "plugin --x"}, _STRING_COMMAND),
    ],
    ids=[
        "verify-empty-command", "verify-url-flag",
        "run-url", "run-url-and-command", "run-no-command", "run-empty-command",
        "run-null-url", "run-endpoint-not-an-object", "run-string-command", "replay-url",
        "replay-string-command",
    ],
)
def test_old_and_incomplete_endpoints_exit_2(
    command, given, message, game_file, six_mixed, tmp_path, capsys
):
    path = tmp_path / "input.json"
    if command == "verify":
        part = write_partition(tmp_path, [[0, 1], [2, 3], [4, 5]])
        argv = ["verify", game_file, "--partition", part, *given]
    elif command == "run":
        oracle = {"kind": "external", "external": given}
        path.write_text(json.dumps({
            "game": str(game_file), "output_dir": str(tmp_path / "out"),
            "conditions": [{"name": "plugin", "episodes": 2, "oracle": oracle}],
        }))
        argv = ["run", path]
    else:
        log = run_episode(EpisodeConfig(game=six_mixed, oracles=(PERFECT,)))
        write_episode_log(log, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["config"]["oracles"] = [{"kind": "external", "external": given}]
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        argv = ["replay", path]
    try:
        code = run_cli(*argv)
    except SystemExit as exc:  # argparse refuses an unknown flag itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_sweep_with_impossible_oracle_flags_exits_2(game_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", game_file, "--axis", "alpha", "--values", "0.1", "--episodes", "2",
        "--oracle", "logit", "--epsilon", "0", "--out", out,
    )
    assert code == 2
    assert "error: logit oracles require epsilon > 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_values_that_are_not_numbers_exit_2(game_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", game_file, "--axis", "alpha", "--values", "0.1,high", "--out", out)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --values must be a comma-separated list of numbers\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("spelling", [("--values", "-1,0.2"), ("--values=-1,0.2",)])
def test_sweep_values_may_start_with_a_negative_number(spelling, game_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", game_file, "--axis", "alpha", *spelling, "--episodes", "2", "--out", out,
    )
    # the game rejects alpha = -1, which refuses the sweep before any cell runs
    assert code == 2
    assert capsys.readouterr() == ("", "error: sweep cell alpha=-1: alpha must be > 0\n")
    assert not out.exists()


_ENDPOINT_ONLY = [
    ("--oracle-cmd", "/no/such/plugin"),
    ("--oracle-timeout-ms", "5"),
    ("--protocol", "cot"),
]


@pytest.mark.parametrize(
    "flags, named",
    [
        (_ENDPOINT_ONLY[0], "--oracle-cmd"),
        # the error names the flags in one order, whatever order they came in
        (
            ("--oracle-timeout-ms", "5", "--oracle-cmd", "/no/such/plugin"),
            "--oracle-cmd, --oracle-timeout-ms",
        ),
        (_ENDPOINT_ONLY[1], "--oracle-timeout-ms"),
        (_ENDPOINT_ONLY[2], "--protocol"),
        (("--oracle-cmd", "/no/such/plugin", "--protocol", "cot"), "--oracle-cmd, --protocol"),
    ],
)
@pytest.mark.parametrize(
    "oracle", [(), ("--oracle", "perfect"), ("--oracle", "logit", "--epsilon", "0.1")]
)
def test_verify_refuses_endpoint_flags_without_an_external_oracle(
    flags, named, oracle, game_file, tmp_path, capsys
):
    part = write_partition(tmp_path, [[0, 1], [2, 3], [4, 5]])
    assert run_cli("verify", game_file, "--partition", part, *oracle, *flags) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: only --oracle external takes {named}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag", _ENDPOINT_ONLY, ids=lambda f: f[0])
def test_sweep_refuses_endpoint_flags_without_an_external_oracle(
    flag, game_file, tmp_path, capsys
):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", game_file, "--axis", "alpha", "--values", "0.1", "--episodes", "2",
        "--oracle", "consistency_noise", *flag, "--out", out,
    )
    assert code == 2
    assert f"error: only --oracle external takes {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refuses_an_external_oracle_before_any_cell_runs(
    game_file, tmp_path, monkeypatch, capsys
):
    from coalitions import experiments

    calls = []
    real = experiments.run_condition

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_condition", counted)
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", game_file, "--axis", "alpha", "--values", "0.1", "--episodes", "2",
        "--oracle", "external", "--oracle-cmd", f"{sys.executable} -m coalitions.oracle_stub",
        "--out", out,
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: sweep 'alpha': an external oracle needs a plugin session, "
        "and sweeps do not open one\n"
    )
    assert captured.out == ""
    assert calls == []
    assert list(tmp_path.iterdir()) == [game_file]


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("agents", "inf,4", "agents=inf: not a whole number"),
        ("agents", "4,0", "agents=0: agent counts lie in 1..20"),
        ("agents", "3,2.5", "agents=2.5: not a whole number"),
        ("dimension", "2,nan", "dimension=nan: not a whole number"),
        ("beta", "1.2,0.5", "beta=0.5: beta must be finite and >= 1"),
        ("lambda", "0.1,-0.2", "lambda=-0.2: "),
    ],
)
def test_sweep_refuses_a_bad_cell_before_any_cell_runs(
    axis, values, message, game_file, tmp_path, monkeypatch, capsys
):
    from coalitions import experiments

    monkeypatch.setattr(experiments, "run_condition", pytest.fail)
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", game_file, "--axis", axis, "--values", values, "--episodes", "2",
        "--oracle", "logit", "--epsilon", "0.1", "--out", out,
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: sweep cell {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert list(tmp_path.iterdir()) == [game_file]


_SWEEP_ARGV = ("sweep", "game.json", "--axis", "alpha", "--values", "0.1")
_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def oracle_flags(draw):
    """(argv flags, the oracle_from_dict dict they describe): a subset of the
    oracle flags, numbers drawn as ints or floats, the dict taking each number
    as drawn so that a cast missing on either side shows."""
    kind = draw(st.sampled_from([k.value for k in OracleKind]))
    flags, data = ["--oracle", kind], {"kind": kind}
    numbers = {
        "seed": st.integers(0, 2**31),
        "epsilon": st.one_of(st.integers(0, 2), st.floats(0.0, 1.0, **_finite)),
        "p_critical": st.one_of(st.just(1), st.floats(0.3, 1.0, **_finite)),
        "p_easy": st.one_of(st.just(1), st.floats(0.3, 1.0, **_finite)),
        "critical_gap": st.floats(0.0, 1.0, **_finite),
        "majority_k": st.integers(1, 5),
    }
    for key, values in numbers.items():
        if draw(st.booleans()):
            data[key] = draw(values)
            flags += ["--" + key.replace("_", "-"), str(data[key])]
    endpoint = {}
    if draw(st.booleans()):
        command = draw(st.sampled_from(["plugin", "python3 -m plugin --mode 'a b'", ""]))
        flags += ["--oracle-cmd", command]
        endpoint["command"] = shlex.split(command)
    if draw(st.booleans()):
        ms = draw(st.one_of(st.sampled_from([1000, 2500]), st.floats(1.0, 1e5, **_finite)))
        flags += ["--oracle-timeout-ms", str(ms)]
        endpoint["timeout_s"] = ms // 1000 if ms == 1000 else ms / 1000.0
    if draw(st.booleans()):
        endpoint["protocol"] = draw(st.sampled_from(["standard", "cot", "staged"]))
        flags += ["--protocol", endpoint["protocol"]]
    if kind == OracleKind.EXTERNAL.value:
        data["external"] = endpoint
    return flags, data


_ENDPOINT_FLAGS = tuple(flag for flag, _ in _ENDPOINT_ONLY)


@given(oracle_flags())
@settings(max_examples=300, deadline=None)
def test_oracle_flags_and_oracle_dicts_agree(drawn):
    flags, data = drawn
    args = build_parser().parse_args([*_SWEEP_ARGV, *flags])
    try:
        from_flags = json.dumps(oracle_to_dict(_oracle_from_args(args)), sort_keys=True)
    except ValueError as exc:
        from_flags = f"error: {exc}\n"
    # no dict describes endpoint flags given with an internal oracle
    stray = [f for f in flags if f in _ENDPOINT_FLAGS] if "external" not in data else []
    if stray:
        from_dict = f"error: only --oracle external takes {', '.join(stray)}\n"
    else:
        try:
            from_dict = json.dumps(oracle_to_dict(oracle_from_dict(data)), sort_keys=True)
        except ValueError as exc:
            from_dict = f"error: {exc}\n"
    assert from_flags == from_dict


def test_verify_with_oracle_command_taking_flags(game_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[0, 1], [2, 3], [4, 5]])
    command = shlex.join([sys.executable, "-m", "coalitions.oracle_stub", "--mode", "current"])
    code = run_cli(
        "verify", game_file, "--partition", part, "--oracle", "external",
        "--oracle-cmd", command,
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0  # a plugin that always stays declares every partition stable
    assert report["mode"] == "behavioral" and report["stable"] is True


def test_verify_with_a_non_string_plugin_verdict_exits_2(
    game_file, tmp_path, capsys, answering_plugin
):
    part = write_partition(tmp_path, [[0, 1], [2, 3], [4, 5]])
    code = run_cli(
        "verify", game_file, "--partition", part, "--oracle", "external",
        "--oracle-cmd", shlex.join(answering_plugin(verdict=5, raw="")),
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error: oracle plugin failed" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("concept", ["core", "individual"])
@pytest.mark.parametrize(
    "flags",
    [
        ("--oracle", "consistency_noise"),
        ("--oracle", "logit", "--epsilon", "0.1"),
        ("--oracle", "external", "--oracle-cmd", "no-such-plugin"),
    ],
)
def test_verify_value_concepts_refuse_an_oracle(concept, flags, game_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[0, 1], [2, 3], [4, 5]])
    assert run_cli("verify", game_file, "--partition", part, "--concept", concept, *flags) == 2
    captured = capsys.readouterr()
    assert f"error: --concept {concept}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("concept", ["core", "individual"])
def test_verify_value_concepts_parse_the_oracle_flags(concept, game_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[0, 1], [2, 3], [4, 5]])
    code = run_cli(
        "verify", game_file, "--partition", part, "--concept", concept,
        "--oracle", "logit", "--epsilon", "0",
    )
    assert code == 2
    assert "error: logit oracles require epsilon > 0" in capsys.readouterr().err


def test_replay_multi_episode_condition_file(tmp_path, game_file):
    manifest = tmp_path / "m.json"
    manifest.write_text(
        json.dumps(
            {
                "game": str(game_file),
                "output_dir": str(tmp_path / "out"),
                "seed": 9,
                "conditions": [{"name": "cot", "episodes": 6}],
            }
        )
    )
    assert run_cli("run", manifest) == 0
    log_file = tmp_path / "out" / "episodes_cot.jsonl"
    assert run_cli("replay", log_file) == 0


# ---------------------------------------------------------------------------
# one output format

def _one_argv_per_command(tmp_path, game_file, six_mixed) -> dict:
    """A successful argv of every subcommand."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "game": str(game_file), "output_dir": str(tmp_path / "out"),
        "conditions": [{"name": "staged", "episodes": 2}],
    }))
    params = tmp_path / "params.json"
    params.write_text(json.dumps(BOUND_PARAMS))
    points = tmp_path / "points.csv"
    points.write_text("consistency,nash_rate\n0.5,0.3\n0.7,0.6\n")
    choices = tmp_path / "choices.csv"
    write_choice_log([ChoiceRecord(dv, decide(PERFECT, dv, ())) for dv in (-0.2, 0.2)], choices)
    return {
        "inspect": ["inspect", game_file],
        "run": ["run", manifest],
        "verify": ["verify", game_file, "--partition",
                   write_partition(tmp_path, [[i] for i in range(6)])],
        "replay": ["replay", episode_file(tmp_path, six_mixed)],
        "bounds": ["bounds", "--params", params],
        "regress": ["regress", points],
        "sweep": ["sweep", game_file, "--axis", "alpha", "--values", "0.1", "--episodes", "2",
                  "--out", tmp_path / "sweep.csv"],
        "estimate-epsilon": ["estimate-epsilon", choices, "--bins", "1", "--min-per-bin", "1"],
    }


def test_every_command_prints_one_json_object(tmp_path, game_file, six_mixed, capsys):
    argvs = _one_argv_per_command(tmp_path, game_file, six_mixed)
    [commands] = [a.choices for a in build_parser()._actions if a.dest == "command"]
    assert set(argvs) == set(commands)
    for name, argv in argvs.items():
        assert run_cli(*argv) == 0, name
        assert isinstance(json.loads(capsys.readouterr().out), dict), name


def test_no_command_takes_a_json_flag(tmp_path, game_file, six_mixed, capsys):
    for name, argv in _one_argv_per_command(tmp_path, game_file, six_mixed).items():
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--json")
        assert exc.value.code == 2, name
        assert "unrecognized arguments: --json" in capsys.readouterr().err, name
