"""CLI subcommands, exit codes, and file formats."""

import json
import shlex
import sys
import time

import pytest

from coalitions.cli import main
from coalitions.game import save_game
from coalitions.preferences import (
    ChoiceRecord,
    OracleKind,
    OracleSpec,
    decide,
    derived_rng,
    write_choice_log,
)
from coalitions.dynamics import EpisodeConfig, InitialPartition, run_episode, write_episode_log

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
    assert run_cli("inspect", game_file, "--epsilon", "0.15", "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 6 and report["d"] == 3
    assert report["bell_n"] == 203
    assert report["gate"] == "FAIL"
    assert any("epsilon >= delta/2" in r for r in report["gate_reasons"])
    assert "monotonicity" not in report


def test_inspect_counterexample_alignment_witness(duo_file, capsys):
    assert run_cli("inspect", duo_file, "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alignment"] == "FAIL"
    assert report["alignment_witness"]["agent"] == 1


def test_inspect_single_agent(tmp_path, solo_game, capsys):
    path = tmp_path / "solo.json"
    save_game(solo_game, path)
    assert run_cli("inspect", path, "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gate"] == "PASS"


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


@pytest.mark.parametrize(
    "content",
    [
        [1, 2],
        {"d": 1, "agents": [{"id": 0, "profile": 0.5}]},
        {"d": 1, "agents": [{"id": 0, "profile": [0.5]}], "aggregation": "componentwise_spread"},
    ],
    ids=["bare-list", "scalar-profile", "unknown-aggregation"],
)
def test_inspect_malformed_game_file_exits_2(content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    assert run_cli("inspect", path) == 2
    assert "error: cannot parse game file" in capsys.readouterr().err


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


def test_verify_individual_concept(duo_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[0], [1]])
    assert run_cli("verify", duo_file, "--partition", part, "--concept", "individual") == 0


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
    assert run_cli("replay", path, "--json") == 1
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
    ],
)
def test_bounds_invalid_params_exit_2(params, message, tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert run_cli("bounds", "--params", path) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


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


def test_estimate_epsilon_command(tmp_path, capsys):
    oracle = OracleSpec(kind=OracleKind.LOGIT, epsilon=0.15, seed=1)
    rng = derived_rng("cli-log", 1)
    rows = []
    for i in range(8000):
        dv = -0.5 + rng.random()
        rows.append(ChoiceRecord(dv, decide(oracle, dv, ("cli", i))))
    path = tmp_path / "choices.csv"
    write_choice_log(rows, path)
    assert run_cli("estimate-epsilon", path, "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.10 <= report["estimate"] <= 0.20


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_estimate_epsilon_without_bins_exits_2(bins, tmp_path, capsys):
    rows = [ChoiceRecord(dv, decide(PERFECT, dv, ())) for dv in (-0.2, -0.1, 0.1, 0.2)]
    path = tmp_path / "choices.csv"
    write_choice_log(rows, path)
    assert run_cli("estimate-epsilon", path, "--bins", bins) == 2
    captured = capsys.readouterr()
    assert f"error: bins must be >= 1, got {bins}" in captured.err
    assert captured.out == ""


def test_estimate_epsilon_no_threshold(tmp_path):
    from coalitions.preferences import Verdict

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
    assert run_cli("run", manifest, "--json") == 0
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
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_run_missing_manifest(tmp_path):
    assert run_cli("run", tmp_path / "none.json") == 2


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
        (("--oracle", "external"), "exactly one of command or url must be set"),
        (("--oracle", "logit", "--epsilon", "0"), "logit oracles require epsilon > 0"),
    ],
)
def test_verify_with_impossible_oracle_flags_exits_2(flags, message, game_file, tmp_path, capsys):
    part = write_partition(tmp_path, [[0, 1], [2, 3], [4, 5]])
    assert run_cli("verify", game_file, "--partition", part, *flags) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


def test_sweep_with_impossible_oracle_flags_exits_2(game_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", game_file, "--axis", "alpha", "--values", "0.1", "--episodes", "2",
        "--oracle", "logit", "--epsilon", "0", "--out", out,
    )
    assert code == 2
    assert "error: logit oracles require epsilon > 0" in capsys.readouterr().err
    assert not out.exists()


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
