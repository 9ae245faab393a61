import json
from pathlib import Path

import pytest

from ledgerlab.cli import load_scenario, main

BASE = {
    "n": 3, "f": 1, "clients": 2, "mode": "atomic", "seed": 3,
    "workload": {"ops_per_client": 6, "append_ratio": 0.6},
}


@pytest.fixture
def scen_file(tmp_path):
    def write(**overrides):
        obj = dict(BASE)
        obj.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def test_run_writes_the_artifact_layout(scen_file, tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["run", "--scenario", scen_file(), "--out", str(out)]) == 0
    for name in ("history.jsonl", "abtrace.jsonl", "states.json", "meta.json"):
        assert (out / name).exists()
    line = capsys.readouterr().out
    assert "ops=" in line and "appended=" in line and "crashes=" in line
    history = (out / "history.jsonl").read_text()
    assert history.endswith("\n")


def test_run_twice_is_byte_identical(scen_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", scen_file(), "--out", str(a)])
    main(["run", "--scenario", scen_file(), "--out", str(b)])
    assert (a / "history.jsonl").read_bytes() == (b / "history.jsonl").read_bytes()
    assert (a / "abtrace.jsonl").read_bytes() == (b / "abtrace.jsonl").read_bytes()


def test_seed_override_changes_the_run(scen_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", scen_file(), "--out", str(a)])
    main(["run", "--scenario", scen_file(), "--seed", "77", "--out", str(b)])
    assert (a / "history.jsonl").read_bytes() != (b / "history.jsonl").read_bytes()
    assert json.loads((b / "meta.json").read_text())["seed"] == 77


def test_majority_violation_exits_2(scen_file, tmp_path, capsys):
    code = main(["run", "--scenario", scen_file(n=4, f=2), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "majority" in capsys.readouterr().err


def test_missing_scenario_exits_2(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "x")]) == 2


def test_check_pass_and_verdict_file(scen_file, tmp_path):
    art = tmp_path / "art"
    main(["run", "--scenario", scen_file(), "--out", str(art)])
    for checker in ("atomic", "sequential", "eventual", "abcast"):
        assert main(["check", str(art), "--checker", checker]) == 0
        verdict = json.loads((art / "verdict.json").read_text())
        assert verdict["checker"] == checker
        assert verdict["status"] == "pass"
        assert verdict["witness"] == []
        assert isinstance(verdict["oracle_used"], bool)


def test_check_failure_exits_3_with_witness(scen_file, tmp_path):
    art = tmp_path / "art"
    # eventual mode exhibits staleness on this seed at these settings
    code = None
    for seed in range(50):
        main(["run", "--scenario", scen_file(mode="eventual", seed=seed,
                                             workload={"ops_per_client": 12,
                                                       "append_ratio": 0.6}),
              "--out", str(art)])
        code = main(["check", str(art), "--checker", "atomic"])
        if code == 3:
            break
    assert code == 3
    verdict = json.loads((art / "verdict.json").read_text())
    assert verdict["status"] == "fail" and verdict["witness"]


def test_check_on_missing_artifact_exits_2(tmp_path):
    assert main(["check", str(tmp_path / "nowhere"), "--checker", "atomic"]) == 2


def _string_counter_on_first_invoke(history):
    lines = history.splitlines(keepends=True)
    first = json.loads(lines[0])
    assert first["ev"] == "invoke"
    first["c"] = "c"
    return json.dumps(first, separators=(",", ":")) + "\n" + "".join(lines[1:])


@pytest.mark.parametrize("name,corrupt", [
    ("history.jsonl", _string_counter_on_first_invoke),
    ("states.json", lambda _: json.dumps({"0": [1]})),
    ("meta.json", lambda _: "[]"),
], ids=["history-string-counter", "states-int-record", "meta-list"])
def test_malformed_artifact_exits_2(scen_file, tmp_path, capsys, name, corrupt):
    art = tmp_path / "art"
    main(["run", "--scenario", scen_file(), "--out", str(art)])
    (art / name).write_text(corrupt((art / name).read_text()))
    assert main(["check", str(art), "--checker", "atomic"]) == 2
    assert "artifact corrupt" in capsys.readouterr().err


def test_readme_scenario_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "scenario.json"
    path.write_text(example)
    assert load_scenario(path).predicate is not None


def test_eventual_check_requires_probes(scen_file, tmp_path):
    art = tmp_path / "art"
    main(["run", "--scenario", scen_file(probe_gets=0), "--out", str(art)])
    assert main(["check", str(art), "--checker", "eventual"]) == 2


def test_vspec_round_trip_on_a_single_client_run(scen_file, tmp_path):
    art = tmp_path / "art"
    # deposits only: every append is valid, so the filtered run replays clean
    ops = [[["append", "deposit:A:1"], ["get", None], ["append", "deposit:A:2"],
            ["get", None]]]
    main(["run", "--scenario",
          scen_file(clients=1, workload=ops,
                    predicate={"kind": "account_balance", "balances": {"A": 0}}),
          "--out", str(art)])
    assert main(["check", str(art), "--checker", "vspec"]) == 0


def test_vspec_flags_acked_invalid_appends(scen_file, tmp_path):
    art = tmp_path / "art"
    # the read-side-repair route acks everything, so an invalid append is a
    # genuine deviation from the strict validated behaviour
    ops = [[["append", "withdraw:A:5"], ["get", None]]]
    main(["run", "--scenario",
          scen_file(clients=1, workload=ops,
                    predicate={"kind": "account_balance", "balances": {"A": 0}}),
          "--out", str(art)])
    assert main(["check", str(art), "--checker", "vspec"]) == 3
    verdict = json.loads((art / "verdict.json").read_text())
    assert verdict["violated"] == "Def5-2a"


def test_vspec_refuses_concurrent_histories(scen_file, tmp_path):
    art = tmp_path / "art"
    main(["run", "--scenario",
          scen_file(predicate={"kind": "always_true"}), "--out", str(art)])
    assert main(["check", str(art), "--checker", "vspec"]) == 2


def test_campaign_reports_and_exit_codes(scen_file, tmp_path, capsys):
    rep = tmp_path / "rep"
    code = main(["campaign", "--scenario", scen_file(), "--seeds", "0:20",
                 "--checker", "atomic", "--checker", "abcast",
                 "--jobs", "1", "--out", str(rep)])
    assert code == 0
    report = json.loads((rep / "report.json").read_text())
    for name in ("atomic", "abcast"):
        agg = report["aggregate"][name]
        assert sum(agg.values()) == 20
        assert agg["pass"] == 20
    assert (rep / "report.txt").exists()
    assert "checker" in capsys.readouterr().out


def test_campaign_parallel_workers_match_serial(scen_file, tmp_path):
    from ledgerlab.cli import run_campaign
    from ledgerlab.sim import scenario_from_dict
    sc = scenario_from_dict(json.loads((tmp_path / "scenario.json").read_text())
                            if (tmp_path / "scenario.json").exists() else BASE)
    serial = run_campaign(sc, 0, 8, ("atomic",), jobs=1)
    parallel = run_campaign(sc, 0, 8, ("atomic",), jobs=2)
    assert serial["rows"] == parallel["rows"]


def test_campaign_with_failures_exits_3(scen_file, tmp_path):
    code = main(["campaign", "--scenario",
                 scen_file(mode="eventual", workload={"ops_per_client": 12,
                                                      "append_ratio": 0.6}),
                 "--seeds", "0:30", "--checker", "atomic", "--jobs", "1"])
    assert code == 3


def test_campaign_rejects_bad_seed_spec(scen_file):
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "abc"]) == 2
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "0:0"]) == 2


def test_consensus_command(capsys):
    assert main(["consensus", "--n", "3", "--f", "1", "--proposers", "3",
                 "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "agreement=ok" in out and "validity=ok" in out and "termination=ok" in out


def test_consensus_with_shared_value(capsys):
    assert main(["consensus", "--n", "3", "--f", "1", "--proposers", "3",
                 "--seed", "4", "--values", "v,v,v"]) == 0
    assert out_decisions(capsys.readouterr().out) == {"v"}


def test_consensus_majority_check():
    assert main(["consensus", "--n", "3", "--f", "2", "--proposers", "2"]) == 2
    assert main(["consensus", "--n", "2", "--f", "3", "--proposers", "2"]) == 2


def test_divergence_maps_to_exit_4():
    from ledgerlab.cli import _verdict_exit
    from ledgerlab.verdicts import Verdict
    assert _verdict_exit(Verdict("divergence")) == 4
    assert _verdict_exit(Verdict("fail", "A2", ["0.1"])) == 3
    assert _verdict_exit(Verdict("pass")) == 0


def test_log_env_var_is_accepted(scen_file, tmp_path, monkeypatch):
    monkeypatch.setenv("LEDGERLAB_LOG", "debug")
    assert main(["run", "--scenario", scen_file(), "--out", str(tmp_path / "a")]) == 0


def out_decisions(text):
    decisions = set()
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0].isdigit():
            decisions.add(parts[2])
    return decisions
