import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ledgerlab import sim
from ledgerlab.checkers import CheckerError
from ledgerlab.cli import CHECKER_NAMES, load_scenario, main, run_checker
from ledgerlab.histories import events_from_jsonl, events_to_jsonl
from ledgerlab.protocols import MODES

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
    assert sorted(p.name for p in out.iterdir()) == ["abtrace.jsonl", "history.jsonl",
                                                     "meta.json"]
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


def test_max_delay_past_one_word_exits_2(scen_file, tmp_path, capsys):
    code = main(["run", "--scenario", scen_file(max_delay=2 ** 32), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "max_delay must be an integer in [1, 2**32)" in capsys.readouterr().err
    assert main(["run", "--scenario", scen_file(max_delay=2 ** 32 - 1),
                 "--out", str(tmp_path / "y")]) == 0


def test_bad_account_payloads_exit_2(scen_file, tmp_path, capsys):
    workload = {"ops_per_client": 4, "append_ratio": 1.0,
                "payloads": {"kind": "account", "accounts": []}}
    code = main(["run", "--scenario", scen_file(workload=workload), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "workload.payloads.accounts" in capsys.readouterr().err


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


def _jsonl_edit(has, edit):
    """Apply ``edit`` to the first JSONL object for which ``has`` holds."""
    def corrupt(text):
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if has(json.loads(line)))
        obj = json.loads(lines[i])
        edit(obj)
        lines[i] = json.dumps(obj, separators=(",", ":"))
        return "\n".join(lines) + "\n"
    return corrupt


def _columns(text):
    """A column file's columns, as a name -> list dict in file order."""
    return {k: v for line in text.splitlines() for k, v in json.loads(line).items()}


def _column_edit(edit):
    """Apply ``edit`` to the columns of a history or trace file, kept in their order."""
    def corrupt(text):
        columns = _columns(text)
        edit(columns)
        return "".join(json.dumps({k: v}, separators=(",", ":")) + "\n"
                       for k, v in columns.items())
    return corrupt


def _entry(name, value):
    """Set the first entry of the column ``name`` to ``value``."""
    return _column_edit(lambda columns: columns[name].__setitem__(0, value))


def _without_first(*names):
    """Drop the first entry of each of the history columns ``names``."""
    return _column_edit(lambda columns: [columns[name].pop(0) for name in names])


def _one_entry_short(name):
    return _column_edit(lambda columns: columns[name].pop())


def _one_entry_long(name):
    return _column_edit(lambda columns: columns[name].append(columns[name][0]))


def _first_delivery(value):
    """Set server 0's first delivery time to ``value(time)``."""
    def edit(columns):
        columns["delivered"][0][0] = value(columns["delivered"][0][0])
    return _column_edit(edit)


def _old_trace_layout(text):
    """The trace in the earlier layout: its broadcasts, then a line per server."""
    c = _columns(text)
    objs = [{"sender": c["sender"], "t": c["t"]},
            *({"server": k, "crash": crash, "t": t}
              for k, (crash, t) in enumerate(zip(c["crash"], c["delivered"])))]
    return "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in objs)


def _payload_on_a_get_invoke(columns):
    """Give the first get invoke a payload: one more payload, in its place."""
    events = list(zip(columns["ev"], columns["kind"]))
    i = events.index(("invoke", "get"))
    columns["payload"].insert(events[:i].count(("invoke", "append")), "x")


def _line_edit(edit):
    """Apply ``edit`` to the list of a file's lines."""
    def corrupt(text):
        lines = text.splitlines(keepends=True)
        edit(lines)
        return "".join(lines)
    return corrupt


def _op_line_first(text):
    """The history in the earlier ten-line layout: its op ids, ``<client>.<c>``,
    as an ``op`` column before the others."""
    columns = _columns(text)
    ops = [f"{client}.{c}" for client, c in zip(columns["client"], columns["c"])]
    return json.dumps({"op": ops}, separators=(",", ":")) + "\n" + text


def _one_event_per_line(text):
    """The history in the earlier layout: one event per line, each carrying
    its own payload, result or p and tail."""
    columns = _columns(text)
    carried = {
        ("invoke", "append"): iter([{"payload": v} for v in columns["payload"]]),
        ("response", "append"): iter([{"result": v} for v in columns["result"]]),
        ("response", "get"): iter([{"p": p, "tail": tail}
                                   for p, tail in zip(columns["p"], columns["tail"])]),
    }
    lines = []
    for client, ev, kind, c, t in zip(*list(columns.values())[:5]):
        obj = {"op": f"{client}.{c}", "client": client, "ev": ev, "kind": kind, "c": c, "t": t,
               **next(carried.get((ev, kind), iter([{}])))}
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return "".join(lines)


def _v1_read(obj):
    """Store a read as the old layout did: its whole sequence as ``seq``."""
    assert obj.pop("p") == 0  # the first read, so its tail is its sequence
    obj["seq"] = obj.pop("tail")


def _meta_field(path, value):
    """Set the meta.json field at the key path ``path`` to ``value``."""
    def corrupt(text):
        meta = json.loads(text)
        obj = meta
        for k in path[:-1]:
            obj = obj[k]
        obj[path[-1]] = value
        return json.dumps(meta)
    return corrupt


def _without_probes(text):
    """Set the scenario's probe_gets to 0, its hash to match, and keep
    probe_from_t."""
    meta = json.loads(text)
    meta["scenario"]["probe_gets"] = 0
    meta["scenario_sha256"] = sim.scenario_from_dict(meta["scenario"]).sha256
    return json.dumps(meta)


@pytest.mark.parametrize("name,corrupt,checker", [
    ("history.jsonl", _entry("c", "c"), "atomic"),
    ("meta.json", lambda _: "[]", "atomic"),
    ("history.jsonl", _entry("client", [0]), "atomic"),
    ("history.jsonl", _op_line_first, "atomic"),
    ("history.jsonl", _entry("t", "x"), "eventual"),
    ("history.jsonl", _entry("c", True), "atomic"),
    ("history.jsonl", _entry("ev", "done"), "atomic"),
    ("history.jsonl", _entry("kind", "put"), "atomic"),
    ("history.jsonl", _entry("tail", "0.1"), "atomic"),
    ("history.jsonl", _entry("tail", [1]), "atomic"),
    ("history.jsonl", _entry("payload", 5), "atomic"),
    ("history.jsonl", _entry("result", ["ack"]), "atomic"),
    ("history.jsonl", _entry("result", "zzz"), "atomic"),
    ("abtrace.jsonl", _entry("sender", 3), "abcast"),
    ("abtrace.jsonl", _one_entry_short("t"), "abcast"),
    ("abtrace.jsonl", _first_delivery(str), "abcast"),
    ("abtrace.jsonl", _first_delivery(lambda t: True), "abcast"),
    ("abtrace.jsonl", _one_entry_short("delivered"), "abcast"),
    ("abtrace.jsonl", _column_edit(lambda columns: columns.__setitem__(
        "msg", [[*range(len(t))] for t in columns["delivered"]])), "abcast"),
    ("meta.json", _meta_field(("scenario", "predicate"), {"kind": "bogus"}), "vspec"),
    ("meta.json", _meta_field(("probe_from_t",), "x"), "eventual"),
    ("meta.json", _meta_field(("scenario", "n"), "x"), "abcast"),
    ("history.jsonl", _without_first("result"), "atomic"),
    ("history.jsonl", _without_first("result"), "sequential"),
    ("history.jsonl", _without_first("p", "tail"), "atomic"),
    ("history.jsonl", _column_edit(_payload_on_a_get_invoke), "atomic"),
    ("meta.json", _meta_field(("scenario_sha256",), "0" * 64), "atomic"),
    ("meta.json", _meta_field(("seed",), 999), "abcast"),
    ("meta.json", _meta_field(("bogus",), 1), "atomic"),
    ("abtrace.jsonl", _jsonl_edit(lambda obj: True, lambda obj: obj.__setitem__("bogus", 1)),
     "abcast"),
    ("meta.json", _meta_field(("probe_from_t",), 0), "eventual"),
    ("history.jsonl", _without_first("p"), "atomic"),
    ("history.jsonl", _without_first("tail"), "atomic"),
    ("history.jsonl", _entry("p", 1), "atomic"),  # the first read has no earlier one
    ("history.jsonl", _entry("p", -1), "atomic"),
    ("history.jsonl", _entry("p", False), "atomic"),
    ("history.jsonl", _entry("p", "0"), "atomic"),
    ("history.jsonl",
     lambda text: _jsonl_edit(lambda obj: "p" in obj, _v1_read)(_one_event_per_line(text)),
     "atomic"),
    ("meta.json", lambda text: text.replace('\n "seed": ', '\n "seed": 99,\n "seed": '), "atomic"),
    ("abtrace.jsonl", _column_edit(lambda columns: columns["delivered"][0].extend([1, 0])),
     "abcast"),
    ("abtrace.jsonl", _entry("crash", 0), "abcast"),
    ("history.jsonl", lambda text: text.replace("\n", "", 1), "atomic"),
    ("history.jsonl", lambda text: text.replace(",", ",\n", 1), "atomic"),
    ("history.jsonl", lambda text: "\u00a0" + text, "atomic"),
    ("history.jsonl", _one_entry_short("t"), "atomic"),
    ("history.jsonl", _one_entry_short("payload"), "atomic"),
    ("history.jsonl", _one_entry_long("payload"), "atomic"),
    ("history.jsonl", _one_entry_short("result"), "atomic"),
    ("history.jsonl", _one_entry_long("result"), "atomic"),
    ("history.jsonl", _one_entry_short("p"), "atomic"),
    ("history.jsonl", _one_entry_long("p"), "atomic"),
    ("history.jsonl", _line_edit(lambda lines: lines.pop(3)), "atomic"),
    ("history.jsonl", _line_edit(lambda lines: lines.insert(4, lines[4])), "atomic"),
    ("history.jsonl", _line_edit(lambda lines: lines.insert(4, lines.pop(5))), "atomic"),
    ("history.jsonl", _one_event_per_line, "atomic"),
    ("abtrace.jsonl", _one_entry_short("crash"), "abcast"),
    ("abtrace.jsonl", _one_entry_long("crash"), "abcast"),
    ("abtrace.jsonl", _one_entry_long("delivered"), "abcast"),
    ("abtrace.jsonl", _entry("delivered", 0), "abcast"),
    ("abtrace.jsonl", _line_edit(lambda lines: lines.pop(1)), "abcast"),
    ("abtrace.jsonl", _line_edit(lambda lines: lines.insert(2, lines[2])), "abcast"),
    ("abtrace.jsonl", _line_edit(lambda lines: lines.insert(2, lines.pop(3))), "abcast"),
    ("abtrace.jsonl", _old_trace_layout, "abcast"),
    ("meta.json", _meta_field(("probe_from_t",), None), "atomic"),
    ("meta.json", _meta_field(("probe_from_t",), None), "eventual"),
    ("meta.json", _without_probes, "atomic"),
], ids=["history-string-counter", "meta-list", "history-list-client",
        "history-op-line-first", "history-string-time-eventual", "history-bool-counter",
        "history-unknown-ev", "history-unknown-kind", "history-string-seq",
        "history-int-in-seq", "history-int-payload", "history-list-result",
        "history-unknown-result", "abtrace-sender-out-of-range",
        "abtrace-unequal-broadcast-columns", "abtrace-string-time", "abtrace-bool-time",
        "abtrace-missing-server-line", "abtrace-msg-column",
        "meta-bogus-predicate-vspec", "meta-string-probe-from-t-eventual",
        "meta-string-n-abcast", "history-missing-result", "history-missing-result-sequential",
        "history-missing-seq", "history-payload-on-get-invoke", "meta-zero-hash",
        "meta-other-seed-abcast", "meta-unknown-key", "abtrace-extra-field",
        "meta-probe-from-t-zero-eventual", "history-missing-p", "history-missing-tail",
        "history-p-beyond-longest-earlier-read", "history-negative-p", "history-bool-p",
        "history-string-p", "history-v1-seq-line", "meta-repeated-seed",
        "abtrace-decreasing-times", "abtrace-delivery-after-crash",
        "history-two-columns-on-one-line", "history-column-split-over-two-lines",
        "history-nbsp-before-brace", "history-unequal-event-columns",
        "history-payload-one-short", "history-payload-one-long",
        "history-result-one-short", "history-result-one-long",
        "history-p-one-short", "history-p-one-long", "history-missing-column-line",
        "history-repeated-column-line", "history-swapped-column-lines",
        "history-one-event-per-line", "abtrace-crash-one-short", "abtrace-crash-one-long",
        "abtrace-delivered-one-long", "abtrace-delivered-entry-not-a-list",
        "abtrace-missing-column-line", "abtrace-repeated-column-line",
        "abtrace-swapped-column-lines", "abtrace-old-layout",
        "meta-null-probe-from-t-with-probes", "meta-null-probe-from-t-with-probes-eventual",
        "meta-probe-from-t-without-probes"])
def test_malformed_artifact_exits_2(scen_file, tmp_path, capsys, name, corrupt, checker):
    art = tmp_path / "art"
    main(["run", "--scenario", scen_file(), "--out", str(art)])
    (art / name).write_text(corrupt((art / name).read_text()))
    assert main(["check", str(art), "--checker", checker]) == 2
    assert "artifact corrupt" in capsys.readouterr().err


DEEP = "[" * 100_000  # past the JSON decoder's recursion limit
LONG_INT = "1" * 5000  # past the interpreter's int-digits limit


@pytest.mark.parametrize("command,args", [
    ("run", ["--out", "art"]),
    ("campaign", ["--seeds", "0:1", "--jobs", "1"]),
], ids=["run", "campaign"])
@pytest.mark.parametrize("data", [DEEP.encode(), f'{{"n": {LONG_INT}}}'.encode(), b"\xff{"],
                         ids=["deep", "long-int", "not-utf-8"])
def test_undecodable_scenario_exits_2(tmp_path, capsys, monkeypatch, command, args, data):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_bytes(data)
    assert main([command, "--scenario", "scenario.json", *args]) == 2
    assert "scenario file is not valid JSON" in capsys.readouterr().err


def test_scenario_with_a_repeated_key_exits_2(scen_file, tmp_path, capsys):
    path = Path(scen_file())
    path.write_text(path.read_text().replace('"n": 3,', '"n": 3, "n": 5,', 1))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "repeated key" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("name,line,message", [
    ("meta.json", 0, "artifact corrupt: RecursionError"),
    ("history.jsonl", 2, "history line 3 is not JSON"),
])
def test_too_deeply_nested_artifact_exits_2(scen_file, tmp_path, capsys, name, line, message):
    art = tmp_path / "art"
    main(["run", "--scenario", scen_file(), "--out", str(art)])
    lines = (art / name).read_text().splitlines()
    lines[line] = DEEP
    (art / name).write_text("\n".join(lines) + "\n")
    assert main(["check", str(art), "--checker", "atomic"]) == 2
    assert message in capsys.readouterr().err


def test_path_mistakes_exit_2(scen_file, tmp_path, capsys):
    scenario = scen_file()
    assert main(["check", scenario, "--checker", "atomic"]) == 2
    assert "artifact unreadable" in capsys.readouterr().err
    assert main(["run", "--scenario", str(tmp_path), "--out", str(tmp_path / "a")]) == 2
    assert "scenario file unreadable" in capsys.readouterr().err
    assert main(["run", "--scenario", scenario, "--out", scenario]) == 2
    assert "cannot write the artifact" in capsys.readouterr().err


def test_unwritable_verdict_exits_2(scen_file, tmp_path, capsys):
    art = tmp_path / "art"
    main(["run", "--scenario", scen_file(), "--out", str(art)])
    (art / "verdict.json").mkdir()
    assert main(["check", str(art), "--checker", "atomic"]) == 2
    assert "cannot write the verdict" in capsys.readouterr().err


def test_unwritable_campaign_report_exits_2(scen_file, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "0:2", "--jobs", "1",
                 "--out", str(tmp_path / "file" / "rep")]) == 2
    captured = capsys.readouterr()
    assert "cannot write the report" in captured.err
    assert captured.out == ""  # refused before any seed ran


def test_unwritable_report_file_exits_2_after_the_campaign(scen_file, tmp_path, capsys):
    (tmp_path / "rep" / "report.json").mkdir(parents=True)
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "0:2", "--jobs", "1",
                 "--out", str(tmp_path / "rep")]) == 2
    captured = capsys.readouterr()
    assert "cannot write the report" in captured.err
    assert captured.out.startswith("campaign: seeds 0..+2")


@pytest.mark.parametrize("checker", ["atomic", "sequential", "eventual"])
def test_nacked_append_fails_seqspec(scen_file, tmp_path, checker):
    art = tmp_path / "art"
    main(["run", "--scenario", scen_file(), "--out", str(art)])
    history = art / "history.jsonl"
    history.write_text(_entry("result", "nack")(history.read_text()))
    assert main(["check", str(art), "--checker", checker]) == 3
    verdict = json.loads((art / "verdict.json").read_text())
    assert verdict["violated"] == "SeqSpec" and len(verdict["witness"]) == 1


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


def _phases(art):
    """The history events of ``art``, split at the probe phase's start."""
    probe_from_t = json.loads((art / "meta.json").read_text())["probe_from_t"]
    events = events_from_jsonl((art / "history.jsonl").read_text())
    return ([e for e in events if e.t < probe_from_t],
            [e for e in events if e.t >= probe_from_t], probe_from_t)


def _probe_reuses_a_workload_id(art):
    # One client: the first probe's counter becomes the first workload op's,
    # and so does its op id, <client>.<c>.
    workload, probes, _ = _phases(art)
    first_probe = probes[0].c
    for e in probes:
        if e.c == first_probe:
            e.c = workload[0].c
    return workload + probes


def _probe_while_workload_pending(art):
    workload, probes, _ = _phases(art)
    return workload[:-1] + probes  # the last workload op never answers


def _op_spans_the_probe_start(art):
    workload, probes, probe_from_t = _phases(art)
    workload[-1].t = probe_from_t  # the last workload op answers in the probe phase
    return workload + probes


def _ops_cross_the_probe_start_both_ways(art):
    # The last workload op answers in the probe phase, and the first probe
    # answers before it: as many ops lie in both phases as in neither.
    workload, probes, probe_from_t = _phases(art)
    workload[-1].t = probe_from_t
    probes[1].t = 0  # one client: the first probe's response
    return workload + probes


@pytest.mark.parametrize("edit,atomic_exit", [
    (_probe_reuses_a_workload_id, 2),
    (_probe_while_workload_pending, 2),
    (_op_spans_the_probe_start, 0),
    (_ops_cross_the_probe_start_both_ways, 0),
], ids=["probe-reuses-workload-op-id", "probe-while-workload-op-pending",
        "op-spans-probe-start", "ops-cross-probe-start-both-ways"])
def test_cross_phase_pairing_errors_exit_2(scen_file, tmp_path, capsys, edit, atomic_exit):
    # The eventual checker pairs the whole history, as atomic does, before it
    # splits the ops at the probe phase's start.
    art = tmp_path / "art"
    main(["run", "--scenario", scen_file(clients=1), "--out", str(art)])
    (art / "history.jsonl").write_text(events_to_jsonl(edit(art)))
    assert main(["check", str(art), "--checker", "eventual"]) == 2
    assert "artifact corrupt" in capsys.readouterr().err
    assert main(["check", str(art), "--checker", "atomic"]) == atomic_exit


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


# str.isdigit() accepts ² and ①, which int() refuses, and int() refuses more
# digits than its limit: each amount makes an invalid record, never exit 1
@pytest.mark.parametrize("amount", ["²", "①", pytest.param("1" * 641, id="641-digits")])
def test_an_amount_int_cannot_read_is_an_invalid_record(scen_file, tmp_path, amount):
    art = tmp_path / "art"
    ops = [[["append", f"deposit:A:{amount}"], ["get", None]]]
    assert main(["run", "--scenario",
                 scen_file(clients=1, workload=ops,
                           predicate={"kind": "account_balance", "balances": {"A": 0}}),
                 "--out", str(art)]) == 0
    # read-side repair acks the record, and the predicate rejects it
    assert main(["check", str(art), "--checker", "vspec"]) == 3
    assert json.loads((art / "verdict.json").read_text())["violated"] == "Def5-2a"


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


def test_campaign_runs_and_counts_a_repeated_checker_once(scen_file, tmp_path, capsys):
    from ledgerlab.cli import run_campaign
    from ledgerlab.sim import scenario_from_dict
    rep = tmp_path / "rep"
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "0:3", "--checker", "atomic",
                 "--checker", "atomic", "--jobs", "1", "--out", str(rep)]) == 0
    report = json.loads((rep / "report.json").read_text())
    assert report["checkers"] == ["atomic"] and list(report["aggregate"]) == ["atomic"]
    assert report["aggregate"]["atomic"]["pass"] == 3
    assert all(list(row["verdicts"]) == ["atomic"] for row in report["rows"])
    assert capsys.readouterr().out.count("\natomic ") == 1
    report = run_campaign(scenario_from_dict(BASE), 0, 2, ("abcast", "atomic", "abcast"))
    assert report["checkers"] == ["abcast", "atomic"]
    assert report["aggregate"]["abcast"]["pass"] == 2


def test_campaign_parallel_workers_match_serial(scen_file, tmp_path):
    from ledgerlab.cli import run_campaign
    from ledgerlab.sim import scenario_from_dict
    sc = scenario_from_dict(json.loads((tmp_path / "scenario.json").read_text())
                            if (tmp_path / "scenario.json").exists() else BASE)
    serial = run_campaign(sc, 0, 8, ("atomic",), jobs=1)
    parallel = run_campaign(sc, 0, 8, ("atomic",), jobs=2)
    assert serial["rows"] == parallel["rows"]


def test_vspec_campaign_parses_the_scenario_nowhere(monkeypatch):
    from ledgerlab.cli import run_campaign
    sc = sim.scenario_from_dict({
        "n": 3, "f": 1, "clients": 1, "mode": "atomic",
        "workload": [[["append", "deposit:A:1"], ["get", None], ["append", "deposit:A:2"],
                      ["get", None]]],
        "predicate": {"kind": "account_balance", "balances": {"A": 0}}})
    parse = sim.scenario_from_dict
    calls = []
    monkeypatch.setattr(sim, "scenario_from_dict", lambda obj: calls.append(obj) or parse(obj))
    report = run_campaign(sc, 0, 10, ("atomic", "vspec"), jobs=1)
    assert report["aggregate"]["vspec"]["pass"] == 10
    assert calls == []


def test_campaign_with_failures_exits_3(scen_file, tmp_path):
    code = main(["campaign", "--scenario",
                 scen_file(mode="eventual", workload={"ops_per_client": 12,
                                                      "append_ratio": 0.6}),
                 "--seeds", "0:30", "--checker", "atomic", "--jobs", "1"])
    assert code == 3


@pytest.mark.parametrize("checker,overrides,text", [
    ("eventual", {"probe_gets": 0}, "eventual checker needs probe gets"),
    ("vspec", {}, "vspec checker needs a scenario predicate"),
])
def test_campaign_refuses_an_unusable_checker_before_any_seed(scen_file, tmp_path, capsys,
                                                              checker, overrides, text):
    rep = tmp_path / "rep"
    assert main(["campaign", "--scenario", scen_file(**overrides), "--seeds", "0:3",
                 "--checker", checker, "--jobs", "1", "--out", str(rep)]) == 2
    captured = capsys.readouterr()
    assert text in captured.err and not captured.out and not rep.exists()


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        FakePool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def fake_pool(monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "max_workers", [])
    return FakePool


def test_campaign_starts_no_more_workers_than_seeds(scen_file, fake_pool):
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "0:2", "--jobs", "8"]) == 0
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "0:1", "--jobs", "8"]) == 0
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "0:5", "--jobs", "3"]) == 0
    assert fake_pool.max_workers == [2, 3]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_campaign_rejects_jobs_below_one(scen_file, capsys, fake_pool, jobs):
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "0:2", f"--jobs={jobs}"]) == 2
    captured = capsys.readouterr()
    assert "--jobs must be at least 1" in captured.err and not captured.out
    assert fake_pool.max_workers == []


def test_campaign_rejects_bad_seed_spec(scen_file):
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "abc"]) == 2
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "0:0"]) == 2


@pytest.mark.parametrize("seeds", ["-1:2", f"{2 ** 64 - 1}:2"])
def test_campaign_rejects_seeds_outside_u64(scen_file, capsys, seeds):
    assert main(["campaign", "--scenario", scen_file(), f"--seeds={seeds}", "--jobs", "1"]) == 2
    assert "unsigned 64-bit seed range" in capsys.readouterr().err


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
    from ledgerlab.cli import EXIT_BY_STATUS
    assert EXIT_BY_STATUS["divergence"] == 4
    assert EXIT_BY_STATUS["fail"] == 3
    assert EXIT_BY_STATUS["pass"] == 0
    assert EXIT_BY_STATUS["error"] == 3


def out_decisions(text):
    decisions = set()
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0].isdigit():
            decisions.add(parts[2])
    return decisions


def _raise_on_seed(monkeypatch, bad_seed):
    """Make sim.run raise RuntimeError on ``bad_seed`` and run every other seed."""
    real_run = sim.run

    def run(scenario):
        if scenario.seed == bad_seed:
            raise RuntimeError("boom")
        return real_run(scenario)
    monkeypatch.setattr(sim, "run", run)


def test_campaign_records_a_seed_that_raises_as_an_error_row(scen_file, tmp_path, capsys,
                                                             monkeypatch):
    _raise_on_seed(monkeypatch, 2)
    rep = tmp_path / "rep"
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "0:4", "--checker", "atomic",
                 "--checker", "abcast", "--jobs", "1", "--out", str(rep)]) == 3
    report = json.loads((rep / "report.json").read_text())
    assert report["rows"][2] == {"seed": 2, "verdicts": {}, "error": "RuntimeError: boom"}
    for name in ("atomic", "abcast"):
        assert report["aggregate"][name] == {"pass": 3, "fail": 0, "divergence": 0, "error": 1}
    assert report["failing"] == [{"seed": 2, "error": "RuntimeError: boom"}]
    assert "seed 2: ERROR RuntimeError: boom" in capsys.readouterr().out


def test_an_internal_error_exits_1_with_a_traceback(scen_file, tmp_path, capsys, monkeypatch):
    _raise_on_seed(monkeypatch, BASE["seed"])
    assert main(["run", "--scenario", scen_file(), "--out", str(tmp_path / "art")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "RuntimeError: boom" in err


def test_campaign_exits_4_when_the_oracle_disagrees(scen_file, tmp_path, monkeypatch):
    from ledgerlab import checkers
    monkeypatch.setattr(checkers, "linearize", lambda ops, same_client_only=False: None)
    rep = tmp_path / "rep"
    # 2 clients x (2 ops + 2 probe gets): within the oracle's automatic limit of 10
    small = scen_file(workload={"ops_per_client": 2, "append_ratio": 0.6})
    assert main(["campaign", "--scenario", small, "--seeds", "0:3", "--jobs", "1",
                 "--out", str(rep)]) == 4
    report = json.loads((rep / "report.json").read_text())
    assert [row["verdicts"]["atomic"]["status"] for row in report["rows"]] == ["divergence"] * 3


def _without_the_last_event(columns):
    """Drop the last event, a get response, from the columns that hold it."""
    assert (columns["ev"][-1], columns["kind"][-1]) == ("response", "get")
    for name in ("client", "ev", "kind", "c", "t", "p", "tail"):
        columns[name].pop()


def test_vspec_check_refuses_a_pending_op(scen_file, tmp_path, capsys):
    art = tmp_path / "art"
    ops = [[["append", "deposit:A:1"], ["get", None]]]
    main(["run", "--scenario",
          scen_file(clients=1, workload=ops,
                    predicate={"kind": "account_balance", "balances": {"A": 0}}),
          "--out", str(art)])
    history = art / "history.jsonl"
    history.write_text(_column_edit(_without_the_last_event)(history.read_text()))
    capsys.readouterr()
    assert main(["check", str(art), "--checker", "vspec"]) == 2
    assert "vspec checker needs a complete history" in capsys.readouterr().err


def test_consensus_refuses_a_value_count_unlike_the_proposers(capsys):
    assert main(["consensus", "--n", "3", "--f", "1", "--proposers", "3",
                 "--values", "a,b"]) == 2
    assert "2 values for 3 proposers" in capsys.readouterr().err


# atomic gives its verdict, then abcast raises; a divergence given first still exits 4
@pytest.mark.parametrize("atomic, code", [(None, 3), ("fail", 3), ("divergence", 4)])
def test_campaign_counts_the_verdicts_a_seed_gave_before_it_raised(scen_file, tmp_path, capsys,
                                                                   monkeypatch, atomic, code):
    from ledgerlab import cli
    from ledgerlab.verdicts import Verdict
    real_run_checker = cli.run_checker

    def run_checker(name, artifact):
        if name == "abcast":
            raise RuntimeError("boom")
        return Verdict(atomic, "P", ["o1"]) if atomic else real_run_checker(name, artifact)
    monkeypatch.setattr(cli, "run_checker", run_checker)
    rep = tmp_path / "rep"
    assert main(["campaign", "--scenario", scen_file(), "--seeds", "0:1", "--checker", "atomic",
                 "--checker", "abcast", "--jobs", "1", "--out", str(rep)]) == code
    report = json.loads((rep / "report.json").read_text())
    status = atomic or "pass"
    assert report["aggregate"]["atomic"] == {"pass": 0, "fail": 0, "divergence": 0, "error": 0,
                                             status: 1}
    assert report["aggregate"]["abcast"] == {"pass": 0, "fail": 0, "divergence": 0, "error": 1}
    checkers = {"checkers": {"atomic": {"status": atomic, "violated": "P", "witness": ["o1"]}}}
    assert report["failing"] == [{"seed": 0, **(checkers if atomic else {}),
                                  "error": "RuntimeError: boom"}]
    shown = f"atomic={atomic}(P) " if atomic else ""
    assert f"seed 0: {shown}ERROR RuntimeError: boom" in capsys.readouterr().out


def test_run_checker_refuses_an_unknown_name():
    with pytest.raises(sim.ConfigError, match="^unknown checker 'bogus'"):
        run_checker("bogus", sim.run(sim.scenario_from_dict(BASE)))


@pytest.mark.parametrize("module", ["ledgerlab", "ledgerlab.cli"])
def test_python_m_exits_with_the_code_of_main(scen_file, tmp_path, module):
    import ledgerlab
    env = {**os.environ, "PYTHONPATH": str(Path(ledgerlab.__file__).parents[1])}

    def exit_code(*args):
        return subprocess.run([sys.executable, "-m", module, *args], capture_output=True,
                              env=env).returncode
    art = str(tmp_path / "art")
    assert exit_code("run", "--scenario", scen_file(), "--out", art) == 0
    assert exit_code("check", art, "--checker", "atomic") == 0
    assert exit_code("run", "--scenario", scen_file(n=3, f=2), "--out", art + "2") == 2


def test_run_check_and_a_one_process_campaign_load_no_process_pool(scen_file, tmp_path):
    import ledgerlab
    art, scen = tmp_path / "art", scen_file()
    code = f"""
import sys
from ledgerlab.cli import main
assert main(["run", "--scenario", {scen!r}, "--out", {str(art)!r}]) == 0
assert main(["check", {str(art)!r}, "--checker", "atomic"]) == 0
assert main(["campaign", "--scenario", {scen!r}, "--seeds", "0:2", "--jobs", "1"]) == 0
print(sorted(m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(ledgerlab.__file__).parents[1])}
                         ).stdout
    assert out.splitlines()[-1] == "[]"


# Tiny explicit-workload scenarios, with payloads of any text and transfers
# whose amounts mix digits with what str.isdigit() or int() also accepts.
_amounts = st.text(alphabet="0123456789²①٣_+- ", max_size=4) | st.just("1" * 641)
_transfers = st.builds("{}:A:{}".format, st.sampled_from(["deposit", "withdraw"]), _amounts)
_tiny_ops = st.just(["get", None]) | st.builds(lambda p: ["append", p], st.text() | _transfers)
_tiny_scenarios = st.integers(1, 2).flatmap(lambda clients: st.fixed_dictionaries({
    "n": st.just(3), "f": st.just(1), "clients": st.just(clients),
    "mode": st.sampled_from(MODES),
    "workload": st.lists(st.lists(_tiny_ops, max_size=4), min_size=clients, max_size=clients),
    "predicate": st.none() | st.builds(
        lambda a: {"kind": "account_balance", "balances": {"A": a}}, st.integers(0, 3)),
}))


@given(_tiny_scenarios)
@example({"n": 3, "f": 1, "clients": 1, "mode": "atomic",
          "workload": [[["append", "deposit:A:①"]]],
          "predicate": {"kind": "account_balance", "balances": {"A": 0}}})
def test_every_accepted_scenario_is_run_written_loaded_and_judged(obj):
    artifact = sim.run(sim.scenario_from_dict(obj))
    with tempfile.TemporaryDirectory() as d:
        loaded = sim.load_artifact(artifact.write(d))
    for name in CHECKER_NAMES:
        try:
            run_checker(name, loaded)
        except CheckerError:  # a checker that cannot judge this run says so
            pass
