import hashlib
import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ledgerlab import protocols
from ledgerlab.abcast import check_abcast_trace
from ledgerlab.cli import run_campaign
from ledgerlab.histories import events_to_jsonl, pair_events
from ledgerlab.sim import (
    ConfigError,
    SimulationError,
    Simulator,
    expand_crashes,
    generate_workload,
    load_artifact,
    run,
    scenario_from_dict,
)

from conftest import HeapLoop, scenario

MINIMAL = {"n": 3, "f": 1, "clients": 1, "mode": "atomic", "workload": [[]]}


def without(field):
    return {k: v for k, v in MINIMAL.items() if k != field}


class TestScenarioValidation:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario fields"):
            scenario(bogus=1)

    @pytest.mark.parametrize("overrides", [
        pytest.param({"n": 3, "f": 3}, id="3-3"),
        pytest.param({"n": 3, "f": 2}, id="3-2"),
        pytest.param({"n": 4, "f": 2}, id="4-2"),
        pytest.param({"n": 1, "f": 1}, id="1-1"),
        # bool is an int subclass: True must not pass as server or client 1
        pytest.param({"crash_schedule": [[True, 5]]}, id="bool-server-id"),
        pytest.param({"client_crashes": [[False, 3]]}, id="bool-client-id"),
        # a crash schedule that is not a list of entries
        *(pytest.param({field: value}, id=f"{field}-{value}")
          for field in ("crash_schedule", "client_crashes")
          for value in (None, 5, True, 1.5, "ab")),
    ])
    def test_crash_bounds_rejected(self, overrides):
        with pytest.raises(ConfigError):
            scenario(**overrides)

    @pytest.mark.parametrize("overrides", [
        pytest.param({"clients": 1, "workload": [5]}, id="int-op-list"),
        pytest.param({"clients": 1, "workload": [None]}, id="null-op-list"),
        pytest.param({"clients": 1, "workload": ["get"]}, id="string-op-list"),
        *(pytest.param({"predicate": {"kind": "account_balance", "balances": balances}},
                       id=f"balances-{balances!r}")
          for balances in (None, "ab", [], 5)),
        pytest.param({"predicate": {"kind": "unique_tau", "balances": None}},
                     id="unique-tau-null-balances"),
        # a delay draw reads one 32-bit word
        pytest.param({"max_delay": 2 ** 32}, id="max-delay-past-one-word"),
    ])
    def test_malformed_fields_rejected(self, overrides):
        with pytest.raises(ConfigError):
            scenario(**overrides)

    @pytest.mark.parametrize("obj, message", [
        pytest.param([], "scenario must be a JSON object", id="not-an-object"),
        pytest.param(without("n"), "scenario missing required field 'n'", id="no-n"),
        pytest.param(without("workload"), "scenario missing required field 'workload'",
                     id="no-workload"),
        pytest.param(without("mode"), "scenario missing required field 'mode'", id="no-mode"),
        pytest.param({**MINIMAL, "workload": None},
                     "workload must be a generator spec or per-client op lists",
                     id="null-workload"),
        *(pytest.param({**MINIMAL, "workload": {"ops_per_client": 4, "append_ratio": ratio}},
                       "workload.append_ratio must be in [0, 1]", id=f"append-ratio-{ratio}")
          for ratio in (1.5, True)),
        pytest.param({**MINIMAL, "workload": {"ops_per_client": 4,
                                              "payloads": {"kind": "account", "extra": 1}}},
                     "unknown payload fields: ['extra']", id="account-payload-extra-field"),
        pytest.param({**MINIMAL, "workload": {"ops_per_client": 4,
                                              "payloads": {"kind": "token", "extra": 1}}},
                     "token payloads take no extra fields", id="token-payload-extra-field"),
        pytest.param({**MINIMAL, "crash_schedule": {"fixed": {"max_crashes": 1}}},
                     "crash generator must be {'random': {...}}", id="crash-generator-not-random"),
        pytest.param({**MINIMAL, "crash_schedule": {"random": {"until": 5, "bogus": 1}}},
                     "crash generator takes max_crashes and until",
                     id="crash-generator-unknown-field"),
        pytest.param({**MINIMAL, "crash_schedule": {"random": 5}},
                     "crash generator takes max_crashes and until",
                     id="crash-generator-not-an-object"),
        *(pytest.param({**MINIMAL, field: entries}, message, id=f"{field}-{ident}")
          for field, label in (("crash_schedule", "server"), ("client_crashes", "client"))
          for entries, message, ident in (
              ([[0]], f"malformed {label} crash entry [0]", "malformed-entry"),
              ([[7, 1]], f"{label} crash id 7 out of range", "id-out-of-range"),
              ([[0, -1]], f"{label} crash time -1 must be a non-negative integer", "bad-time"))),
    ])
    def test_config_error_messages(self, obj, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            scenario_from_dict(obj)

    @pytest.mark.parametrize("n, f", [(4, 2), (3, 3), (1, 1)])
    def test_majority_requirement_named_in_error(self, n, f):
        with pytest.raises(ConfigError, match="majority"):
            scenario(n=n, f=f)

    def test_too_many_crashes_rejected(self):
        with pytest.raises(ConfigError, match="tolerance bound"):
            scenario(crash_schedule=[[0, 1], [1, 2]])
        with pytest.raises(ConfigError, match="exceeds the tolerance"):
            scenario(crash_schedule={"random": {"max_crashes": 2}})

    def test_same_server_cannot_crash_twice(self):
        with pytest.raises(ConfigError, match="twice"):
            scenario(n=5, f=2, crash_schedule=[[0, 1], [0, 2]])

    def test_explicit_workload_must_cover_all_clients(self):
        with pytest.raises(ConfigError, match="all 2 clients"):
            scenario(workload=[[["get", None]]])

    @pytest.mark.parametrize("op", [["fetch", None], ["append", None], ["get", "x"], "get",
                                    {"kind": "get", "payload": None},
                                    {"kind": "append", "payload": "x"}])
    def test_malformed_ops_rejected(self, op):
        with pytest.raises(ConfigError):
            scenario(workload=[[op], []])

    @pytest.mark.parametrize("payloads", [
        pytest.param({"accounts": 5}, id="int-accounts"),
        pytest.param({"accounts": []}, id="no-accounts"),
        pytest.param({"accounts": "AB"}, id="string-accounts"),
        pytest.param({"accounts": [""]}, id="empty-name"),
        pytest.param({"accounts": [1]}, id="int-name"),
        pytest.param({"accounts": ["A:B"]}, id="separator-in-name"),
        pytest.param({"max_amount": "x"}, id="string-max-amount"),
        pytest.param({"max_amount": -1}, id="negative-max-amount"),
        pytest.param({"max_amount": True}, id="bool-max-amount"),
    ])
    def test_bad_account_payloads_rejected(self, payloads):
        with pytest.raises(ConfigError, match="workload.payloads"):
            scenario(workload={"ops_per_client": 4, "append_ratio": 1.0,
                               "payloads": {"kind": "account", **payloads}})

    def test_bad_predicate_rejected(self):
        with pytest.raises(ConfigError, match="predicate"):
            scenario(predicate={"kind": "nonsense"})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            scenario(mode="linearizable")

    def test_seed_override(self):
        sc = scenario().with_seed(99)
        assert sc.seed == 99

    def test_with_seed_matches_a_reparse_and_checks_the_seed(self):
        sc = scenario(predicate={"kind": "unique_tau"}, client_crashes=[[0, 5]])
        assert sc.with_seed(7) == scenario_from_dict({**sc.to_dict(), "seed": 7})
        for bad in (-1, 2 ** 64, True, "1"):
            with pytest.raises(ConfigError, match="seed must be"):
                sc.with_seed(bad)

    def test_canonical_hash_stable_under_key_order(self):
        d = scenario().to_dict()
        shuffled = dict(reversed(list(d.items())))
        assert scenario_from_dict(d).sha256 == scenario_from_dict(shuffled).sha256

    @pytest.mark.parametrize("overrides", [
        pytest.param({}, id="generator"),
        pytest.param({"workload": [[["append", 'é\n"\\\t'], ["get", None]], []],
                      "predicate": {"kind": "account_balance", "balances": {"Ä": 3, "B": 0}},
                      "crash_schedule": [[1, 4]], "client_crashes": [[0, 9]]},
                     id="explicit-escapes"),
        pytest.param({"crash_schedule": {"random": {"max_crashes": 1}}, "seed": 2 ** 64 - 1,
                      "workload": {"ops_per_client": 3, "payloads": {"kind": "account"}}},
                     id="random-crashes"),
    ])
    def test_meta_text_and_hash_are_the_json_module_encodings(self, overrides):
        sc = scenario(**overrides)
        canonical = json.dumps(sc.to_dict(), sort_keys=True, separators=(",", ":"))
        assert sc.sha256 == hashlib.sha256(canonical.encode()).hexdigest()
        for probe_from_t in (None, 0, 12345):
            meta = {"probe_from_t": probe_from_t, "scenario": sc.to_dict(),
                    "scenario_sha256": sc.sha256, "seed": sc.seed}
            assert sc.meta_json(probe_from_t) == json.dumps(meta, sort_keys=True, indent=1) + "\n"

    def test_explicit_workload_round_trips_through_to_dict(self):
        sc = scenario(clients=2, workload=[[["append", "x"], ["get", None]],
                                           [["get", None]]])
        again = scenario_from_dict(sc.to_dict())
        assert again == sc
        assert run(again).history == run(sc).history


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)

# One client, so that a one-element list is an explicit workload of the
# right length; every nested object that the paths below reach is present.
FULL_SCENARIO = {
    "n": 3, "f": 1, "clients": 1, "mode": "atomic", "seed": 0, "max_delay": 10,
    "probe_gets": 2, "client_crashes": [[0, 5]],
    "workload": {"ops_per_client": 4, "append_ratio": 0.5,
                 "payloads": {"kind": "account", "accounts": ["A"], "max_amount": 5}},
    "crash_schedule": {"random": {"max_crashes": 1, "until": 50}},
    "predicate": {"kind": "account_balance", "balances": {"A": 0}},
}
FIELD_PATHS = [(name,) for name in FULL_SCENARIO] + [
    ("workload", "payloads"), ("workload", "payloads", "accounts"),
    ("predicate", "balances"), ("crash_schedule", "random")]


@given(st.sampled_from(FIELD_PATHS), JSON_VALUES)
def test_any_json_value_in_any_field_parses_or_is_a_config_error(path, value):
    obj = json.loads(json.dumps(FULL_SCENARIO))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        scenario_from_dict(obj)
    except ConfigError:
        pass


class TestWorkloadGeneration:
    def test_all_appends_at_ratio_one(self):
        ops = generate_workload(
            {"ops_per_client": 3, "append_ratio": 1.0, "payloads": {"kind": "token"}},
            clients=2, seed=5)
        assert all(kind == "append" for client in ops for kind, _ in client)
        assert [len(c) for c in ops] == [3, 3]

    def test_deterministic_for_seed(self):
        spec = {"ops_per_client": 10, "append_ratio": 0.5, "payloads": {"kind": "token"}}
        assert generate_workload(spec, 3, 42) == generate_workload(spec, 3, 42)
        assert generate_workload(spec, 3, 42) != generate_workload(spec, 3, 43)

    def test_account_payloads_follow_the_grammar(self):
        ops = generate_workload(
            {"ops_per_client": 20, "append_ratio": 1.0,
             "payloads": {"kind": "account", "accounts": ["A", "B"], "max_amount": 5}},
            clients=1, seed=1)
        for _, payload in ops[0]:
            action, acct, amount = payload.split(":")
            assert action in ("deposit", "withdraw")
            assert acct in ("A", "B")
            assert 0 <= int(amount) <= 5

    def test_zero_ops_yields_probe_only_run(self):
        art = run(scenario(workload={"ops_per_client": 0}, probe_gets=2))
        kinds = {e.kind for e in art.history}
        assert kinds == {"get"}
        assert all(e.t >= art.probe_from_t for e in art.history)


class TestCrashExpansion:
    def test_explicit_passthrough(self):
        assert expand_crashes([(1, 5)], 3, 0) == [(1, 5)]

    def test_random_is_seed_deterministic_and_bounded(self):
        spec = {"random": {"max_crashes": 1, "until": 50}}
        out = expand_crashes(spec, 3, 7)
        assert out == expand_crashes(spec, 3, 7)
        assert len(out) <= 1
        for sid, t in out:
            assert 0 <= sid < 3 and 0 <= t <= 50

    def test_random_eventually_produces_f_crashes(self):
        spec = {"random": {"max_crashes": 1, "until": 50}}
        counts = {len(expand_crashes(spec, 3, s)) for s in range(20)}
        assert counts == {0, 1}


class TestDeterminism:
    def test_identical_scenarios_produce_identical_artifacts(self):
        sc = scenario(seed=123, crash_schedule={"random": {"max_crashes": 1, "until": 40}})
        a, b = run(sc), run(sc)
        assert a.history == b.history
        assert a.abtrace == b.abtrace
        assert a.states == b.states
        assert a.probe_from_t == b.probe_from_t

    def test_different_seeds_differ(self):
        assert run(scenario(seed=1)).history != run(scenario(seed=2)).history


class TestCrashSemantics:
    def test_crashed_server_goes_silent(self):
        art = run(scenario(seed=4, crash_schedule=[[1, 10]],
                           workload={"ops_per_client": 10, "append_ratio": 0.5}))
        trace = art.abtrace
        assert trace.crash[1] == 10
        assert max(trace.delivered[1]) <= 10
        assert all(t <= 10 for sender, t in zip(trace.sender, trace.t) if sender == 1)

    def test_crash_before_any_op_still_completes_everything(self):
        # f+1 fan-out guarantees one live server sees each request
        for mode in ("eventual", "sequential", "atomic"):
            art = run(scenario(mode=mode, seed=9, crash_schedule=[[0, 0]],
                               workload={"ops_per_client": 8, "append_ratio": 0.5}))
            completed, pending = pair_events(art.history)
            assert not pending
            invokes = sum(1 for e in art.history if e.ev == "invoke")
            assert len(completed) == invokes

    def test_exactly_f_crashes_still_live(self):
        art = run(scenario(n=5, f=2, seed=3, crash_schedule=[[0, 5], [1, 20]],
                           workload={"ops_per_client": 10, "append_ratio": 0.5}))
        _, pending = pair_events(art.history)
        assert not pending
        assert check_abcast_trace(art.abtrace).ok

    def test_crashed_client_leaves_a_pending_operation(self):
        art = run(scenario(seed=2, client_crashes=[[0, 3]],
                           workload={"ops_per_client": 12, "append_ratio": 1.0}))
        completed, pending = pair_events(
            [e for e in art.history if e.t < art.probe_from_t])
        assert pending and all(op.client == 0 for op in pending)
        assert len(pending) == 1  # one operation in flight at a time

    def test_crashed_client_is_skipped_by_the_probe_phase(self):
        art = run(scenario(seed=2, client_crashes=[[0, 3]], probe_gets=2,
                           workload={"ops_per_client": 6, "append_ratio": 1.0}))
        probe_events = [e for e in art.history if e.t >= art.probe_from_t]
        assert probe_events
        assert all(e.client != 0 for e in probe_events)


class TestProbePhase:
    def test_probe_gets_recorded_after_quiescence(self):
        art = run(scenario(seed=6, probe_gets=3))
        probe_t = art.probe_from_t
        probes = [e for e in art.history if e.t >= probe_t]
        # 2 clients x 3 gets, invoke + response each
        assert sum(1 for e in probes if e.ev == "invoke") == 6
        assert all(e.kind == "get" for e in probes)

    def test_probe_gets_zero_disables_the_phase(self):
        art = run(scenario(seed=6, probe_gets=0))
        assert art.probe_from_t is None


def test_a_client_left_pending_at_quiescence_violates_liveness(monkeypatch):
    monkeypatch.setattr(protocols.Server, "on_get", lambda *args: None)  # drop every get
    one_get = scenario(clients=1, workload=[[["get", None]]])
    with pytest.raises(SimulationError,
                       match="^quiescent with client 0 still pending: liveness violated$"):
        run(one_get)
    report = run_campaign(one_get, 0, 2, ("atomic",))
    assert [row["error"] for row in report["rows"]] == [
        "SimulationError: quiescent with client 0 still pending: liveness violated"] * 2
    assert report["aggregate"]["atomic"]["error"] == 2


def _each_line(edit):
    return lambda text: "\n".join(edit(json.loads(line)) for line in text.splitlines()) + "\n"


def _repeat_last_key(text):
    first, rest = text.split("\n", 1)
    key, value = list(json.loads(first).items())[-1]
    return f"{first[:-1]},{json.dumps(key)}:{json.dumps(value)}}}\n{rest}"


# Edits made to both artifact files, and whether the edited file still loads.
SHARED_RULE = {
    "reordered-keys": (_each_line(lambda obj: json.dumps(dict(reversed(obj.items())),
                                                         separators=(",", ":"))), True),
    "spaces": (_each_line(lambda obj: f"\t {json.dumps(obj)} "), True),
    "blank-lines": (lambda text: text.replace("\n", "\n\n \t\n"), True),
    "duplicate-key": (_repeat_last_key, False),
}


@pytest.mark.parametrize("edit", sorted(SHARED_RULE))
@pytest.mark.parametrize("name", ["history.jsonl", "abtrace.jsonl"])
def test_both_artifact_files_follow_one_malformed_input_rule(tmp_path, name, edit):
    art = run(scenario(seed=5, crash_schedule=[[2, 30]]))
    out = art.write(tmp_path / "art")
    transform, loads = SHARED_RULE[edit]
    (out / name).write_text(transform((out / name).read_text()))
    if loads:
        again = load_artifact(out)
        assert (again.history, again.abtrace) == (art.history, art.abtrace)
    else:
        with pytest.raises(ConfigError, match="line 1 is not JSON: repeated key"):
            load_artifact(out)


@pytest.mark.parametrize("overrides", [
    pytest.param({"clients": 1, "workload": [[]], "probe_gets": 0}, id="empty"),
    pytest.param({"n": 5, "f": 2, "clients": 16, "crash_schedule": [[0, 40], [3, 90]],
                  "workload": {"ops_per_client": 40, "append_ratio": 0.6}}, id="n5-f2-16x40"),
])
def test_the_written_history_is_events_to_jsonl(tmp_path, overrides):
    art = run(scenario(**overrides))
    text = (art.write(tmp_path / "art") / "history.jsonl").read_text()
    assert text == events_to_jsonl(art.history)


class TestEventLoop:
    def test_send_delay_arithmetic(self):
        sim = Simulator(scenario())
        seen = []
        sim.now = 5
        sim.schedule(3, lambda: seen.append(sim.now))
        sim._drain()
        assert seen == [8]

    def test_events_run_in_time_then_insertion_order(self):
        sim = Simulator(scenario())
        seen = []
        sim.schedule(2, lambda: seen.append("late"))
        sim.schedule(1, lambda: seen.append("a"))
        sim.schedule(1, lambda: seen.append("b"))
        sim._drain()
        assert seen == ["a", "b", "late"]

    def test_cannot_schedule_into_the_past(self):
        sim = Simulator(scenario())
        with pytest.raises(AssertionError):
            sim.schedule(-1, lambda: None)

    # 20 000 sends read past the first chunks of words, each larger than the last
    @pytest.mark.parametrize("max_delay", [1, 2, 3, 7, 10, 16, 128, 255, 256, 257, 1000,
                                           2 ** 31, 2 ** 32 - 1])
    def test_delay_draws_are_the_randint_stream(self, max_delay):
        sim = Simulator(scenario(seed=11, max_delay=max_delay))
        rng = random.Random("net:11")
        delays = [None] * 20_000  # the k-th send's delay: it is sent at time 0
        for k in range(20_000):
            sim.send(lambda k: delays.__setitem__(k, sim.now), k)
        sim._drain()
        assert delays == [rng.randint(1, max_delay) for _ in range(20_000)]


@st.composite
def event_programs(draw):
    """A tree of events, each filing its children when it runs, by
    ``schedule`` (delay 0 to three times ``max_delay``) or by ``send``.  An
    event may also file a crash of a server and a delivery to it into one
    tick, in either order.  Returns (seed, max_delay, start delay, program);
    ``program[i]`` lists event i's filings as (how, delay, target)."""
    max_delay = draw(st.sampled_from([1, 2, 3, 10]))
    how = st.sampled_from(["schedule", "send"])
    delay = st.integers(0, 3 * max_delay)
    program = [[] for _ in range(draw(st.integers(1, 30)))]
    for child in range(1, len(program)):
        parent = draw(st.integers(0, child - 1))
        program[parent].append((draw(how), draw(delay), ("event", child)))
    for filings in program:
        for _ in range(draw(st.integers(0, 1))):
            sid, d = draw(st.integers(0, 2)), draw(delay)
            pair = [("schedule", d, ("crash", sid)), ("schedule", d, ("deliver", sid))]
            filings[draw(st.integers(0, len(filings))):0] = pair[::draw(st.sampled_from([1, -1]))]
    return draw(st.integers(0, 2 ** 32)), max_delay, draw(delay), program


def run_program(loop, program, start, crash, crashed):
    """Run ``program`` on ``loop``, crashing servers with ``crash``; returns
    what ran, in order, with its time and, for a delivery, what ``crashed``
    said of its server then."""
    ran = []

    def run(target):
        kind, x = target
        if kind == "crash":
            crash(x)
        ran.append((kind, x, loop.now, kind == "deliver" and crashed(x)))
        if kind == "event":
            for how, d, child in program[x]:
                if how == "send":
                    loop.send(run, child)
                else:
                    loop.schedule(d, run, child)

    loop.schedule(start, run, ("event", 0))
    loop._drain()
    return ran


@given(event_programs())
def test_event_order_matches_the_reference_heap(case):
    seed, max_delay, start, program = case
    sim = Simulator(scenario(seed=seed, max_delay=max_delay))
    ran = run_program(sim, program, start, sim._crash_server,
                      lambda sid: sim.servers[sid].crashed)
    down = set()
    reference = HeapLoop(random.Random(f"net:{seed}"), max_delay)
    assert ran == run_program(reference, program, start, down.add, down.__contains__)
    first_crash = {}
    for kind, sid, t, _ in ran:
        if kind == "crash":
            first_crash.setdefault(sid, t)
    assert sim.trace.crash == [first_crash.get(sid) for sid in range(3)]
