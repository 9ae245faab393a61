import random

import pytest

from ledgerlab.abcast import check_abcast_trace
from ledgerlab.histories import pair_events
from ledgerlab.sim import (
    ConfigError,
    Simulator,
    expand_crashes,
    generate_workload,
    run,
    scenario_from_dict,
)

from conftest import scenario


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
    ])
    def test_crash_bounds_rejected(self, overrides):
        with pytest.raises(ConfigError):
            scenario(**overrides)

    def test_majority_requirement_named_in_error(self):
        with pytest.raises(ConfigError, match="majority"):
            scenario(n=4, f=2)

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

    @pytest.mark.parametrize("op", [["fetch", None], ["append", None], ["get", "x"], "get"])
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
        assert scenario_from_dict(d).sha256() == scenario_from_dict(shuffled).sha256()

    def test_explicit_workload_round_trips_through_to_dict(self):
        sc = scenario(clients=2, workload=[[["append", "x"], ["get", None]],
                                           [["get", None]]])
        again = scenario_from_dict(sc.to_dict())
        assert again == sc
        assert run(again).history == run(sc).history


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
        assert all(e.t >= art.meta["probe_from_t"] for e in art.history)


class TestCrashExpansion:
    def test_explicit_passthrough(self):
        assert expand_crashes([(1, 5)], 3, 1, 0) == [(1, 5)]

    def test_random_is_seed_deterministic_and_bounded(self):
        spec = {"random": {"max_crashes": 1, "until": 50}}
        out = expand_crashes(spec, 3, 1, 7)
        assert out == expand_crashes(spec, 3, 1, 7)
        assert len(out) <= 1
        for sid, t in out:
            assert 0 <= sid < 3 and 0 <= t <= 50

    def test_random_eventually_produces_f_crashes(self):
        spec = {"random": {"max_crashes": 1, "until": 50}}
        counts = {len(expand_crashes(spec, 3, 1, s)) for s in range(20)}
        assert counts == {0, 1}


class TestDeterminism:
    def test_identical_scenarios_produce_identical_artifacts(self):
        sc = scenario(seed=123, crash_schedule={"random": {"max_crashes": 1, "until": 40}})
        a, b = run(sc), run(sc)
        assert a.history == b.history
        assert a.abtrace == b.abtrace
        assert a.states == b.states
        assert a.meta == b.meta

    def test_different_seeds_differ(self):
        assert run(scenario(seed=1)).history != run(scenario(seed=2)).history


class TestCrashSemantics:
    def test_crashed_server_goes_silent(self):
        art = run(scenario(seed=4, crash_schedule=[[1, 10]],
                           workload={"ops_per_client": 10, "append_ratio": 0.5}))
        for e in art.abtrace.events:
            if e.server == 1 and e.kind != "crash":
                assert e.t <= 10

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
            [e for e in art.history if e.t < art.meta["probe_from_t"]])
        assert pending and all(op.client == 0 for op in pending)
        assert len(pending) == 1  # one operation in flight at a time

    def test_crashed_client_is_skipped_by_the_probe_phase(self):
        art = run(scenario(seed=2, client_crashes=[[0, 3]], probe_gets=2,
                           workload={"ops_per_client": 6, "append_ratio": 1.0}))
        probe_events = [e for e in art.history if e.t >= art.meta["probe_from_t"]]
        assert probe_events
        assert all(e.client != 0 for e in probe_events)


class TestProbePhase:
    def test_probe_gets_recorded_after_quiescence(self):
        art = run(scenario(seed=6, probe_gets=3))
        probe_t = art.meta["probe_from_t"]
        probes = [e for e in art.history if e.t >= probe_t]
        # 2 clients x 3 gets, invoke + response each
        assert sum(1 for e in probes if e.ev == "invoke") == 6
        assert all(e.kind == "get" for e in probes)

    def test_probe_gets_zero_disables_the_phase(self):
        art = run(scenario(seed=6, probe_gets=0))
        assert art.meta["probe_from_t"] is None


class TestEventLoop:
    def test_send_delay_arithmetic(self):
        sim = Simulator(scenario())
        seen = []
        sim.now = 5
        sim.schedule(3, "probe", lambda: seen.append(sim.now))
        sim._drain()
        assert seen == [8]

    def test_events_run_in_time_then_insertion_order(self):
        sim = Simulator(scenario())
        seen = []
        sim.schedule(2, "probe", lambda: seen.append("late"))
        sim.schedule(1, "probe", lambda: seen.append("a"))
        sim.schedule(1, "probe", lambda: seen.append("b"))
        sim._drain()
        assert seen == ["a", "b", "late"]

    def test_cannot_schedule_into_the_past(self):
        sim = Simulator(scenario())
        with pytest.raises(AssertionError):
            sim.schedule(-1, "probe", lambda: None)

    @pytest.mark.parametrize("max_delay", [1, 2, 3, 7, 10, 16, 1000])
    def test_delay_draws_are_the_randint_stream(self, max_delay):
        sim = Simulator(scenario(seed=11, max_delay=max_delay))
        rng = random.Random("net:11")
        assert ([sim.draw_delay() for _ in range(20_000)]
                == [rng.randint(1, max_delay) for _ in range(20_000)])
