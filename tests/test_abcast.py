import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ledgerlab.abcast import AbTrace, BroadcastService, check_abcast_trace, trace_from_jsonl

from conftest import HeapLoop


class Loop(HeapLoop):
    """A fake net: a minimal (time, tiebreak) event loop for driving the service directly."""

    def __init__(self, n, seed, max_delay):
        super().__init__(random.Random(seed), max_delay)
        self.alive = [True] * n
        self.delivered = []
        self.trace = AbTrace(n)
        self.servers = [FakeServer(sid, self) for sid in range(n)]

    drain = HeapLoop._drain


class FakeServer:
    """A replica that records what it delivers; crashed while ``alive`` says so."""

    def __init__(self, sid, loop):
        self.sid = sid
        self.loop = loop

    @property
    def crashed(self):
        return not self.loop.alive[self.sid]

    def handle_adeliver(self, payload):
        self.loop.delivered.append((self.sid, payload))


def make_service(n=3, seed=0, max_delay=5):
    loop = Loop(n, seed, max_delay)
    svc = BroadcastService(loop.servers, loop)
    return loop, loop.alive, loop.delivered, loop.trace, svc


def deliveries_by_server(trace, n):
    out = {sid: [] for sid in range(n)}
    for e in trace.events:
        if e.kind == "deliver":
            out[e.server].append(e.msg)
    return out


def test_single_broadcast_reaches_every_server_once():
    loop, _, delivered, trace, svc = make_service()
    svc.broadcast(1, "m")
    loop.drain()
    assert sorted(delivered) == [(0, "m"), (1, "m"), (2, "m")]
    assert check_abcast_trace(trace).ok


def test_all_servers_deliver_in_broadcast_order():
    loop, _, delivered, trace, svc = make_service(seed=3)
    svc.broadcast(1, "m")
    svc.broadcast(1, "m2")
    svc.broadcast(0, "m3")
    loop.drain()
    for sid in range(3):
        assert [p for s, p in delivered if s == sid] == ["m", "m2", "m3"]
    assert check_abcast_trace(trace).ok


def test_no_broadcasts_no_deliveries():
    loop, _, delivered, trace, svc = make_service()
    loop.drain()
    assert delivered == []
    assert check_abcast_trace(trace).ok


def test_wakeups_firing_out_of_order_still_deliver_lowest_first():
    # deterministic seed where later wake-ups land before earlier ones; the
    # cursor hands out messages in sequence order regardless
    for seed in range(10):
        loop, _, _, trace, svc = make_service(seed=seed)
        for i in range(6):
            svc.broadcast(0, i)
        loop.drain()
        assert deliveries_by_server(trace, 3) == {sid: list(range(6)) for sid in range(3)}


def test_crashed_server_delivers_nothing_further():
    loop, alive, delivered, trace, svc = make_service()
    svc.broadcast(0, "early")
    loop.drain()
    crash_t = loop.now
    alive[2] = False
    trace.add("crash", 2, crash_t)
    svc.broadcast(0, "late")
    loop.drain()
    assert (2, "late") not in delivered
    assert (0, "late") in delivered and (1, "late") in delivered
    assert check_abcast_trace(trace).ok
    # its delivery list is a prefix of the global order
    assert deliveries_by_server(trace, 3)[2] == [0]


def test_sequence_numbers_are_gapless():
    loop, _, _, _, svc = make_service()
    seqs = [svc.broadcast(0, i) for i in range(5)]
    assert seqs == [0, 1, 2, 3, 4]


def test_broadcast_from_a_crashed_server_is_a_contract_violation():
    _, alive, _, _, svc = make_service()
    alive[1] = False
    with pytest.raises(AssertionError):
        svc.broadcast(1, "m")


def test_trace_jsonl_round_trip():
    loop, _, _, trace, svc = make_service()
    svc.broadcast(2, "m")
    loop.drain()
    trace.add("crash", 0, loop.now + 1)
    text = trace.to_jsonl()
    assert text.endswith("\n")
    again = trace_from_jsonl(text, 3)
    assert again == trace


INTS = st.integers(-10**12, 10**12)


@st.composite
def traces(draw):
    """Any trace for 1 to 7 servers: broadcast, deliver and crash events in
    any order, with negative and multi-digit times and sequence numbers."""
    n = draw(st.integers(1, 7))
    trace = AbTrace(n)
    server = st.integers(0, n - 1)
    for e in draw(st.lists(st.one_of(
            st.tuples(st.sampled_from(["broadcast", "deliver"]), server, INTS, INTS),
            st.tuples(st.just("crash"), server, INTS)), max_size=20)):
        trace.add(*e)
    return trace


@given(traces())
def test_any_trace_round_trips(trace):
    assert trace_from_jsonl(trace.to_jsonl(), trace.n) == trace


GOOD = '{"ev":"broadcast","server":0,"msg":0,"t":0}'


def _number_rows():
    for field in ("server", "msg", "t"):
        for bad in ("true", "1.0", "1e2", "01", '"3"'):
            values = {"server": 1, "msg": 2, "t": 3, field: bad}
            yield pytest.param('{"ev":"deliver","server":%(server)s,"msg":%(msg)s,"t":%(t)s}'
                               % values, id=f"{field}-{bad}")


# Line 2 of a three-server trace, after a well-formed line 1.
@pytest.mark.parametrize("line", [
    *_number_rows(),
    pytest.param('{"ev":"deliver","server":1,"msg":null,"t":3}', id="null-msg"),
    pytest.param('{"ev":"crash","server":1,"msg":2,"t":3}', id="msg-on-crash"),
    pytest.param('{"ev":"deliver","server":1,"t":3}', id="missing-msg"),
    pytest.param('{"ev":"deliver","server":1,"msg":2,"t":3,"x":1}', id="extra-field"),
    pytest.param('{"ev":"zz","server":1,"msg":2,"t":3}', id="unknown-ev"),
    pytest.param('{"ev":"deliver","server":3,"msg":2,"t":3}', id="server-equals-n"),
    pytest.param('{"ev":"deliver","server":-1,"msg":2,"t":3}', id="negative-server"),
    pytest.param('{"ev":"deliver","server": 1,"msg":2,"t":3}', id="space-after-colon"),
    pytest.param('{"ev":"deliver","server":1,"t":3,"msg":2}', id="swapped-keys"),
    pytest.param('{"ev":"deliver","server":1,"server":1,"msg":2,"t":3}', id="duplicate-key"),
    pytest.param('{"ev":"d\\u0065liver","server":1,"msg":2,"t":3}', id="escaped-ev"),
    pytest.param("", id="blank-line"),
    pytest.param(GOOD + GOOD, id="two-events-on-one-line"),
])
def test_malformed_trace_line_is_rejected(line):
    with pytest.raises(ValueError, match="^malformed trace event on line 2$"):
        trace_from_jsonl(f"{GOOD}\n{line}\n{GOOD}\n", 3)


def test_last_line_may_lack_its_newline():
    assert trace_from_jsonl(GOOD, 1) == trace_from_jsonl(GOOD + "\n", 1)
    assert trace_from_jsonl("", 1) == AbTrace(1)


class TestTraceChecker:
    def t(self, events, n=2):
        trace = AbTrace(n)
        for e in events:
            trace.add(*e)
        return check_abcast_trace(trace)

    def test_empty_trace_passes(self):
        assert self.t([]).ok

    def test_duplicate_delivery_fails_integrity(self):
        v = self.t([
            ("broadcast", 0, 0, 0),
            ("deliver", 0, 1, 0), ("deliver", 1, 1, 0),
            ("deliver", 1, 2, 0),
        ])
        assert v.status == "fail" and v.violated == "UniformIntegrity"
        assert "m0" in v.witness and "s1" in v.witness

    def test_order_swap_fails_total_order(self):
        v = self.t([
            ("broadcast", 0, 0, 0), ("broadcast", 0, 0, 1),
            ("deliver", 0, 1, 0), ("deliver", 0, 2, 1),
            ("deliver", 1, 1, 1), ("deliver", 1, 2, 0),
        ])
        assert v.status == "fail" and v.violated == "UniformTotalOrder"

    def test_delivery_without_broadcast_fails_integrity(self):
        v = self.t([("deliver", 0, 1, 7), ("deliver", 1, 1, 7)])
        assert v.violated == "UniformIntegrity"

    def test_delivery_before_broadcast_fails_integrity(self):
        v = self.t([("broadcast", 0, 5, 0), ("deliver", 0, 1, 0), ("deliver", 1, 6, 0)])
        assert v.violated == "UniformIntegrity"

    def test_correct_broadcaster_must_self_deliver(self):
        v = self.t([("broadcast", 0, 0, 0), ("deliver", 1, 1, 0)])
        assert v.violated == "Validity"

    def test_crashed_broadcaster_need_not_self_deliver(self):
        v = self.t([
            ("broadcast", 0, 0, 0),
            ("crash", 0, 1),
            ("deliver", 1, 2, 0),
        ])
        assert v.ok

    def test_correct_server_missing_a_message_fails_agreement(self):
        v = self.t([
            ("broadcast", 0, 0, 0),
            ("deliver", 0, 1, 0),
        ])
        assert v.violated == "UniformAgreement" and "s1" in v.witness


def reference_check_abcast_trace(trace):
    """`check_abcast_trace` as it was before its set-wise integrity test and
    its increasing-order shortcut: every check a plain loop."""
    crashed, broadcasts, deliveries = {}, [], {}
    for kind, server, t, msg in trace.events:
        if kind == "deliver":
            deliveries.setdefault(server, []).append((msg, t))
        elif kind == "broadcast":
            broadcasts.append((server, msg, t))
        else:
            crashed.setdefault(server, t)
    correct = [sid for sid in range(trace.n) if sid not in crashed]
    delivered_sets = {sid: {m for m, _ in evs} for sid, evs in deliveries.items()}
    for sid, msg, _ in broadcasts:
        if sid not in crashed and msg not in delivered_sets.get(sid, ()):
            return ("fail", "Validity", [f"m{msg}", f"s{sid}"])
    everywhere = set().union(*delivered_sets.values())
    for sid in correct:
        missing = everywhere - delivered_sets.get(sid, set())
        if missing:
            return ("fail", "UniformAgreement", [f"m{min(missing)}", f"s{sid}"])
    broadcast_time = {}
    for _, msg, t in broadcasts:
        broadcast_time.setdefault(msg, t)
    for sid, evs in deliveries.items():
        seen = set()
        for msg, t in evs:
            if msg in seen or msg not in broadcast_time or t < broadcast_time[msg]:
                return ("fail", "UniformIntegrity", [f"m{msg}", f"s{sid}"])
            seen.add(msg)
    orders = {sid: [m for m, _ in evs] for sid, evs in deliveries.items()}
    position = {sid: {m: k for k, m in enumerate(order)} for sid, order in orders.items()}
    sids = sorted(orders)
    for i, s1 in enumerate(sids):
        for s2 in sids[i + 1:]:
            last, last_msg = -1, None
            for m in orders[s1]:
                k = position[s2].get(m)
                if k is None:
                    continue
                if k < last:
                    return ("fail", "UniformTotalOrder",
                            [f"m{last_msg}", f"m{m}", f"s{s1}", f"s{s2}"])
                last, last_msg = k, m
    return ("pass", None, [])


EDITS = ("reorder", "repeat", "drop", "early", "post-crash", "never-broadcast")


@st.composite
def edited_service_traces(draw):
    """A trace as the service records it (1 to 5 servers, each delivering the
    global order until it crashes), then up to four edits, each a reordered,
    repeated, missing, early, post-crash or never-broadcast delivery."""
    n = draw(st.integers(1, 5))
    sent = [(draw(st.integers(0, n - 1)), draw(st.integers(0, 20)))
            for _ in range(draw(st.integers(0, 8)))]
    crash_t = {sid: draw(st.integers(0, 40))
               for sid in draw(st.sets(st.integers(0, n - 1), max_size=n))}
    delivered = {}
    for sid in range(n):
        t, evs = 0, []
        for msg, (_, t_sent) in enumerate(sent):
            t = max(t, t_sent) + draw(st.integers(0, 5))
            if t > crash_t.get(sid, t):
                break
            evs.append([msg, t])
        delivered[sid] = evs
    for _ in range(draw(st.integers(0, 4))):
        evs = delivered[draw(st.integers(0, n - 1))]
        edit = draw(st.one_of(st.just("reorder"), st.sampled_from(EDITS)))  # reorders more often
        at = draw(st.integers(0, len(evs)))
        if edit == "post-crash":
            evs.insert(at, [draw(st.integers(0, len(sent))), max(crash_t.values(), default=0) + 1])
        elif edit == "never-broadcast":
            evs.insert(at, [len(sent) + draw(st.integers(0, 2)), draw(st.integers(0, 60))])
        elif evs:
            i = min(at, len(evs) - 1)
            if edit == "reorder":
                j = draw(st.integers(0, len(evs) - 1))
                evs[i][0], evs[j][0] = evs[j][0], evs[i][0]
            elif edit == "repeat":
                evs.insert(draw(st.integers(i + 1, len(evs))), list(evs[i]))
            elif edit == "drop":
                del evs[i]
            elif evs[i][0] < len(sent):  # early: before its broadcast
                evs[i][1] = sent[evs[i][0]][1] - draw(st.integers(1, 3))
    trace = AbTrace(n)
    for msg, (sender, t) in enumerate(sent):
        trace.add("broadcast", sender, t, msg)
    for sid in draw(st.permutations(range(n))):
        for msg, t in delivered[sid]:
            trace.add("deliver", sid, t, msg)
    for sid, t in crash_t.items():
        trace.add("crash", sid, t)
    return trace


@given(st.one_of(edited_service_traces(), traces()))
def test_checker_matches_the_reference_loops(trace):
    v = check_abcast_trace(trace)
    assert (v.status, v.violated, v.witness) == reference_check_abcast_trace(trace)
