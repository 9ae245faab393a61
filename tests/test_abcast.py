import heapq
import random

import pytest

from ledgerlab.abcast import AbTrace, BroadcastService, check_abcast_trace, trace_from_jsonl


class Loop:
    """A fake net: a minimal (time, tiebreak) event loop for driving the service directly."""

    def __init__(self, n, seed, max_delay):
        self.now = 0
        self._heap = []
        self._seq = 0
        self.alive = [True] * n
        self.delivered = []
        self.trace = AbTrace(n)
        self._rng = random.Random(seed)
        self._max_delay = max_delay

    def schedule(self, delay, kind, fn):
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))

    def draw_delay(self):
        return self._rng.randint(1, self._max_delay)

    def server_alive(self, sid):
        return self.alive[sid]

    def adeliver(self, sid, payload):
        self.delivered.append((sid, payload))

    def drain(self):
        while self._heap:
            self.now, _, fn = heapq.heappop(self._heap)
            fn()


def make_service(n=3, seed=0, max_delay=5):
    loop = Loop(n, seed, max_delay)
    svc = BroadcastService(n, loop)
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
