"""Total-order broadcast used by the replicated servers.

The simulator-resident service assigns every broadcast a global sequence
number at broadcast time; asynchrony appears only as the randomized delay
before each per-server delivery wake-up.  Four guarantees are promised to the
protocols (validity, uniform agreement, uniform integrity, uniform total
order) and `check_abcast_trace` verifies all four on a recorded trace rather
than trusting the construction.  The service needs a majority of servers to
stay up, so scenarios are rejected unless f < n/2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .histories import is_int
from .verdicts import Verdict, failed, passed

BROADCAST = "broadcast"
DELIVER = "deliver"
CRASH = "crash"
_FIELDS = {BROADCAST: {"ev", "server", "t", "msg"}, DELIVER: {"ev", "server", "t", "msg"},
           CRASH: {"ev", "server", "t"}}


@dataclass(frozen=True)
class AbEvent:
    kind: str  # broadcast | deliver | crash
    server: int
    t: int
    msg: int | None = None  # global sequence number; None for crash events


@dataclass
class AbTrace:
    """Chronological record of broadcast/delivery/crash events for n servers."""

    n: int
    events: list[AbEvent] = field(default_factory=list)

    def add(self, kind: str, server: int, t: int, msg: int | None = None) -> None:
        self.events.append(AbEvent(kind, server, t, msg))

    def to_jsonl(self) -> str:
        # Every field is an int or a kind from _FIELDS, so the lines are
        # formatted directly, in the bytes json.dumps would give.
        lines = [f'{{"ev":"{e.kind}","server":{e.server},"t":{e.t}}}' if e.msg is None
                 else f'{{"ev":"{e.kind}","server":{e.server},"msg":{e.msg},"t":{e.t}}}'
                 for e in self.events]
        return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str, n: int) -> AbTrace:
    """Parse trace JSONL for ``n`` servers; raises ValueError on an event whose
    fields are not exactly its kind's ``_FIELDS`` or have the wrong type."""
    trace = AbTrace(n)
    for k, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        obj = json.loads(line)
        ev, server, msg = obj["ev"], obj["server"], obj.get("msg")
        if not (obj.keys() == _FIELDS.get(ev) and is_int(server) and 0 <= server < n
                and is_int(obj["t"]) and (ev == CRASH or is_int(msg))):
            raise ValueError(f"malformed trace event on line {k}")
        trace.add(ev, server, obj["t"], msg)
    return trace


class BroadcastService:
    """Sequencer-backed total-order broadcast driven by the event loop.

    Each broadcast appends the payload to a global log and schedules one
    delivery wake-up per currently-alive server.  A wake-up hands the server
    the lowest-numbered message it has not yet delivered, so per-server
    delivery order always follows the global order even when wake-ups fire
    out of order; one wake-up exists per (message, alive server) pair, so
    every pending message is eventually drained.  ``net`` is the simulator.
    """

    def __init__(self, n: int, net) -> None:
        self.n = n
        self.net = net
        self._log: list[object] = []
        self._cursor = [0] * n  # next sequence number each server will deliver

    def broadcast(self, server: int, payload: object) -> int:
        net = self.net
        assert net.server_alive(server), "broadcast from a crashed server"
        seq = len(self._log)
        self._log.append(payload)
        net.trace.add(BROADCAST, server, net.now, seq)
        for sid in range(self.n):
            if net.server_alive(sid):
                net.schedule(net.draw_delay(), "ab_deliver", lambda s=sid: self._wake(s))
        return seq

    def _wake(self, server: int) -> None:
        # A server's j-th wake-up was scheduled by a broadcast that found it
        # alive, so a live server always has an undelivered message here.
        net = self.net
        if not net.server_alive(server):
            return
        nxt = self._cursor[server]
        self._cursor[server] = nxt + 1
        net.trace.add(DELIVER, server, net.now, nxt)
        net.adeliver(server, self._log[nxt])


def check_abcast_trace(trace: AbTrace) -> Verdict:
    """Verify the four broadcast guarantees on a completed run's trace.

    Checked in order: validity (a correct broadcaster delivers its own
    message), uniform agreement (anything delivered anywhere reaches every
    correct server), uniform integrity (at-most-once per server, and only
    previously broadcast messages), uniform total order (all per-server
    delivery orders agree on their common messages).
    """
    crashed: dict[int, int] = {}
    broadcasts: list[tuple[int, int, int]] = []  # (server, msg, t)
    deliveries: dict[int, list[tuple[int, int]]] = {}  # server -> [(msg, t)]
    for e in trace.events:
        if e.kind == CRASH:
            crashed.setdefault(e.server, e.t)
        elif e.kind == BROADCAST:
            broadcasts.append((e.server, e.msg, e.t))
        elif e.kind == DELIVER:
            deliveries.setdefault(e.server, []).append((e.msg, e.t))
        else:
            raise ValueError(f"unknown trace event kind {e.kind!r}")

    correct = [sid for sid in range(trace.n) if sid not in crashed]
    delivered_sets = {sid: {m for m, _ in evs} for sid, evs in deliveries.items()}

    # Validity
    for sid, msg, _ in broadcasts:
        if sid not in crashed and msg not in delivered_sets.get(sid, ()):
            return failed("Validity", [f"m{msg}", f"s{sid}"])

    # Uniform Agreement
    everywhere = set().union(*delivered_sets.values())
    for sid in correct:
        missing = everywhere - delivered_sets.get(sid, set())
        if missing:
            return failed("UniformAgreement", [f"m{min(missing)}", f"s{sid}"])

    # Uniform Integrity
    broadcast_time = {}
    for _, msg, t in broadcasts:
        broadcast_time.setdefault(msg, t)
    for sid, evs in deliveries.items():
        seen: set[int] = set()
        for msg, t in evs:
            if msg in seen or msg not in broadcast_time or t < broadcast_time[msg]:
                return failed("UniformIntegrity", [f"m{msg}", f"s{sid}"])
            seen.add(msg)

    # Uniform Total Order: every pair of delivery orders must agree on the
    # relative order of their common messages.
    orders = {sid: [m for m, _ in evs] for sid, evs in deliveries.items()}
    sids = sorted(orders)
    for i, s1 in enumerate(sids):
        for s2 in sids[i + 1:]:
            pos2 = {m: k for k, m in enumerate(orders[s2])}
            last = -1
            last_msg = None
            for m in orders[s1]:
                k = pos2.get(m)
                if k is None:
                    continue
                if k < last:
                    return failed("UniformTotalOrder", [f"m{last_msg}", f"m{m}", f"s{s1}", f"s{s2}"])
                last, last_msg = k, m
    return passed()
