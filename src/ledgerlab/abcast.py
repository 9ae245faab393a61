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
from typing import Callable

from .verdicts import Verdict, failed, passed

BROADCAST = "broadcast"
DELIVER = "deliver"
CRASH = "crash"


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
        lines = []
        for e in self.events:
            obj: dict = {"ev": e.kind, "server": e.server}
            if e.msg is not None:
                obj["msg"] = e.msg
            obj["t"] = e.t
            lines.append(json.dumps(obj, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str, n: int) -> AbTrace:
    trace = AbTrace(n)
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        trace.add(obj["ev"], obj["server"], obj["t"], obj.get("msg"))
    return trace


class BroadcastService:
    """Sequencer-backed total-order broadcast driven by the event loop.

    Each broadcast appends the payload to a global log and schedules one
    delivery wake-up per currently-alive server.  A wake-up hands the server
    the lowest-numbered message it has not yet delivered, so per-server
    delivery order always follows the global order even when wake-ups fire
    out of order; one wake-up exists per (message, alive server) pair, so
    every pending message is eventually drained.
    """

    def __init__(
        self,
        n: int,
        *,
        schedule: Callable,  # schedule(delay, kind, fn)
        alive: Callable[[int], bool],
        draw_delay: Callable[[], int],
        deliver: Callable[[int, object], None],
        trace: AbTrace,
        now: Callable[[], int],
    ) -> None:
        self.n = n
        self._schedule = schedule
        self._alive = alive
        self._draw_delay = draw_delay
        self._deliver = deliver
        self._trace = trace
        self._now = now
        self._log: list[object] = []
        self._cursor = [0] * n  # next sequence number each server will deliver

    def broadcast(self, server: int, payload: object) -> int:
        assert self._alive(server), "broadcast from a crashed server"
        seq = len(self._log)
        self._log.append(payload)
        self._trace.add(BROADCAST, server, self._now(), seq)
        for sid in range(self.n):
            if self._alive(sid):
                self._schedule(self._draw_delay(), "ab_deliver", lambda s=sid: self._wake(s))
        return seq

    def _wake(self, server: int) -> None:
        if not self._alive(server):
            return
        nxt = self._cursor[server]
        if nxt >= len(self._log):
            return
        self._cursor[server] = nxt + 1
        self._trace.add(DELIVER, server, self._now(), nxt)
        self._deliver(server, self._log[nxt])


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
        if sid in crashed:
            continue
        if msg not in delivered_sets.get(sid, ()):
            return failed("Validity", [f"m{msg}", f"s{sid}"])

    # Uniform Agreement
    everywhere = set()
    for s in delivered_sets.values():
        everywhere |= s
    for sid in correct:
        missing = everywhere - delivered_sets.get(sid, set())
        if missing:
            m = min(missing)
            return failed("UniformAgreement", [f"m{m}", f"s{sid}"])

    # Uniform Integrity
    broadcast_time = {}
    for _, msg, t in broadcasts:
        broadcast_time.setdefault(msg, t)
    for sid, evs in deliveries.items():
        seen: set[int] = set()
        for msg, t in evs:
            if msg in seen:
                return failed("UniformIntegrity", [f"m{msg}", f"s{sid}"])
            seen.add(msg)
            if msg not in broadcast_time or t < broadcast_time[msg]:
                return failed("UniformIntegrity", [f"m{msg}", f"s{sid}"])

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
