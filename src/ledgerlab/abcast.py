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

import re
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .verdicts import Verdict, failed, passed

BROADCAST = "broadcast"
DELIVER = "deliver"
CRASH = "crash"

# One line of `AbTrace.to_jsonl` in either of its two forms, and nothing else:
# that key order, no spaces, JSON integers, and a non-negative server.  The
# groups are (kind, kind if not a crash, server, msg or "", t); the "msg"
# field is required exactly when the second group matched.
_EVENT = re.compile(
    r'^\{"ev":"((broadcast|deliver)|crash)","server":(0|[1-9][0-9]*),'
    r'(?(2)"msg":(-?(?:0|[1-9][0-9]*)),)"t":(-?(?:0|[1-9][0-9]*))\}$', re.MULTILINE)


class AbEvent(NamedTuple):
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
        # Every field is an int or one of the three kinds, so the lines are
        # formatted directly, in the bytes json.dumps would give.
        lines = [f'{{"ev":"{kind}","server":{server},"t":{t}}}' if msg is None
                 else f'{{"ev":"{kind}","server":{server},"msg":{msg},"t":{t}}}'
                 for kind, server, t, msg in self.events]
        return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str, n: int) -> AbTrace:
    """Parse trace JSONL for ``n`` servers.

    Every line must be exactly as `AbTrace.to_jsonl` writes it, with a server
    below ``n``; on the first that is not (a blank line included) this raises
    ValueError naming its line number.
    """
    events = [AbEvent(kind, int(server), int(t), int(msg) if msg else None)
              for kind, _, server, msg, t in map(re.Match.groups, _EVENT.finditer(text))]
    # Each match is one whole line, so as many matches as lines (a last line
    # without its newline included) means every line matched.
    lines = text.count("\n") + (text[-1:] not in ("", "\n"))
    if len(events) != lines or any(e.server >= n for e in events):
        k = next(k for k, line in enumerate(text.split("\n"), 1)
                 if not (m := _EVENT.fullmatch(line)) or int(m[3]) >= n)
        raise ValueError(f"malformed trace event on line {k}")
    return AbTrace(n, events)


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
        self._wakes = [partial(self._wake, sid) for sid in range(n)]

    def broadcast(self, server: int, payload: object) -> int:
        net = self.net
        assert net.server_alive(server), "broadcast from a crashed server"
        seq = len(self._log)
        self._log.append(payload)
        net.trace.add(BROADCAST, server, net.now, seq)
        for sid, wake in enumerate(self._wakes):
            if net.server_alive(sid):
                net.schedule(net.draw_delay(), "ab_deliver", wake)
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
    for kind, server, t, msg in trace.events:
        if kind == DELIVER:
            deliveries.setdefault(server, []).append((msg, t))
        elif kind == BROADCAST:
            broadcasts.append((server, msg, t))
        elif kind == CRASH:
            crashed.setdefault(server, t)
        else:
            raise ValueError(f"unknown trace event kind {kind!r}")

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
    position = {sid: {m: k for k, m in enumerate(order)} for sid, order in orders.items()}
    sids = sorted(orders)
    for i, s1 in enumerate(sids):
        for s2 in sids[i + 1:]:
            pos2 = position[s2]
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
