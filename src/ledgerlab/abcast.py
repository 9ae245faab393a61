"""Total-order broadcast used by the replicated servers.

The simulator-resident service assigns every broadcast a global sequence
number at broadcast time; asynchrony appears only as the randomized delay
before each per-server delivery wake-up.  Four guarantees are promised to the
protocols (validity, uniform agreement, uniform integrity, uniform total
order) and `check_abcast_trace` verifies all four on a recorded trace rather
than trusting the construction.  The service needs a majority of servers to
stay up, so scenarios are rejected unless f < n/2.

The trace is columns (`AbTrace`): each broadcast's sender and time, and
each server's crash time and delivery times.  A server with k delivery
times delivered messages 0..k-1, in that order, so its times never decrease
and none is later than its crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import count, repeat
from operator import ge, le
from typing import Iterator, NamedTuple

from .histories import compact_json, jsonl_objects
from .verdicts import Verdict, failed, passed

BROADCAST = "broadcast"
DELIVER = "deliver"
CRASH = "crash"


class AbEvent(NamedTuple):
    kind: str  # broadcast | deliver | crash
    server: int
    t: int
    msg: int | None  # global sequence number; None for a crash


_row = partial(tuple.__new__, AbEvent)  # AbEvent._make without its Python-level call


@dataclass
class ServerTrace:
    """One server's part of a trace: its crash time (None if it never
    crashed) and the time it delivered each of messages 0, 1, ..."""

    crash: int | None = None
    t: list[int] = field(default_factory=list)


@dataclass
class AbTrace:
    """The broadcast columns of n servers: ``sender[m]`` and ``t[m]`` are the
    server and time of broadcast m; ``servers[k]`` is server k's part."""

    n: int
    sender: list[int] = field(default_factory=list)
    t: list[int] = field(default_factory=list)
    servers: list[ServerTrace] = field(init=False)

    def __post_init__(self) -> None:
        self.servers = [ServerTrace() for _ in range(self.n)]

    @cached_property
    def events(self) -> list[AbEvent]:
        """Every broadcast, delivery and crash as one `AbEvent` row, built on
        the first read, so read it only from a finished trace.

        The rows are the broadcasts in message order, then each server's
        deliveries in delivery order, servers in order, then the crashes by
        server.  The columns keep no order among the events of one tick, so
        a stable sort on ``t`` gives a timeline that shows a tick's
        broadcasts first, then its deliveries server by server, then its
        crashes.
        """
        rows = list(map(_row, zip(repeat(BROADCAST), self.sender, self.t, count())))
        for sid, s in enumerate(self.servers):
            rows += map(_row, zip(repeat(DELIVER), repeat(sid), s.t, count()))
        rows += [AbEvent(CRASH, sid, s.crash, None) for sid, s in enumerate(self.servers)
                 if s.crash is not None]
        return rows

    def lines(self) -> Iterator[str]:
        """One line of broadcast columns, then one line per server, each in
        the bytes of ``json.dumps(obj, separators=(",", ":"))``; the encoder
        holds a string per int, so each broadcast column is encoded alone."""
        yield '{"sender":' + compact_json(self.sender) + ',"t":' + compact_json(self.t) + "}\n"
        for sid, s in enumerate(self.servers):
            yield compact_json({"server": sid, "crash": s.crash, "t": s.t}) + "\n"

    def to_jsonl(self) -> str:
        """The trace as JSONL: its `lines` joined."""
        return "".join(self.lines())


def _ints(v) -> bool:
    """A JSON array of integers only (no bools)."""
    return type(v) is list and set(map(type, v)) <= {int}


def trace_from_jsonl(text: str, n: int) -> AbTrace:
    """Parse trace JSONL for ``n`` servers.

    The non-blank lines are one ``{"sender", "t"}`` object of equal-length
    integer arrays, each sender below ``n``, then one object per server in
    order: ``{"server", "crash", "t"}`` with the server's number, an integer
    or null crash and integer delivery times that never decrease and end no
    later than the crash.  Whitespace and key order are free; a repeated key
    is not (see `jsonl_objects`).  Every line is parsed before any is
    checked, as it always was: a line that is not one JSON object is named
    before a wrong line count, and that before a malformed line.  Raises
    ValueError naming the first line that breaks this.
    """
    rows = list(jsonl_objects(text, "trace"))
    if len(rows) != n + 1:
        raise ValueError(f"trace has {len(rows)} lines, want {n + 1}: "
                         f"the broadcasts and one per server")
    line, head = rows[0]
    sender = head.get("sender")
    if not (head.keys() == {"sender", "t"} and _ints(sender) and _ints(head["t"])
            and len(sender) == len(head["t"])
            and 0 <= min(sender, default=0) and max(sender, default=0) < n):
        raise ValueError(f"malformed trace line {line}")
    trace = AbTrace(n, sender, head["t"])
    for sid, (line, obj) in zip(range(n), rows[1:]):
        crash, t = obj.get("crash"), obj.get("t")
        if not (obj.keys() == {"server", "crash", "t"}
                and type(obj["server"]) is int and obj["server"] == sid
                and (crash is None or type(crash) is int) and _ints(t)
                and all(map(le, t, t[1:])) and (crash is None or not t or t[-1] <= crash)):
            raise ValueError(f"malformed trace line {line}")
        trace.servers[sid] = ServerTrace(crash, t)
    return trace


class BroadcastService:
    """Sequencer-backed total-order broadcast driven by the event loop.

    Each broadcast appends the payload to a global log and sends one
    delivery wake-up to each live server; a crashed server drops its
    wake-ups.  A wake-up hands the server the lowest-numbered message it has
    not yet delivered, so per-server delivery order always follows the
    global order even when wake-ups fire out of order; one wake-up exists
    per (message, live server) pair, so every pending message is eventually
    drained.  ``servers`` are the replicas; ``net`` is the simulator, whose
    ``trace`` records each broadcast and delivery time.
    """

    def __init__(self, servers: list, net) -> None:
        self.servers = servers
        self.net = net
        self._log: list[object] = []
        trace = net.trace
        self._sender, self._sent_t = trace.sender, trace.t
        # Each server's delivery times; a list's length is the number of the
        # next message that server delivers.
        self._times = [s.t for s in trace.servers]

    def broadcast(self, server: int, payload: object) -> int:
        net = self.net
        assert not self.servers[server].crashed, "broadcast from a crashed server"
        seq = len(self._log)
        self._log.append(payload)
        self._sender.append(server)
        self._sent_t.append(net.now)
        send, wake = net.send, self._wake
        for s in self.servers:
            if not s.crashed:
                send(wake, s)
        return seq

    def _wake(self, server) -> None:
        # A server's j-th wake-up was sent by a broadcast that found it
        # alive, so a live server always has an undelivered message here.
        if server.crashed:
            return
        times = self._times[server.sid]
        times.append(self.net.now)
        server.handle_adeliver(self._log[len(times) - 1])


def check_abcast_trace(trace: AbTrace) -> Verdict:
    """Verify the four broadcast guarantees on a completed run's trace.

    Checked in order: validity (a correct broadcaster delivers its own
    message), uniform agreement (anything delivered anywhere reaches every
    correct server), uniform integrity (at-most-once per server, and only
    messages broadcast no later), uniform total order (all per-server
    delivery orders agree on their common messages).

    A server with k delivery times delivered messages 0..k-1 in order, which
    is at-most-once and in the global order, so total order holds by the
    trace's form (`trace_from_jsonl` refuses times that contradict it), and
    the rest reduces to counts and to comparing each server's times with the
    broadcast times at C speed.  On a trace of the service the loops below
    visit only the servers; they name a breach.
    """
    servers, sent_t = trace.servers, trace.t
    counts = [len(s.t) for s in servers]
    correct = [sid for sid, s in enumerate(servers) if s.crash is None]
    # Validity: a correct sender's message m is delivered iff m < its count,
    # so no breach lies below the least count of a correct server.
    start = min([counts[sid] for sid in correct], default=len(sent_t))
    for msg in range(start, len(sent_t)):
        sid = trace.sender[msg]
        if servers[sid].crash is None and msg >= counts[sid]:
            return failed("Validity", [f"m{msg}", f"s{sid}"])
    top = max(counts, default=0)  # messages 0..top-1 were delivered somewhere
    for sid in correct:  # Uniform Agreement
        if counts[sid] < top:
            return failed("UniformAgreement", [f"m{counts[sid]}", f"s{sid}"])
    for sid, s in enumerate(servers):  # Uniform Integrity
        if counts[sid] > len(sent_t) or not all(map(ge, s.t, sent_t)):
            msg = next((m for m, (t, t0) in enumerate(zip(s.t, sent_t)) if t < t0), len(sent_t))
            return failed("UniformIntegrity", [f"m{msg}", f"s{sid}"])
    return passed()
