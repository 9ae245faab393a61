"""Total-order broadcast used by the replicated servers.

The simulator-resident service assigns every broadcast a global sequence
number at broadcast time; asynchrony appears only as the randomized delay
before each per-server delivery wake-up.  Four guarantees are promised to the
protocols (validity, uniform agreement, uniform integrity, uniform total
order) and `check_abcast_trace` verifies all four on a recorded trace rather
than trusting the construction.  The service needs a majority of servers to
stay up, so scenarios are rejected unless f < n/2.

The trace (`AbTrace`) is the columns of `_COLUMNS`, written a line each by
`histories.column_lines` and read by `histories.read_columns`, as the
history's are: each broadcast's ``sender`` and ``t`` (a message's number is
its index), and each server's ``crash`` (null if none) and ``delivered``
times.  A server with k delivery times delivered messages 0..k-1, in that
order, so its times never decrease and none is later than its crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import count, repeat
from operator import ge, le
from typing import Iterator, NamedTuple

from .histories import column_lines, read_columns
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


# Each column in file order, a row of the table `read_columns` takes.
_COLUMNS = {"sender": ((int,), "server", "broadcast"), "t": ((int,), None, "broadcast"),
            "crash": ((int, type(None)), None, "server"), "delivered": ((list,), None, "server")}


@dataclass
class AbTrace:
    """The trace's columns, as in the module docstring: ``sender[m]`` and
    ``t[m]`` are the server and time of broadcast m; ``crash[k]`` and
    ``delivered[k]`` are server k's crash time (None if none) and the times
    it delivered messages 0, 1, ..."""

    sender: list[int]
    t: list[int]
    crash: list[int | None]
    delivered: list[list[int]]

    @classmethod
    def empty(cls, n: int) -> AbTrace:
        """The trace of n servers before any broadcast or crash."""
        return cls([], [], [None] * n, [[] for _ in range(n)])

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
        for sid, times in enumerate(self.delivered):
            rows += map(_row, zip(repeat(DELIVER), repeat(sid), times, count()))
        rows += [AbEvent(CRASH, sid, t, None) for sid, t in enumerate(self.crash)
                 if t is not None]
        return rows

    def lines(self) -> Iterator[str]:
        """The trace's JSONL, as the pieces of `column_lines`."""
        return column_lines((name, getattr(self, name)) for name in _COLUMNS)


def trace_from_jsonl(text: str, n: int) -> AbTrace:
    """Parse trace JSONL for ``n`` servers: its columns (see `read_columns`),
    then each server's times.  A ValueError names the column and the
    broadcast or server that breaks the layout."""
    trace = AbTrace(*read_columns(text, "trace", _COLUMNS, server=n))
    for sid, (crash, times) in enumerate(zip(trace.crash, trace.delivered)):
        where = f"trace column 'delivered', server {sid}"
        if not set(map(type, times)) <= {int}:
            raise ValueError(f"{where}: a time is not an int")
        if not all(map(le, times, times[1:])):
            raise ValueError(f"{where}: its times decrease")
        if crash is not None and times and times[-1] > crash:
            raise ValueError(f"{where}: time {times[-1]} is after its crash at {crash}")
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
        # The trace's columns; a server's list of delivery times is as long as
        # the number of the next message that server delivers.
        self._sender, self._sent_t, self._times = net.trace.sender, net.trace.t, net.trace.delivered

    def broadcast(self, server: int, payload: object) -> None:
        net = self.net
        assert not self.servers[server].crashed, "broadcast from a crashed server"
        self._log.append(payload)
        self._sender.append(server)
        self._sent_t.append(net.now)
        send, wake = net.send, self._wake
        for s in self.servers:
            if not s.crashed:
                send(wake, s)

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

    A server's k times in ``delivered`` are of messages 0..k-1 in order,
    which is at-most-once and in the global order, so total order holds by
    the trace's form (`trace_from_jsonl` refuses times that decrease or pass
    the crash), and the rest reduces to counts and to comparing each
    server's times with the broadcast times at C speed.  On a trace of the
    service the loops below visit only the servers; they name a breach.
    """
    crash, sent_t = trace.crash, trace.t
    counts = list(map(len, trace.delivered))
    correct = [sid for sid, t in enumerate(crash) if t is None]
    # Validity: a correct sender's message m is delivered iff m < its count,
    # so no breach lies below the least count of a correct server.
    start = min([counts[sid] for sid in correct], default=len(sent_t))
    for msg in range(start, len(sent_t)):
        sid = trace.sender[msg]
        if crash[sid] is None and msg >= counts[sid]:
            return failed("Validity", [f"m{msg}", f"s{sid}"])
    top = max(counts, default=0)  # messages 0..top-1 were delivered somewhere
    for sid in correct:  # Uniform Agreement
        if counts[sid] < top:
            return failed("UniformAgreement", [f"m{counts[sid]}", f"s{sid}"])
    for sid, times in enumerate(trace.delivered):  # Uniform Integrity
        if counts[sid] > len(sent_t) or not all(map(ge, times, sent_t)):
            msg = next((m for m, (t, t0) in enumerate(zip(times, sent_t)) if t < t0), len(sent_t))
            return failed("UniformIntegrity", [f"m{msg}", f"s{sid}"])
    return passed()
