"""Client interfaces and the replicated-server state machine.

All three consistency levels run one replica state machine on top of the
total-order broadcast service.  Every append broadcasts its record; a
delivered record joins the replica once, acks the append if this server
stashed it, and releases any parked get whose floor the replica now meets.
The levels differ in two decisions only:

* an eventual append is acked at request time, before its record is
  anywhere; sequential and atomic appends are acked at its delivery;
* an atomic get is broadcast and answered at its own delivery, so it
  reflects a totally-ordered prefix.  Eventual and sequential gets are
  answered from the local replica once it reaches the client's floor: the
  length of the client's last observed sequence in sequential mode, 0
  otherwise.

Clients fan every request out to a fixed set of f+1 servers and take the
first response; later responses for the same request counter are dropped.
A consensus client is layered on the eventual-mode interface: propose by
appending, then poll until the ledger is non-empty and decide its first
payload.  Servers and clients reach the world only through ``net``, the
`ledgerlab.sim.Simulator`, whose docstring lists what it provides.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

from .histories import INVOKE, RESPONSE, HistoryEvent
from .ledger import ACK, Ledger, Record, ValidityPredicate, make_rid
# Read-side repair's definition stays importable here: Client reads it through
# Ledger.read_ids, and perfbench's tracer wraps protocols.filter_valid.
from .ledger import filter_valid  # noqa: F401

log = logging.getLogger("ledgerlab.protocols")

EVENTUAL = "eventual"
SEQUENTIAL = "sequential"
ATOMIC = "atomic"
MODES = (EVENTUAL, SEQUENTIAL, ATOMIC)


# Client -> server requests.
class GetReq(NamedTuple):
    c: int
    floor: int  # serve only once the replica is this long; 0 outside sequential mode


class AppendReq(NamedTuple):
    c: int
    record: Record


# Server -> client responses.
class GetRes(NamedTuple):
    """The answering replica and its length at send time: the replica never
    shrinks or reorders, so the pair is a snapshot even if it grows before
    the client reads it."""

    c: int
    replica: Ledger
    n: int


class AppendRes(NamedTuple):
    c: int
    result: str
    pos: int | None  # replica length when the record landed; None for an eventual ack


# Broadcast payloads: an append broadcasts its bare Record, an atomic get this.
class BcastGet(NamedTuple):
    p: int
    c: int


class Server:
    """One replica of the ledger, in any of the three modes.

    Handlers run atomically with respect to each other.
    """

    def __init__(self, mode: str, sid: int, net) -> None:
        self.mode = mode
        self.sid = sid
        self.net = net
        self.replica = Ledger()
        self.stashed_appends: dict[str, tuple[int, int]] = {}  # rid -> (client, c)
        self.stashed_gets: set[tuple[int, int]] = set()  # atomic mode: (client, c)
        self.parked_gets: list[tuple[int, int, int]] = []  # (client, c, floor)
        self.crashed = False

    def handle_request(self, client: int, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, AppendReq):
            self.net.abroadcast(self.sid, msg.record)
            if self.mode == EVENTUAL:
                # acked before the record is anywhere: the defining weakness
                self.net.respond(self.sid, client, AppendRes(msg.c, ACK, None))
            else:
                self.stashed_appends[msg.record.rid] = (client, msg.c)
        elif self.mode == ATOMIC:
            self.net.abroadcast(self.sid, BcastGet(client, msg.c))
            self.stashed_gets.add((client, msg.c))
        elif len(self.replica) >= msg.floor:
            self.net.respond(self.sid, client, GetRes(msg.c, self.replica, len(self.replica)))
        else:
            self.parked_gets.append((client, msg.c, msg.floor))

    def handle_adeliver(self, payload) -> None:
        if isinstance(payload, BcastGet):
            key = (payload.p, payload.c)
            if key in self.stashed_gets:
                self.stashed_gets.remove(key)
                self.net.respond(self.sid, payload.p,
                                 GetRes(payload.c, self.replica, len(self.replica)))
            return
        self.replica.add(payload)
        # Acknowledge on any delivery of the record while stashed, not only
        # the first: the first copy can land before this server has even seen
        # the client's request, and the client must still get an answer.
        entry = self.stashed_appends.pop(payload.rid, None)
        if entry is not None:
            client, c = entry
            self.net.respond(self.sid, client, AppendRes(c, ACK, len(self.replica)))
        if self.parked_gets:
            length = len(self.replica)
            still_parked = []
            for client, c, floor in self.parked_gets:
                if length >= floor:
                    self.net.respond(self.sid, client, GetRes(c, self.replica, length))
                else:
                    still_parked.append((client, c, floor))
            self.parked_gets = still_parked


def server_subset(cid: int, n: int, f: int) -> list[int]:
    """The f+1 servers a client talks to: consecutive ids rotated by client id."""
    return [(cid + j) % n for j in range(f + 1)]


class Client:
    """Issues one operation at a time, fanning out to its server subset.

    With a validity predicate configured, get responses are filtered at this
    boundary (the read-side repair construction, folded once per replica by
    `Ledger.read_ids`); the protocol-level length bookkeeping still uses the raw
    replica length.
    """

    def __init__(self, cid: int, mode: str, targets: list[int], net,
                 ops: list[tuple[str, str | None]] | None = None,
                 pred: ValidityPredicate | None = None) -> None:
        self.cid = cid
        self.mode = mode
        self.targets = targets
        self.net = net
        self.queue = list(ops or [])
        self.pred = pred
        self.c = 0
        self.last_len = 0  # every get's floor: the last observed length, sequential mode only
        self.pending: tuple[int, str, str] | None = None  # (c, kind, op_id)
        self.crashed = False

    def start(self) -> None:
        if not self.crashed and self.pending is None:
            self._next()

    @property
    def done(self) -> bool:
        return self.pending is None and not self.queue

    def _next(self) -> None:
        if self.queue:
            kind, payload = self.queue.pop(0)
            self._invoke(kind, payload)

    def _invoke(self, kind: str, payload: str | None = None) -> None:
        assert self.pending is None, "one operation at a time"
        self.c += 1
        op_id = make_rid(self.cid, self.c)
        if kind == "append":
            record = Record(op_id, self.cid, payload)
            req = AppendReq(self.c, record)
        else:
            req = GetReq(self.c, self.last_len)
        self.net.history.append(HistoryEvent(op_id, self.cid, INVOKE, kind, self.c,
                                             self.net.now, payload=payload))
        self.pending = (self.c, kind, op_id)
        for sid in self.targets:
            self.net.request(self.cid, sid, req)

    def on_response(self, msg) -> None:
        if self.crashed:
            return
        if self.pending is None or msg.c != self.pending[0]:
            log.debug("client %d dropped duplicate/stale response c=%d", self.cid, msg.c)
            return
        _, kind, op_id = self.pending
        if isinstance(msg, GetRes):
            n, result, seq = msg.n, None, msg.replica.read_ids(msg.n, self.pred)
        else:
            n, result, seq = msg.pos, msg.result, None
        if self.mode == SEQUENTIAL:
            self.last_len = n
        self.net.history.append(HistoryEvent(op_id, self.cid, RESPONSE, kind, msg.c,
                                             self.net.now, result=result, seq=seq))
        self.pending = None
        self._after_response(msg)

    def _after_response(self, msg) -> None:
        self._next()

    def crash(self) -> None:
        self.crashed = True


class ProposerClient(Client):
    """Consensus by reduction: append the proposal, poll get until non-empty,
    decide the first payload."""

    def __init__(self, cid: int, targets: list[int], net, value: str) -> None:
        super().__init__(cid, EVENTUAL, targets, net)
        self.value = value
        self.decision: str | None = None

    def start(self) -> None:
        self._invoke("append", self.value)

    def _after_response(self, msg) -> None:
        if self.decision is not None:
            return
        view = msg.replica.read(msg.n) if isinstance(msg, GetRes) else ()
        if view:
            self.decision = view[0].payload
        else:
            self._invoke("get")
