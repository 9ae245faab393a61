"""Client interfaces and replicated-server state machines.

Three server variants implement the ledger at different consistency levels
on top of the total-order broadcast service:

* eventual  -- appends are acknowledged as soon as the record is handed to
  the broadcast service; gets answer from the local replica immediately.
* atomic    -- both gets and appends are routed through the broadcast
  service and answered only at delivery, so every response reflects a
  totally-ordered prefix.
* sequential -- appends go through the broadcast service; gets answer
  locally but carry the client's last observed length and are parked until
  the replica has caught up to it.

Clients fan every request out to a fixed set of f+1 servers and take the
first response; later responses for the same request counter are dropped.
A consensus client is layered on the eventual-mode interface: propose by
appending, then poll until the ledger is non-empty and decide its first
payload.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

from .ledger import ACK, Ledger, Record, ValidityPredicate, filter_valid, make_rid

log = logging.getLogger("ledgerlab.protocols")

EVENTUAL = "eventual"
SEQUENTIAL = "sequential"
ATOMIC = "atomic"
MODES = (EVENTUAL, SEQUENTIAL, ATOMIC)


# Client -> server requests.
class GetReq(NamedTuple):
    c: int
    min_len: int | None  # sequential mode: serve only once the replica is this long


class AppendReq(NamedTuple):
    c: int
    record: Record


# Server -> client responses.
class GetRes(NamedTuple):
    c: int
    seq: tuple[Record, ...]


class AppendRes(NamedTuple):
    c: int
    result: str
    pos: int | None  # sequential mode: replica length when the record landed


# Broadcast payloads.
class BcastRecord(NamedTuple):  # eventual mode
    record: Record


class BcastGet(NamedTuple):  # atomic mode
    p: int
    c: int


class BcastAppend(NamedTuple):  # atomic mode
    record: Record


class BcastSeqAppend(NamedTuple):  # sequential mode
    c: int
    record: Record


class Server:
    """Shared replica plumbing; subclasses add the per-mode handlers.

    ``net`` provides respond(server, client, msg) and abroadcast(server,
    payload); handlers run atomically with respect to each other.  The
    replica is a plain ledger; a record delivered again is ignored.
    """

    def __init__(self, sid: int, net) -> None:
        self.sid = sid
        self.net = net
        self.replica = Ledger()

    def handle_request(self, client: int, msg) -> None:
        raise NotImplementedError

    def handle_adeliver(self, payload) -> None:
        raise NotImplementedError


class EventualServer(Server):
    def handle_request(self, client: int, msg) -> None:
        if isinstance(msg, GetReq):
            self.net.respond(self.sid, client, GetRes(msg.c, self.replica.get()))
        else:
            self.net.abroadcast(self.sid, BcastRecord(msg.record))
            # acked before the record is anywhere: the defining weakness
            self.net.respond(self.sid, client, AppendRes(msg.c, ACK, None))

    def handle_adeliver(self, payload) -> None:
        if payload.record not in self.replica:
            self.replica.append(payload.record)


class AtomicServer(Server):
    def __init__(self, sid: int, net) -> None:
        super().__init__(sid, net)
        self.waiting_gets: dict[tuple[int, int], bool] = {}  # (client, c) -> stashed
        self.unacked: dict[str, tuple[int, Record]] = {}  # rid -> (c, record)

    def handle_request(self, client: int, msg) -> None:
        if isinstance(msg, GetReq):
            self.net.abroadcast(self.sid, BcastGet(client, msg.c))
            self.waiting_gets[(client, msg.c)] = True
        else:
            self.net.abroadcast(self.sid, BcastAppend(msg.record))
            self.unacked[msg.record.rid] = (msg.c, msg.record)

    def handle_adeliver(self, payload) -> None:
        if isinstance(payload, BcastGet):
            if self.waiting_gets.pop((payload.p, payload.c), None):
                self.net.respond(self.sid, payload.p, GetRes(payload.c, self.replica.get()))
        else:
            r = payload.record
            if r not in self.replica:
                self.replica.append(r)
            # Acknowledge on any delivery of r while stashed, not only the
            # first: the first copy can land before this server has even seen
            # the client's request, and the client must still get an answer.
            entry = self.unacked.pop(r.rid, None)
            if entry is not None:
                c, rec = entry
                self.net.respond(self.sid, rec.creator, AppendRes(c, ACK, None))


class SequentialServer(Server):
    def __init__(self, sid: int, net) -> None:
        super().__init__(sid, net)
        self.waiting_gets: list[tuple[int, int, int]] = []  # (c, client, min_len)
        self.unacked: dict[str, tuple[int, Record]] = {}

    def handle_request(self, client: int, msg) -> None:
        if isinstance(msg, GetReq):
            if len(self.replica) >= msg.min_len:
                self.net.respond(self.sid, client, GetRes(msg.c, self.replica.get()))
            else:
                self.waiting_gets.append((msg.c, client, msg.min_len))
        else:
            self.net.abroadcast(self.sid, BcastSeqAppend(msg.c, msg.record))
            self.unacked[msg.record.rid] = (msg.c, msg.record)

    def handle_adeliver(self, payload) -> None:
        r = payload.record
        if r not in self.replica:
            self.replica.append(r)
        entry = self.unacked.pop(r.rid, None)
        if entry is not None:
            c, rec = entry
            self.net.respond(self.sid, rec.creator, AppendRes(c, ACK, len(self.replica)))
        if self.waiting_gets:
            still_waiting = []
            for c, client, min_len in self.waiting_gets:
                if len(self.replica) >= min_len:
                    self.net.respond(self.sid, client, GetRes(c, self.replica.get()))
                else:
                    still_waiting.append((c, client, min_len))
            self.waiting_gets = still_waiting


def make_server(mode: str, sid: int, net) -> Server:
    cls = {EVENTUAL: EventualServer, ATOMIC: AtomicServer, SEQUENTIAL: SequentialServer}[mode]
    return cls(sid, net)


def server_subset(cid: int, n: int, f: int) -> list[int]:
    """The f+1 servers a client talks to: consecutive ids rotated by client id."""
    return [(cid + j) % n for j in range(f + 1)]


class Client:
    """Issues one operation at a time, fanning out to its server subset.

    With a validity predicate configured, get responses are filtered at this
    boundary (the read-side repair construction); the protocol-level length
    bookkeeping still uses the raw replica sequence.
    """

    def __init__(self, cid: int, mode: str, targets: list[int], net, recorder,
                 ops: list[tuple[str, str | None]] | None = None,
                 pred: ValidityPredicate | None = None) -> None:
        self.cid = cid
        self.mode = mode
        self.targets = targets
        self.net = net
        self.recorder = recorder
        self.queue = list(ops or [])
        self.pred = pred
        self.c = 0
        self.last_len = 0  # sequential mode: length of the last observed sequence
        self.pending: tuple[int, str, str] | None = None  # (c, kind, op_id)
        self.crashed = False

    def start(self) -> None:
        if not self.crashed and self.pending is None:
            self._next()

    def push_ops(self, ops) -> None:
        self.queue.extend(ops)

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
            min_len = self.last_len if self.mode == SEQUENTIAL else None
            req = GetReq(self.c, min_len)
        self.recorder.invoke(op_id, self.cid, kind, self.c, payload=payload)
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
        view: tuple[Record, ...] = ()
        if isinstance(msg, GetRes):
            if self.mode == SEQUENTIAL:
                assert len(msg.seq) >= self.last_len
                self.last_len = len(msg.seq)
            view = filter_valid(msg.seq, self.pred) if self.pred else msg.seq
            self.recorder.respond(op_id, self.cid, kind, msg.c,
                                  seq=tuple(r.rid for r in view))
        else:
            if self.mode == SEQUENTIAL:
                assert msg.pos >= self.last_len
                self.last_len = msg.pos
            self.recorder.respond(op_id, self.cid, kind, msg.c, result=msg.result)
        self.pending = None
        self._after_response(kind, view)

    def _after_response(self, kind: str, view: tuple[Record, ...]) -> None:
        self._next()

    def crash(self) -> None:
        self.crashed = True


class ProposerClient(Client):
    """Consensus by reduction: append the proposal, poll get until non-empty,
    decide the first payload."""

    def __init__(self, cid: int, targets: list[int], net, recorder, value: str) -> None:
        super().__init__(cid, EVENTUAL, targets, net, recorder)
        self.value = value
        self.decision: str | None = None

    def start(self) -> None:
        self._invoke("append", self.value)

    def _after_response(self, kind: str, view: tuple[Record, ...]) -> None:
        if self.decision is not None:
            return
        if kind == "append" or not view:
            self._invoke("get")
        else:
            self.decision = view[0].payload
