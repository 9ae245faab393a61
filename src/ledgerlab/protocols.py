"""Client interfaces and the replicated-server state machine.

All three consistency levels run one replica state machine on top of the
total-order broadcast service.  Every append broadcasts its record; a delivered
record joins the replica once and acks the append if this server stashed it.
Servers deliver in one order, so a replica is a length into the run's record
order, ``net.order``, until a delivery off it gives the server a `Ledger` of
its own.  A get the replica is too short for waits under its floor, and the
delivery that brings the replica to that length answers it.  A server's one
stash maps each broadcast it awaits to the request it answers: an append by
its record id, an atomic get by its ``(client, c)`` pair.
The levels differ in two decisions only:

* an eventual append is acked at request time, before its record is
  anywhere; sequential and atomic appends are acked at its delivery;
* an atomic get is broadcast and answered at its own delivery, so it
  reflects a totally-ordered prefix.  Eventual and sequential gets are
  answered from the local replica once it reaches the client's floor: the
  length of the client's last observed sequence in sequential mode, 0
  otherwise.

A message is the call of its receiver's handler, sent as ``net.send(handler,
*fields)``: there are no message types.  Clients fan every request out to a
fixed set of f+1 servers (``Server.on_append``, ``Server.on_get``) and take
the first ``Client.on_response``; later responses for the same request
counter are dropped.  An append broadcasts its bare `Record`, an atomic get
the pair ``(client, c)``.  A consensus client is layered on the
eventual-mode interface: propose by appending, then poll until the ledger is
non-empty and decide its first payload.  Servers and clients reach the world
only through ``net``, the `ledgerlab.sim.Simulator`, whose docstring lists
what it provides.
"""

from __future__ import annotations

from .histories import INVOKE, RESPONSE, HistoryEvent
from .ledger import ACK, Ledger, Record, ValidityPredicate, make_rid
# Read-side repair's definition stays importable here: Client reads it through
# Ledger.read_ids, and perfbench's tracer wraps protocols.filter_valid.
from .ledger import filter_valid  # noqa: F401

EVENTUAL = "eventual"
SEQUENTIAL = "sequential"
ATOMIC = "atomic"
MODES = (EVENTUAL, SEQUENTIAL, ATOMIC)


class Server:
    """One replica of the ledger, in any of the three modes.

    Handlers run atomically with respect to each other.
    """

    def __init__(self, mode: str, sid: int, net) -> None:
        self.mode = mode
        self.sid = sid
        self.net = net
        self.replica: Ledger = net.order  # the replica is its first `length` records
        self.length = 0
        # awaited broadcast (an append's record id, or an atomic get) -> asker
        self.stash: dict[str | tuple[Client, int], tuple[Client, int]] = {}
        self.parked: dict[int, list[tuple[Client, int]]] = {}  # floor -> [(client, c)]
        self.crashed = False

    def crash(self) -> None:
        """Stop for good, dropping the requests it awaits: they hold clients,
        which hold this server in ``targets``, a cycle that outlives the run."""
        self.crashed = True
        self.stash.clear()
        self.parked.clear()

    def on_append(self, client: Client, c: int, record: Record) -> None:
        if self.crashed:
            return
        self.net.abroadcast(self.sid, record)
        if self.mode == EVENTUAL:
            # acked before the record is anywhere: the defining weakness
            self.net.send(client.on_response, c, None, None)
        else:
            self.stash[record.rid] = (client, c)

    def on_get(self, client: Client, c: int, floor: int) -> None:
        """``floor``: serve only once the replica is this long; 0 outside
        sequential mode."""
        if self.crashed:
            return
        if self.mode == ATOMIC:
            self.net.abroadcast(self.sid, (client, c))
            self.stash[client, c] = (client, c)
        elif self.length >= floor:
            self.net.send(client.on_response, c, self.replica, self.length)
        else:
            self.parked.setdefault(floor, []).append((client, c))

    def handle_adeliver(self, payload: Record | tuple[Client, int]) -> None:
        record = isinstance(payload, Record)
        if record:
            order, n = self.replica, self.length
            pos = order.positions.get(payload.rid, len(order))  # a new record's: the end
            if pos >= n:  # else a copy of a record it holds
                if pos > n:  # off the order, as in no correct run: a replica of its own
                    self.replica = Ledger()
                    for r in order.get()[:n]:
                        self.replica.add(r)
                self.replica.add(payload)  # a no-op for the order's next record
                self.length = n + 1
        # Acknowledge on any delivery of the record while stashed, not only
        # the first: the first copy can land before this server has even seen
        # the client's request, and the client must still get an answer.
        asker = self.stash.pop(payload.rid if record else payload, None)
        if asker is not None:
            client, c = asker
            self.net.send(client.on_response, c, None if record else self.replica, self.length)
        # A get parks under a floor above the length, and each growth adds one
        # record, so exactly one growth reaches it; a duplicate reaches none.
        if self.parked:
            for client, c in self.parked.pop(self.length, ()):
                self.net.send(client.on_response, c, self.replica, self.length)


def server_subset(cid: int, n: int, f: int) -> list[int]:
    """The f+1 servers a client talks to: consecutive ids rotated by client id."""
    return [(cid + j) % n for j in range(f + 1)]


class Client:
    """Issues one operation at a time, fanning out to its server subset.

    A get records `Ledger.read_ids` of the replica that answered it: a view
    of that replica's id list, never a copy.  With a validity predicate
    configured, get responses are filtered at this boundary (the read-side
    repair construction: the replica keeps one `ValidatedLedger` per
    predicate, and the get views its ids); the protocol-level length
    bookkeeping still uses the raw replica length.
    """

    def __init__(self, cid: int, mode: str, targets: list[Server], net,
                 ops: list[tuple[str, str | None]] | None = None,
                 pred: ValidityPredicate | None = None) -> None:
        self.cid = cid
        self.mode = mode
        self.targets = targets
        self.net = net
        self.queue = list(ops or [])
        self.pred = pred
        self.c = 0  # the counter of the latest operation
        self.last_len = 0  # every get's floor: the last observed length, sequential mode only
        self.pending: HistoryEvent | None = None  # the invoke of operation c while it is pending
        self.crashed = False

    def start(self) -> None:
        if not self.crashed and self.pending is None and self.queue:
            self._invoke(*self.queue.pop(0))

    @property
    def done(self) -> bool:
        return self.pending is None and not self.queue

    def _invoke(self, kind: str, payload: str | None = None) -> None:
        assert self.pending is None, "one operation at a time"
        self.c = c = self.c + 1
        op_id = make_rid(self.cid, c)
        self.pending = inv = HistoryEvent(op_id, self.cid, INVOKE, kind, c, self.net.now,
                                          payload=payload)
        self.net.history.append(inv)
        if kind == "append":
            record = Record(op_id, self.cid, payload)
            for server in self.targets:
                self.net.send(server.on_append, self, c, record)
        else:
            for server in self.targets:
                self.net.send(server.on_get, self, c, self.last_len)

    def on_response(self, c: int, replica: Ledger | None, n: int | None) -> None:
        """A get is answered by its server's ``replica`` and length ``n``
        at send time: the replica never shrinks or reorders, so the pair is a
        snapshot even if it grows before the client reads it.  An append is
        acked with no replica, and ``n`` is the server's length when its
        record landed, or None for an eventual ack."""
        if self.crashed:
            return
        inv = self.pending
        if inv is None or c != inv.c:
            return
        if replica is None:
            result, seq = ACK, None
        else:
            result, seq = None, replica.read_ids(n, self.pred)
        if self.mode == SEQUENTIAL:
            self.last_len = n
        self.net.history.append(HistoryEvent(inv.op_id, self.cid, RESPONSE, inv.kind, c,
                                             self.net.now, result=result, seq=seq))
        self.pending = None
        self._after_response(replica, n)

    def _after_response(self, replica: Ledger | None, n: int | None) -> None:
        self.start()

    def crash(self) -> None:
        self.crashed = True


class ProposerClient(Client):
    """Consensus by reduction: append the proposal (a one-op workload), poll
    get until non-empty, decide the first payload."""

    def __init__(self, cid: int, targets: list[Server], net, value: str) -> None:
        super().__init__(cid, EVENTUAL, targets, net, [("append", value)])
        self.decision: str | None = None

    def _after_response(self, replica: Ledger | None, n: int | None) -> None:
        if replica is not None and n:
            self.decision = replica.get()[0].payload
        else:
            self._invoke("get")
