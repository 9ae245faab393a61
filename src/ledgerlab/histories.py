"""Operation histories: the invocation/response log captured by the simulator.

A history is an ordered sequence of events; the order of the list is the
real-time order.  Events serialize to JSONL with a fixed field layout:

    {"op":"<id>","client":<int>,"ev":"invoke"|"response","kind":"get"|"append",
     "c":<int>,"t":<int>,"payload":"<str>"?,"result":"ack"|"nack"?,
     "p":<int>?,"tail":["<rid>",...]?}

Appends carry their payload on the invoke and their ack/nack on the response;
gets carry their returned record-id sequence on the response, as ``p`` and
``tail``.  No event carries any other field.  The record id of an append is
derived as `<client>.<c>`.

A get's sequence is stored against ``ref``, the longest sequence among the
get responses before it in the file (``()`` before the first; a later
response replaces it only if strictly longer): ``p`` is the length of the
common prefix of the sequence and ``ref``, and ``tail`` is the rest, so the
sequence is ``ref[:p] + tail``.  In a run whose reads form one growing order
each ``tail`` holds only the records new to its read, and the file grows
with the number of records, not with the number of ids read.  Any sequence
round-trips, a divergent or fabricated one included, so the checkers see
exactly the sequences that were returned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Sequence

from .ledger import ACK, NACK, make_rid

INVOKE = "invoke"
RESPONSE = "response"
GET = "get"
APPEND = "append"


@dataclass(frozen=True)
class HistoryEvent:
    op_id: str
    client: int
    ev: str  # invoke | response
    kind: str  # get | append
    c: int
    t: int
    payload: str | None = None
    result: str | None = None
    seq: tuple[str, ...] | None = None


def _common_prefix(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    return next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)


def events_to_jsonl(events: Iterable[HistoryEvent]) -> str:
    """The history as JSONL in the layout of the module docstring, in the bytes
    ``json.dumps(obj, separators=(",", ":"))`` gives: each string goes through
    the encoder json.dumps itself uses, and each int through int formatting."""
    ref: tuple[str, ...] = ()
    lines = []
    for e in events:
        line = (f'{{"op":{_quote(e.op_id)},"client":{e.client:d},"ev":{_quote(e.ev)},'
                f'"kind":{_quote(e.kind)},"c":{e.c:d},"t":{e.t:d}')
        if e.payload is not None:
            line += f',"payload":{_quote(e.payload)}'
        if e.result is not None:
            line += f',"result":{_quote(e.result)}'
        if e.seq is not None:
            p = _common_prefix(e.seq, ref)
            line += f',"p":{p:d},"tail":[{",".join(map(_quote, e.seq[p:]))}]'
            if len(e.seq) > len(ref):
                ref = e.seq
        lines.append(line + "}")
    return "\n".join(lines) + ("\n" if lines else "")


def is_int(v) -> bool:
    """An integer that is not a bool (JSON ``true`` loads as one)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_seq(v) -> bool:
    return isinstance(v, list) and all(isinstance(r, str) for r in v)


_REQUIRED = {"op", "client", "ev", "kind", "c", "t"}
# The fields each (ev, kind) carries beyond the required ones, with their checks.
_CARRIED = {
    (INVOKE, GET): {},
    (INVOKE, APPEND): {"payload": lambda v: isinstance(v, str)},
    (RESPONSE, GET): {"p": is_int, "tail": _is_seq},
    (RESPONSE, APPEND): {"result": lambda v: v in (ACK, NACK)},
}


def _well_formed(obj: dict) -> bool:
    carried = _CARRIED.get((obj.get("ev"), obj.get("kind")))
    return (carried is not None and obj.keys() == _REQUIRED | carried.keys()
            and isinstance(obj["op"], str) and all(is_int(obj[k]) for k in ("client", "c", "t"))
            and all(check(obj[k]) for k, check in carried.items()))


def events_from_jsonl(text: str) -> list[HistoryEvent]:
    """Parse history JSONL.

    Raises ValueError on an event whose fields differ from the layout in the
    module docstring: a field missing, out of place or of the wrong type or
    value, or a ``p`` beyond the longest earlier read.
    """
    events = []
    ref: tuple[str, ...] = ()
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        obj = json.loads(line)
        if not _well_formed(obj):
            raise ValueError(f"malformed history event on line {n}")
        seq = None
        if "p" in obj:
            p = obj["p"]
            if not 0 <= p <= len(ref):
                raise ValueError(f"history event on line {n}: p={p} outside 0..{len(ref)}")
            seq = ref[:p] + tuple(obj["tail"])
            if len(seq) > len(ref):
                ref = seq
        events.append(HistoryEvent(
            op_id=obj["op"], client=obj["client"], ev=obj["ev"], kind=obj["kind"],
            c=obj["c"], t=obj["t"], payload=obj.get("payload"),
            result=obj.get("result"), seq=seq,
        ))
    return events


@dataclass(frozen=True)
class Op:
    """One operation reconstructed from its invoke/response event pair.

    ``invoke_i``/``response_i`` are positions in the history's event list and
    define real-time precedence: a precedes b iff a.response_i < b.invoke_i.
    Incomplete operations have ``response_i`` = +inf.
    """

    op_id: str
    client: int
    kind: str
    c: int
    invoke_i: int
    invoke_t: int
    response_i: float = math.inf
    response_t: int | None = None
    payload: str | None = None
    rid: str | None = None  # record id minted by an append
    result: str | None = None
    seq: tuple[str, ...] | None = None

    def precedes(self, other: "Op") -> bool:
        return self.response_i < other.invoke_i


def pair_events(events: Sequence[HistoryEvent]) -> tuple[list[Op], list[Op]]:
    """Match invokes with responses; returns (completed ops, pending ops).

    Raises ValueError on malformed histories (response without invoke, an
    op id invoked twice, a client with two operations in flight at once, or
    two appends minting one record id).
    """
    open_ops: dict[str, tuple[int, HistoryEvent]] = {}
    invoked: set[str] = set()
    minted: set[str] = set()
    client_inflight: dict[int, str] = {}
    completed: list[Op] = []
    for i, e in enumerate(events):
        if e.ev == INVOKE:
            if e.op_id in invoked:
                raise ValueError(f"duplicate invoke for op {e.op_id}")
            invoked.add(e.op_id)
            inflight = client_inflight.get(e.client)
            if inflight is not None:
                raise ValueError(f"client {e.client} invoked {e.op_id} while {inflight} pending")
            if e.kind == APPEND:
                rid = make_rid(e.client, e.c)
                if rid in minted:
                    raise ValueError(f"append {e.op_id} mints record id {rid} a second time")
                minted.add(rid)
            open_ops[e.op_id] = (i, e)
            client_inflight[e.client] = e.op_id
        elif e.ev == RESPONSE:
            if e.op_id not in open_ops:
                raise ValueError(f"response without invoke for op {e.op_id}")
            inv_i, inv = open_ops.pop(e.op_id)
            del client_inflight[e.client]
            if inv.kind != e.kind or inv.client != e.client or inv.c != e.c:
                raise ValueError(f"response does not match invoke for op {e.op_id}")
            completed.append(Op(
                op_id=e.op_id, client=e.client, kind=e.kind, c=e.c,
                invoke_i=inv_i, invoke_t=inv.t, response_i=i, response_t=e.t,
                payload=inv.payload,
                rid=make_rid(e.client, e.c) if e.kind == APPEND else None,
                result=e.result, seq=e.seq,
            ))
        else:
            raise ValueError(f"unknown event type {e.ev!r}")
    pending = [
        Op(op_id=inv.op_id, client=inv.client, kind=inv.kind, c=inv.c,
           invoke_i=inv_i, invoke_t=inv.t, payload=inv.payload,
           rid=make_rid(inv.client, inv.c) if inv.kind == APPEND else None)
        for inv_i, inv in open_ops.values()
    ]
    pending.sort(key=lambda op: op.invoke_i)
    return completed, pending
