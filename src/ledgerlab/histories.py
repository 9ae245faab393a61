"""Operation histories: the invocation/response log captured by the simulator.

A history is an ordered sequence of events; the order of the list is the
real-time order.  Events serialize to JSONL, one object per line, with this
layout (the writer's key order; a reader takes any, see `jsonl_objects`):

    {"op":"<id>","client":<int>,"ev":"invoke"|"response","kind":"get"|"append",
     "c":<int>,"t":<int>,"payload":"<str>"?,"result":"ack"|"nack"?,
     "p":<int>?,"tail":["<rid>",...]?}

Appends carry their payload on the invoke and their ack/nack on the response;
gets carry their returned record-id sequence on the response, as ``p`` and
``tail``.  No event carries any other field.  An op's id ``op`` is
`<client>.<c>`, and an append's record id is its op id.

A get's sequence is stored against ``ref``, the longest sequence among the
get responses before it in the file (``()`` before the first; a later
response replaces it only if strictly longer): ``p`` is the length of the
common prefix of the sequence and ``ref``, and ``tail`` is the rest, so the
sequence is ``ref[:p] + tail``.  In a run whose reads form one growing order
each ``tail`` holds only the records new to its read, and the file grows
with the number of records, not with the number of ids read.  Any sequence
round-trips, a divergent or fabricated one included, so the checkers see
exactly the sequences that were returned.

Neither side copies a read, and a correct run holds its reads as `IdPrefix`
views of one id list, in memory (see `ledgerlab.protocols`) and loaded.  The
writer keeps ``ref`` as the longest read, the loader as one list: a get that
does not diverge from it loads as a view of it, a diverging get as a tuple of
its own, and a longer diverging get starts a new list.

The writer yields the file a line at a time.  The loader parses a line at
a time (`jsonl_objects`) and turns it into an event before it parses the
next, so a load error names the first line that breaks the rules, in file
order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, NamedTuple, Sequence

from .ledger import ACK, NACK, IdPrefix, is_int, make_rid  # noqa: F401  (is_int re-exported)

INVOKE = "invoke"
RESPONSE = "response"
GET = "get"
APPEND = "append"


@dataclass(slots=True)
class HistoryEvent:
    op_id: str
    client: int
    ev: str  # invoke | response
    kind: str  # get | append
    c: int
    t: int
    payload: str | None = None
    result: str | None = None
    seq: Sequence[str] | None = None  # an `IdPrefix` view or a tuple


def history_lines(events: Iterable[HistoryEvent]) -> Iterator[str]:
    """The history's JSONL lines, one at a time and each ending in ``"\\n"``,
    in the layout of the module docstring and in the bytes ``json.dumps(obj,
    separators=(",", ":"))`` gives: each string goes through the encoder
    json.dumps itself uses, and each int through int formatting.

    A read is the first ``n`` ids of a list that only grows (a view's, or a
    tuple), and so is ``ref``: a read of ``ref``'s own list agrees with it up
    to the shorter length, and any other read is compared id by id.
    """
    ref_ids, ref_n = (), 0  # ref is ref_ids[:ref_n]
    for e in events:
        line = (f'{{"op":{_quote(e.op_id)},"client":{e.client:d},"ev":{_quote(e.ev)},'
                f'"kind":{_quote(e.kind)},"c":{e.c:d},"t":{e.t:d}')
        if e.payload is not None:
            line += f',"payload":{_quote(e.payload)}'
        if e.result is not None:
            line += f',"result":{_quote(e.result)}'
        if e.seq is not None:
            ids, n = (e.seq.ids, e.seq.n) if type(e.seq) is IdPrefix else (e.seq, len(e.seq))
            p = stop = min(n, ref_n)
            if ids is not ref_ids:
                p = 0
                while p < stop and ids[p] == ref_ids[p]:
                    p += 1
            line += f',"p":{p:d},"tail":[{",".join(map(_quote, ids[p:n]))}]'
            if n > ref_n:
                ref_ids, ref_n = ids, n
        yield line + "}\n"


def events_to_jsonl(events: Iterable[HistoryEvent]) -> str:
    """The history as JSONL: the `history_lines` joined."""
    return "".join(history_lines(events))


_REQUIRED = ("op", "client", "ev", "kind", "c", "t")
# Per (ev, kind): its keys, and a check of the fields it carries beyond the
# required ones.  JSON values are of exact types, so ``type(v) is int`` is `is_int`.
_LAYOUTS = {
    (INVOKE, GET): ({*_REQUIRED}, lambda obj: True),
    (INVOKE, APPEND): ({*_REQUIRED, "payload"}, lambda obj: type(obj["payload"]) is str),
    (RESPONSE, GET): ({*_REQUIRED, "p", "tail"},
                      lambda obj: (type(obj["p"]) is int and type(obj["tail"]) is list
                                   and all(map(str.__instancecheck__, obj["tail"])))),
    (RESPONSE, APPEND): ({*_REQUIRED, "result"}, lambda obj: obj["result"] in (ACK, NACK)),
}


def unique_keys(pairs: list[tuple]) -> dict:
    """The ``object_pairs_hook`` of every JSON input: ValueError on a repeated key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("repeated key")
    return obj


ARTIFACT_JSON = json.JSONDecoder(object_pairs_hook=unique_keys)  # scenario and artifact files


def jsonl_objects(text: str, what: str) -> Iterator[tuple[int, dict]]:
    """The line number and object of each non-blank line of ``text``, in file
    order, under the rule of both artifact files: each such line is one JSON
    object, each key once; whitespace and key order are free.  Raises
    ValueError naming the first line that breaks it, as the ``what`` line.

    Each line is parsed when it is reached, so a caller that checks each
    object as it comes names the first line that breaks its own rules or this
    one.
    """
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        body = line.strip(" \t")  # JSON's whitespace within a line
        try:
            obj, end = ARTIFACT_JSON.raw_decode(body)
            if end != len(body):
                raise json.JSONDecodeError("Extra data", body, end)
        except (RecursionError, ValueError) as e:
            raise ValueError(f"{what} line {n} is not JSON: {e}") from None
        if type(obj) is not dict:
            raise ValueError(f"{what} line {n} is not a JSON object")
        yield n, obj


def events_from_jsonl(text: str) -> list[HistoryEvent]:
    """Parse history JSONL; a get that does not diverge from the longest read
    before it is an `IdPrefix` view of that read's list.

    Raises ValueError naming the first line, in file order, that is not one
    JSON object with unique keys (see `jsonl_objects`) or holds an event
    whose fields differ from the layout in the module docstring: a field
    missing, extra or of the wrong type or value, or a ``p`` beyond the
    longest earlier read.
    """
    events = []
    ref: list[str] = []  # only grows: a longer diverging read starts a new list
    for n, obj in jsonl_objects(text, "history"):
        try:
            keys, carried_ok = _LAYOUTS[obj["ev"], obj["kind"]]
        except (KeyError, TypeError):
            raise ValueError(f"malformed history event on line {n}") from None
        if not (obj.keys() == keys and type(obj["op"]) is str and type(obj["client"]) is int
                and type(obj["c"]) is int and type(obj["t"]) is int and carried_ok(obj)):
            raise ValueError(f"malformed history event on line {n}")
        seq = None
        if "p" in obj:
            p = obj["p"]
            if not 0 <= p <= len(ref):
                raise ValueError(f"history event on line {n}: p={p} outside 0..{len(ref)}")
            tail = obj["tail"]
            end, known = p + len(tail), min(p + len(tail), len(ref))
            if ref[p:known] == tail[:known - p]:
                ref += tail[known - p:]
                seq = IdPrefix(ref, end)
            else:
                seq = (*ref[:p], *tail)
                if end > len(ref):
                    ref = list(seq)
                    seq = IdPrefix(ref, end)
        events.append(HistoryEvent(obj["op"], obj["client"], obj["ev"], obj["kind"], obj["c"],
                                   obj["t"], obj.get("payload"), obj.get("result"), seq))
    return events


class Op(NamedTuple):
    """One operation reconstructed from its invoke/response event pair.

    ``invoke_i``/``response_i`` are positions in the history's event list and
    define real-time precedence: a precedes b iff a.response_i < b.invoke_i.
    Incomplete operations have ``response_i`` = +inf.
    """

    op_id: str
    client: int
    kind: str
    invoke_i: int
    invoke_t: int
    response_i: float = math.inf
    response_t: int | None = None
    payload: str | None = None
    rid: str | None = None  # record id minted by an append
    result: str | None = None
    seq: Sequence[str] | None = None

    def precedes(self, other: "Op") -> bool:
        return self.response_i < other.invoke_i


def pair_events(events: Sequence[HistoryEvent]) -> tuple[list[Op], list[Op]]:
    """Match invokes with responses; returns (completed ops in response
    order, pending ops in invoke order).

    Raises ValueError on malformed histories (an invoke whose op id is not
    `<client>.<c>`, a response that is not its client's open operation, an
    op id invoked twice, or a client with two operations in flight at once).
    """
    open_ops: dict[int, tuple[int, HistoryEvent]] = {}  # client -> its one op in flight
    invoked: set[str] = set()
    completed: list[Op] = []
    for i, e in enumerate(events):
        if e.ev == INVOKE:
            rid = make_rid(e.client, e.c)
            if e.op_id != rid:
                raise ValueError(f"op id {e.op_id} is not <client>.<c>, {rid}")
            if e.op_id in invoked:
                raise ValueError(f"duplicate invoke for op {e.op_id}")
            invoked.add(e.op_id)
            if e.client in open_ops:
                raise ValueError(f"client {e.client} invoked {e.op_id} while "
                                 f"{open_ops[e.client][1].op_id} pending")
            open_ops[e.client] = (i, e)
        elif e.ev == RESPONSE:
            inv_i, inv = open_ops.pop(e.client, (None, None))
            if inv is None or inv.op_id != e.op_id:
                raise ValueError(f"response without invoke for op {e.op_id}")
            if inv.kind != e.kind or inv.c != e.c:
                raise ValueError(f"response does not match invoke for op {e.op_id}")
            completed.append(Op(
                e.op_id, e.client, e.kind, inv_i, inv.t, i, e.t, inv.payload,
                e.op_id if e.kind == APPEND else None, e.result, e.seq))
        else:
            raise ValueError(f"unknown event type {e.ev!r}")
    # open_ops is in invoke order: an invoke inserts its client's key, which no op holds.
    return completed, [Op(inv.op_id, inv.client, inv.kind, inv_i, inv.t, payload=inv.payload,
                          rid=inv.op_id if inv.kind == APPEND else None)
                       for inv_i, inv in open_ops.values()]
