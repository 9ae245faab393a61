"""Operation histories: the invocation/response log captured by the simulator.

A history is an ordered sequence of events; the order of the list is the
real-time order.  Its JSONL file has a line per column, ``{"<name>":[...]}``,
in the order of `_COLUMNS`: ``client``, ``ev`` ("invoke"|"response"),
``kind`` ("get"|"append"), ``c`` and ``t``, one entry per event; ``payload``
("<str>") per append invoke; ``result`` ("ack"|"nack") per append response;
and ``p`` and ``tail`` (["<rid>",...]) per get response.  An event's op id is
``<client>.<c>`` of its own columns, and is not stored.

A get's sequence is stored against ``ref``, the longest sequence among the
get responses before it (``()`` before the first; a later response replaces
it only if strictly longer): ``p`` is the length of the common prefix of the
sequence and ``ref``, and ``tail`` is the rest, so the sequence is
``ref[:p] + tail``.  In a run whose reads form one growing order each
``tail`` holds only the records new to its read, and the file grows with the
number of records, not with the number of ids read.  Any sequence
round-trips, a divergent or fabricated one included, so the checkers see
exactly the sequences that were returned.

Neither side copies a read, and a correct run holds its reads as `IdPrefix`
views of one id list, in memory (see `ledgerlab.protocols`) and loaded.  The
writer keeps ``ref`` as the longest read, the loader as one list: a get that
does not diverge from it loads as a view of it, a diverging get as a tuple of
its own, and a longer diverging get starts a new list.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .ledger import ACK, NACK, IdPrefix, make_rid

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


# Each column in file order, a row of the table `read_columns` takes.
_COLUMNS = {"client": ((int,), None, "event"), "ev": ((str,), {INVOKE, RESPONSE}, "event"),
            "kind": ((str,), {GET, APPEND}, "event"),
            "c": ((int,), None, "event"), "t": ((int,), None, "event"),
            "payload": ((str,), None, {"kind": APPEND, "ev": INVOKE}),
            "result": ((str,), {ACK, NACK}, {"kind": APPEND, "ev": RESPONSE}),
            "p": ((int,), None, {"kind": GET, "ev": RESPONSE}),
            "tail": ((list,), None, {"kind": GET, "ev": RESPONSE})}
compact_json = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps(obj, separators=...)


def column_lines(columns: Iterable[tuple[str, Sequence]]) -> Iterator[str]:
    """The writer's side of `read_columns`: a line ``{"<name>":[...]}`` per
    (name, column) pair, in order, in the bytes of ``json.dumps(obj,
    separators=(",", ":"))``, as pieces to write in order.  The encoder holds
    a string per entry it encodes, so a column is one piece encoded by one C
    call, but a column of lists is a piece per list."""
    for name, col in columns:
        if not (col and type(col[0]) in (list, tuple)):
            yield compact_json({name: col}) + "\n"
            continue
        sep = "{" + compact_json(name) + ":["
        for entry in col:
            yield sep + compact_json(entry)
            sep = ","
        yield "]}\n"


def _history_columns(events: Sequence[HistoryEvent]) -> Iterator[list]:
    """The history's columns in `_COLUMNS` order, each built when it is reached."""
    for attr in ("client", "ev", "kind", "c", "t"):
        yield list(map(attrgetter(attr), events))
    yield [e.payload for e in events if e.kind == APPEND and e.ev == INVOKE]
    yield [e.result for e in events if e.kind == APPEND and e.ev == RESPONSE]
    ps, tails = [], []
    # A read is the first n ids of a list that only grows, and so is ref: a
    # read of ref's own list agrees with it up to the shorter length.
    ref_ids, ref_n = (), 0  # ref is ref_ids[:ref_n]
    for seq in [e.seq for e in events if e.kind == GET and e.ev == RESPONSE]:
        ids, n = (seq.ids, seq.n) if type(seq) is IdPrefix else (seq, len(seq))
        p = stop = min(n, ref_n)
        if ids is not ref_ids:
            p = 0
            while p < stop and ids[p] == ref_ids[p]:
                p += 1
        ps.append(p)
        tails.append(ids[p:n])
        if n > ref_n:
            ref_ids, ref_n = ids, n
    yield ps
    yield tails


def history_lines(events: Sequence[HistoryEvent]) -> Iterator[str]:
    """The history's JSONL in the layout of the module docstring, as the
    pieces of `column_lines`."""
    return column_lines(zip(_COLUMNS, _history_columns(events)))


def events_to_jsonl(events: Sequence[HistoryEvent]) -> str:
    """The history as JSONL: its `history_lines` joined."""
    return "".join(history_lines(events))


def unique_keys(pairs: list[tuple]) -> dict:
    """The ``object_pairs_hook`` of every JSON input: ValueError on a repeated key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("repeated key")
    return obj


ARTIFACT_JSON = json.JSONDecoder(object_pairs_hook=unique_keys)  # scenario and artifact files


def read_columns(text: str, what: str, table: dict, **counts: int) -> list[list]:
    """The columns of the column file ``what``, as `column_lines` writes
    them: a line ``{"<name>":[...]}`` per column of ``table``, in its order.
    Each non-blank line is one JSON object, each key once; whitespace and
    key order are free.  Every line is parsed before any column is checked.
    A row of ``table`` is (types, values, unit): the entries' types (JSON's:
    no int is a bool), their values (None: any; a str unit's name: 0 up to
    that unit's number, less one), and what has one entry each: a str
    unit's number is ``counts[unit]``, else its first column's length; a
    dict unit's is the number of entries at which each named earlier column
    holds its value.  A ValueError names the first line, else the first
    column and in it the entry, that breaks this.
    """
    rows = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = ARTIFACT_JSON.decode(line)
        except (RecursionError, ValueError) as e:
            raise ValueError(f"{what} line {n} is not JSON: {e}") from None
        if type(obj) is not dict:
            raise ValueError(f"{what} line {n} is not a JSON object")
        rows.append((n, obj))
    if len(rows) != len(table):
        raise ValueError(f"{what} has {len(rows)} lines, want {len(table)}: one per column")
    cols = {}
    for (line, obj), (name, (types, values, unit)) in zip(rows, table.items()):
        col = obj.get(name)
        if obj.keys() != {name} or type(col) is not list:
            raise ValueError(f"{what} line {line} is not the {name!r} column")
        if type(unit) is dict:
            if tuple(unit) not in counts:
                counts[tuple(unit)] = Counter(zip(*map(cols.get, unit)))
            want, unit = counts[tuple(unit)][tuple(unit.values())], " ".join(unit.values())
        else:
            want = counts.setdefault(unit, len(col))
        if len(col) != want:
            raise ValueError(f"{what} column {name!r}: {len(col)} entries for {want} {unit}s")
        if type(values) is str:
            values = set(range(counts[values]))
        if not (set(map(type, col)) <= set(types) and (values is None or set(col) <= values)):
            i = next(i for i, v in enumerate(col)
                     if type(v) not in types or values is not None and v not in values)
            rule = (f"of type {' or '.join(t.__name__ for t in types)}" if values is None
                    else f"one of {sorted(values)}")
            raise ValueError(f"{what} column {name!r}, {unit} {i}: {col[i]!r} is not {rule}")
        cols[name] = col
    return list(cols.values())


def events_from_jsonl(text: str) -> list[HistoryEvent]:
    """Parse history JSONL, its columns checked by `read_columns`; a get that
    does not diverge from the longest read before it is an `IdPrefix` view of
    that read's list."""
    client, ev, kind, c, t, payload, result, p, tail = read_columns(text, "history", _COLUMNS)
    payloads, results, reads = iter(payload), iter(result), enumerate(zip(p, tail))
    ref: list[str] = []  # only grows: a longer diverging read starts a new list
    events = list(map(HistoryEvent, map(make_rid, client, c), client, ev, kind, c, t))
    for e in events:
        if e.kind == APPEND:
            if e.ev == INVOKE:
                e.payload = next(payloads)
            else:
                e.result = next(results)
        elif e.ev == RESPONSE:
            g, (start, ids) = next(reads)
            if not set(map(type, ids)) <= {str}:
                raise ValueError(f"history column 'tail', get response {g}: an id is not a str")
            if not 0 <= start <= len(ref):
                raise ValueError(f"history column 'p', get response {g}: {start} not in "
                                 f"0..{len(ref)}")
            end, known = start + len(ids), min(start + len(ids), len(ref))
            if ref[start:known] == ids[:known - start]:
                ref += ids[known - start:]
                e.seq = IdPrefix(ref, end)
            else:
                e.seq = (*ref[:start], *ids)
                if end > len(ref):
                    ref = list(e.seq)
                    e.seq = IdPrefix(ref, end)
    return events


class Op(NamedTuple):
    """One operation reconstructed from its invoke/response event pair; an
    append's ``op_id``, ``<client>.<c>``, is the id of the record it mints.

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
    result: str | None = None
    seq: Sequence[str] | None = None

    def precedes(self, other: "Op") -> bool:
        return self.response_i < other.invoke_i


def pair_events(events: Sequence[HistoryEvent]) -> tuple[list[Op], list[Op]]:
    """Match invokes with responses; returns (completed ops in response
    order, pending ops in invoke order).

    Raises ValueError on malformed histories (a response that is not its
    client's open operation, an op id invoked twice, or a client with two
    operations in flight at once).
    """
    open_ops: dict[int, tuple[int, HistoryEvent]] = {}  # client -> its one op in flight
    invoked: set[str] = set()
    completed: list[Op] = []
    for i, e in enumerate(events):
        if e.ev == INVOKE:
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
            completed.append(Op(e.op_id, e.client, e.kind, inv_i, inv.t, i, e.t, inv.payload,
                                e.result, e.seq))
        else:
            raise ValueError(f"unknown event type {e.ev!r}")
    # open_ops is in invoke order: an invoke inserts its client's key, which no op holds.
    return completed, [Op(inv.op_id, inv.client, inv.kind, inv_i, inv.t, payload=inv.payload)
                       for inv_i, inv in open_ops.values()]
