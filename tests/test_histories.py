import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ledgerlab.histories import (
    HistoryEvent,
    events_from_jsonl,
    events_to_jsonl,
    pair_events,
)


def ev(op_id, client, kind_ev, kind, c, t, **kw):
    return HistoryEvent(op_id, client, kind_ev, kind, c, t, **kw)


def test_field_order_is_fixed():
    lines = events_to_jsonl([
        ev("1.2", 1, "response", "get", 2, 9, seq=("0.1",)),
        ev("1.1", 1, "invoke", "append", 1, 3, payload="x"),
    ]).splitlines()
    assert lines[0] == \
        '{"op":"1.2","client":1,"ev":"response","kind":"get","c":2,"t":9,"p":0,"tail":["0.1"]}'
    assert list(json.loads(lines[1])) == ["op", "client", "ev", "kind", "c", "t", "payload"]


def test_each_read_is_stored_against_the_longest_earlier_read():
    # growing, stale, empty and divergent reads; a divergent read of the same
    # length as the longest one does not replace it
    seqs = [("0.1",), ("0.1", "0.2"), (), ("0.1", "0.2", "1.1"), ("0.1", "1.1"), ("0.1", "0.2"),
            ("1.1", "0.2", "0.1"), ("1.1",)]
    events = [ev(f"2.{k}", 2, "response", "get", k, k, seq=s) for k, s in enumerate(seqs, 1)]
    stored = [(o["p"], o["tail"]) for o in map(json.loads, events_to_jsonl(events).splitlines())]
    assert stored == [(0, ["0.1"]), (1, ["0.2"]), (0, []), (2, ["1.1"]), (1, ["1.1"]), (2, []),
                      (0, ["1.1", "0.2", "0.1"]), (0, ["1.1"])]


# Strings such as minted record ids ("0.1") and ones no append mints: quotes,
# escapes, control and non-ASCII characters.
TEXT = st.text('0.1"\\\n\x1céΩ𝄞', max_size=4)


def _events(ev_, kind, **fields):
    return st.builds(lambda op, cl, c, t, **rest: HistoryEvent(op, cl, ev_, kind, c, t, **rest),
                     TEXT, st.integers(), st.integers(), st.integers(), **fields)


# Events of every (ev, kind); get responses, drawn twice as often so that
# reads follow reads, hold a placeholder sequence until `histories` draws one.
EVENTS = st.one_of(
    _events("invoke", "get"),
    _events("invoke", "append", payload=TEXT),
    _events("response", "append", result=st.sampled_from(["ack", "nack"])),
    _events("response", "get", seq=st.just(())),
    _events("response", "get", seq=st.just(())),
)


ORDERS = st.lists(TEXT, unique=True, max_size=5).flatmap(
    lambda order: st.tuples(st.just(order), st.permutations(order)))
FOREIGN_READS = st.lists(TEXT, max_size=6).map(tuple)


@st.composite
def histories(draw):
    """Histories whose get sequences are prefixes of one of two orders
    (growing, stale, empty or divergent), or lists with duplicate ids or
    with ids that no append minted."""
    orders = draw(ORDERS)

    def read():
        how = draw(st.sampled_from(("prefix", "prefix", "shuffle", "foreign")))
        if how == "prefix":
            return tuple(draw(st.sampled_from(orders))[:draw(st.integers(0, len(orders[0])))])
        if how == "shuffle" and orders[0]:
            return tuple(draw(st.lists(st.sampled_from(orders[0]), max_size=12)))
        return draw(FOREIGN_READS)
    return [e if e.seq is None else dataclasses.replace(e, seq=read())
            for e in draw(st.lists(EVENTS, max_size=12))]


def reference_jsonl(events):
    """The history writer as one json.dumps per line, over the layout of the
    module docstring; `events_to_jsonl` must give the same bytes."""
    ref = ()
    lines = []
    for e in events:
        obj = {"op": e.op_id, "client": e.client, "ev": e.ev, "kind": e.kind, "c": e.c, "t": e.t}
        if e.payload is not None:
            obj["payload"] = e.payload
        if e.result is not None:
            obj["result"] = e.result
        if e.seq is not None:
            p = 0
            while p < min(len(e.seq), len(ref)) and e.seq[p] == ref[p]:
                p += 1
            obj["p"], obj["tail"] = p, list(e.seq[p:])
            if len(e.seq) > len(ref):
                ref = e.seq
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return "".join(lines)


@given(histories())
def test_writer_bytes_equal_json_dumps(events):
    assert events_to_jsonl(events) == reference_jsonl(events)


@given(histories())
def test_any_history_round_trips(events):
    assert events_from_jsonl(events_to_jsonl(events)) == events


def test_jsonl_round_trip_ends_with_newline():
    events = [
        ev("0.1", 0, "invoke", "append", 1, 0, payload="x"),
        ev("0.1", 0, "response", "append", 1, 4, result="ack"),
        ev("0.2", 0, "invoke", "get", 2, 5),
        ev("0.2", 0, "response", "get", 2, 8, seq=("0.1",)),
    ]
    text = events_to_jsonl(events)
    assert text.endswith("\n")
    assert events_from_jsonl(text) == events
    assert events_to_jsonl([]) == ""


def test_pairing_completed_and_pending():
    events = [
        ev("0.1", 0, "invoke", "append", 1, 0, payload="x"),
        ev("1.1", 1, "invoke", "get", 1, 0),
        ev("0.1", 0, "response", "append", 1, 5, result="ack"),
    ]
    completed, pending = pair_events(events)
    assert [o.op_id for o in completed] == ["0.1"]
    a = completed[0]
    assert (a.invoke_i, a.response_i, a.rid, a.result) == (0, 2, "0.1", "ack")
    assert [o.op_id for o in pending] == ["1.1"]
    assert pending[0].response_i == math.inf


def test_real_time_precedence_comes_from_event_positions():
    events = [
        ev("0.1", 0, "invoke", "append", 1, 7, payload="x"),
        ev("0.1", 0, "response", "append", 1, 7, result="ack"),
        ev("1.1", 1, "invoke", "get", 1, 7),
        ev("1.1", 1, "response", "get", 1, 7, seq=()),
    ]
    completed, _ = pair_events(events)
    first, second = completed
    assert first.precedes(second)
    assert not second.precedes(first)


@pytest.mark.parametrize("events,msg", [
    ([ev("0.1", 0, "response", "get", 1, 0, seq=())], "response without invoke"),
    ([ev("0.1", 0, "invoke", "get", 1, 0), ev("0.1", 0, "invoke", "get", 1, 1)],
     "duplicate invoke"),
    ([ev("0.1", 0, "invoke", "get", 1, 0), ev("0.2", 0, "invoke", "get", 2, 1)],
     "while"),
    ([ev("0.1", 0, "invoke", "append", 1, 0, payload="x"),
      ev("0.1", 0, "response", "append", 1, 1, result="ack"),
      ev("0.2", 0, "invoke", "append", 1, 2, payload="y")],
     "mints record id 0.1 a second time"),
    ([ev("0.1", 0, "invoke", "get", 1, 0), ev("0.1", 0, "response", "get", 1, 1, seq=()),
      ev("0.1", 0, "invoke", "get", 1, 2)],
     "duplicate invoke for op 0.1"),
    ([ev("0.1", 0, "invoke", "get", 1, 0), ev("0.1", 0, "response", "get", 1, 1, seq=()),
      ev("0.1", 1, "invoke", "get", 1, 2)],
     "duplicate invoke for op 0.1"),
])
def test_malformed_histories_rejected(events, msg):
    with pytest.raises(ValueError, match=msg):
        pair_events(events)
