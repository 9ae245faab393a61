import json
import math

import pytest

from ledgerlab.histories import (
    HistoryEvent,
    event_to_json,
    events_from_jsonl,
    events_to_jsonl,
    pair_events,
)


def ev(op_id, client, kind_ev, kind, c, t, **kw):
    return HistoryEvent(op_id, client, kind_ev, kind, c, t, **kw)


def test_field_order_is_fixed():
    line = event_to_json(ev("1.2", 1, "response", "get", 2, 9, seq=("0.1",)))
    assert line == '{"op":"1.2","client":1,"ev":"response","kind":"get","c":2,"t":9,"seq":["0.1"]}'
    line = event_to_json(ev("1.1", 1, "invoke", "append", 1, 3, payload="x"))
    assert list(json.loads(line)) == ["op", "client", "ev", "kind", "c", "t", "payload"]


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
