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
    jsonl_objects,
    pair_events,
)
from ledgerlab.ledger import IdPrefix


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
    (growing, stale, empty or divergent), as tuples or as views of two id
    lists that grow along the two orders while the reads are drawn, as a
    run's replicas do; or lists with duplicate ids or with ids that no
    append minted."""
    orders = draw(ORDERS)
    lists = ([], [])

    def read():
        how = draw(st.sampled_from(("view", "view", "prefix", "shuffle", "foreign")))
        if how == "view":
            k = draw(st.integers(0, 1))
            ids = lists[k]
            ids += orders[k][len(ids):draw(st.integers(len(ids), len(orders[k])))]
            return IdPrefix(ids, draw(st.integers(0, len(ids))))
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


def test_views_of_two_growing_lists_are_stored_and_loaded_against_one_order():
    a, b = ["0.1"], ["1.1"]
    reads = [IdPrefix(a, 1)]
    a += ["0.2", "0.3"]
    reads += [IdPrefix(a, 3), IdPrefix(a, 2)]  # growing, then a stale snapshot
    reads += [IdPrefix(b, 1)]  # a list that diverges from the other
    b += ["0.1", "0.2", "0.3", "0.4"]
    # a longer divergent read replaces the order
    reads += [IdPrefix(b, 5), IdPrefix(a, 3), IdPrefix(b, 2)]
    a += ["0.4", "0.5", "0.6"]
    reads += [IdPrefix(a, 6)]  # longer again: it replaces the order back
    events = [ev(f"2.{k}", 2, "response", "get", k, k, seq=r) for k, r in enumerate(reads, 1)]
    text = events_to_jsonl(events)
    assert text == reference_jsonl(events)
    stored = [(o["p"], o["tail"]) for o in map(json.loads, text.splitlines())]
    assert stored == [(0, ["0.1"]), (1, ["0.2", "0.3"]), (2, []), (0, ["1.1"]),
                      (0, ["1.1", "0.1", "0.2", "0.3", "0.4"]), (0, ["0.1", "0.2", "0.3"]), (2, []),
                      (0, ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6"])]
    loaded = events_from_jsonl(text)
    assert loaded == events
    # the reads that do not diverge from the longest read before them are
    # views of one list; a longer divergent one starts a new list
    seqs = [e.seq for e in loaded]
    assert [type(seq) for seq in seqs] == [IdPrefix] * 3 + [tuple, IdPrefix, tuple] + [IdPrefix] * 2
    assert seqs[0].ids is seqs[1].ids is seqs[2].ids
    assert seqs[4].ids is seqs[6].ids is not seqs[0].ids
    assert seqs[7].ids is not seqs[0].ids and seqs[7].ids is not seqs[4].ids


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


# Each text joins into as many top-level objects as it has lines, every line
# opening with "{", yet its first line alone is not JSON: a separator falls
# inside an array, and the "{" after it opens a nested object.
@pytest.mark.parametrize("lines", [
    ['{"a":[{"b":1}', '{"c":2}]}', '{"x":1},{"y":2}'],
    ['{"a":[1', ' {"c":2}]}', '{"x":1},{"y":2}'],
])
def test_jsonl_objects_names_a_line_split_inside_an_array(lines):
    text = "\n".join(lines) + "\n"
    assert len(json.loads("[" + ",\n".join(lines) + "]")) == len(lines)
    with pytest.raises(ValueError, match="^h line 1 is not JSON"):
        list(jsonl_objects(text, "h"))


# Nested objects, JSON's in-line whitespace at either end, CRLF line ends,
# and blank lines, one of only U+3000.
@pytest.mark.parametrize("text", [
    '{"a":{"b":[{}]}}\n\n {"c":1}',
    ' \t{"a":{"b":[{}]}}\t \n\u3000\n\t{"c":1} ',
    '{"a":{"b":[{}]}}\r\n\r\n{"c":1}\r\n',
])
def test_jsonl_objects_takes_nested_objects_on_their_own_lines(text):
    assert list(jsonl_objects(text, "h")) == [(1, {"a": {"b": [{}]}}), (3, {"c": 1})]


def _gets(count):
    """A history of ``count`` get invokes, one JSONL line each."""
    return events_to_jsonl([ev(f"0.{c}", 0, "invoke", "get", c, c) for c in range(1, count + 1)])


@pytest.mark.parametrize("count", [3, 1025])
def test_a_history_error_names_the_first_line_that_breaks_the_rule(count):
    lines = _gets(count).splitlines()
    lines[0] = lines[0].replace('"get"', '"put"')
    lines[-1] = lines[-1][:len(lines[-1]) // 2]
    text = "\n".join(lines) + "\n"
    with pytest.raises(ValueError, match="^malformed history event on line 1$"):
        events_from_jsonl(text)
    with pytest.raises(ValueError, match=f"^h line {count} is not JSON"):
        list(jsonl_objects(text, "h"))


def test_jsonl_objects_parses_a_line_only_when_it_is_reached():
    text = _gets(1) + "{\n"
    objects = jsonl_objects(text, "h")
    assert next(objects) == (1, json.loads(text.splitlines()[0]))
    with pytest.raises(ValueError, match="^h line 2 is not JSON"):
        next(objects)


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


def test_pending_ops_come_in_invoke_order():
    events = [
        ev("0.1", 0, "invoke", "append", 1, 0, payload="x"),
        ev("1.1", 1, "invoke", "get", 1, 0),
        ev("0.1", 0, "response", "append", 1, 5, result="ack"),
        ev("2.1", 2, "invoke", "get", 1, 6),
        ev("0.2", 0, "invoke", "get", 2, 7),
    ]
    completed, pending = pair_events(events)
    assert [(o.op_id, o.invoke_i) for o in pending] == [("1.1", 1), ("2.1", 3), ("0.2", 4)]


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
     "op id 0.2 is not <client>.<c>, 0.1"),
    ([ev("0.2", 0, "invoke", "get", 1, 0)], "op id 0.2 is not <client>.<c>, 0.1"),
    ([ev("0.1", 0, "invoke", "get", 1, 0), ev("0.1", 0, "response", "get", 1, 1, seq=()),
      ev("0.1", 0, "invoke", "get", 1, 2)],
     "duplicate invoke for op 0.1"),
    ([ev("0.1", 0, "invoke", "get", 1, 0), ev("0.1", 0, "response", "get", 1, 1, seq=()),
      ev("0.1", 1, "invoke", "get", 1, 2)],
     "op id 0.1 is not <client>.<c>, 1.1"),
])
def test_malformed_histories_rejected(events, msg):
    with pytest.raises(ValueError, match=msg):
        pair_events(events)
