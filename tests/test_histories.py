import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ledgerlab.histories
from ledgerlab import abcast
from ledgerlab.histories import (
    HistoryEvent,
    column_lines,
    events_from_jsonl,
    events_to_jsonl,
    pair_events,
    read_columns,
)
from ledgerlab.ledger import IdPrefix


def ev(op_id, client, kind_ev, kind, c, t, **kw):
    return HistoryEvent(op_id, client, kind_ev, kind, c, t, **kw)


def _columns(text):
    """The history file ``text`` as a column-name -> list dict, in file order."""
    return {k: v for line in text.splitlines() for k, v in json.loads(line).items()}


def test_columns_come_in_a_fixed_order():
    text = events_to_jsonl([
        ev("1.2", 1, "response", "get", 2, 9, seq=("0.1",)),
        ev("1.1", 1, "invoke", "append", 1, 3, payload="x"),
    ])
    assert text.splitlines() == [
        '{"client":[1,1]}', '{"ev":["response","invoke"]}', '{"kind":["get","append"]}',
        '{"c":[2,1]}', '{"t":[9,3]}', '{"payload":["x"]}', '{"result":[]}', '{"p":[0]}',
        '{"tail":[["0.1"]]}']


def test_each_read_is_stored_against_the_longest_earlier_read():
    # growing, stale, empty and divergent reads; a divergent read of the same
    # length as the longest one does not replace it
    seqs = [("0.1",), ("0.1", "0.2"), (), ("0.1", "0.2", "1.1"), ("0.1", "1.1"), ("0.1", "0.2"),
            ("1.1", "0.2", "0.1"), ("1.1",)]
    events = [ev(f"2.{k}", 2, "response", "get", k, k, seq=s) for k, s in enumerate(seqs, 1)]
    columns = _columns(events_to_jsonl(events))
    assert list(zip(columns["p"], columns["tail"])) == [
        (0, ["0.1"]), (1, ["0.2"]), (0, []), (2, ["1.1"]), (1, ["1.1"]), (2, []),
        (0, ["1.1", "0.2", "0.1"]), (0, ["1.1"])]


# Strings such as minted record ids ("0.1") and ones no append mints: quotes,
# escapes, control and non-ASCII characters.
TEXT = st.text('0.1"\\\n\x1céΩ𝄞', max_size=4)


def _events(ev_, kind, **fields):
    # The file stores no op id: the loader gives each event <client>.<c>.
    def event(cl, c, t, **rest):
        return HistoryEvent(f"{cl}.{c}", cl, ev_, kind, c, t, **rest)
    return st.builds(event, st.integers(), st.integers(), st.integers(), **fields)


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
    """The history writer as one json.dumps per column, over the layout of
    the module docstring; `events_to_jsonl` must give the same bytes."""
    columns = {"client": [e.client for e in events],
               "ev": [e.ev for e in events], "kind": [e.kind for e in events],
               "c": [e.c for e in events], "t": [e.t for e in events],
               "payload": [e.payload for e in events if (e.ev, e.kind) == ("invoke", "append")],
               "result": [e.result for e in events if (e.ev, e.kind) == ("response", "append")],
               "p": [], "tail": []}
    ref = ()
    for seq in [e.seq for e in events if (e.ev, e.kind) == ("response", "get")]:
        p = 0
        while p < min(len(seq), len(ref)) and seq[p] == ref[p]:
            p += 1
        columns["p"].append(p)
        columns["tail"].append(list(seq[p:]))
        if len(seq) > len(ref):
            ref = seq
    return "".join(json.dumps({name: col}, separators=(",", ":")) + "\n"
                   for name, col in columns.items())


@given(histories())
def test_writer_bytes_equal_json_dumps(events):
    assert events_to_jsonl(events) == reference_jsonl(events)


@given(histories())
def test_any_history_round_trips(events):
    assert events_from_jsonl(events_to_jsonl(events)) == events


TABLES = {"history": ledgerlab.histories._COLUMNS, "trace": abcast._COLUMNS}
ENTRIES = {int: st.integers(), str: TEXT, type(None): st.none(),
           list: st.lists(st.integers() | TEXT, max_size=3)}


@st.composite
def table_columns(draw, table):
    """Columns of ``table``'s types and values, each as long as its unit says,
    and the numbers of its str units (at least 1 for a unit that numbers
    values); a column or a list may be empty."""
    units = {u for _, values, unit in table.values() for u in (values, unit) if type(u) is str}
    counts = {u: draw(st.integers(int(any(v == u for _, v, _ in table.values())), 5))
              for u in sorted(units)}
    cols = {}
    for name, (types, values, unit) in table.items():
        if type(unit) is dict:
            first = cols[next(iter(unit))]
            n = sum(all(cols[k][i] == v for k, v in unit.items()) for i in range(len(first)))
        else:
            n = counts[unit]
        entry = (st.integers(0, counts[values] - 1) if type(values) is str
                 else st.sampled_from(sorted(values)) if values is not None
                 else st.one_of([ENTRIES[t] for t in types]))
        cols[name] = draw(st.lists(entry, min_size=n, max_size=n))
    return cols, counts


@given(st.sampled_from(sorted(TABLES)).flatmap(
    lambda what: st.tuples(st.just(what), table_columns(TABLES[what]))))
def test_column_lines_are_read_back_by_read_columns(case):
    what, (cols, counts) = case
    text = "".join(column_lines(cols.items()))
    assert text.splitlines(keepends=True) == [json.dumps({name: col}, separators=(",", ":"))
                                              + "\n" for name, col in cols.items()]
    assert read_columns(text, what, TABLES[what], **counts) == list(cols.values())


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
    columns = _columns(text)
    assert list(zip(columns["p"], columns["tail"])) == [
        (0, ["0.1"]), (1, ["0.2", "0.3"]), (2, []), (0, ["1.1"]),
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
    assert events_to_jsonl([]) == "".join(f'{{"{name}":[]}}\n' for name in _columns(text))
    assert events_from_jsonl(events_to_jsonl([])) == []


def test_the_op_id_is_not_stored_but_derived_as_client_dot_c():
    text = events_to_jsonl([ev("x", 3, "invoke", "get", 7, 0)])
    assert '"x"' not in text
    assert [e.op_id for e in events_from_jsonl(text)] == ["3.7"]


# Each text joins into as many top-level objects as it has lines, every line
# opening with "{", yet its first line alone is not JSON: a separator falls
# inside an array, and the "{" after it opens a nested object.
@pytest.mark.parametrize("lines", [
    ['{"a":[{"b":1}', '{"c":2}]}', '{"x":1},{"y":2}'],
    ['{"a":[1', ' {"c":2}]}', '{"x":1},{"y":2}'],
])
def test_read_columns_names_a_line_split_inside_an_array(lines):
    text = "\n".join(lines) + "\n"
    assert len(json.loads("[" + ",\n".join(lines) + "]")) == len(lines)
    with pytest.raises(ValueError, match="^h line 1 is not JSON"):
        read_columns(text, "h", {"a": ((dict,), None, "x")})


# Nested objects, JSON's in-line whitespace at either end, CRLF line ends,
# and blank lines, one of only U+3000.  Line 1's value is an object, not a
# column, so the reader names it; a table whose first column is a one-entry
# list of objects takes line 1 and names line 3, past the blank line.
@pytest.mark.parametrize("text", [
    '{"a":{"b":[{}]}}\n\n {"c":1}',
    ' \t{"a":{"b":[{}]}}\t \n\u3000\n\t{"c":1} ',
    '{"a":{"b":[{}]}}\r\n\r\n{"c":1}\r\n',
])
def test_read_columns_takes_nested_objects_on_their_own_lines(text):
    table = {"a": ((dict,), None, "x"), "c": ((int,), None, "y")}
    with pytest.raises(ValueError, match="^h line 1 is not the 'a' column$"):
        read_columns(text, "h", table)
    wrapped = text.replace('{"b":[{}]}', '[{"b":[{}]}]').replace('"c":1', '"c":[1]')
    assert read_columns(wrapped, "h", table) == [[{"b": [{}]}], [1]]
    with pytest.raises(ValueError, match="^h line 3 is not the 'd' column$"):
        read_columns(wrapped, "h", {"a": table["a"], "d": table["c"]})


def _gets(count):
    """A history of ``count`` get invokes."""
    return events_to_jsonl([ev(f"0.{c}", 0, "invoke", "get", c, c) for c in range(1, count + 1)])


@pytest.mark.parametrize("count", [3, 1025])
def test_a_history_error_names_a_line_that_is_not_json_first(count):
    # Every line is parsed before any is checked: a cut last line is named
    # before a layout error on the first.
    lines = _gets(count).replace('"get"', '"put"', 1).splitlines()
    lines[-1] = lines[-1][:len(lines[-1]) // 2]
    with pytest.raises(ValueError, match=f"^history line {len(lines)} is not JSON"):
        events_from_jsonl("\n".join(lines) + "\n")
    lines.pop()
    with pytest.raises(ValueError, match="^history has 8 lines, want 9: one per column$"):
        events_from_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit,message", [
    (lambda cols: cols["kind"].__setitem__(0, "put"),
     "^history column 'kind', event 0: 'put' is not one of \\['append', 'get'\\]$"),
    (lambda cols: cols["c"].pop(), "^history column 'c': 2 entries for 3 events$"),
    (lambda cols: cols["payload"].append("x"),
     "^history column 'payload': 1 entries for 0 append invokes$"),
    (lambda cols: cols["p"].append(0),
     "^history column 'p': 1 entries for 0 get responses$"),
    (lambda cols: cols["t"].__setitem__(2, True),
     "^history column 't', event 2: True is not of type int$"),
])
def test_a_history_error_names_the_column_and_the_entry(edit, message):
    columns = _columns(_gets(3))
    edit(columns)
    text = "".join(json.dumps({name: col}) + "\n" for name, col in columns.items())
    with pytest.raises(ValueError, match=message):
        events_from_jsonl(text)


def test_pairing_completed_and_pending():
    events = [
        ev("0.1", 0, "invoke", "append", 1, 0, payload="x"),
        ev("1.1", 1, "invoke", "get", 1, 0),
        ev("0.1", 0, "response", "append", 1, 5, result="ack"),
    ]
    completed, pending = pair_events(events)
    assert [o.op_id for o in completed] == ["0.1"]
    a = completed[0]
    assert (a.invoke_i, a.response_i, a.op_id, a.result) == (0, 2, "0.1", "ack")
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
    ([ev("0.1", 0, "invoke", "get", 1, 0), ev("0.1", 0, "response", "get", 1, 1, seq=()),
      ev("0.1", 0, "invoke", "get", 1, 2)],
     "duplicate invoke for op 0.1"),
    ([ev("0.1", 0, "done", "get", 1, 0)], "^unknown event type 'done'$"),
])
def test_malformed_histories_rejected(events, msg):
    with pytest.raises(ValueError, match=msg):
        pair_events(events)
