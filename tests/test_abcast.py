import json
import random
from operator import attrgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ledgerlab.abcast import AbTrace, BroadcastService, check_abcast_trace, trace_from_jsonl

from conftest import HeapLoop, columnar


class Loop(HeapLoop):
    """A fake net: a minimal (time, tiebreak) event loop for driving the service directly."""

    def __init__(self, n, seed, max_delay):
        super().__init__(random.Random(seed), max_delay)
        self.alive = [True] * n
        self.delivered = []
        self.trace = AbTrace.empty(n)
        self.servers = [FakeServer(sid, self) for sid in range(n)]

    drain = HeapLoop._drain


class FakeServer:
    """A replica that records what it delivers; crashed while ``alive`` says so."""

    def __init__(self, sid, loop):
        self.sid = sid
        self.loop = loop

    @property
    def crashed(self):
        return not self.loop.alive[self.sid]

    def handle_adeliver(self, payload):
        self.loop.delivered.append((self.sid, payload))


def make_service(n=3, seed=0, max_delay=5):
    loop = Loop(n, seed, max_delay)
    svc = BroadcastService(loop.servers, loop)
    return loop, loop.alive, loop.delivered, loop.trace, svc


def test_single_broadcast_reaches_every_server_once():
    loop, _, delivered, trace, svc = make_service()
    svc.broadcast(1, "m")
    loop.drain()
    assert sorted(delivered) == [(0, "m"), (1, "m"), (2, "m")]
    assert check_abcast_trace(trace).ok


def test_all_servers_deliver_in_broadcast_order():
    loop, _, delivered, trace, svc = make_service(seed=3)
    svc.broadcast(1, "m")
    svc.broadcast(1, "m2")
    svc.broadcast(0, "m3")
    loop.drain()
    for sid in range(3):
        assert [p for s, p in delivered if s == sid] == ["m", "m2", "m3"]
    assert check_abcast_trace(trace).ok


def test_no_broadcasts_no_deliveries():
    loop, _, delivered, trace, svc = make_service()
    loop.drain()
    assert delivered == []
    assert check_abcast_trace(trace).ok


def test_wakeups_firing_out_of_order_still_deliver_lowest_first():
    # deterministic seed where later wake-ups land before earlier ones; the
    # service hands out messages in sequence order regardless
    for seed in range(10):
        loop, _, delivered, trace, svc = make_service(seed=seed)
        for i in range(6):
            svc.broadcast(0, i)
        loop.drain()
        for sid in range(3):
            assert [p for s, p in delivered if s == sid] == list(range(6))
        assert list(map(len, trace.delivered)) == [6] * 3


def test_crashed_server_delivers_nothing_further():
    loop, alive, delivered, trace, svc = make_service()
    svc.broadcast(0, "early")
    loop.drain()
    alive[2] = False
    trace.crash[2] = loop.now
    svc.broadcast(0, "late")
    loop.drain()
    assert (2, "late") not in delivered
    assert (0, "late") in delivered and (1, "late") in delivered
    assert check_abcast_trace(trace).ok
    # its deliveries are a prefix of the global order
    assert len(trace.delivered[2]) == 1


def test_sequence_numbers_are_gapless():
    # a message's number is its index in the trace's broadcast columns
    loop, _, delivered, trace, svc = make_service()
    for i in range(5):
        svc.broadcast(0, i)
    loop.drain()
    assert trace.sender == [0] * 5 and len(trace.t) == 5
    assert list(map(len, trace.delivered)) == [5] * 3
    assert sorted(p for s, p in delivered if s == 0) == [0, 1, 2, 3, 4]


def test_broadcast_from_a_crashed_server_is_a_contract_violation():
    _, alive, _, _, svc = make_service()
    alive[1] = False
    with pytest.raises(AssertionError):
        svc.broadcast(1, "m")


def test_trace_jsonl_round_trip():
    loop, _, _, trace, svc = make_service()
    svc.broadcast(2, "m")
    loop.drain()
    trace.crash[0] = loop.now + 1
    text = "".join(trace.lines())
    assert text.splitlines()[:3] == ['{"sender":[2]}', '{"t":[0]}',
                                     '{"crash":[%d,null,null]}' % (loop.now + 1)]
    assert text.splitlines()[3] == '{"delivered":%s}' % json.dumps(
        trace.delivered, separators=(",", ":"))
    assert text.endswith("\n") and text.count("\n") == 4
    # a column a piece, but the delivery lists a piece each, and the line's end
    assert len(list(trace.lines())) == 3 + 3 + 1
    assert trace_from_jsonl(text, 3) == trace


INTS = st.integers(-10**12, 10**12)
TIMES = st.one_of(st.integers(0, 30), INTS)


@st.composite
def columnar_traces(draw):
    """Any columnar trace for 1 to 7 servers: up to 8 broadcasts from any
    server, times of any sign and size, and per server a crash time or none
    and up to 8 delivery times, so as many as 8 messages never broadcast."""
    n = draw(st.integers(1, 7))
    trace = AbTrace.empty(n)
    for sender, t in draw(st.lists(st.tuples(st.integers(0, n - 1), TIMES), max_size=8)):
        trace.sender.append(sender)
        trace.t.append(t)
    trace.crash = [draw(st.none() | TIMES) for _ in range(n)]
    trace.delivered = [draw(st.lists(TIMES, max_size=8)) for _ in range(n)]
    return trace


@given(columnar_traces())
def test_any_trace_round_trips(trace):
    """A trace round-trips iff each server's times never decrease and end no
    later than its crash; otherwise the first server that breaks this is
    named in the 'delivered' column."""
    n = len(trace.crash)
    broken = [sid for sid, (crash, times) in enumerate(zip(trace.crash, trace.delivered))
              if times != sorted(times) or (crash is not None and times and times[-1] > crash)]
    if not broken:
        assert trace_from_jsonl("".join(trace.lines()), n) == trace
    else:
        with pytest.raises(ValueError, match=f"^trace column 'delivered', server {broken[0]}: "):
            trace_from_jsonl("".join(trace.lines()), n)


@given(columnar_traces())
def test_events_view_holds_one_row_per_event(trace):
    rows = [tuple(e) for e in trace.events]
    assert len(trace.events) == len(rows)
    assert columnar(len(trace.crash), rows) == trace


def test_events_view_order_and_its_timeline():
    trace = columnar(3, [("broadcast", 1, 5, 0), ("deliver", 2, 5, 0), ("crash", 0, 5),
                         ("deliver", 1, 5, 0), ("broadcast", 2, 5, 1), ("deliver", 1, 4, 1)])
    assert [tuple(e) for e in trace.events] == [
        ("broadcast", 1, 5, 0), ("broadcast", 2, 5, 1),
        ("deliver", 1, 5, 0), ("deliver", 1, 4, 1), ("deliver", 2, 5, 0),
        ("crash", 0, 5, None)]
    timeline = sorted(trace.events, key=attrgetter("t"))
    assert [(e.kind, e.server, e.msg) for e in timeline] == [
        ("deliver", 1, 1),
        ("broadcast", 1, 0), ("broadcast", 2, 1),
        ("deliver", 1, 0), ("deliver", 2, 0),
        ("crash", 0, None)]


GOOD = ['{"sender":[0,1]}',
        '{"t":[0,1]}',
        '{"crash":[null,5,null]}',
        '{"delivered":[[2,3],[2],[3,4]]}']
# GOOD in the layout before the trace was columns: the broadcasts, then a line per server.
OLD_LAYOUT = ['{"sender":[0,1],"t":[0,1]}',
              '{"server":0,"crash":null,"t":[2,3]}',
              '{"server":1,"crash":5,"t":[2]}',
              '{"server":2,"crash":null,"t":[3,4]}']


def test_the_good_trace_loads():
    trace = trace_from_jsonl("\n".join(GOOD), 3)
    assert trace.sender == [0, 1] and trace.t == [0, 1]
    assert trace.crash == [None, 5, None] and trace.delivered == [[2, 3], [2], [3, 4]]
    assert "".join(trace.lines()) == "\n".join(GOOD) + "\n"


def _line(k, text):
    return [*GOOD[:k], text, *GOOD[k + 1:]]


def _column(name, edit):
    """GOOD with ``edit`` applied to the entries of column ``name``."""
    k = next(k for k, line in enumerate(GOOD) if line.startswith(f'{{"{name}"'))
    entries = json.loads(GOOD[k])[name]
    edit(entries)
    return _line(k, json.dumps({name: entries}, separators=(",", ":")))


def _set(name, i, value):
    return _column(name, lambda entries: entries.__setitem__(i, value))


def _delivered(sid, times):
    """GOOD with server ``sid``'s delivery list replaced by the raw JSON ``times``."""
    lists = [json.dumps(t, separators=(",", ":")) for t in json.loads(GOOD[3])["delivered"]]
    lists[sid] = times
    return _line(3, '{"delivered":[%s]}' % ",".join(lists))


BAD_TIME = "^trace column 'delivered', server 0: a time is not an int$"


# GOOD with one column edited (or a line replaced, dropped or added), and what the loader says.
@pytest.mark.parametrize("lines,message", [
    pytest.param(_set("sender", 1, 3),
                 r"trace column 'sender', broadcast 1: 3 is not one of \[0, 1, 2\]$",
                 id="sender-equals-n"),
    pytest.param(_set("sender", 0, -1),
                 r"trace column 'sender', broadcast 0: -1 is not one of \[0, 1, 2\]$",
                 id="negative-sender"),
    pytest.param(_set("sender", 0, True),
                 r"trace column 'sender', broadcast 0: True is not one of \[0, 1, 2\]$",
                 id="bool-sender"),
    pytest.param(_column("t", list.pop), "trace column 't': 1 entries for 2 broadcasts$",
                 id="unequal-broadcast-columns"),
    pytest.param(_set("t", 1, "1"), "trace column 't', broadcast 1: '1' is not of type int$",
                 id="string-broadcast-time"),
    pytest.param(_line(0, '{"sender":[0,1],"x":[]}'), "trace line 1 is not the 'sender' column$",
                 id="extra-broadcast-key"),
    pytest.param(_delivered(0, '["2",3]'), BAD_TIME, id="string-time"),
    pytest.param(_delivered(0, "[true,3]"), BAD_TIME, id="bool-time"),
    pytest.param(_delivered(0, "[2.0,3]"), BAD_TIME, id="float-time"),
    pytest.param(_delivered(0, "2"),
                 "trace column 'delivered', server 0: 2 is not of type list$", id="int-times"),
    pytest.param(_delivered(0, "null"),
                 "trace column 'delivered', server 0: None is not of type list$",
                 id="null-times"),
    pytest.param(_delivered(0, "[2e0,3]"), BAD_TIME, id="exponent-time"),
    pytest.param(_delivered(0, "[02,3]"), "trace line 4 is not JSON", id="leading-zero-time"),
    pytest.param(_set("crash", 1, True),
                 "trace column 'crash', server 1: True is not of type int or NoneType$",
                 id="bool-crash"),
    pytest.param(_set("crash", 1, "5"),
                 "trace column 'crash', server 1: '5' is not of type int or NoneType$",
                 id="string-crash"),
    pytest.param(_column("crash", lambda crash: crash.pop(1)),
                 "trace column 'crash': 2 entries for 3 servers$", id="missing-crash"),
    pytest.param(_column("crash", lambda crash: crash.append(None)),
                 "trace column 'crash': 4 entries for 3 servers$", id="extra-crash"),
    pytest.param(_line(2, '{"crash":[null,5,null],"server":[0,1,2]}'),
                 "trace line 3 is not the 'crash' column$", id="server-column"),
    pytest.param(_delivered(1, '{"server":1,"t":[2]}'),
                 r"trace column 'delivered', server 1: \{'server': 1, 't': \[2\]\} is not of "
                 "type list$", id="server-object"),
    pytest.param(_line(2, '{"crash":[null,5,null],"x":1}'),
                 "trace line 3 is not the 'crash' column$", id="extra-server-key"),
    pytest.param(_line(3, '{"delivered":[[2,3],[2],[3,4]],"msg":[[0,1],[0],[0,1]]}'),
                 "trace line 4 is not the 'delivered' column$", id="msg-column"),
    pytest.param(_delivered(0, "[3,2]"),
                 "trace column 'delivered', server 0: its times decrease$",
                 id="decreasing-times"),
    pytest.param(_set("crash", 1, 1),
                 "trace column 'delivered', server 1: time 2 is after its crash at 1$",
                 id="delivery-after-crash"),
    pytest.param(_set("crash", 2, 3),
                 "trace column 'delivered', server 2: time 4 is after its crash at 3$",
                 id="last-delivery-after-crash"),
    pytest.param(_column("delivered", list.pop),
                 "trace column 'delivered': 2 entries for 3 servers$", id="missing-server-line"),
    pytest.param(_column("delivered", lambda lists: lists.append([2])),
                 "trace column 'delivered': 4 entries for 3 servers$", id="extra-server-line"),
    pytest.param([*_set("sender", 1, 3)[:3], GOOD[3][:-1]],
                 "trace line 4 is not JSON", id="every-line-parsed-before-any-is-checked"),
    pytest.param(_line(1, "[0]"), "trace line 2 is not a JSON object$", id="array-line"),
    pytest.param(_line(1, GOOD[1] + GOOD[1]), "trace line 2 is not JSON", id="two-on-a-line"),
    pytest.param(_line(1, '{"t":[0,1],"t":[0,1]}'), "trace line 2 is not JSON: repeated key",
                 id="duplicate-key"),
    pytest.param([GOOD[0], *GOOD[2:]], "trace has 3 lines, want 4: one per column$",
                 id="missing-column-line"),
    pytest.param([*GOOD[:2], GOOD[1], *GOOD[2:]], "trace has 5 lines, want 4: one per column$",
                 id="repeated-column-line"),
    pytest.param([*GOOD[:2], GOOD[3], GOOD[2]], "trace line 3 is not the 'crash' column$",
                 id="swapped-column-lines"),
    pytest.param(OLD_LAYOUT, "trace line 1 is not the 'sender' column$", id="old-layout"),
])
def test_malformed_trace_is_rejected(lines, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        trace_from_jsonl("\n".join(lines) + "\n", 3)


def test_the_old_layout_is_refused_for_any_number_of_servers():
    for n in (1, 2, 4, 5):
        lines = [OLD_LAYOUT[0], *(f'{{"server":{k},"crash":null,"t":[2,3]}}' for k in range(n))]
        with pytest.raises(ValueError, match=f"^trace has {n + 1} lines, want 4: one per column$"):
            trace_from_jsonl("\n".join(lines) + "\n", n)


def test_times_may_repeat_and_a_delivery_may_share_its_crash_tick():
    lines = [*GOOD[:2], '{"crash":[null,2,null]}', '{"delivered":[[2,3],[2,2],[3,4]]}']
    trace = trace_from_jsonl("\n".join(lines), 3)
    assert trace.crash[1] == 2 and trace.delivered[1] == [2, 2]


def test_last_line_may_lack_its_newline():
    text = "".join(AbTrace.empty(1).lines())
    assert trace_from_jsonl(text.rstrip("\n"), 1) == trace_from_jsonl(text, 1) == AbTrace.empty(1)


class TestTraceChecker:
    def t(self, events, n=2):
        return check_abcast_trace(columnar(n, events))

    def test_empty_trace_passes(self):
        assert self.t([]).ok

    def test_delivery_without_broadcast_fails_integrity(self):
        v = self.t([("deliver", 0, 1, 0), ("deliver", 1, 1, 0)])
        assert v.violated == "UniformIntegrity" and v.witness == ["m0", "s0"]

    def test_delivery_before_broadcast_fails_integrity(self):
        v = self.t([("broadcast", 0, 5, 0), ("deliver", 0, 1, 0), ("deliver", 1, 6, 0)])
        assert v.violated == "UniformIntegrity"

    def test_correct_broadcaster_must_self_deliver(self):
        v = self.t([("broadcast", 0, 0, 0), ("deliver", 1, 1, 0)])
        assert v.violated == "Validity"

    def test_crashed_broadcaster_need_not_self_deliver(self):
        v = self.t([
            ("broadcast", 0, 0, 0),
            ("crash", 0, 1),
            ("deliver", 1, 2, 0),
        ])
        assert v.ok

    def test_correct_server_missing_a_message_fails_agreement(self):
        v = self.t([
            ("broadcast", 0, 0, 0),
            ("deliver", 0, 1, 0),
        ])
        assert v.violated == "UniformAgreement" and "s1" in v.witness


def reference_check_abcast_trace(rows, n):
    """`check_abcast_trace` as it was on the row trace it replaced, before its
    set-wise integrity test and its increasing-order shortcut: every check a
    plain loop over (kind, server, t, msg) rows."""
    crashed, broadcasts, deliveries = {}, [], {}
    for kind, server, t, msg in rows:
        if kind == "deliver":
            deliveries.setdefault(server, []).append((msg, t))
        elif kind == "broadcast":
            broadcasts.append((server, msg, t))
        else:
            crashed.setdefault(server, t)
    correct = [sid for sid in range(n) if sid not in crashed]
    delivered_sets = {sid: {m for m, _ in evs} for sid, evs in deliveries.items()}
    for sid, msg, _ in broadcasts:
        if sid not in crashed and msg not in delivered_sets.get(sid, ()):
            return ("fail", "Validity", [f"m{msg}", f"s{sid}"])
    everywhere = set().union(*delivered_sets.values())
    for sid in correct:
        missing = everywhere - delivered_sets.get(sid, set())
        if missing:
            return ("fail", "UniformAgreement", [f"m{min(missing)}", f"s{sid}"])
    broadcast_time = {}
    for _, msg, t in broadcasts:
        broadcast_time.setdefault(msg, t)
    for sid, evs in deliveries.items():
        seen = set()
        for msg, t in evs:
            if msg in seen or msg not in broadcast_time or t < broadcast_time[msg]:
                return ("fail", "UniformIntegrity", [f"m{msg}", f"s{sid}"])
            seen.add(msg)
    orders = {sid: [m for m, _ in evs] for sid, evs in deliveries.items()}
    position = {sid: {m: k for k, m in enumerate(order)} for sid, order in orders.items()}
    sids = sorted(orders)
    for i, s1 in enumerate(sids):
        for s2 in sids[i + 1:]:
            last, last_msg = -1, None
            for m in orders[s1]:
                k = position[s2].get(m)
                if k is None:
                    continue
                if k < last:
                    return ("fail", "UniformTotalOrder",
                            [f"m{last_msg}", f"m{m}", f"s{s1}", f"s{s2}"])
                last, last_msg = k, m
    return ("pass", None, [])


EDITS = ("drop", "extra", "early", "post-crash")


@st.composite
def edited_service_traces(draw):
    """A trace as the service records it (1 to 5 servers, each delivering the
    global order until it crashes), then up to four edits of one server's
    delivery times: one dropped (so later messages come a place earlier),
    one added (of a message perhaps never broadcast), one moved before its
    broadcast, or one added after the last crash."""
    n = draw(st.integers(1, 5))
    trace = AbTrace.empty(n)
    for _ in range(draw(st.integers(0, 8))):
        trace.sender.append(draw(st.integers(0, n - 1)))
        trace.t.append(draw(st.integers(0, 20)))
    for sid in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        trace.crash[sid] = draw(st.integers(0, 40))
    for crash, times in zip(trace.crash, trace.delivered):
        t = 0
        for t_sent in trace.t:
            t = max(t, t_sent) + draw(st.integers(0, 5))
            if crash is not None and t > crash:
                break
            times.append(t)
    last_crash = max([t for t in trace.crash if t is not None], default=0)
    for _ in range(draw(st.integers(0, 4))):
        times = trace.delivered[draw(st.integers(0, n - 1))]
        edit = draw(st.sampled_from(EDITS))
        at = draw(st.integers(0, len(times)))
        if edit == "extra":
            times.insert(at, draw(st.integers(0, 60)))
        elif edit == "post-crash":
            times.append(last_crash + 1)
        elif times:
            i = min(at, len(times) - 1)
            if edit == "drop":
                del times[i]
            elif i < len(trace.t):  # early: before its broadcast
                times[i] = trace.t[i] - draw(st.integers(1, 3))
    return trace


@given(st.one_of(edited_service_traces(), columnar_traces()))
def test_checker_matches_the_reference_loops(trace):
    """The checker on a columnar trace gives the reference's verdict, tag and
    witness on the same trace as rows.

    A row trace has a columnar form only when its broadcasts are numbered
    0, 1, ... in row order and each server delivers 0, 1, ... in row order.
    Row traces that repeat or skip a broadcast number, or that repeat,
    reorder or skip a delivery, have none; the test below shows the
    reference catching the last two.  So both strategies draw columns.  The
    columns keep no order across servers, so the reference reads the rows of
    `AbTrace.events`: each server's deliveries in turn, servers in order.
    """
    v = check_abcast_trace(trace)
    assert (v.status, v.violated, v.witness) == reference_check_abcast_trace(
        trace.events, len(trace.crash))


@pytest.mark.parametrize("rows,verdict", [
    pytest.param([("broadcast", 0, 0, 0), ("deliver", 0, 1, 0), ("deliver", 1, 1, 0),
                  ("deliver", 1, 2, 0)],
                 ("fail", "UniformIntegrity", ["m0", "s1"]), id="repeated-delivery"),
    pytest.param([("broadcast", 0, 0, 0), ("broadcast", 0, 0, 1),
                  ("deliver", 0, 1, 0), ("deliver", 0, 2, 1),
                  ("deliver", 1, 1, 1), ("deliver", 1, 2, 0)],
                 ("fail", "UniformTotalOrder", ["m0", "m1", "s0", "s1"]), id="reordered"),
])
def test_reference_catches_row_traces_with_no_columnar_form(rows, verdict):
    with pytest.raises(ValueError, match="is not numbered"):
        columnar(2, rows)
    assert reference_check_abcast_trace(rows, 2) == verdict
