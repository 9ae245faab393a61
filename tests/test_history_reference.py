"""The column history decoder and the one shared pairing against
references.

* `reference_events_from_jsonl` reads README's column layout one event at a
  time: one ``json.loads`` per line, one check per entry.
* `reference_eventual_ops` is the eventual checker's two-half pairing: split
  the events at ``probe_from_t``, then pair each half alone.

The decoder must accept and reject exactly what the reference does and give
the same events.  The eventual checker, which pairs the whole history once
and splits the ops, must give the reference's ops and verdict wherever it
accepts; where it rejects a history the reference accepted, pairing the whole
history must fail, as it does for the atomic checker.

The inputs are the malformed-artifact table of ``test_cli.py``, Hypothesis
histories, and byte-level and column-level mutations of pinned-scenario
artifacts, which are also driven through ``ledgerlab check`` with every
checker.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_cli
from test_pinned_artifacts import SCENARIOS
from ledgerlab import checkers, cli
from ledgerlab.abcast import AbTrace
from ledgerlab.histories import (
    APPEND,
    GET,
    INVOKE,
    RESPONSE,
    HistoryEvent,
    events_from_jsonl,
    events_to_jsonl,
    pair_events,
)
from ledgerlab.ledger import ACK, NACK, is_int
from ledgerlab.sim import ConfigError, RunArtifact, run, scenario_from_dict

# -- the references ------------------------------------------------------------

COLUMNS = ["client", "ev", "kind", "c", "t", "payload", "result", "p", "tail"]


def _unique_keys(pairs):
    if len({k for k, _ in pairs}) < len(pairs):
        raise ValueError("repeated key")
    return dict(pairs)


def reference_events_from_jsonl(text: str) -> list[HistoryEvent]:
    """The history loader as README's "Run artifacts" states the layout: nine
    lines, each one object holding one column, in order; the event columns
    of one length, each event's op id ``<client>.<c>`` of its own columns;
    then the payload of each append invoke, the result of each append
    response, and the ``p`` and ``tail`` of each get response, in event
    order."""
    objs = [json.loads(line, object_pairs_hook=_unique_keys)
            for line in text.splitlines() if line.strip()]
    if [list(obj) for obj in objs] != [[name] for name in COLUMNS]:
        raise ValueError("not one line per column, in order")
    columns = {name: obj[name] for obj, name in zip(objs, COLUMNS)}
    if not all(isinstance(col, list) for col in columns.values()):
        raise ValueError("a column is not an array")
    if len({len(columns[name]) for name in COLUMNS[:5]}) != 1:
        raise ValueError("event columns of unequal length")
    events = []
    for client, ev, kind, c, t in zip(*(columns[name] for name in COLUMNS[:5])):
        if not (is_int(client) and is_int(c) and is_int(t)
                and ev in (INVOKE, RESPONSE) and kind in (GET, APPEND)):
            raise ValueError("malformed event")
        events.append(HistoryEvent(f"{client}.{c}", client, ev, kind, c, t))

    def of(ev, kind, *names):
        chosen = [e for e in events if (e.ev, e.kind) == (ev, kind)]
        if any(len(columns[name]) != len(chosen) for name in names):
            raise ValueError(f"not one {names} per {ev} {kind}")
        return zip(chosen, *(columns[name] for name in names))

    for e, payload in of(INVOKE, APPEND, "payload"):
        if not isinstance(payload, str):
            raise ValueError("malformed payload")
        e.payload = payload
    for e, result in of(RESPONSE, APPEND, "result"):
        if result not in (ACK, NACK):
            raise ValueError("malformed result")
        e.result = result
    ref: tuple[str, ...] = ()
    for e, p, tail in of(RESPONSE, GET, "p", "tail"):
        if not (is_int(p) and 0 <= p <= len(ref) and isinstance(tail, list)
                and all(isinstance(rid, str) for rid in tail)):
            raise ValueError("malformed read")
        e.seq = ref[:p] + tuple(tail)
        if len(e.seq) > len(ref):
            ref = e.seq
    return events


def reference_eventual_ops(events, probe_from_t):
    """The two-half pairing: (workload completed, workload pending, probes)."""
    workload = [e for e in events if e.t < probe_from_t]
    probes = [e for e in events if e.t >= probe_from_t]
    if any(e.kind != GET for e in probes):
        raise ValueError("the probe phase holds an append")
    completed, pending = pair_events(workload)
    probe_completed, probe_pending = pair_events(probes)
    if probe_pending:
        raise ValueError("probe phase left incomplete operations")
    return completed, pending, probe_completed


# -- the comparisons -----------------------------------------------------------

# What the reference raises on a malformed file: JSON errors are ValueErrors,
# and a line that is not an object is not iterable or not indexed by name.
REFERENCE_ERRORS = (ValueError, TypeError)


def assert_decoders_agree(text: str):
    """Decode ``text`` both ways; return the events, or None if both reject."""
    try:
        expected = reference_events_from_jsonl(text)
    except REFERENCE_ERRORS:
        expected = None
    if expected is None:
        with pytest.raises(ValueError, match="^history "):
            events_from_jsonl(text)
        return None
    assert events_from_jsonl(text) == expected
    return expected


def _eventual_ops(events, probe_from_t):
    """The ops ``cli.run_checker`` hands the eventual checker."""
    artifact = RunArtifact(events, AbTrace.empty(3), None, probe_from_t, None)
    seen = []

    def record(completed, pending, checker, *, probe_ops):
        seen.append((completed, pending, probe_ops))

    verify = checkers.verify_history
    checkers.verify_history = record
    try:
        cli.run_checker("eventual", artifact)
    finally:
        checkers.verify_history = verify
    return seen[0]


def _unindexed(ops):
    # Each half was paired alone, so the reference's indices count from the
    # start of its half; the eventual checker reads them only to order ops.
    return [op._replace(invoke_i=None, response_i=None) for op in ops]


def _verdict(completed, pending, probes):
    return checkers.verify_history(completed, pending, "eventual", probe_ops=probes) \
        if probes else None


def assert_eventual_agrees(events, probe_from_t):
    try:
        expected = reference_eventual_ops(events, probe_from_t)
    except ValueError:
        expected = None
    try:
        ops = _eventual_ops(events, probe_from_t)
    except (ConfigError, checkers.CheckerError):
        # Rejected: the reference rejected too, or the whole history does
        # not pair, which the two halves hid.
        if expected is not None:
            with pytest.raises(ValueError):
                pair_events(events)
        return
    assert expected is not None
    assert list(map(_unindexed, ops)) == list(map(_unindexed, expected))
    assert _verdict(*ops) == _verdict(*expected)


# -- inputs: the malformed-artifact table ----------------------------------------


def _table():
    [mark] = [m for m in test_cli.test_malformed_artifact_exits_2.pytestmark
              if m.name == "parametrize"]
    return [(ident, corrupt) for ident, (name, corrupt, _) in zip(mark.kwargs["ids"], mark.args[1])
            if name == "history.jsonl"]


TABLE = _table()


@pytest.mark.parametrize("ident,corrupt", TABLE, ids=[ident for ident, _ in TABLE])
def test_malformed_table_rejected_by_both_decoders(ident, corrupt):
    artifact = run(scenario_from_dict(test_cli.BASE))
    assert assert_decoders_agree(corrupt(events_to_jsonl(artifact.history))) is None


# -- inputs: Hypothesis histories --------------------------------------------------

# Few clients, counters and times, so duplicate op ids, interleavings, ops in
# flight across the probe start and responses without invokes all come up.
RIDS = st.lists(st.sampled_from(["0.1", "0.2", "1.1", "1.2", "2.1", "9.9"]), max_size=4)


@st.composite
def raw_events(draw):
    ev, kind = draw(st.sampled_from([(INVOKE, GET), (INVOKE, APPEND),
                                     (RESPONSE, GET), (RESPONSE, APPEND)]))
    client, c = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    return HistoryEvent(
        f"{client}.{c}", client, ev, kind, c, draw(st.integers(0, 6)),
        payload=draw(st.sampled_from(["x", "y"])) if (ev, kind) == (INVOKE, APPEND) else None,
        result=draw(st.sampled_from([ACK, NACK])) if (ev, kind) == (RESPONSE, APPEND) else None,
        seq=tuple(draw(RIDS)) if (ev, kind) == (RESPONSE, GET) else None)


@st.composite
def paired_events(draw):
    """Histories that pair, mostly: each op invoked then answered, by client."""
    events, t = [], 0
    for cid in draw(st.lists(st.integers(0, 2), max_size=10)):
        c = sum(e.client == cid and e.ev == INVOKE for e in events) + 1
        kind = draw(st.sampled_from([GET, APPEND]))
        t += draw(st.integers(0, 3))
        events.append(HistoryEvent(f"{cid}.{c}", cid, INVOKE, kind, c, t,
                                   payload="x" if kind == APPEND else None))
        if draw(st.booleans()):
            t += draw(st.integers(0, 3))
            events.append(HistoryEvent(f"{cid}.{c}", cid, RESPONSE, kind, c, t,
                                       result=ACK if kind == APPEND else None,
                                       seq=tuple(draw(RIDS)) if kind == GET else None))
    return events


HISTORIES = st.one_of(st.lists(raw_events(), max_size=8), paired_events())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(HISTORIES, st.integers(0, 12))
def test_hypothesis_histories_agree_with_the_references(events, probe_from_t):
    decoded = assert_decoders_agree(events_to_jsonl(events))
    assert decoded == events
    assert_eventual_agrees(events, probe_from_t)


# -- inputs: byte-level and column-level mutations of pinned artifacts ------------


# A history of 1.3 k events: 16 clients on five servers, two of which crash.
LARGE = {"n": 5, "f": 2, "clients": 16, "mode": "atomic", "seed": 1,
           "workload": {"ops_per_client": 40, "append_ratio": 0.6},
           "crash_schedule": [[0, 40], [3, 90]]}


def _artifact(name: str) -> RunArtifact:
    return run(scenario_from_dict(LARGE if name == "atomic-n5-f2" else SCENARIOS[name]))


def _lines_holding_two_objects(text, rng):
    lines = text.splitlines()
    i = rng.randrange(len(lines) - 1)
    return "\n".join([*lines[:i], lines[i] + rng.choice(["", " ", ","]) + lines[i + 1],
                      *lines[i + 2:]]) + "\n"


def _object_split_across_lines(text, rng):
    commas = [i for i, ch in enumerate(text) if ch == ","]
    i = rng.choice(commas)
    return text[:i + 1] + "\n" + text[i + 1:]


def _two_on_one_line_and_one_split(text, rng):
    # The object count stays equal to the line count: a line holding two
    # objects, and a get whose tail is split at the comma before one of its
    # ids, so that the joining separator stands in for that comma.
    lines = text.splitlines()
    splits = [i for i, line in enumerate(lines) if '","' in line.partition('"tail":[')[2]]
    j = rng.choice(splits)
    cut = lines[j].index('","', lines[j].index('"tail":[')) + 1
    lines[j:j + 1] = [lines[j][:cut], lines[j][cut + 1:]]
    i = rng.choice([i for i in range(len(lines) - 1) if i not in (j - 1, j, j + 1)])
    lines[i:i + 2] = [lines[i] + "," + lines[i + 1]]
    return "\n".join(lines) + "\n"


def _raw_character_in_a_string(text, rng):
    quotes = [i for i, ch in enumerate(text) if ch == '"']
    i = rng.choice(quotes)
    return text[:i + 1] + rng.choice(["\u2028", "\r", "\u2029", "\x85", "\x0b"]) + text[i + 1:]


NOISE = '{}[],:"\\\n\r\u2028 0123-a'


def _byte_noise(text, rng):
    i = rng.randrange(len(text))
    how = rng.randrange(4)
    if how == 0:
        return text[:i] + text[i + 1:]
    if how == 1:
        return text[:i] + rng.choice(NOISE) + text[i:]
    if how == 2:
        return text[:i] + rng.choice(NOISE) + text[i + 1:]
    j = rng.randrange(len(text))
    return text[:i] + text[min(i, j):max(i, j)] + text[i:]


def _digit_change(text, rng):
    # Mostly still well-formed: another time, counter, client, p or id.
    i = rng.choice([i for i, ch in enumerate(text) if ch.isdigit()])
    return text[:i] + rng.choice("0123456789") + text[i + 1:]


def _line_moved(text, rng):
    lines = text.splitlines()
    line = lines.pop(rng.randrange(len(lines)))
    if rng.random() < 0.8:
        lines.insert(rng.randrange(len(lines) + 1), line)
    return "\n".join(lines) + "\n"


def _column_edit(edit):
    """A mutation that applies ``edit(entries, rng)`` to one array of at
    least two entries on one line of a JSONL file: a column, or half the
    time, where the column holds arrays (``tail``), one of those."""
    def mutate(text, rng):
        rows = [json.loads(line) for line in text.splitlines()]
        entries = rng.choice([v for row in rows for v in row.values()
                              if type(v) is list and len(v) > 1])
        inner = [v for v in entries if type(v) is list and len(v) > 1]
        if inner and rng.random() < 0.5:
            entries = rng.choice(inner)
        edit(entries, rng)
        return "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)
    return mutate


def _dropped(entries, rng):
    del entries[rng.randrange(len(entries))]


def _duplicated(entries, rng):
    i = rng.randrange(len(entries))
    entries.insert(i, entries[i])


def _retyped(entries, rng):
    i = rng.randrange(len(entries))
    entries[i] = rng.choice([v for v in (None, True, 1.5, 7, "7", [entries[i]])
                             if type(v) is not type(entries[i])])


def _swapped(entries, rng):
    i, j = rng.sample(range(len(entries)), 2)
    entries[i], entries[j] = entries[j], entries[i]


# Each edits one entry of one column, or two entries of one column.
COLUMN_EDITS = {
    "entry-dropped": _column_edit(_dropped),
    "entry-duplicated": _column_edit(_duplicated),
    "entry-retyped": _column_edit(_retyped),
    "entries-swapped": _column_edit(_swapped),
}
# Each of these leaves some line that is not one JSON object.
BREAKS_LINES = {
    "two-objects-on-a-line": _lines_holding_two_objects,
    "object-split-across-lines": _object_split_across_lines,
    "two-on-a-line-and-one-split": _two_on_one_line_and_one_split,
    "raw-line-break-in-a-string": _raw_character_in_a_string,
}
MUTATIONS = {**BREAKS_LINES, **COLUMN_EDITS, "byte-noise": _byte_noise,
             "digit-change": _digit_change, "line-moved-or-dropped": _line_moved}
MUTANTS_EACH = 30


def _mutants(text, mutation):
    rng = random.Random(f"mutants:{mutation}")
    for _ in range(MUTANTS_EACH):
        yield MUTATIONS[mutation](text, rng)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("scenario", ["eventual", "atomic", "atomic-n5-f2"])
def test_mutated_histories_agree_with_the_references(scenario, mutation):
    artifact = _artifact(scenario)
    probe_from_t = artifact.probe_from_t
    for text in _mutants(events_to_jsonl(artifact.history), mutation):
        events = assert_decoders_agree(text)
        if mutation in BREAKS_LINES:
            assert events is None
        elif events is not None:
            assert_eventual_agrees(events, probe_from_t)


def test_two_objects_on_a_line_and_one_split_keep_the_count():
    artifact = _artifact("eventual")
    text = _two_on_one_line_and_one_split(events_to_jsonl(artifact.history), random.Random(0))
    lines = [line for line in text.splitlines() if line.strip()]
    assert len(json.loads("[" + ",\n".join(lines) + "]")) == len(lines)
    with pytest.raises(ValueError, match="line"):
        events_from_jsonl(text)


@pytest.mark.parametrize("name", ["history.jsonl", "abtrace.jsonl", "meta.json"])
def test_mutated_artifacts_exit_with_a_documented_code(tmp_path, capsys, name):
    art = _artifact("eventual").write(tmp_path / "art")
    text = (art / name).read_text()
    for mutation in sorted(MUTATIONS):
        if (name != "history.jsonl" and mutation == "two-on-a-line-and-one-split"
                or name == "meta.json" and mutation in COLUMN_EDITS):
            continue
        for j, mutant in enumerate(_mutants(text, mutation)):
            if j % 3:
                continue  # a third of each set keeps the run short
            (art / name).write_text(mutant)
            for checker in cli.CHECKER_NAMES:
                code = cli.main(["check", str(art), "--checker", checker])
                assert code in (0, 2, 3, 4), (mutation, j, checker, capsys.readouterr().err)
    capsys.readouterr()
