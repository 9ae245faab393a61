"""The trace loader against a reference decoder.

`reference_trace_from_jsonl` reads the trace as README's "Run artifacts"
states the layout, one ``json.loads`` per line and one check per entry, not
through the column reader the loader shares with the history.  The loader
must accept and reject exactly what the reference does and give the same
trace, and every refusal must name the trace.

The inputs are the malformed-trace rows of ``test_cli.py``'s table,
Hypothesis traces, and the byte-level and column-level file edits of
``test_history_reference.py`` applied to pinned-scenario traces.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import test_cli
from test_abcast import columnar_traces, edited_service_traces
from test_history_reference import BREAKS_LINES, MUTATIONS, REFERENCE_ERRORS, _artifact, _mutants
from ledgerlab.abcast import AbTrace, trace_from_jsonl
from ledgerlab.ledger import is_int
from ledgerlab.sim import run, scenario_from_dict

COLUMNS = ["sender", "t", "crash", "delivered"]


def _unique_keys(pairs):
    if len({k for k, _ in pairs}) < len(pairs):
        raise ValueError("repeated key")
    return dict(pairs)


def reference_trace_from_jsonl(text: str, n: int) -> AbTrace:
    """The trace of ``n`` servers as README states its layout: four lines,
    each one object holding one column, in order; ``sender`` (each in
    0..n-1) and ``t``, integers, one per broadcast; then ``crash`` (an
    integer or null) and ``delivered`` (a list of integer times that never
    decrease and are none later than the crash), one per server."""
    objs = [json.loads(line, object_pairs_hook=_unique_keys)
            for line in text.splitlines() if line.strip()]
    if [list(obj) for obj in objs] != [[name] for name in COLUMNS]:
        raise ValueError("not one line per column, in order")
    sender, t, crash, delivered = (obj[name] for obj, name in zip(objs, COLUMNS))
    if not all(isinstance(col, list) for col in (sender, t, crash, delivered)):
        raise ValueError("a column is not an array")
    if len(sender) != len(t) or len(crash) != n or len(delivered) != n:
        raise ValueError("a column of the wrong length")
    if not all(is_int(s) and 0 <= s < n for s in sender) or not all(map(is_int, t)):
        raise ValueError("malformed broadcast")
    for c, times in zip(crash, delivered):
        if not ((c is None or is_int(c)) and isinstance(times, list)
                and all(map(is_int, times))):
            raise ValueError("malformed server")
        if times != sorted(times) or c is not None and any(x > c for x in times):
            raise ValueError("a delivery out of order or after the crash")
    return AbTrace(sender, t, crash, delivered)


def assert_decoders_agree(text: str, n: int):
    """Decode ``text`` both ways; return the trace, or None if both reject."""
    try:
        expected = reference_trace_from_jsonl(text, n)
    except REFERENCE_ERRORS:
        expected = None
    if expected is None:
        with pytest.raises(ValueError, match="^trace "):
            trace_from_jsonl(text, n)
        return None
    assert trace_from_jsonl(text, n) == expected
    return expected


def _table():
    [mark] = [m for m in test_cli.test_malformed_artifact_exits_2.pytestmark
              if m.name == "parametrize"]
    return [(ident, corrupt) for ident, (name, corrupt, _) in zip(mark.kwargs["ids"], mark.args[1])
            if name == "abtrace.jsonl"]


TABLE = _table()


@pytest.mark.parametrize("ident,corrupt", TABLE, ids=[ident for ident, _ in TABLE])
def test_malformed_table_rejected_by_both_decoders(ident, corrupt):
    artifact = run(scenario_from_dict(test_cli.BASE))
    text = corrupt("".join(artifact.abtrace.lines()))
    assert assert_decoders_agree(text, artifact.scenario.n) is None


@st.composite
def traces_at_their_crashes(draw):
    """A trace in which servers with deliveries may crash a tick before their
    last one, at it, or a tick after it: the edge of the crash rule."""
    trace = draw(columnar_traces())
    for sid, times in enumerate(trace.delivered):
        if times and draw(st.booleans()):
            trace.crash[sid] = max(times) + draw(st.sampled_from([-1, 0, 1]))
    return trace


@given(st.one_of(columnar_traces(), edited_service_traces(), traces_at_their_crashes()))
def test_hypothesis_traces_agree_with_the_reference(trace):
    broken = any(times != sorted(times) or crash is not None and times and times[-1] > crash
                 for crash, times in zip(trace.crash, trace.delivered))
    decoded = assert_decoders_agree("".join(trace.lines()), len(trace.crash))
    assert decoded == (None if broken else trace)


# "two-on-a-line-and-one-split" splits a history's `tail`, which no trace has.
TRACE_MUTATIONS = sorted(set(MUTATIONS) - {"two-on-a-line-and-one-split"})


@pytest.mark.parametrize("mutation", TRACE_MUTATIONS)
@pytest.mark.parametrize("scenario", ["eventual", "atomic", "atomic-n5-f2"])
def test_mutated_traces_agree_with_the_reference(scenario, mutation):
    artifact = _artifact(scenario)
    for text in _mutants("".join(artifact.abtrace.lines()), mutation):
        trace = assert_decoders_agree(text, artifact.scenario.n)
        if mutation in BREAKS_LINES:
            assert trace is None
