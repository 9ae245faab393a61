"""Protocol mutants: a process that breaks one decision must fail its checker.

The clients judge nothing themselves; the offline checker is the only judge,
so a mutant shows up as a `fail` verdict, never as an error row.  Each mutant
replaces one attribute of `protocols` (a `Server` or `Client` handler, or the
result a client records for an ack), and over the first 50 campaign seeds
each checker of its row fails exactly the tags of its committed count table,
first at its committed seed; the correct protocols pass them all.

`TAG_MATRIX` maps each tag the checkers can emit to the mutant and checker
whose count table holds it, or says why no mutant reaches it yet.
"""

import re
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from ledgerlab import abcast, checkers, protocols
from ledgerlab.cli import run_campaign
from ledgerlab.ledger import NACK, Ledger, Record

from conftest import scenario

# The campaign shape: a random server crash and client 3 crashing mid-run.
CAMPAIGN = {
    "n": 3, "f": 1, "clients": 4, "seed": 0,
    "workload": {"ops_per_client": 20, "append_ratio": 0.6},
    "crash_schedule": {"random": {"max_crashes": 1, "until": 150}},
    "client_crashes": [[3, 60]],
}

on_get = protocols.Server.on_get
handle_adeliver = protocols.Server.handle_adeliver
on_response = protocols.Client.on_response


def violations(mode: str, names: tuple[str, ...],
               seeds: int = 50) -> dict[str, tuple[int | None, Counter]]:
    """Per checker, the first of seeds 0..seeds-1 of that mode it fails (None
    if none) and how many it fails, per tag; no error rows."""
    report = run_campaign(scenario(mode=mode, **CAMPAIGN), 0, seeds, names)
    assert all(report["aggregate"][name]["error"] == 0 for name in names)
    out = {}
    for name in names:
        failing = [row for row in report["rows"] if row["verdicts"][name]["status"] == "fail"]
        out[name] = (failing[0]["seed"] if failing else None,
                     Counter(row["verdicts"][name]["violated"] for row in failing))
    return out


def ignore_the_floor(self, client, c, floor):
    """Serve a get at once, whatever the client's floor."""
    on_get(self, client, c, 0)


def skip_one_record(self, payload):
    """Server 0 drops the first record delivered to it."""
    if self.sid == 0 and isinstance(payload, Record) and not hasattr(self, "skipped"):
        self.skipped = payload
        return
    handle_adeliver(self, payload)


def apply_records_twice(self, payload):
    """A server applies a copy of a record it already holds, on a replica of its own."""
    pos = self.replica.positions.get(payload.rid) if isinstance(payload, Record) else None
    if pos is not None and pos < self.length:
        if self.replica is self.net.order:
            own = Ledger()
            for r in self.replica.get()[:self.length]:
                own.add(r)
            self.replica = own
        del self.replica.positions[payload.rid]  # forgotten, so this copy lands again
    handle_adeliver(self, payload)


def fabricate_a_record(self, client, c, floor):
    """Server 0 answers each get with its own copy of its prefix plus a record
    9.1 that no client appended."""
    if self.sid != 0 or self.crashed:
        return on_get(self, client, c, floor)
    own = Ledger()
    for r in [*self.replica.get()[:self.length], Record("9.1", 9, "x")]:
        own.add(r)
    self.net.send(client.on_response, c, own, len(own))


def ack_without_broadcast(self, client, c, record):
    """An eventual append acked, and its record never broadcast."""
    if not self.crashed:
        self.net.send(client.on_response, c, None, None)


def ack_keeps_the_floor(self, c, replica, n):
    """An append ack leaves the client's sequential floor where it was."""
    on_response(self, c, replica, self.last_len if replica is None else n)


class Mutant(NamedTuple):
    target: object  # what the mutant patches: protocols, or one of its classes
    name: str
    value: object
    mode: str
    # checker -> (its first failing seed, tag -> failing seeds), of seeds 0..49
    counts: dict[str, tuple[int, dict[str, int]]]


MUTANTS = {
    # A sequential get served at once is an atomic get answered from the local
    # replica, one fault, so the atomic checker judges it too.
    "sequential-get-ignores-its-floor": Mutant(
        protocols.Server, "on_get", ignore_the_floor, "sequential",
        {"sequential": (5, {"S3": 3, "S4": 3}), "atomic": (0, {"A2": 5, "A3": 3})}),
    "server-skips-a-delivered-record": Mutant(
        protocols.Server, "handle_adeliver", skip_one_record, "sequential",
        {"sequential": (2, {"PrefixChain": 26})}),
    "record-applied-twice": Mutant(
        protocols.Server, "handle_adeliver", apply_records_twice, "atomic",
        {"atomic": (0, {"Duplicate": 50})}),
    "eventual-append-never-broadcast": Mutant(
        protocols.Server, "on_append", ack_without_broadcast, "eventual",
        {"eventual": (0, {"ProbeCompleteness": 50})}),
    "eventual-get-fabricates-a-record": Mutant(
        protocols.Server, "on_get", fabricate_a_record, "eventual",
        {"eventual": (0, {"Fabrication": 49})}),
    **{f"{mode}-ack-recorded-as-nack": Mutant(
        protocols, "ACK", NACK, mode, {mode: (0, {"SeqSpec": 50})}) for mode in protocols.MODES},
    "sequential-ack-leaves-the-floor": Mutant(
        protocols.Client, "on_response", ack_keeps_the_floor, "sequential",
        {"sequential": (5, {"S3": 3})}),
}


@pytest.mark.parametrize("ident", MUTANTS)
def test_mutant_fails_its_checker(monkeypatch, ident):
    mutant = MUTANTS[ident]
    monkeypatch.setattr(mutant.target, mutant.name, mutant.value)
    assert violations(mutant.mode, tuple(mutant.counts)) == mutant.counts


@pytest.mark.parametrize("mode", protocols.MODES)
def test_correct_protocols_pass_the_same_seeds(mode):
    assert violations(mode, (mode,)) == {mode: (None, {})}


# Each tag the checkers can emit: the mutant and checker that reach it, or
# why no mutant does yet (the ROADMAP item it waits on, or the Hypothesis
# test in tests/test_checkers.py whose histories reach it).
TAG_MATRIX = {
    "A1": "waits on ROADMAP item 1: the atomic ack-at-request mutant passes 50 of 50 "
          "seeds while the broadcast orders a message at its call",
    "A2": ("sequential-get-ignores-its-floor", "atomic"),
    "A3": ("sequential-get-ignores-its-floor", "atomic"),
    "A4": "a get would have to see an append invoked after it returned; reached by the "
          "Hypothesis histories of test_checkers.py::"
          "test_a_get_that_reads_another_clients_later_append_fails_a4",
    "S1": "reached by the Hypothesis histories of test_checkers.py::"
          "test_a_get_that_reads_a_clients_later_append_but_not_its_earlier_one_fails_s1",
    "S2": "a get would have to see its own client's later append; reached by the "
          "Hypothesis histories of test_checkers.py::"
          "test_a_get_that_reads_its_own_clients_later_append_fails_s2",
    "S3": ("sequential-ack-leaves-the-floor", "sequential"),
    "S4": ("sequential-get-ignores-its-floor", "sequential"),
    "SeqSpec": ("atomic-ack-recorded-as-nack", "atomic"),
    "Def5-2a": "waits on ROADMAP item 4: no run acks a record its predicate refuses",
    "Def5-2b": "waits on ROADMAP item 4: no run nacks a record its predicate admits",
    "Fabrication": ("eventual-get-fabricates-a-record", "eventual"),
    "Duplicate": ("record-applied-twice", "atomic"),
    "PrefixChain": ("server-skips-a-delivered-record", "sequential"),
    "ProbeCompleteness": ("eventual-append-never-broadcast", "eventual"),
    "Validity": "waits on ROADMAP item 13's broadcast service mutants",
    "UniformAgreement": "waits on ROADMAP item 13's broadcast service mutants",
    "UniformIntegrity": "waits on ROADMAP item 13's broadcast service mutants",
}


@pytest.mark.parametrize("tag", TAG_MATRIX)
def test_a_mutant_reaches_each_tag(tag):
    row = TAG_MATRIX[tag]
    if isinstance(row, str):
        pytest.skip(f"{tag}: {row}")
    ident, checker = row
    assert tag in MUTANTS[ident].counts[checker][1]


def test_the_matrix_lists_exactly_the_tags_the_checkers_emit():
    source = "".join(Path(m.__file__).read_text() for m in (checkers, abcast))
    emitted = set(re.findall(r'failed\("([^"]+)"', source))
    emitted |= {tag for table in checkers._TAGS.values() for tag in table.values()}
    assert emitted == TAG_MATRIX.keys()
    assert len(emitted) == 18
