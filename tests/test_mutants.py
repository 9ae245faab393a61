"""Protocol mutants: a server that breaks one decision must fail its checker.

The clients judge nothing themselves; the offline checker is the only judge,
so a mutant shows up as a `fail` verdict, never as an error row.  Each mutant
replaces one `protocols.Server` handler, and over the first 50 campaign seeds
its checker names exactly the tags of its committed count table; the correct
protocols pass them all.
"""

from collections import Counter

import pytest

from ledgerlab import protocols
from ledgerlab.cli import run_campaign
from ledgerlab.ledger import Ledger, Record

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


def violations(mode: str) -> Counter:
    """How many of seeds 0..49 that mode's checker fails, per tag; no error rows."""
    report = run_campaign(scenario(mode=mode, **CAMPAIGN), 0, 50, (mode,))
    assert report["aggregate"][mode]["error"] == 0
    return Counter(row["verdicts"][mode]["violated"] for row in report["rows"]
                   if row["verdicts"][mode]["status"] == "fail")


def test_sequential_gets_that_ignore_their_floor_fail_the_checker(monkeypatch):
    monkeypatch.setattr(protocols.Server, "on_get",
                        lambda self, client, c, floor: on_get(self, client, c, 0))
    assert violations("sequential") == {"S3": 3, "S4": 3}


def local_get(self, client, c, floor):
    """Answer an atomic get from the local replica, without broadcasting it."""
    if not self.crashed:
        self.net.send(client.on_response, c, self.replica, self.length)


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


@pytest.mark.parametrize("method, mutant, mode, counts", [
    pytest.param("on_get", local_get, "atomic", {"A2": 5, "A3": 3},
                 id="atomic-get-answered-locally"),
    pytest.param("handle_adeliver", skip_one_record, "sequential", {"PrefixChain": 26},
                 id="server-skips-a-delivered-record"),
    pytest.param("handle_adeliver", apply_records_twice, "atomic", {"Duplicate": 50},
                 id="record-applied-twice"),
    pytest.param("on_append", ack_without_broadcast, "eventual", {"ProbeCompleteness": 50},
                 id="eventual-append-never-broadcast"),
    pytest.param("on_get", fabricate_a_record, "eventual", {"Fabrication": 49},
                 id="eventual-get-fabricates-a-record"),
])
def test_mutant_fails_its_checker(monkeypatch, method, mutant, mode, counts):
    monkeypatch.setattr(protocols.Server, method, mutant)
    assert violations(mode) == counts


@pytest.mark.parametrize("mode", protocols.MODES)
def test_correct_protocols_pass_the_same_seeds(mode):
    assert violations(mode) == {}
