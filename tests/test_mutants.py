"""Protocol mutants: a server that breaks one decision must fail its checker.

The clients judge nothing themselves; the offline checker is the only judge,
so a mutant shows up as a `fail` verdict, never as an error row.  Each mutant
replaces one `protocols.Server` handler and must be caught within the first
50 campaign seeds, by tags from its own set; the correct protocols pass them.
"""

import pytest

from ledgerlab import protocols
from ledgerlab.cli import run_campaign
from ledgerlab.ledger import Record

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


def violations(mode: str) -> set[str]:
    """The tags that mode's checker names over seeds 0..49; no error rows."""
    report = run_campaign(scenario(mode=mode, **CAMPAIGN), 0, 50, (mode,))
    assert report["aggregate"][mode]["error"] == 0
    return {row["verdicts"][mode]["violated"] for row in report["rows"]
            if row["verdicts"][mode]["status"] == "fail"}


def test_sequential_gets_that_ignore_their_floor_fail_the_checker(monkeypatch):
    monkeypatch.setattr(protocols.Server, "on_get",
                        lambda self, client, c, floor: on_get(self, client, c, 0))
    violated = violations("sequential")
    assert violated and violated <= {"S1", "S2", "S3", "S4"}


def local_get(self, client, c, floor):
    """Answer an atomic get from the local replica, without broadcasting it."""
    if not self.crashed:
        self.net.send(client.on_response, c, self.replica, len(self.replica))


def skip_one_record(self, payload):
    """Server 0 drops the first record delivered to it."""
    if self.sid == 0 and isinstance(payload, Record) and not hasattr(self, "skipped"):
        self.skipped = payload
        return
    handle_adeliver(self, payload)


def apply_records_twice(self, payload):
    if isinstance(payload, Record):
        self.replica._rids.discard(payload.rid)  # forgotten, so a second copy lands again
    handle_adeliver(self, payload)


def ack_without_broadcast(self, client, c, record):
    """An eventual append acked, and its record never broadcast."""
    if not self.crashed:
        self.net.send(client.on_response, c, None, None)


@pytest.mark.parametrize("method, mutant, mode, tags", [
    pytest.param("on_get", local_get, "atomic", {"A2", "A3"}, id="atomic-get-answered-locally"),
    pytest.param("handle_adeliver", skip_one_record, "sequential", {"PrefixChain"},
                 id="server-skips-a-delivered-record"),
    pytest.param("handle_adeliver", apply_records_twice, "atomic", {"Duplicate"},
                 id="record-applied-twice"),
    pytest.param("on_append", ack_without_broadcast, "eventual", {"ProbeCompleteness"},
                 id="eventual-append-never-broadcast"),
])
def test_mutant_fails_its_checker(monkeypatch, method, mutant, mode, tags):
    monkeypatch.setattr(protocols.Server, method, mutant)
    violated = violations(mode)
    assert violated and violated <= tags


@pytest.mark.parametrize("mode", protocols.MODES)
def test_correct_protocols_pass_the_same_seeds(mode):
    assert violations(mode) == set()
