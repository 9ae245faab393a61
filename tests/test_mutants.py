"""Protocol mutants: a server that breaks one decision must fail its checker.

The clients judge nothing themselves; the offline checker is the only judge,
so a mutant shows up as a `fail` verdict, never as an error row.
"""

from ledgerlab import protocols
from ledgerlab.cli import run_campaign

from conftest import scenario

# The campaign shape: a random server crash and client 3 crashing mid-run.
CAMPAIGN = {
    "n": 3, "f": 1, "clients": 4, "seed": 0,
    "workload": {"ops_per_client": 20, "append_ratio": 0.6},
    "crash_schedule": {"random": {"max_crashes": 1, "until": 150}},
    "client_crashes": [[3, 60]],
}


def test_sequential_gets_that_ignore_their_floor_fail_the_checker(monkeypatch):
    handle_request = protocols.Server.handle_request

    def floorless(self, client, msg):
        if isinstance(msg, protocols.GetReq):
            msg = msg._replace(floor=0)
        handle_request(self, client, msg)

    monkeypatch.setattr(protocols.Server, "handle_request", floorless)
    report = run_campaign(scenario(mode="sequential", **CAMPAIGN), 0, 50, ("sequential",))
    assert report["aggregate"]["sequential"]["error"] == 0
    violated = [row["verdicts"]["sequential"]["violated"] for row in report["rows"]
                if row["verdicts"]["sequential"]["status"] == "fail"]
    assert violated and set(violated) <= {"S1", "S2", "S3", "S4"}
