"""Artifact bytes pinned across commits.

Criterion 9 compares two runs of the same code; these hashes compare a run
of this code with a run of the code they were recorded from.  A change that
alters any byte of a run's artifacts fails here, so refactors of the
simulator, the protocols or the ledger objects must leave these untouched.
"""

import hashlib
import json

import pytest

from ledgerlab.cli import run_campaign
from ledgerlab.sim import run, run_consensus, scenario_from_dict

FILES = ("history.jsonl", "abtrace.jsonl", "meta.json")

SCENARIOS = {
    "atomic": {
        "n": 3, "f": 1, "clients": 3, "mode": "atomic", "seed": 11,
        "workload": {"ops_per_client": 10, "append_ratio": 0.6},
        "crash_schedule": {"random": {"max_crashes": 1, "until": 60}},
    },
    "sequential": {
        "n": 5, "f": 2, "clients": 4, "mode": "sequential", "seed": 5,
        "workload": {"ops_per_client": 8, "append_ratio": 0.5},
        "crash_schedule": [[0, 10], [3, 30]],
    },
    "eventual": {
        "n": 3, "f": 1, "clients": 3, "mode": "eventual", "seed": 7,
        "probe_gets": 2,
        "workload": {"ops_per_client": 10, "append_ratio": 0.6},
        "crash_schedule": [[1, 20]],
    },
    "read-repair": {
        "n": 3, "f": 1, "clients": 3, "mode": "atomic", "seed": 13,
        "workload": {"ops_per_client": 10, "append_ratio": 0.7,
                     "payloads": {"kind": "account", "accounts": ["A", "B"],
                                  "max_amount": 6}},
        "client_crashes": [[1, 25]],
        "predicate": {"kind": "account_balance", "balances": {"A": 3, "B": 0}},
    },
}

PINNED = {
    "atomic": {
        "history.jsonl": "611a49ec657405d2544c0683d90e9bbe1122a7958393daedd26c156ed7c83d5a",
        "abtrace.jsonl": "d574a10201d160a0cc3c42d62da33550cbddd485d525bafd19a9e73e082faf63",
        "meta.json": "e0a937c34e15ca075946bea6b4fe580173353709a9702c34a12e831c8e6875f8",
    },
    "sequential": {
        "history.jsonl": "0269db0aa20a0964e3662e381b464920d85038118925097529dd7e7c707685b7",
        "abtrace.jsonl": "7d37f89ff26eb0010080283fbe7273129a2bc3c01ccda62351a2091256c4b222",
        "meta.json": "830675e96d5f51df90d76d327bafbb8eabaffa6760592795bfb4590b59f447bd",
    },
    "eventual": {
        "history.jsonl": "2044be24ef0f296796c4a9c0063d8bd247ed22185d29f17feab4e2e042e46fe0",
        "abtrace.jsonl": "976ad3be98c50fe2f5dea4ce014433e7c61de0e6ac99c78d964db2eea54e2520",
        "meta.json": "78016f77a199c113bd45a414672e3dab119b7e69e29400aeff64e0d780bb8702",
    },
    "read-repair": {
        "history.jsonl": "d058866448d54c52e615b0309a649d57bbf0b2345932f43081404994ec46bbaa",
        "abtrace.jsonl": "b08eecf5e0723adb5a1bec6c909d76f4ba0c137b898a7c791b22dfcd5bd005af",
        "meta.json": "bde38bbeaeb06c55ecc096d772738200420121a95260322714842d4e9a7878a5",
    },
    "consensus": {
        "history.jsonl": "018e55883db4a44611a529eadf7f3d3447a61fe9df30dcc3e144b5ce785becba",
        "abtrace.jsonl": "d3767030925fe01f4245d1f2b86ab4ea3cf8002d5d897769e855b5caa4d874d4",
        "meta.json": "9ec2a45864c23b6edf294918f4cd906d8322734d09524adb2151955004961b7a",
    },
}


def artifact_for(name):
    if name == "consensus":
        return run_consensus(3, 1, ["a", "b", "c"], seed=4).artifact
    return run(scenario_from_dict(SCENARIOS[name]))


def file_hashes(out):
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_artifact_bytes_match_the_pinned_hashes(name, tmp_path):
    out = artifact_for(name).write(tmp_path / name)
    assert file_hashes(out) == PINNED[name]


# One digest per mode over the artifact files of seeds 0..29 in the campaign
# shape (random server crash, client 3 crashing mid-run).  Thirty seeds reach
# parked sequential gets, duplicate deliveries and appends left pending by a
# crash far more often than the single-seed scenarios above.
CAMPAIGN_SEEDS = range(30)

CAMPAIGN_DIGESTS = {
    "atomic": "b2acf5c06356ef2b6a4ec6e3c569f0e51aca4394016a11809ed4c05fae434f11",
    "sequential": "08d14d0b36106c789dc79590c8dbd510390a95341e30990602cb9bef9fc1040c",
    "eventual": "2c18b671c9208605c5ffdba91714511ac65f4d61f55b9ce1f22b27e2ec2b9258",
}


@pytest.mark.parametrize("mode", sorted(CAMPAIGN_DIGESTS))
def test_campaign_seeds_match_the_pinned_digest(mode, tmp_path):
    base = scenario_from_dict({
        "n": 3, "f": 1, "clients": 4, "mode": mode, "seed": 0,
        "workload": {"ops_per_client": 20, "append_ratio": 0.6},
        "crash_schedule": {"random": {"max_crashes": 1, "until": 150}},
        "client_crashes": [[3, 60]],
    })
    digest = hashlib.sha256()
    for seed in CAMPAIGN_SEEDS:
        out = run(base.with_seed(seed)).write(tmp_path / str(seed))
        for f in FILES:
            digest.update((out / f).read_bytes())
    assert digest.hexdigest() == CAMPAIGN_DIGESTS[mode]


# One digest over the verdict rows of every scenario in SCENARIOS, seeds
# 0..29, judged by the atomic, sequential, eventual and abcast checkers.  A
# change that alters artifact bytes must still hash equal here, unless it
# changes verdicts by design and says which.
VERDICT_DIGEST = "19e5567cb7f3dc7a639cb79eac85afb7941c3844961b501a6f1e1c9d8ea56830"


def test_campaign_verdicts_match_the_pinned_digest():
    digest = hashlib.sha256()
    for name in sorted(SCENARIOS):
        report = run_campaign(scenario_from_dict(SCENARIOS[name]), 0, 30,
                              ("atomic", "sequential", "eventual", "abcast"), jobs=1)
        digest.update(json.dumps(report["rows"], sort_keys=True).encode())
    assert digest.hexdigest() == VERDICT_DIGEST
