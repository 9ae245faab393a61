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
        "history.jsonl": "9edd7548f37bb5d93dfdfedf954125f5ef610063a3ec98d7a001436d1b1ec29a",
        "abtrace.jsonl": "d2bc93a0e06fda5fa40f9ea6a36b53eea6acaa9e745c5083c5657eb1683d388e",
        "meta.json": "e0a937c34e15ca075946bea6b4fe580173353709a9702c34a12e831c8e6875f8",
    },
    "sequential": {
        "history.jsonl": "a4106afbb2b4b1e2ff992e22ad3bc15f13b52a8160b8d8933b56b0eebbafddb5",
        "abtrace.jsonl": "9ecfcdc11a84a7305a17c5d5452f2dc69047576cac844cd9e80807a0e9711d73",
        "meta.json": "830675e96d5f51df90d76d327bafbb8eabaffa6760592795bfb4590b59f447bd",
    },
    "eventual": {
        "history.jsonl": "51b8201b19162be83bc36f61c896d5b0c0fc8239b9359ca7e2cb8e079ac63dbf",
        "abtrace.jsonl": "21058d9e691ea59bba7e0ee171e48ee74b2e891d4f3446dcc21dd0616d50ce9a",
        "meta.json": "78016f77a199c113bd45a414672e3dab119b7e69e29400aeff64e0d780bb8702",
    },
    "read-repair": {
        "history.jsonl": "2ea41cde6ac3e7d3afd83be3c3d3c56d9ba54d8a427a26bec22802c2dec833e3",
        "abtrace.jsonl": "b25d0e4575302e1f5080212dfd420b918f952a63729c2c809a6a927d1eb60936",
        "meta.json": "bde38bbeaeb06c55ecc096d772738200420121a95260322714842d4e9a7878a5",
    },
    "consensus": {
        "history.jsonl": "53fa0bdf66ebb2a6062aa5fe83d35a3fceab0cbb8a14762ad5495e9a82b2b261",
        "abtrace.jsonl": "7c7310eafd551e292c9d14152054af86e6df98ad6b5a8163032d6984f2bb69ba",
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
    "atomic": "c4ed00e7cf024586cb62836bc0ebf11d02913fed510184b38dd9cd58c60a200c",
    "sequential": "f00f845a3a7fe71df9f8ad0a3968d56a6967491d9a4105af4371a9e044224b44",
    "eventual": "4e7c01f8457d26e129a4021e006eca1ad5fb3d278b673f7e9f35e43f8d7e9634",
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
