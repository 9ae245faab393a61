"""Artifact bytes pinned across commits.

Criterion 9 compares two runs of the same code; these hashes compare a run
of this code with a run of the code they were recorded from.  A change that
alters any byte of a run's artifacts fails here, so refactors of the
simulator, the protocols or the ledger objects must leave these untouched.
"""

import hashlib

import pytest

from ledgerlab.sim import run, run_consensus, scenario_from_dict

FILES = ("history.jsonl", "abtrace.jsonl", "states.json", "meta.json")

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
        "history.jsonl": "0cf13a18617fd08c067a1f1e9ca8c85462625cb4b31373b83084838b41d6008a",
        "abtrace.jsonl": "d574a10201d160a0cc3c42d62da33550cbddd485d525bafd19a9e73e082faf63",
        "states.json": "7946ca1f4aa780404f45c93068befccb37ce8aee9bd6108f276850c74bb4dc8a",
        "meta.json": "e0a937c34e15ca075946bea6b4fe580173353709a9702c34a12e831c8e6875f8",
    },
    "sequential": {
        "history.jsonl": "b421b932edb0bed99f73e2d6d62666a438dc29793a11a5558bb5a6f4709402e0",
        "abtrace.jsonl": "7d37f89ff26eb0010080283fbe7273129a2bc3c01ccda62351a2091256c4b222",
        "states.json": "42bebd4b21e248135ac91cb979e46ac4e54c39f6f15bec607095ce10bac4a23c",
        "meta.json": "830675e96d5f51df90d76d327bafbb8eabaffa6760592795bfb4590b59f447bd",
    },
    "eventual": {
        "history.jsonl": "55ca697b29978cdcc49e68159cf3ee51dec77f7a97a24ef162294c1b59b4e39c",
        "abtrace.jsonl": "976ad3be98c50fe2f5dea4ce014433e7c61de0e6ac99c78d964db2eea54e2520",
        "states.json": "0d395ed3c5cc14ad17c7051c3954bcb5c608210d110e3d4cb2a84dac1569ef7c",
        "meta.json": "78016f77a199c113bd45a414672e3dab119b7e69e29400aeff64e0d780bb8702",
    },
    "read-repair": {
        "history.jsonl": "e485ddc832da04ee16c8025a8a338263808a7461d9f3e653d85887c70e15dbfa",
        "abtrace.jsonl": "b08eecf5e0723adb5a1bec6c909d76f4ba0c137b898a7c791b22dfcd5bd005af",
        "states.json": "fd31974b2191997c2b7b6760d1c6d18f2a8a1ccb2ed6d3ef34d2438635fb5ba1",
        "meta.json": "bde38bbeaeb06c55ecc096d772738200420121a95260322714842d4e9a7878a5",
    },
    "consensus": {
        "history.jsonl": "4e7e0a04fe9ffe1be66b4d269bcb13c2a8547a455f754fa51f9f19a64c4d84fe",
        "abtrace.jsonl": "d3767030925fe01f4245d1f2b86ab4ea3cf8002d5d897769e855b5caa4d874d4",
        "states.json": "fba401bffc87e4d173cf23b86e75e8451c278be97ca2a68df68a239291c36427",
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
