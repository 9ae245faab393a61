"""A run, a campaign, a check and a consensus run leave no cyclic garbage:
reference counting alone frees everything they build, so the cyclic
collector never walks the dead worlds of earlier seeds."""

import gc

import pytest

from ledgerlab import protocols
from ledgerlab.cli import CHECKER_NAMES, run_campaign, run_checker
from ledgerlab.sim import load_artifact, run, run_consensus

from conftest import scenario


@pytest.fixture
def collector_off():
    """Turn the cyclic collector off; the test calls ``gc.collect()``, whose
    result is the number of unreachable objects it found."""
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        gc.enable()


def warmed(sc):
    # json's pure-Python indent encoder leaves cycles of its own, once per
    # scenario, when meta.json's scenario block is first encoded.
    sc.meta_json(None)
    gc.collect()
    return sc


ACCOUNTS = {"ops_per_client": 8, "append_ratio": 0.6,
            "payloads": {"kind": "account", "accounts": ["A", "B"], "max_amount": 5}}


@pytest.mark.parametrize("mode", protocols.MODES)
@pytest.mark.parametrize("crashes", [
    pytest.param([], id="no-server-crash"),
    pytest.param([[0, 0]], id="server-crash-at-0"),
    pytest.param([[1, 15]], id="server-crash-mid-run"),
    pytest.param({"random": {"max_crashes": 2, "until": 60}}, id="random-crashes"),
])
def test_a_run_frees_itself(collector_off, mode, crashes):
    for seed in range(4):
        sc = warmed(scenario(
            n=5, f=2, clients=3, mode=mode, seed=seed, crash_schedule=crashes,
            client_crashes=[[2, 20]], workload=ACCOUNTS,
            predicate={"kind": "account_balance", "balances": {"A": 0, "B": 3}}))
        artifact = run(sc)
        assert gc.collect() == 0, (mode, crashes, seed)
        del artifact
        assert gc.collect() == 0, (mode, crashes, seed)


def test_a_campaign_with_every_checker_frees_itself(collector_off):
    # two clients of two ops each: every seed's history is small enough for the oracle
    sc = warmed(scenario(clients=2, workload={"ops_per_client": 2, "append_ratio": 0.5},
                         crash_schedule={"random": {"max_crashes": 1, "until": 20}},
                         predicate={"kind": "unique_tau"}))
    report = run_campaign(sc, 0, 20, ("atomic", "sequential", "eventual", "abcast"))
    assert gc.collect() == 0
    assert report["aggregate"]["atomic"]["pass"] == 20
    assert gc.collect() == 0


def test_a_loaded_artifact_checked_frees_itself(collector_off, tmp_path):
    sc = warmed(scenario(clients=1, workload=[[["append", "deposit:A:1"], ["get", None],
                                               ["append", "withdraw:A:1"], ["get", None]]],
                         predicate={"kind": "account_balance", "balances": {"A": 0}}))
    run(sc).write(tmp_path)
    gc.collect()
    for name in CHECKER_NAMES:
        verdict = run_checker(name, load_artifact(tmp_path))
        assert verdict.ok, name
        assert gc.collect() == 0, name


def test_a_consensus_run_frees_itself(collector_off):
    for seed in range(5):
        gc.collect()
        result = run_consensus(5, 2, ["a", "b", "c"], seed)
        assert len(set(result.decisions.values())) == 1
        del result
        assert gc.collect() == 0, seed
