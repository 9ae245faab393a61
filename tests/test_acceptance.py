"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  The heavyweight campaigns are shared across criteria through
session-scoped fixtures.
"""

import random
import time

import pytest

from ledgerlab import checkers, sim
from ledgerlab.abcast import check_abcast_trace
from ledgerlab.cli import run_campaign, run_checker
from ledgerlab.histories import pair_events
from ledgerlab.ledger import (
    ACK,
    UNIQUE_RID,
    Ledger,
    ValidatedLedger,
    account_balance,
    filter_valid,
    make_record,
)
from ledgerlab.sim import run, run_consensus, scenario_from_dict

from conftest import columnar

SEEDS = 1000


def report(criterion, name, ok, detail):
    line = f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def campaign_scenario(mode, **overrides):
    base = {
        "n": 3, "f": 1, "clients": 4, "mode": mode, "seed": 0,
        "workload": {"ops_per_client": 20, "append_ratio": 0.6},
        "crash_schedule": {"random": {"max_crashes": 1, "until": 150}},
    }
    base.update(overrides)
    return scenario_from_dict(base)


@pytest.fixture(scope="session")
def atomic_campaign():
    t0 = time.monotonic()
    rep = run_campaign(campaign_scenario("atomic"), 0, SEEDS, ("atomic", "abcast"), jobs=1)
    rep["wall_s"] = time.monotonic() - t0
    return rep


@pytest.fixture(scope="session")
def sequential_campaign():
    return run_campaign(campaign_scenario("sequential"), 0, SEEDS,
                        ("sequential", "abcast"), jobs=1)


@pytest.fixture(scope="session")
def eventual_campaign():
    return run_campaign(campaign_scenario("eventual"), 0, SEEDS,
                        ("eventual", "abcast"), jobs=1)


def test_criterion_1_atomic_soundness(atomic_campaign):
    agg = atomic_campaign["aggregate"]["atomic"]
    ok = agg["pass"] == SEEDS and atomic_campaign["wall_s"] < 120
    report(1, "atomic-soundness", ok,
           f"{agg['pass']}/{SEEDS} pass, {atomic_campaign['wall_s']:.1f}s wall")


def test_criterion_2_oracle_agreement():
    divergences = 0
    checked = 0
    for seed in range(500):
        mode = ("atomic", "sequential", "eventual")[seed % 3]
        sc = scenario_from_dict({
            "n": 3, "f": 1, "clients": 2, "mode": mode, "seed": seed,
            "probe_gets": 0,
            "workload": {"ops_per_client": 5, "append_ratio": 0.5},
        })
        art = sim.run(sc)
        completed, pending = pair_events(art.history)
        assert len(completed) + len(pending) <= 10
        for name in ("atomic", "sequential"):
            v = checkers.verify_history(completed, pending, name)
            assert v.oracle_used, "oracle must run on small histories"
            checked += 1
            if v.status == "divergence":
                divergences += 1
    report(2, "oracle-agreement", divergences == 0,
           f"{checked} checks over 500 seeds, {divergences} divergences")


def test_criterion_3_sequential_soundness(sequential_campaign):
    agg = sequential_campaign["aggregate"]["sequential"]
    # liveness: every run reached quiescence with every operation answered
    # (an unanswered get would have errored the run), spot-checked directly
    alive = True
    for seed in range(0, 100, 4):
        art = run(campaign_scenario("sequential").with_seed(seed))
        completed, pending = pair_events(art.history)
        if pending:
            alive = False
    ok = agg["pass"] == SEEDS and agg["error"] == 0 and alive
    report(3, "sequential-soundness", ok,
           f"{agg['pass']}/{SEEDS} pass, errors={agg['error']}, gets-terminate={alive}")


def _history_verdicts(scenario, seed):
    art = sim.run(scenario.with_seed(seed))
    completed, pending = pair_events(art.history)
    atomic = checkers.verify_history(completed, pending, "atomic")
    seq = checkers.verify_history(completed, pending, "sequential")
    eventual = run_checker("eventual", art)
    return atomic, seq, eventual


def test_criterion_4_separation_witnesses():
    found_a = found_b = None
    for max_delay in (10, 50):
        sc_ev = campaign_scenario("eventual", max_delay=max_delay)
        sc_sq = campaign_scenario("sequential", max_delay=max_delay)
        budget = 5000 if max_delay == 50 else 500
        for seed in range(budget):
            if found_a is None:
                va, _, ve = _history_verdicts(sc_ev, seed)
                if va.status == "fail" and va.violated == "A2" and ve.ok:
                    found_a = (seed, max_delay)
            if found_b is None:
                va, vs, _ = _history_verdicts(sc_sq, seed)
                if va.status == "fail" and va.violated == "A2" and vs.ok:
                    found_b = (seed, max_delay)
            if found_a and found_b:
                break
        if found_a and found_b:
            break
    report(4, "consistency-separation", bool(found_a and found_b),
           f"eventual A2-fail/eventual-pass at {found_a}, "
           f"sequential A2-fail/S-pass at {found_b}")


def test_criterion_5_eventual_soundness(eventual_campaign):
    agg = eventual_campaign["aggregate"]["eventual"]
    scenario = campaign_scenario("eventual")
    with_f_crashes = sum(
        1 for seed in range(SEEDS)
        if len(sim.expand_crashes(scenario.crash_schedule, 3, seed)) == 1)
    ok = agg["pass"] == SEEDS and with_f_crashes > 0
    report(5, "eventual-soundness", ok,
           f"{agg['pass']}/{SEEDS} pass, {with_f_crashes} runs with exactly f crashes")


def test_criterion_6_consensus_equivalence():
    bad = 0
    for seed in range(SEEDS):
        rng = random.Random(f"prop:{seed}")
        values = [f"v{rng.randint(0, 9)}" for _ in range(3)]
        res = run_consensus(3, 1, values, seed=seed)
        decisions = list(res.decisions.values())
        terminated = all(d is not None for d in decisions)
        agreement = len(set(decisions)) == 1
        validity = set(decisions) <= set(values)
        if not (terminated and agreement and validity):
            bad += 1
    report(6, "consensus-equivalence", bad == 0, f"{SEEDS - bad}/{SEEDS} runs satisfy "
           f"agreement+validity+termination")


def test_criterion_7_abcast_contract(atomic_campaign, sequential_campaign,
                                     eventual_campaign):
    totals = []
    for rep in (atomic_campaign, sequential_campaign, eventual_campaign):
        agg = rep["aggregate"]["abcast"]
        totals.append(agg["pass"])
    all_pass = totals == [SEEDS, SEEDS, SEEDS]

    early = columnar(2, [("broadcast", 0, 5, 0), ("deliver", 0, 6, 0), ("deliver", 1, 4, 0)])
    missing = columnar(2, [("broadcast", 0, 0, 0), ("deliver", 0, 1, 0)])
    crafted = (check_abcast_trace(early).violated == "UniformIntegrity"
               and check_abcast_trace(missing).violated == "UniformAgreement")
    report(7, "abcast-contract", all_pass and crafted,
           f"campaign traces pass {totals}, crafted violations tagged correctly")


def test_criterion_8_validated_equivalence():
    rng = random.Random("validated-equivalence")
    mismatches = 0
    for i in range(200):
        pred = account_balance({"A": 0, "B": 2}) if i % 2 == 0 else UNIQUE_RID
        length = rng.randint(0, 50)
        stream = []
        for j in range(length):
            if rng.random() < 0.8:
                payload = (f"{rng.choice(['deposit', 'withdraw'])}:"
                           f"{rng.choice(['A', 'B'])}:{rng.randint(0, 9)}")
            else:
                payload = "junk"
            stream.append(make_record(0, j + 1, payload))
        vl = ValidatedLedger(pred)
        plain = Ledger()
        for r in stream:
            if vl.append(r) == ACK:
                plain.append(r)
        if not (vl.get() == filter_valid(stream, pred) == filter_valid(plain.get(), pred)):
            mismatches += 1

    # the read-side-repair route: a validated run's views equal the filtered
    # views of the identical unvalidated run
    pred = account_balance({"A": 0})
    workload = {"ops_per_client": 10, "append_ratio": 0.7,
                "payloads": {"kind": "account", "accounts": ["A"], "max_amount": 6}}
    modular_ok = True
    for seed in range(10):
        base = {"n": 3, "f": 1, "clients": 3, "mode": "atomic", "seed": seed,
                "workload": workload}
        plain_art = run(scenario_from_dict(base))
        filt_art = run(scenario_from_dict(
            dict(base, predicate={"kind": "account_balance", "balances": {"A": 0}})))
        raw_ops = {op.op_id: op for op in pair_events(plain_art.history)[0]}
        for op in pair_events(filt_art.history)[0]:
            if op.kind != "get":
                continue
            raw_records = [make_record(int(rid.split(".")[0]), int(rid.split(".")[1]),
                                       raw_ops[rid].payload)
                           for rid in raw_ops[op.op_id].seq]
            if op.seq != tuple(r.rid for r in filter_valid(raw_records, pred)):
                modular_ok = False
    report(8, "validated-equivalence", mismatches == 0 and modular_ok,
           f"200 streams, {mismatches} mismatches; modular get views match filter")


def test_criterion_9_determinism(tmp_path):
    scenario = campaign_scenario("atomic", seed=424242)
    (run(scenario)).write(tmp_path / "a")
    (run(scenario)).write(tmp_path / "b")
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("history.jsonl", "abtrace.jsonl", "meta.json"))
    report(9, "determinism", same, "byte-identical artifacts on re-run")
