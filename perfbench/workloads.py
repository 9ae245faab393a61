"""The three benchmark workloads: their scenario shapes, the timed unit of
work each one repeats, and the correctness gate applied to every unit.

Every workload is a closed loop: one caller in one process, ``jobs=1``. A unit
is one seed taken from its scenario to its verdicts. The harness builds the
scenario dicts from the seed argument; the program only ever receives those
dicts. All calls into ledgerlab go through module attributes (``sim.run``,
``cli.run_checker``, ...) so that the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from time import perf_counter

from ledgerlab import cli, histories, ledger, sim

FULL = "full"
TINY = "tiny"

MODES = ("atomic", "sequential", "eventual")


class Campaign:
    """ROADMAP's S shape, seeds rotating through the three consistency levels.

    Each seed goes through ``cli.run_campaign`` on its own, with its level's
    checker plus ``abcast``. Client 3 crashes at t=60, so its in-flight
    operation stays pending and reaches ``complete_history``.
    """

    name = "campaign"
    warmup_units = 50
    min_units = 1000  # so that seed_p99_ms has at least ten samples beyond it
    # A full collection costs about as much as one seed here, so the harness
    # collects once before the window instead of before every seed.
    collect_each_unit = False
    dir = None

    def __init__(self, seed: int, scale: str, outdir: Path) -> None:
        self.start = seed
        self.ops = 20 if scale == FULL else 4
        self.trace_units = 200 if scale == FULL else 12
        if scale != FULL:
            self.warmup_units, self.min_units = 3, 10

    def scenario_dicts(self) -> list[dict]:
        return [{"n": 3, "f": 1, "clients": 4, "mode": mode, "seed": self.start,
                 "workload": {"ops_per_client": self.ops, "append_ratio": 0.6},
                 "crash_schedule": {"random": {"max_crashes": 1, "until": 150}},
                 "client_crashes": [[3, 60]]}
                for mode in MODES]

    def setup(self, dicts: list[dict]) -> None:
        self.scenarios = {d["mode"]: sim.scenario_from_dict(d) for d in dicts}

    def seed_of(self, k: int) -> int:
        return self.start + k

    def unit(self, k: int):
        seed = self.start + k
        mode = MODES[seed % len(MODES)]
        t0 = perf_counter()
        report = cli.run_campaign(self.scenarios[mode], seed, 1, (mode, "abcast"), jobs=1)
        return perf_counter() - t0, {}, report

    def gate(self, report: dict) -> tuple[int, int]:
        """One op per seed: it fails on an error row or any verdict but pass."""
        row = report["rows"][0]
        ok = "error" not in row and all(
            row["verdicts"][name]["status"] == "pass" for name in report["checkers"])
        return 1, 0 if ok else 1


class CheckLarge:
    """ROADMAP's L shape: one atomic run, written, loaded back and judged by
    four checkers, as ``ledgerlab run`` followed by ``ledgerlab check`` does.

    Exactly f=2 servers crash, at seeded times before t=150, so that the trace
    size does not swing between seeds with zero and two crashes.
    """

    name = "check-large"
    checkers = ("atomic", "sequential", "eventual", "abcast")
    warmup_units = 1
    min_units = 3
    collect_each_unit = True

    def __init__(self, seed: int, scale: str, outdir: Path) -> None:
        self.seed = seed
        self.ops = 120 if scale == FULL else 10
        self.trace_units = 1
        self.dir = outdir / "check-large"
        self.reference: dict[str, str] | None = None

    def scenario_dicts(self) -> list[dict]:
        rng = random.Random(f"perfbench-crashes:{self.seed}")
        crashes = [[sid, rng.randint(0, 150)] for sid in sorted(rng.sample(range(5), 2))]
        return [{"n": 5, "f": 2, "clients": 16, "mode": "atomic", "seed": self.seed,
                 "workload": {"ops_per_client": self.ops, "append_ratio": 0.6},
                 "crash_schedule": crashes}]

    def setup(self, dicts: list[dict]) -> None:
        self.scenario = sim.scenario_from_dict(dicts[0])

    def seed_of(self, k: int) -> int:
        return self.seed

    def judge(self, artifact) -> dict:
        return {name: cli.run_checker(name, artifact) for name in self.checkers}

    def unit(self, k: int):
        t0 = perf_counter()
        artifact = sim.run(self.scenario)
        artifact.write(self.dir)
        del artifact  # `ledgerlab check` starts from the files alone
        t1 = perf_counter()
        verdicts = self.judge(sim.load_artifact(self.dir))
        t2 = perf_counter()
        return t2 - t0, {"run_s": t1 - t0, "check_s": t2 - t1}, verdicts

    def gate(self, verdicts: dict) -> tuple[int, int]:
        """One op per verdict, which must be pass, plus one per re-run, whose
        artifact must be byte-identical to the first run's."""
        failed = sum(v.status != "pass" for v in verdicts.values())
        digest = artifact_digest(self.dir)
        if self.reference is None:
            self.reference = digest
            return len(verdicts), failed
        return len(verdicts) + 1, failed + (digest != self.reference)


class ReadRepair:
    """An atomic run of account transfers under an ``account_balance``
    predicate: every get is filtered at the client (read-side repair), and
    the final replica's record stream is then replayed through a strict
    ``ValidatedLedger``.

    The op lists are explicit. Every client appends on 3 of each 5 ops in a
    fixed pattern and alternates deposits and withdrawals; the seed draws the
    accounts, the amounts and the network delays. With the generator spec,
    the predicate work per seed varied by 18% (quartile spread over 12
    seeds), because the number of appends and where the gets fall vary; with
    this shape it varies by 2.5%.
    """

    name = "read-repair"
    clients = 8
    balances = {"A": 10, "B": 10}
    warmup_units = 1
    min_units = 3
    collect_each_unit = True

    def __init__(self, seed: int, scale: str, outdir: Path) -> None:
        self.seed = seed
        self.ops = 60 if scale == FULL else 8
        self.trace_units = 1
        self.dir = outdir / "read-repair"
        self.verified: dict[str, int] = {}  # history digest -> failed gets

    def scenario_dicts(self) -> list[dict]:
        rng = random.Random(f"perfbench-transfers:{self.seed}")
        workload = []
        for client in range(self.clients):
            ops, appends = [], 0
            for i in range(self.ops):
                if (i + 1) * 3 // 5 == i * 3 // 5:
                    ops.append(["get", None])
                    continue
                action = ("deposit", "withdraw")[(client + appends) % 2]
                appends += 1
                ops.append(["append", f"{action}:{rng.choice('AB')}:{rng.randint(0, 10)}"])
            workload.append(ops)
        return [{"n": 3, "f": 1, "clients": self.clients, "mode": "atomic", "seed": self.seed,
                 "workload": workload,
                 "predicate": {"kind": "account_balance", "balances": self.balances}}]

    def setup(self, dicts: list[dict]) -> None:
        self.scenario = sim.scenario_from_dict(dicts[0])
        self.plain_dict = {k: v for k, v in dicts[0].items() if k != "predicate"}

    def seed_of(self, k: int) -> int:
        return self.seed

    def unit(self, k: int):
        t0 = perf_counter()
        artifact = sim.run(self.scenario)
        artifact.write(self.dir)
        t1 = perf_counter()
        stream = max(artifact.states.values(), key=len)
        strict = ledger.ValidatedLedger(self.scenario.predicate)
        t2 = perf_counter()
        results = [strict.append(r) for r in stream]
        t3 = perf_counter()
        phases = {"run_s": t1 - t0, "appends_per_s": len(stream) / (t3 - t2)}
        return t3 - t2 + t1 - t0, phases, (artifact.history, stream, results, strict.get())

    def gate(self, out) -> tuple[int, int]:
        """One op per get, plus one for the strict replay.

        A get's view must equal ``filter_valid`` of the same get in the
        identical run without the predicate. The replay must ack exactly the
        records ``filter_valid`` keeps from the stream."""
        history, stream, results, kept = out
        digest = hashlib.sha256(histories.events_to_jsonl(history).encode()).hexdigest()
        if digest not in self.verified:
            self.verified[digest] = self.failed_views(history)
        gets = sum(1 for e in history if e.ev == histories.RESPONSE and e.kind == histories.GET)
        expected = ledger.filter_valid(stream, self.scenario.predicate)
        acked = tuple(r for r, res in zip(stream, results) if res == ledger.ACK)
        replay_ok = kept == expected and acked == expected
        return gets + 1, self.verified[digest] + (not replay_ok)

    def failed_views(self, history) -> int:
        """Count the gets of ``history`` whose view is not the filtered view
        of the same get in the run without the predicate."""
        plain = sim.run(sim.scenario_from_dict(self.plain_dict))
        raw = {op.op_id: op for op in histories.pair_events(plain.history)[0]}
        pred = self.scenario.predicate
        longest = max((op.seq for op in raw.values() if op.kind == histories.GET),
                      key=len, default=())
        # filter_valid decides each record from the ones before it, so the
        # filtered view of a prefix of `longest` is a prefix of its filtered view.
        kept_longest = [r.rid for r in ledger.filter_valid(records(longest, raw), pred)]
        position = {rid: i for i, rid in enumerate(longest)}
        failed = 0
        for op in histories.pair_events(history)[0]:
            if op.kind != histories.GET:
                continue
            base = raw.get(op.op_id)
            if base is None or base.kind != histories.GET:
                failed += 1
                continue
            n = len(base.seq)
            if base.seq == longest[:n]:
                expected = tuple(rid for rid in kept_longest if position[rid] < n)
            else:
                expected = tuple(r.rid for r in ledger.filter_valid(records(base.seq, raw), pred))
            failed += op.seq != expected
        return failed


def records(rids, ops: dict) -> list:
    """The records behind a returned id sequence, from the appends that minted them."""
    return [ledger.Record(rid, ops[rid].client, ops[rid].payload) for rid in rids]


def artifact_digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def artifact_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


WORKLOADS = {cls.name: cls for cls in (Campaign, CheckLarge, ReadRepair)}
