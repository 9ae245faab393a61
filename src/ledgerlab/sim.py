"""Deterministic discrete-event simulation of the crash-prone system.

A run is a pure function of its scenario: logical integer time, a seeded RNG
per concern (network delays, workload expansion, crash generation), and a
single-threaded event loop with a tie-break counter.  The `Simulator` is the
one network: every server, client and the broadcast service reaches the rest
of the run through it.  Point-to-point channels are reliable between live
processes; messages to a process that has crashed by delivery time are
dropped.  After the workload drains, surviving clients issue a configurable
number of probe gets; these land in the same history and their start time is
recorded so checkers can treat them as the failure-free extension.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import protocols
from .abcast import AbTrace, BroadcastService, trace_from_jsonl
from .histories import HistoryEvent, events_from_jsonl, events_to_jsonl, is_int
from .ledger import Record, ValidityPredicate, predicate_from_config, predicate_to_config


class ConfigError(Exception):
    """Scenario or campaign configuration rejected before any event runs."""


class SimulationError(Exception):
    """An internal invariant broke mid-run (a bug, not a user error)."""


_SCENARIO_FIELDS = {"n", "f", "clients", "mode", "seed", "max_delay", "probe_gets",
                    "workload", "crash_schedule", "client_crashes", "predicate"}
_WORKLOAD_SPEC_FIELDS = {"ops_per_client", "append_ratio", "payloads"}
_PAYLOAD_KINDS = ("token", "account")


@dataclass(frozen=True)
class Scenario:
    """Validated, normalized description of one run."""

    n: int
    f: int
    clients: int
    mode: str
    seed: int
    max_delay: int = 10
    probe_gets: int = 2
    workload: object = None  # explicit per-client op lists or a generator spec
    crash_schedule: object = ()  # explicit [(server, t)] or {"random": {...}}
    client_crashes: tuple = ()
    predicate: ValidityPredicate | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "n": self.n, "f": self.f, "clients": self.clients, "mode": self.mode,
            "seed": self.seed, "max_delay": self.max_delay, "probe_gets": self.probe_gets,
            "workload": _workload_to_jsonable(self.workload),
            "crash_schedule": _crashes_to_jsonable(self.crash_schedule),
            "client_crashes": [list(x) for x in self.client_crashes],
        }
        if self.predicate is not None:
            out["predicate"] = predicate_to_config(self.predicate)
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def with_seed(self, seed: int) -> "Scenario":
        return dataclasses.replace(
            self, seed=_uint(seed, "seed must be an unsigned 64-bit integer", below=2 ** 64))


def _workload_to_jsonable(workload) -> object:
    if isinstance(workload, dict):
        return dict(workload)
    return [[[kind, payload] for kind, payload in ops] for ops in workload]


def _crashes_to_jsonable(crashes) -> object:
    if isinstance(crashes, dict):
        return dict(crashes)
    return [list(x) for x in crashes]


def _uint(v, message: str, *, minimum: int = 0, below: float = math.inf) -> int:
    """Return ``v`` if it is an integer (bools excluded) in [minimum, below).

    Otherwise raise ``ConfigError(message.format(v))``.
    """
    if not is_int(v) or not minimum <= v < below:
        raise ConfigError(message.format(v))
    return v


def _require_uint(obj: Mapping, key: str, *, minimum: int = 0) -> int:
    if key not in obj:
        raise ConfigError(f"scenario missing required field {key!r}")
    return _uint(obj[key], f"scenario field {key!r} must be an integer >= {minimum}",
                 minimum=minimum)


def scenario_from_dict(obj: Mapping) -> Scenario:
    """Parse and validate a scenario object; unknown fields are rejected."""
    if not isinstance(obj, Mapping):
        raise ConfigError("scenario must be a JSON object")
    unknown = set(obj) - _SCENARIO_FIELDS
    if unknown:
        raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")

    n = _require_uint(obj, "n", minimum=1)
    f = _require_uint(obj, "f")
    clients = _require_uint(obj, "clients", minimum=1)
    mode = obj.get("mode")
    if mode not in protocols.MODES:
        raise ConfigError(f"mode must be one of {protocols.MODES}, got {mode!r}")
    if f >= n:
        raise ConfigError(f"need f < n, got f={f} n={n}")
    # Every mode runs over the total-order broadcast service, which needs a
    # majority of servers to survive.
    if 2 * f >= n:
        raise ConfigError(
            f"f={f} with n={n} violates the broadcast service's majority "
            f"requirement (need f < n/2)")

    seed = _uint(obj.get("seed", 0), "seed must be an unsigned 64-bit integer", below=2 ** 64)
    max_delay = _uint(obj.get("max_delay", 10), "max_delay must be an integer >= 1", minimum=1)
    probe_gets = _uint(obj.get("probe_gets", 2), "probe_gets must be a non-negative integer")

    workload = _validate_workload(obj.get("workload"), clients)
    crash_schedule = _validate_crashes(obj.get("crash_schedule", []), n, f)
    client_crashes = _crash_entries(
        obj.get("client_crashes", []), clients, "client",
        ("malformed client crash entry {!r}", "client crash id {!r} out of range",
         "client crash time {!r} must be a non-negative integer"))

    predicate = None
    if obj.get("predicate") is not None:
        try:
            predicate = predicate_from_config(obj["predicate"])
        except ValueError as e:
            raise ConfigError(str(e)) from e

    return Scenario(n=n, f=f, clients=clients, mode=mode, seed=seed,
                    max_delay=max_delay, probe_gets=probe_gets, workload=workload,
                    crash_schedule=crash_schedule, client_crashes=client_crashes,
                    predicate=predicate)


def _validate_workload(workload, clients: int):
    if workload is None:
        raise ConfigError("scenario missing required field 'workload'")
    if isinstance(workload, Mapping):
        unknown = set(workload) - _WORKLOAD_SPEC_FIELDS
        if unknown:
            raise ConfigError(f"unknown workload fields: {sorted(unknown)}")
        ops = _uint(workload.get("ops_per_client"),
                    "workload.ops_per_client must be a non-negative integer")
        ratio = workload.get("append_ratio", 0.5)
        if not isinstance(ratio, (int, float)) or isinstance(ratio, bool) or not 0 <= ratio <= 1:
            raise ConfigError("workload.append_ratio must be in [0, 1]")
        payloads = workload.get("payloads", {"kind": "token"})
        if not isinstance(payloads, Mapping) or payloads.get("kind") not in _PAYLOAD_KINDS:
            raise ConfigError(f"workload.payloads.kind must be one of {_PAYLOAD_KINDS}")
        if payloads["kind"] == "account":
            extra = set(payloads) - {"kind", "accounts", "max_amount"}
            if extra:
                raise ConfigError(f"unknown payload fields: {sorted(extra)}")
            accounts = payloads.get("accounts", ["A"])
            if not (isinstance(accounts, list) and accounts and all(
                    isinstance(a, str) and a and ":" not in a for a in accounts)):
                raise ConfigError("workload.payloads.accounts must be a non-empty list "
                                  "of non-empty account names without ':'")
            _uint(payloads.get("max_amount", 10),
                  "workload.payloads.max_amount must be a non-negative integer")
        elif set(payloads) - {"kind"}:
            raise ConfigError("token payloads take no extra fields")
        return {"ops_per_client": ops, "append_ratio": float(ratio),
                "payloads": dict(payloads)}
    if isinstance(workload, Sequence) and not isinstance(workload, (str, bytes)):
        if len(workload) != clients:
            raise ConfigError(f"explicit workload must list ops for all {clients} clients")
        parsed = []
        for ops in workload:
            client_ops = []
            for op in ops:
                kind, payload = _parse_workload_op(op)
                client_ops.append((kind, payload))
            parsed.append(tuple(client_ops))
        return tuple(parsed)
    raise ConfigError("workload must be a generator spec or per-client op lists")


def _parse_workload_op(op) -> tuple[str, str | None]:
    if isinstance(op, Mapping):
        if set(op) - {"kind", "payload"}:
            raise ConfigError(f"unknown op fields in {op!r}")
        kind, payload = op.get("kind"), op.get("payload")
    elif isinstance(op, Sequence) and not isinstance(op, str) and len(op) == 2:
        kind, payload = op
    else:
        raise ConfigError(f"malformed workload op {op!r}")
    if kind == "get":
        if payload is not None:
            raise ConfigError("get ops take no payload")
        return "get", None
    if kind == "append":
        if not isinstance(payload, str):
            raise ConfigError("append ops need a string payload")
        return "append", payload
    raise ConfigError(f"op kind must be get or append, got {kind!r}")


def _validate_crashes(crashes, n: int, f: int):
    if isinstance(crashes, Mapping):
        if set(crashes) != {"random"}:
            raise ConfigError("crash generator must be {'random': {...}}")
        spec = crashes["random"]
        if not isinstance(spec, Mapping) or set(spec) - {"max_crashes", "until"}:
            raise ConfigError("crash generator takes max_crashes and until")
        max_crashes = _uint(spec.get("max_crashes", f),
                            "max_crashes must be a non-negative integer")
        if max_crashes > f:
            raise ConfigError(f"max_crashes={max_crashes} exceeds the tolerance bound f={f}")
        until = _uint(spec.get("until", 100), "until must be a non-negative integer")
        return {"random": {"max_crashes": max_crashes, "until": until}}
    entries = _crash_entries(
        crashes, n, "server",
        ("malformed crash entry {!r}", "crash server id {!r} out of range",
         "crash time {!r} must be a non-negative integer"))
    if len(entries) > f:
        raise ConfigError(f"{len(entries)} crashes requested but tolerance bound is f={f}")
    return entries


def _crash_entries(crashes, bound: int, label: str, texts: tuple[str, str, str]):
    """Validate explicit [[id, time], ...] crash entries for servers or clients.

    Ids lie in [0, bound) and appear at most once; ``texts`` are the error
    messages for a malformed entry, a bad id and a bad time, each formatted
    with the offending value.
    """
    malformed, bad_id, bad_time = texts
    entries = []
    seen: set[int] = set()
    for entry in crashes:
        if not (isinstance(entry, Sequence) and len(entry) == 2):
            raise ConfigError(malformed.format(entry))
        pid, t = _uint(entry[0], bad_id, below=bound), _uint(entry[1], bad_time)
        if pid in seen:
            raise ConfigError(f"{label} {pid} crashed twice in the schedule")
        seen.add(pid)
        entries.append((pid, t))
    return tuple(entries)


def generate_workload(spec: Mapping, clients: int, seed: int) -> list[list[tuple[str, str | None]]]:
    """Expand a generator spec into explicit per-client operation lists."""
    rng = random.Random(f"workload:{seed}")
    ratio = spec["append_ratio"]
    payloads = spec["payloads"]
    out = []
    for cid in range(clients):
        ops: list[tuple[str, str | None]] = []
        for i in range(spec["ops_per_client"]):
            if rng.random() < ratio:
                if payloads["kind"] == "account":
                    accounts = payloads.get("accounts", ["A"])
                    action = rng.choice(("deposit", "withdraw"))
                    acct = rng.choice(accounts)
                    amount = rng.randint(0, payloads.get("max_amount", 10))
                    ops.append(("append", f"{action}:{acct}:{amount}"))
                else:
                    ops.append(("append", f"w{cid}.{i}"))
            else:
                ops.append(("get", None))
        out.append(ops)
    return out


def expand_crashes(schedule, n: int, f: int, seed: int) -> list[tuple[int, int]]:
    """Resolve a crash schedule (explicit list or seeded generator) to entries."""
    if isinstance(schedule, Mapping):
        spec = schedule["random"]
        rng = random.Random(f"crash:{seed}")
        count = rng.randint(0, spec["max_crashes"])
        servers = sorted(rng.sample(range(n), count))
        return [(sid, rng.randint(0, spec["until"])) for sid in servers]
    return list(schedule)


@dataclass
class RunArtifact:
    """Everything a run produces.  `write` stores what the checkers read: the
    history, the broadcast trace and the meta block.  ``scenario`` is the
    run's scenario, parsed once (from ``meta`` on a loaded artifact).
    ``states`` (each server's final replica) is never written, and it is None
    on a loaded artifact."""

    history: list[HistoryEvent]
    abtrace: AbTrace
    states: dict[int, list[Record]] | None
    meta: dict
    scenario: Scenario

    def write(self, outdir: str | Path) -> Path:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "history.jsonl").write_text(events_to_jsonl(self.history))
        (out / "abtrace.jsonl").write_text(self.abtrace.to_jsonl())
        (out / "meta.json").write_text(json.dumps(self.meta, sort_keys=True, indent=1) + "\n")
        return out


def load_artifact(artifact_dir: str | Path) -> RunArtifact:
    d = Path(artifact_dir)
    try:
        meta = json.loads((d / "meta.json").read_text())
        fields = {"probe_from_t", "scenario", "scenario_sha256", "seed"}
        if not (isinstance(meta, dict) and meta.keys() == fields):
            raise ValueError(f"meta.json must hold exactly the fields {sorted(fields)}")
        scenario = scenario_from_dict(meta["scenario"])
        if meta["scenario_sha256"] != scenario.sha256():
            raise ValueError("scenario_sha256 does not match the scenario")
        if not (is_int(meta["seed"]) and meta["seed"] == scenario.seed):
            raise ValueError("seed does not match the scenario")
        if not (meta["probe_from_t"] is None or is_int(meta["probe_from_t"])):
            raise ValueError("probe_from_t must be an integer or null")
        history = events_from_jsonl((d / "history.jsonl").read_text())
        abtrace = trace_from_jsonl((d / "abtrace.jsonl").read_text(), scenario.n)
    except FileNotFoundError as e:
        raise ConfigError(f"artifact incomplete: missing {Path(e.filename).name}") from e
    except OSError as e:
        raise ConfigError(f"artifact unreadable: {e}") from e
    except (AttributeError, ConfigError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"artifact corrupt: {type(e).__name__}: {e}") from e
    return RunArtifact(history, abtrace, None, meta, scenario)


class Simulator:
    """Single-threaded event loop over (time, tie-break) ordered events.

    It is the ``net`` of every server, client and the broadcast service:
    ``now`` (sim time), ``trace`` (the `AbTrace`), ``history`` (the clients'
    `HistoryEvent` list), ``schedule(delay, kind, fn)``, ``draw_delay()``,
    ``server_alive(sid)``, ``request(cid, sid, msg)``, ``respond(sid, cid,
    msg)``, ``abroadcast(sid, payload)`` and ``adeliver(sid, payload)``.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.now = 0
        self._heap: list[tuple[int, int, str, object]] = []
        self._tiebreak = 0
        self._getrandbits = random.Random(f"net:{scenario.seed}").getrandbits
        self._max_delay = scenario.max_delay
        self._delay_bits = scenario.max_delay.bit_length()
        self.trace = AbTrace(scenario.n)
        self.history: list[HistoryEvent] = []
        self._server_alive = [True] * scenario.n

        self.broadcast_service = BroadcastService(scenario.n, self)
        self.servers = [protocols.Server(scenario.mode, sid, self)
                        for sid in range(scenario.n)]

        workload = scenario.workload
        if isinstance(workload, dict):
            workload = generate_workload(workload, scenario.clients, scenario.seed)
        self.clients = [
            protocols.Client(cid, scenario.mode,
                             protocols.server_subset(cid, scenario.n, scenario.f),
                             self, ops=list(workload[cid]), pred=scenario.predicate)
            for cid in range(scenario.clients)]

    # -- the network: what servers, clients and the broadcast service call -----

    def server_alive(self, sid: int) -> bool:
        return self._server_alive[sid]

    def draw_delay(self) -> int:
        # randint(1, max_delay)'s own rejection sampling, inlined: same stream.
        r = self._getrandbits(self._delay_bits)
        while r >= self._max_delay:
            r = self._getrandbits(self._delay_bits)
        return 1 + r

    def schedule(self, delay: int, kind: str, fn) -> None:
        assert delay >= 0, "cannot schedule into the past"
        self._tiebreak += 1
        heapq.heappush(self._heap, (self.now + delay, self._tiebreak, kind, fn))

    def request(self, cid: int, sid: int, msg) -> None:
        self.schedule(self.draw_delay(), "msg_deliver",
                      lambda: self._server_alive[sid] and self.servers[sid].handle_request(cid, msg))

    def respond(self, sid: int, cid: int, msg) -> None:
        self.schedule(self.draw_delay(), "msg_deliver", lambda: self.clients[cid].on_response(msg))

    def abroadcast(self, sid: int, payload) -> None:
        self.broadcast_service.broadcast(sid, payload)

    def adeliver(self, sid: int, payload) -> None:
        self.servers[sid].handle_adeliver(payload)

    # -- run control ---------------------------------------------------------

    def _crash_server(self, sid: int) -> None:
        if self._server_alive[sid]:
            self._server_alive[sid] = False
            self.trace.add("crash", sid, self.now)

    def _drain(self) -> None:
        heap = self._heap
        while heap:
            t, _, _, fn = heapq.heappop(heap)
            self.now = t
            fn()

    def run(self) -> RunArtifact:
        sc = self.scenario
        for sid, t in expand_crashes(sc.crash_schedule, sc.n, sc.f, sc.seed):
            self.schedule(t, "crash", lambda s=sid: self._crash_server(s))
        for cid, t in sc.client_crashes:
            self.schedule(t, "crash", self.clients[cid].crash)
        for client in self.clients:
            self.schedule(0, "client_invoke", client.start)
        self._drain()
        self._check_liveness()

        probe_from_t = None
        if sc.probe_gets > 0:
            probe_from_t = self.now + 1
            for client in self.clients:
                if not client.crashed:
                    client.queue.extend([("get", None)] * sc.probe_gets)
                    self.schedule(probe_from_t - self.now, "probe", client.start)
            self._drain()
            self._check_liveness()

        meta = {"probe_from_t": probe_from_t, "scenario": sc.to_dict(),
                "scenario_sha256": sc.sha256(), "seed": sc.seed}
        states = {sid: list(s.replica.get()) for sid, s in enumerate(self.servers)}
        return RunArtifact(self.history, self.trace, states, meta, sc)

    def _check_liveness(self) -> None:
        for client in self.clients:
            if not client.crashed and not client.done:
                raise SimulationError(
                    f"quiescent with client {client.cid} still pending: "
                    f"liveness violated")


def run(scenario: Scenario) -> RunArtifact:
    return Simulator(scenario).run()


@dataclass
class ConsensusResult:
    proposals: dict[int, str]
    decisions: dict[int, str | None]
    artifact: RunArtifact


def run_consensus(n: int, f: int, proposals: Sequence[str], seed: int,
                  max_delay: int = 10, crash_schedule=None) -> ConsensusResult:
    """Run the propose/decide reduction over an eventual-mode ledger.

    With no explicit schedule, f servers crash at seeded times early in the
    run (the adversarial case for the polling loop).  The scenario is
    validated before that draw.
    """
    scenario = scenario_from_dict({
        "n": n, "f": f, "clients": len(proposals), "mode": protocols.EVENTUAL,
        "seed": seed, "max_delay": max_delay, "probe_gets": 0,
        "workload": [[] for _ in proposals],
        "crash_schedule": [list(e) for e in crash_schedule or ()],
    })
    if crash_schedule is None:
        rng = random.Random(f"crash:{seed}")
        servers = sorted(rng.sample(range(n), f))
        scenario = dataclasses.replace(scenario, crash_schedule=tuple(
            (sid, rng.randint(0, 3 * max_delay)) for sid in servers))

    simulator = Simulator(scenario)
    proposers = [protocols.ProposerClient(cid, protocols.server_subset(cid, n, f),
                                          simulator, value=value)
                 for cid, value in enumerate(proposals)]
    simulator.clients = proposers
    artifact = simulator.run()
    return ConsensusResult(
        proposals={p.cid: p.value for p in proposers},
        decisions={p.cid: p.decision for p in proposers},
        artifact=artifact,
    )
