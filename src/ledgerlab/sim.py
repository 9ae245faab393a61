"""Deterministic discrete-event simulation of the crash-prone system.

A run is a pure function of its scenario: logical integer time, a seeded RNG
per concern (network delays, workload expansion, crash generation), and a
single-threaded event loop in (time, scheduling order).  The `Simulator` is
the one network: every server, client and the broadcast service reaches the
rest of the run through it.  Point-to-point channels are reliable between
live processes; a process crashed by delivery time drops the message.  After
the workload drains, surviving clients issue a configurable number of probe
gets; these land in the same history and their start time is recorded so
checkers can treat them as the failure-free extension.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import math
import random
import struct
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

from . import protocols
from .abcast import AbTrace, BroadcastService, trace_from_jsonl
from .histories import ARTIFACT_JSON, HistoryEvent, Op, events_from_jsonl, history_lines
from .ledger import (Ledger, Record, ValidityPredicate, is_int, predicate_from_config,
                     predicate_to_config)


class ConfigError(Exception):
    """Scenario or campaign configuration rejected before any event runs."""


class SimulationError(Exception):
    """An internal invariant broke mid-run (a bug, not a user error)."""


_WORKLOAD_SPEC_FIELDS = {"ops_per_client", "append_ratio", "payloads"}
_PAYLOAD_KINDS = ("token", "account")
_ACCOUNT_DEFAULTS = {"accounts": ["A"], "max_amount": 10}  # an account payload's omitted fields


@dataclass(frozen=True)
class Scenario:
    """Validated, normalized description of one run: its fields and JSON defaults."""

    n: int
    f: int
    clients: int
    mode: str
    workload: object  # explicit per-client op lists or a generator spec
    seed: int = 0
    max_delay: int = 10
    probe_gets: int = 2
    crash_schedule: object = ()  # explicit [(server, t)] or {"random": {...}}
    client_crashes: tuple = ()
    predicate: ValidityPredicate | None = None

    def to_dict(self) -> dict:
        """The scenario as JSON values; json writes its stored tuples as arrays."""
        out = {name: getattr(self, name) for name in _SCENARIO_FIELDS}
        if (pred := out.pop("predicate")) is not None:
            out["predicate"] = predicate_to_config(pred)
        return out

    @cached_property
    def sha256(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def meta_json(self, probe_from_t: int | None) -> str:
        """The text of a run's meta.json: ``json.dumps(meta, sort_keys=True,
        indent=1)`` and a newline, with the scenario block encoded once."""
        return (f'{{\n "probe_from_t": {json.dumps(probe_from_t)},\n'
                f' "scenario": {self._meta_block},\n'
                f' "scenario_sha256": "{self.sha256}",\n "seed": {self.seed}\n}}\n')

    @cached_property
    def _meta_block(self) -> str:
        # indent=1 runs json's pure-Python encoder.  JSON strings escape
        # newlines, so every newline here is indentation, deepened one level.
        return json.dumps(self.to_dict(), sort_keys=True, indent=1).replace("\n", "\n ")

    def with_seed(self, seed: int) -> "Scenario":
        return dataclasses.replace(
            self, seed=_uint(seed, "seed must be an unsigned 64-bit integer", below=2 ** 64))


_SCENARIO_FIELDS = [f.name for f in dataclasses.fields(Scenario)]
_SCENARIO_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Scenario)
                      if f.default is not dataclasses.MISSING}


def _uint(v, message: str, *, minimum: int = 0, below: float = math.inf) -> int:
    """Return ``v`` if it is an integer (bools excluded) in [minimum, below).

    Otherwise raise ``ConfigError(message.format(v))``.
    """
    if not is_int(v) or not minimum <= v < below:
        raise ConfigError(message.format(v))
    return v


def _is_list(v) -> bool:
    """A sequence that is not a string: what a JSON array loads as."""
    return isinstance(v, Sequence) and not isinstance(v, (str, bytes))


def _require_uint(obj: Mapping, key: str, *, minimum: int = 0) -> int:
    return _uint(obj[key], f"scenario field {key!r} must be an integer >= {minimum}",
                 minimum=minimum)


def scenario_from_dict(obj: Mapping) -> Scenario:
    """Parse and validate a scenario object; unknown fields are rejected."""
    if not isinstance(obj, Mapping):
        raise ConfigError("scenario must be a JSON object")
    unknown = set(obj).difference(_SCENARIO_FIELDS)
    if unknown:
        raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
    obj = {**_SCENARIO_DEFAULTS, **obj}
    for name in _SCENARIO_FIELDS:
        if name not in obj:
            raise ConfigError(f"scenario missing required field {name!r}")

    n = _require_uint(obj, "n", minimum=1)
    f = _require_uint(obj, "f")
    clients = _require_uint(obj, "clients", minimum=1)
    mode = obj["mode"]
    if mode not in protocols.MODES:
        raise ConfigError(f"mode must be one of {protocols.MODES}, got {mode!r}")
    # Every mode runs over the total-order broadcast service, which needs a
    # majority of servers to survive; this also refuses every f >= n.
    if 2 * f >= n:
        raise ConfigError(
            f"f={f} with n={n} violates the broadcast service's majority "
            f"requirement (need f < n/2)")

    seed = _uint(obj["seed"], "seed must be an unsigned 64-bit integer", below=2 ** 64)
    # A delay draw reads one 32-bit word of the network RNG (see _delay_chunks).
    max_delay = _uint(obj["max_delay"], "max_delay must be an integer in [1, 2**32)",
                      minimum=1, below=2 ** 32)
    probe_gets = _uint(obj["probe_gets"], "probe_gets must be a non-negative integer")

    workload = _validate_workload(obj["workload"], clients)
    crash_schedule = _validate_crashes(obj["crash_schedule"], n, f)
    client_crashes = _crash_entries(obj["client_crashes"], clients, "client")

    predicate = None
    if obj["predicate"] is not None:
        try:
            predicate = predicate_from_config(obj["predicate"])
        except ValueError as e:
            raise ConfigError(str(e)) from e

    return Scenario(n=n, f=f, clients=clients, mode=mode, seed=seed,
                    max_delay=max_delay, probe_gets=probe_gets, workload=workload,
                    crash_schedule=crash_schedule, client_crashes=client_crashes,
                    predicate=predicate)


def _validate_workload(workload, clients: int):
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
            extra = set(payloads) - {"kind", *_ACCOUNT_DEFAULTS}
            if extra:
                raise ConfigError(f"unknown payload fields: {sorted(extra)}")
            accounts = payloads.get("accounts", _ACCOUNT_DEFAULTS["accounts"])
            if not (isinstance(accounts, list) and accounts and all(
                    isinstance(a, str) and a and ":" not in a for a in accounts)):
                raise ConfigError("workload.payloads.accounts must be a non-empty list "
                                  "of non-empty account names without ':'")
            _uint(payloads.get("max_amount", _ACCOUNT_DEFAULTS["max_amount"]),
                  "workload.payloads.max_amount must be a non-negative integer")
        elif set(payloads) - {"kind"}:
            raise ConfigError("token payloads take no extra fields")
        return {"ops_per_client": ops, "append_ratio": float(ratio),
                "payloads": dict(payloads)}
    if _is_list(workload):
        if len(workload) != clients:
            raise ConfigError(f"explicit workload must list ops for all {clients} clients")
        parsed = []
        for ops in workload:
            if not _is_list(ops):
                raise ConfigError(f"a client's ops must be a list, got {ops!r}")
            parsed.append(tuple(map(_parse_workload_op, ops)))
        return tuple(parsed)
    raise ConfigError("workload must be a generator spec or per-client op lists")


def _parse_workload_op(op) -> tuple[str, str | None]:
    if not (_is_list(op) and len(op) == 2):
        raise ConfigError(f"malformed workload op {op!r}")
    kind, payload = op
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
    entries = _crash_entries(crashes, n, "server")
    if len(entries) > f:
        raise ConfigError(f"{len(entries)} crashes requested but tolerance bound is f={f}")
    return entries


def _crash_entries(crashes, bound: int, label: str):
    """Validate explicit [[id, time], ...] crash entries for the ``label``
    processes, "server" or "client": ids lie in [0, bound) and appear at most
    once, and times are non-negative.  Each error message names the label and
    the offending value, as in ``server crash id 7 out of range``."""
    if not _is_list(crashes):
        raise ConfigError(f"{label} crashes must be a list of [id, time] entries")
    entries = []
    seen: set[int] = set()
    for entry in crashes:
        if not (_is_list(entry) and len(entry) == 2):
            raise ConfigError(f"malformed {label} crash entry {entry!r}")
        pid = _uint(entry[0], f"{label} crash id {{!r}} out of range", below=bound)
        t = _uint(entry[1], f"{label} crash time {{!r}} must be a non-negative integer")
        if pid in seen:
            raise ConfigError(f"{label} {pid} crashed twice in the schedule")
        seen.add(pid)
        entries.append((pid, t))
    return tuple(entries)


def generate_workload(spec: Mapping, clients: int, seed: int) -> list[list[tuple[str, str | None]]]:
    """Expand a generator spec into explicit per-client operation lists."""
    rng = random.Random(f"workload:{seed}")
    ratio = spec["append_ratio"]
    payloads = {**_ACCOUNT_DEFAULTS, **spec["payloads"]}
    out = []
    for cid in range(clients):
        ops: list[tuple[str, str | None]] = []
        for i in range(spec["ops_per_client"]):
            if rng.random() < ratio:
                if payloads["kind"] == "account":
                    action = rng.choice(("deposit", "withdraw"))
                    acct = rng.choice(payloads["accounts"])
                    amount = rng.randint(0, payloads["max_amount"])
                    ops.append(("append", f"{action}:{acct}:{amount}"))
                else:
                    ops.append(("append", f"w{cid}.{i}"))
            else:
                ops.append(("get", None))
        out.append(ops)
    return out


def expand_crashes(schedule, n: int, seed: int) -> list[tuple[int, int]]:
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
    history, the broadcast trace and the meta block, formatted from
    ``scenario`` and ``probe_from_t`` (the probe phase's start time, None
    without probes).  ``scenario`` is the run's scenario, parsed once (from
    ``meta.json`` on a loaded artifact).  ``states`` (each server's final
    replica) is never written, and it is None on a loaded artifact.
    ``paired`` is ``history`` paired into (completed, pending) ops by the
    first checker that needs it, for every later one; a
    ``dataclasses.replace`` copy starts without it."""

    history: list[HistoryEvent]
    abtrace: AbTrace
    states: dict[int, tuple[Record, ...]] | None
    probe_from_t: int | None
    scenario: Scenario
    paired: tuple[list[Op], list[Op]] | None = field(default=None, init=False, compare=False)

    def write(self, outdir: str | Path) -> Path:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "history.jsonl").open("w") as f:
            f.writelines(history_lines(self.history))
        with (out / "abtrace.jsonl").open("w") as f:
            f.writelines(self.abtrace.lines())
        (out / "meta.json").write_text(self.scenario.meta_json(self.probe_from_t))
        return out


def load_artifact(artifact_dir: str | Path) -> RunArtifact:
    d = Path(artifact_dir)
    try:
        meta = ARTIFACT_JSON.decode((d / "meta.json").read_text())
        fields = {"probe_from_t", "scenario", "scenario_sha256", "seed"}
        if not (isinstance(meta, dict) and meta.keys() == fields):
            raise ValueError(f"meta.json must hold exactly the fields {sorted(fields)}")
        scenario = scenario_from_dict(meta["scenario"])
        if meta["scenario_sha256"] != scenario.sha256:
            raise ValueError("scenario_sha256 does not match the scenario")
        if not (is_int(meta["seed"]) and meta["seed"] == scenario.seed):
            raise ValueError("seed does not match the scenario")
        probe_from_t = meta["probe_from_t"]
        if not (is_int(probe_from_t) if scenario.probe_gets else probe_from_t is None):
            raise ValueError("probe_from_t must be null exactly when probe_gets is 0, else an int")
        history = events_from_jsonl((d / "history.jsonl").read_text())
        abtrace = trace_from_jsonl((d / "abtrace.jsonl").read_text(), scenario.n)
    except FileNotFoundError as e:
        raise ConfigError(f"artifact incomplete: missing {Path(e.filename).name}") from e
    except OSError as e:
        raise ConfigError(f"artifact unreadable: {e}") from e
    except (AttributeError, ConfigError, KeyError, RecursionError, TypeError, ValueError) as e:
        raise ConfigError(f"artifact corrupt: {type(e).__name__}: {e}") from e
    return RunArtifact(history, abtrace, None, probe_from_t, scenario)


def _delay_chunks(getrandbits, max_delay: int):
    """Successive ``randint(1, max_delay)`` values of the RNG behind
    ``getrandbits``, a list per chunk of 64 to 4096 words.  For
    ``max_delay < 2**32`` randint's draw is the top ``max_delay.bit_length()``
    bits of one word, kept iff below ``max_delay``, and word i of
    ``getrandbits(32*m)`` sits at bits 32i..32i+31."""
    shift = 32 - max_delay.bit_length()
    m = 64
    while True:
        words = struct.unpack(f"<{m}I", getrandbits(32 * m).to_bytes(4 * m, "little"))
        yield [1 + r for w in words if (r := w >> shift) < max_delay]
        m = min(2 * m, 4096)


class Simulator:
    """Calendar-queue event loop (R. Brown, CACM 1988): a slot of ``(handler,
    args)`` per due time, in filing order, and a heap of the due times.  A slot
    runs in order, with what is filed into it meanwhile, so events run in
    (time, scheduling order).  It is the ``net`` of every server, client and the
    broadcast service: ``now`` (sim time), ``order`` (the run's record order,
    see `protocols`), ``trace`` (the `AbTrace`: the broadcast service appends
    each broadcast's sender and time and each delivery's time, and a crash sets
    its server's crash time), ``history`` (the clients' `HistoryEvent` list),
    ``schedule(delay, fn, *args)``, ``send(fn, *args)`` (the same after the
    run's next network delay, see `_delay_chunks`) and ``abroadcast(sid,
    payload)``.  There is no message type and no relay: a message is ``send`` of
    its receiver's handler, such as a server's ``on_append``/``on_get`` or a
    client's ``on_response``, with its fields as the arguments.

    A Simulator runs once.  ``run`` drops its ``servers``, ``clients`` and
    ``abroadcast`` before it returns, and a crashed server drops what it
    awaits (`Server.crash`), so a finished run holds no reference cycle and
    is freed by reference counting alone.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.now = 0
        self._slots: dict[int, list[tuple]] = {}  # due time -> [(fn, args)]
        self._times: list[int] = []  # heap of the due times in _slots
        self._delays = chain.from_iterable(_delay_chunks(
            random.Random(f"net:{scenario.seed}").getrandbits, scenario.max_delay))
        self.trace = AbTrace.empty(scenario.n)
        self.history: list[HistoryEvent] = []
        self.order = Ledger()

        self.servers = [protocols.Server(scenario.mode, sid, self)
                        for sid in range(scenario.n)]
        self.abroadcast = BroadcastService(self.servers, self).broadcast

        workload = scenario.workload
        if isinstance(workload, dict):
            workload = generate_workload(workload, scenario.clients, scenario.seed)
        self.clients = [
            protocols.Client(cid, scenario.mode,
                             [self.servers[sid] for sid in
                              protocols.server_subset(cid, scenario.n, scenario.f)],
                             self, ops=list(workload[cid]), pred=scenario.predicate)
            for cid in range(scenario.clients)]

    # -- the network: what servers, clients and the broadcast service call -----

    def schedule(self, delay: int, fn, *args) -> None:
        assert delay >= 0, "cannot schedule into the past"
        t = self.now + delay
        slot = self._slots.get(t)
        if slot is None:
            self._slots[t] = [(fn, args)]
            heapq.heappush(self._times, t)
        else:
            slot.append((fn, args))

    def send(self, fn, *args) -> None:
        # schedule(next(self._delays), fn, *args), filed here in one step
        t = self.now + next(self._delays)
        slot = self._slots.get(t)
        if slot is None:
            self._slots[t] = [(fn, args)]
            heapq.heappush(self._times, t)
        else:
            slot.append((fn, args))

    # -- run control ---------------------------------------------------------

    def _crash_server(self, sid: int) -> None:
        if not self.servers[sid].crashed:  # a server's crash time is its first
            self.servers[sid].crash()
            self.trace.crash[sid] = self.now

    def _drain(self) -> None:
        slots, times = self._slots, self._times
        while times:
            self.now = t = heapq.heappop(times)
            # The iterator re-reads the length: it runs what is filed meanwhile.
            for fn, args in slots[t]:
                fn(*args)
            del slots[t]

    def run(self) -> RunArtifact:
        sc = self.scenario
        for sid, t in expand_crashes(sc.crash_schedule, sc.n, sc.seed):
            self.schedule(t, self._crash_server, sid)
        for cid, t in sc.client_crashes:
            self.schedule(t, self.clients[cid].crash)
        for client in self.clients:
            self.schedule(0, client.start)
        self._drain()
        self._check_liveness()

        probe_from_t = None
        if sc.probe_gets > 0:
            probe_from_t = self.now + 1
            for client in self.clients:
                if not client.crashed:
                    client.queue.extend([("get", None)] * sc.probe_gets)
                    self.schedule(1, client.start)
            self._drain()
            self._check_liveness()

        states = {sid: s.replica.get()[:s.length] for sid, s in enumerate(self.servers)}
        # Build the trace's row view inside the run: perfbench's tracer
        # counts its rows off this result in a span outside every layer.
        self.trace.events  # noqa: B018
        # The world refers back to this net; dropping it here leaves no cycle.
        del self.servers, self.clients, self.abroadcast
        return RunArtifact(self.history, self.trace, states, probe_from_t, sc)

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
                  max_delay: int = 10) -> ConsensusResult:
    """Run the propose/decide reduction over an eventual-mode ledger.

    f servers crash at seeded times early in the run (the adversarial case
    for the polling loop).  The scenario is validated before that draw.
    """
    scenario = scenario_from_dict({
        "n": n, "f": f, "clients": len(proposals), "mode": protocols.EVENTUAL,
        "seed": seed, "max_delay": max_delay, "probe_gets": 0,
        "workload": [[] for _ in proposals],
    })
    rng = random.Random(f"crash:{seed}")
    servers = sorted(rng.sample(range(n), f))
    scenario = dataclasses.replace(scenario, crash_schedule=tuple(
        (sid, rng.randint(0, 3 * max_delay)) for sid in servers))

    simulator = Simulator(scenario)
    proposers = [protocols.ProposerClient(c.cid, c.targets, simulator, value=value)
                 for c, value in zip(simulator.clients, proposals)]
    simulator.clients = proposers
    artifact = simulator.run()
    return ConsensusResult(
        proposals={p.cid: value for p, value in zip(proposers, proposals)},
        decisions={p.cid: p.decision for p in proposers},
        artifact=artifact,
    )
