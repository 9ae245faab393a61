"""Spans around the calls into each ledgerlab module, kept in memory, and
their reduction to per-layer self times and counts.

The wrappers are installed on module attributes for the length of a traced
pass and removed afterwards; nothing in ``src/`` changes. A span is
``[name, start, end, parent index, seed, info]``. A layer's self time is its
spans' duration minus the part covered by their child spans. The counts that
a wrapper reads off a call's result are taken inside a ``trace.count`` span
of their own, so they land in the tracing overhead and in no layer.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from ledgerlab import abcast, checkers, cli, histories, ledger, protocols, sim

ROOT_SPAN = "bench.seed"
COUNT_SPAN = "trace.count"

# Every per-layer metric, in print order, with its unit. Times are self times
# per seed; counts are per seed unless the name says otherwise.
LAYER_UNITS = {
    "sim.parse_s": "s",
    "sim.run_s": "s",
    "sim.us_per_event": "us",
    "sim.write_s": "s",
    "sim.load_s": "s",
    "sim.history_bytes": "bytes",
    "sim.abtrace_bytes": "bytes",
    "sim.states_bytes": "bytes",
    "protocols.ops_completed": "count",
    "protocols.ops_pending": "count",
    "protocols.op_ticks_p50": "ticks",
    "protocols.op_ticks_p99": "ticks",
    "protocols.broadcasts_per_op": "count/op",
    "abcast.broadcasts": "count",
    "abcast.deliveries": "count",
    "abcast.check_s": "s",
    "histories.events": "count",
    "histories.pair_events_s": "s",
    "checkers.atomic_s": "s",
    "checkers.sequential_s": "s",
    "checkers.eventual_s": "s",
    "checkers.complete_history_s": "s",
    "checkers.candidates": "count",
    "ledger.filter_valid_s": "s",
    "ledger.filter_valid_calls": "count",
    "ledger.records_per_filter": "count/call",
    "ledger.validated_append_s": "s",
    "cli.campaign_overhead_s": "s",
    "cli.run_checker_s": "s",
    "trace.harness_s": "s",
    "trace.overhead_frac": "frac",
}


def _run_counts(args, artifact) -> dict:
    invoked_at: dict[str, int] = {}
    ticks = []
    for e in artifact.history:
        if e.ev == histories.INVOKE:
            invoked_at[e.op_id] = e.t
        else:
            ticks.append(e.t - invoked_at.pop(e.op_id))
    kinds = Counter(e.kind for e in artifact.abtrace.events)
    return {"history_events": len(artifact.history),
            "events": len(artifact.history) + len(artifact.abtrace.events),
            "completed": len(ticks), "pending": len(invoked_at), "ticks": ticks,
            "broadcasts": kinds[abcast.BROADCAST], "deliveries": kinds[abcast.DELIVER]}


def _file_sizes(args, out: Path) -> dict:
    return {p.name: p.stat().st_size for p in out.iterdir() if p.is_file()}


def _checker_span(args, kwargs) -> str:
    return "checkers." + (args[2] if len(args) > 2 else kwargs["checker"])


# (owner, attribute, span name or name function, count function)
PATCHES = (
    (sim, "scenario_from_dict", "sim.parse", None),
    (sim, "run", "sim.run", _run_counts),
    (sim.RunArtifact, "write", "sim.write", _file_sizes),
    (sim, "load_artifact", "sim.load", None),
    (cli, "run_campaign", "cli.run_campaign", None),
    (cli, "run_checker", "cli.run_checker", None),
    (cli, "pair_events", "histories.pair_events", None),
    (cli, "check_abcast_trace", "abcast.check", None),
    (checkers, "verify_history", _checker_span, None),
    (checkers, "complete_history", "checkers.complete_history",
     lambda args, result: {"n": len(result)}),
    (protocols, "filter_valid", "ledger.filter_valid", lambda args, result: {"n": len(args[0])}),
    (ledger.ValidatedLedger, "append", "ledger.validated_append", None),
)


class Tracer:
    """In-memory span recorder; one caller, so a plain stack gives parents."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.seed: int | None = None
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, count=None):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.seed, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if count is not None:
            counting = [COUNT_SPAN, span[2], 0.0, parent, self.seed, None]
            self.spans.append(counting)
            span[5] = count(args, result)
            counting[2] = perf_counter()
        return result

    def root(self, seed: int, fn, *args):
        """Run one seed's unit under a root span carrying its seed id."""
        self.seed = seed
        return self.call(ROOT_SPAN, fn, args, {})

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return self.call(span_name, fn, args, kwargs, count)
        return traced

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "seed", "info")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Wrap every entry point in PATCHES for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in PATCHES:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> tuple[dict[str, float], Counter]:
    covered: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _, _, _) in enumerate(spans):
        totals[name] += end - start - covered[i]
        calls[name] += 1
    return totals, calls


def nearest_rank(values: list, q: float):
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def layer_metrics(spans: list[list], untraced_s: float, traced_s: float) -> dict[str, float]:
    """Reduce the spans of the traced passes to the metrics in LAYER_UNITS.

    ``untraced_s`` and ``traced_s`` are the wall times of one untraced and
    one traced pass over the same seeds.
    """
    self_s, calls = self_times(spans)
    seeds = calls[ROOT_SPAN]
    info: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            info[span[0]].append(span[5])
    runs = info["sim.run"]
    writes = info["sim.write"]
    filtered = sum(x["n"] for x in info["ledger.filter_valid"])
    ticks = [t for r in runs for t in r["ticks"]]
    ops = sum(r["completed"] + r["pending"] for r in runs)

    def per_seed(x: float) -> float:
        return x / seeds

    def mean(key: str, rows: list[dict]) -> float:
        return sum(r.get(key, 0) for r in rows) / len(rows) if rows else 0

    events = sum(r["events"] for r in runs)
    return {
        "sim.parse_s": per_seed(self_s["sim.parse"]),
        "sim.run_s": per_seed(self_s["sim.run"]),
        "sim.us_per_event": self_s["sim.run"] / events * 1e6 if events else 0,
        "sim.write_s": per_seed(self_s["sim.write"]),
        "sim.load_s": per_seed(self_s["sim.load"]),
        "sim.history_bytes": mean("history.jsonl", writes),
        "sim.abtrace_bytes": mean("abtrace.jsonl", writes),
        "sim.states_bytes": mean("states.json", writes),
        "protocols.ops_completed": mean("completed", runs),
        "protocols.ops_pending": mean("pending", runs),
        "protocols.op_ticks_p50": nearest_rank(ticks, 0.50),
        "protocols.op_ticks_p99": nearest_rank(ticks, 0.99),
        "protocols.broadcasts_per_op": sum(r["broadcasts"] for r in runs) / ops if ops else 0,
        "abcast.broadcasts": mean("broadcasts", runs),
        "abcast.deliveries": mean("deliveries", runs),
        "abcast.check_s": per_seed(self_s["abcast.check"]),
        "histories.events": mean("history_events", runs),
        "histories.pair_events_s": per_seed(self_s["histories.pair_events"]),
        "checkers.atomic_s": per_seed(self_s["checkers.atomic"]),
        "checkers.sequential_s": per_seed(self_s["checkers.sequential"]),
        "checkers.eventual_s": per_seed(self_s["checkers.eventual"]),
        "checkers.complete_history_s": per_seed(self_s["checkers.complete_history"]),
        "checkers.candidates": per_seed(sum(x["n"] for x in info["checkers.complete_history"])),
        "ledger.filter_valid_s": per_seed(self_s["ledger.filter_valid"]),
        "ledger.filter_valid_calls": per_seed(calls["ledger.filter_valid"]),
        "ledger.records_per_filter": (filtered / calls["ledger.filter_valid"]
                                      if calls["ledger.filter_valid"] else 0),
        "ledger.validated_append_s": per_seed(self_s["ledger.validated_append"]),
        "cli.campaign_overhead_s": per_seed(self_s["cli.run_campaign"]),
        "cli.run_checker_s": per_seed(self_s["cli.run_checker"]),
        "trace.harness_s": per_seed(self_s[ROOT_SPAN]),
        "trace.overhead_frac": traced_s / untraced_s - 1,
    }
