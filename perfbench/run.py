"""ledgerlab benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 20 --trace 0

Run from the root of a source tree; the benchmark imports ledgerlab from its
``src/`` directory. It prints one line per metric (name, value, unit) and,
as its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a traced run with ``--trace 1``. Artifacts and the span log go
to ``.perfbench_out/`` under the root. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "ledgerlab" / "__init__.py").is_file():
    sys.exit(f"perfbench: no ledgerlab sources under {SRC}")
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "seeds_per_s": "1/s",
    "seed_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Fresh interpreters per run for setup_s, spread over the measured window so
# that their median does not hang on one slow moment of a shared host.
SETUP_SPAWNS = 11

# What a fresh `ledgerlab` process does before its first run: import the
# package and parse the scenario.
SETUP_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from ledgerlab import cli, sim
for d in json.load(sys.stdin):
    sim.scenario_from_dict(d)
"""


def setup_seconds(dicts: list[dict]) -> float:
    """Wall time of a fresh interpreter that imports ledgerlab and parses."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)], input=json.dumps(dicts),
                   text=True, capture_output=True, check=True, timeout=60)
    return perf_counter() - t0


class Tally:
    """Ops attempted and failed, summed over every gated unit."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def gate(self, out) -> None:
        attempted, failed = self.wl.gate(out)
        self.attempted += attempted
        self.failed += failed


def run_untraced(wl, seconds: float) -> tuple[dict, dict, Tally]:
    tally = Tally(wl)
    for k in range(wl.warmup_units):
        tally.gate(wl.unit(k)[2])
    dicts = wl.scenario_dicts()
    setup_seconds(dicts)  # the first one may compile bytecode in a fresh checkout
    setups: list[float] = []
    gc.collect()
    samples: list[float] = []
    phases: dict[str, list[float]] = {}
    start = perf_counter()
    deadline = start + seconds
    while len(samples) < wl.min_units or perf_counter() < deadline:
        if perf_counter() >= start + len(setups) * seconds / SETUP_SPAWNS:
            setups.append(setup_seconds(dicts))
        if wl.collect_each_unit:
            gc.collect()
        elapsed, unit_phases, out = wl.unit(len(samples))
        tally.gate(out)
        samples.append(elapsed)
        for name, value in unit_phases.items():
            phases.setdefault(name, []).append(value)
    setups += [setup_seconds(dicts) for _ in range(SETUP_SPAWNS - len(setups))]
    e2e = {
        "setup_s": statistics.median(setups),
        "seeds_per_s": len(samples) / sum(samples),
        "seed_p50_ms": statistics.median(samples) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
    # Not bounded: a run of check-large or read-repair holds too few seeds for
    # any seed to lie beyond the 99th percentile, which is then the slowest one.
    report["seed_p99_ms"] = (tracing.nearest_rank(samples, 0.99) * 1e3, "ms")
    report["seed_samples"] = (len(samples), "count")
    units = {"run_s": "s", "check_s": "s", "appends_per_s": "1/s"}
    for name, values in phases.items():
        report[name] = (statistics.median(values), units[name])
    if wl.dir is not None:
        report["artifact_bytes"] = (workloads.artifact_bytes(wl.dir), "bytes")
    return e2e, report, tally


def run_traced(wl, seconds: float) -> tuple[dict, dict, Tally]:
    """Alternate untraced and traced passes over the same seeds until the
    window closes; per-layer numbers come from the traced passes only."""
    tally = Tally(wl)
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    for k in range(wl.warmup_units):
        tally.gate(wl.unit(k)[2])
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        gc.collect()
        elapsed = 0.0
        for k in range(wl.trace_units):
            if wl.collect_each_unit:
                gc.collect()
            t0 = perf_counter()
            out = wl.unit(k)[2]
            elapsed += perf_counter() - t0
            tally.gate(out)
        untraced.append(elapsed)

        gc.collect()
        first = len(tracer.spans)
        outs = []
        with tracing.installed(tracer):
            for k in range(wl.trace_units):
                if wl.collect_each_unit:
                    gc.collect()
                outs.append(tracer.root(wl.seed_of(k), wl.unit, k)[2])
        traced.append(sum(s[2] - s[1] for s in tracer.spans[first:]
                          if s[0] == tracing.ROOT_SPAN))
        for out in outs:
            tally.gate(out)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-{wl.seed_of(0)}.jsonl")
    layers = tracing.layer_metrics(tracer.spans, statistics.median(untraced),
                                   statistics.median(traced))
    report = {name: (value, tracing.LAYER_UNITS[name]) for name, value in layers.items()}
    self_s, _ = tracing.self_times(tracer.spans)
    layers_s = sum(v for name, v in self_s.items()
                   if name not in (tracing.ROOT_SPAN, tracing.COUNT_SPAN))
    report["trace.layer_share"] = (layers_s / sum(traced), "frac")
    report["trace.passes"] = (len(traced), "count")
    return layers, report, tally


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = workloads.FULL) -> tuple[dict, dict]:
    """Run one workload; return (result object, report of every metric)."""
    wl = workloads.WORKLOADS[workload](seed, scale, OUT)
    wl.setup(wl.scenario_dicts())
    metrics, report, tally = (run_traced if trace else run_untraced)(wl, seconds)
    units = tracing.LAYER_UNITS if trace else END_TO_END_UNITS
    report["ops_attempted"] = (tally.attempted, "count")
    report["ops_failed_frac"] = (tally.failed / tally.attempted, "frac")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63 or args.seconds <= 0:
        parser.error("--seed must be a non-negative integer and --seconds positive")
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in report.items():
        print(f"{args.workload:<12} {name:<28} {value:>16.6g} {unit}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
