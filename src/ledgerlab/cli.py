"""Command-line front end: run scenarios, check artifacts, drive campaigns.

Exit codes are a stable contract: 0 pass, 1 internal error, 2 configuration
error, 3 check failure, 4 property/oracle divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import checkers, sim
from .abcast import check_abcast_trace
from .histories import APPEND, ARTIFACT_JSON, GET, INVOKE, RESPONSE, pair_events
from .ledger import ACK
from .sim import ConfigError, RunArtifact, Scenario
from .verdicts import DIVERGENCE, FAIL, PASS, Verdict

CHECKER_NAMES = ("atomic", "sequential", "eventual", "vspec", "abcast")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_FAIL = 3
EXIT_DIVERGENCE = 4
# "error" is a campaign seed that raised before its checker gave a verdict.
EXIT_BY_STATUS = {PASS: EXIT_OK, FAIL: EXIT_FAIL, DIVERGENCE: EXIT_DIVERGENCE, "error": EXIT_FAIL}


def load_scenario(path: str | Path) -> Scenario:
    try:
        obj = ARTIFACT_JSON.decode(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"scenario file unreadable: {e}")
    except (RecursionError, ValueError) as e:  # not UTF-8, too deep, or an int too long
        raise ConfigError(f"scenario file is not valid JSON: {e}")
    return sim.scenario_from_dict(obj)


def _paired(artifact: RunArtifact) -> tuple[list, list]:
    """The artifact's history paired once, by ``pair_events``, with a malformed
    history reported as a corrupt artifact."""
    if artifact.paired is None:
        try:
            artifact.paired = pair_events(artifact.history)
        except ValueError as e:
            raise ConfigError(f"artifact corrupt: {e}") from e
    return artifact.paired


_NO_PROBES = "eventual checker needs probe gets; re-run with probe_gets > 0"


def _refuse_unusable(name: str, scenario: Scenario) -> None:
    """Refuse a checker that no run of ``scenario`` can feed."""
    if name == "eventual" and scenario.probe_gets == 0:
        raise checkers.CheckerError(_NO_PROBES)
    if name == "vspec" and scenario.predicate is None:
        raise checkers.CheckerError("vspec checker needs a scenario predicate")


def run_checker(name: str, artifact: RunArtifact) -> Verdict:
    """Apply one named checker to a run artifact."""
    if name == "abcast":
        return check_abcast_trace(artifact.abtrace)

    probe_from_t = artifact.probe_from_t
    if name == "eventual" and probe_from_t is None:
        raise checkers.CheckerError(_NO_PROBES)
    completed, pending = _paired(artifact)
    if name == "eventual":
        workload = [op for op in completed if op.response_t < probe_from_t]
        probes = [op for op in completed if op.invoke_t >= probe_from_t]
        if any((op.response_t < probe_from_t) == (op.invoke_t >= probe_from_t) for op in completed):
            raise ConfigError("artifact corrupt: an operation is not wholly in one phase")
        if any(op.kind != GET for op in probes):
            raise ConfigError("artifact corrupt: the probe phase holds an append")
        if any(op.invoke_t >= probe_from_t for op in pending):
            raise checkers.CheckerError("probe phase left incomplete operations")
        return checkers.verify_history(workload, pending, "eventual", probe_ops=probes)

    if name in ("atomic", "sequential"):
        return checkers.verify_history(completed, pending, name)

    if name == "vspec":
        _refuse_unusable(name, artifact.scenario)
        if pending:
            raise checkers.CheckerError("vspec checker needs a complete history")
        ordered = sorted(completed, key=lambda op: op.invoke_i)
        for a, b in zip(ordered, ordered[1:]):
            if not a.precedes(b):
                raise checkers.CheckerError(
                    "vspec checker needs a sequential (non-concurrent) history")
        return checkers.check_validated_spec(ordered, artifact.scenario.predicate)

    raise ConfigError(f"unknown checker {name!r}; choose from {CHECKER_NAMES}")


# -- subcommands --------------------------------------------------------------

def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    artifact = sim.run(scenario)
    try:
        out = artifact.write(args.out)
    except OSError as e:
        raise ConfigError(f"cannot write the artifact: {e}") from e
    events = artifact.history
    invoked = sum(1 for e in events if e.ev == INVOKE)
    completed = sum(1 for e in events if e.ev == RESPONSE)
    appended = sum(1 for e in events if e.ev == RESPONSE and e.kind == APPEND
                   and e.result == ACK)
    crashes = sum(t is not None for t in artifact.abtrace.crash)
    print(f"run seed={scenario.seed} mode={scenario.mode} "
          f"ops={completed}/{invoked} appended={appended} crashes={crashes} out={out}")
    return EXIT_OK


def cmd_check(args) -> int:
    artifact = sim.load_artifact(args.artifact)
    verdict = run_checker(args.checker, artifact)
    try:
        (Path(args.artifact) / "verdict.json").write_text(
            json.dumps(verdict.to_json(args.checker)) + "\n")
    except OSError as e:
        raise ConfigError(f"cannot write the verdict: {e}") from e
    summary = verdict.status
    if verdict.violated:
        summary += f" violated={verdict.violated} witness={verdict.witness}"
    print(f"check {args.checker}: {summary}")
    return EXIT_BY_STATUS[verdict.status]


def _campaign_worker(payload: tuple[Scenario, int, tuple[str, ...]]) -> dict:
    scenario, seed, names = payload
    row: dict = {"seed": seed, "verdicts": {}}
    try:
        artifact = sim.run(scenario.with_seed(seed))
        for name in names:
            row["verdicts"][name] = run_checker(name, artifact).to_json(name)
    except Exception as e:  # recorded, campaign continues
        row["error"] = f"{type(e).__name__}: {e}"
    return row


def run_campaign(scenario: Scenario, start: int, count: int,
                 names: tuple[str, ...], jobs: int = 1) -> dict:
    """Run `count` seeded scenarios and the requested checkers on each, in at
    most ``min(jobs, count)`` worker processes."""
    t0 = time.monotonic()
    names = tuple(dict.fromkeys(names))  # a repeated checker is run and counted once
    payloads = [(scenario, start + i, names) for i in range(count)]
    jobs = min(jobs, count)
    if jobs > 1:
        # imported here: it loads multiprocessing, which nothing else needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_campaign_worker, payloads, chunksize=16))
    else:
        rows = [_campaign_worker(p) for p in payloads]

    aggregate = {name: dict.fromkeys(EXIT_BY_STATUS, 0) for name in names}
    failing = []
    for row in rows:
        bad = {}
        for name in names:
            verdict = row["verdicts"].get(name)
            if verdict is None:  # the seed raised before this checker gave one
                aggregate[name]["error"] += 1
                continue
            aggregate[name][verdict["status"]] += 1
            if verdict["status"] != "pass":
                bad[name] = {k: verdict.get(k) for k in ("status", "violated", "witness")}
        entry = {"seed": row["seed"]}
        if bad:
            entry["checkers"] = bad
        if "error" in row:
            entry["error"] = row["error"]
        if len(entry) > 1:
            failing.append(entry)
    return {
        "scenario_sha256": scenario.sha256,
        "seeds": {"start": start, "count": count},
        "checkers": list(names),
        "aggregate": aggregate,
        "failing": failing,
        "rows": rows,
        "elapsed_s": round(time.monotonic() - t0, 3),
    }


def format_report(report: dict) -> str:
    lines = [f"campaign: seeds {report['seeds']['start']}..+{report['seeds']['count']}"
             f" elapsed {report['elapsed_s']}s"]
    lines.append(f"{'checker':<12} {'pass':>6} {'fail':>6} {'diverg':>6} {'error':>6}")
    for name in report["checkers"]:
        agg = report["aggregate"][name]
        lines.append(f"{name:<12} {agg['pass']:>6} {agg['fail']:>6} "
                     f"{agg['divergence']:>6} {agg['error']:>6}")
    for entry in report["failing"][:20]:
        parts = [f"{name}={v['status']}({v.get('violated')})"
                 for name, v in entry.get("checkers", {}).items()]
        if "error" in entry:
            parts.append(f"ERROR {entry['error']}")
        lines.append(f"seed {entry['seed']}: {' '.join(parts)}")
    if len(report["failing"]) > 20:
        lines.append(f"... and {len(report['failing']) - 20} more failing seeds")
    return "\n".join(lines)


def cmd_campaign(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        start_s, count_s = args.seeds.split(":")
        start, count = int(start_s), int(count_s)
    except ValueError:
        raise ConfigError(f"--seeds must look like start:count, got {args.seeds!r}")
    if count < 1:
        raise ConfigError("campaign needs at least one seed")
    if not 0 <= start <= start + count <= 2 ** 64:
        raise ConfigError(f"--seeds {args.seeds} leaves the unsigned 64-bit seed range")
    names = tuple(args.checker or ("atomic",))
    for name in names:
        _refuse_unusable(name, scenario)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")

    out = Path(args.out) if args.out else None
    if out:  # made before any seed runs, so that a bad --out costs no campaign
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot write the report: {e}") from e

    report = run_campaign(scenario, start, count, names, jobs=jobs)
    text = format_report(report)
    print(text)
    if out:
        try:
            (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
            (out / "report.txt").write_text(text + "\n")
        except OSError as e:
            raise ConfigError(f"cannot write the report: {e}") from e

    return max(EXIT_BY_STATUS[status] for agg in report["aggregate"].values()
               for status, count in agg.items() if count)


def cmd_consensus(args) -> int:
    if args.values:
        values = args.values.split(",")
        if len(values) != args.proposers:
            raise ConfigError(f"{len(values)} values for {args.proposers} proposers")
    else:
        values = [f"v{i}" for i in range(args.proposers)]

    result = sim.run_consensus(args.n, args.f, values, args.seed,
                               max_delay=args.max_delay)
    print(f"{'proposer':<9} {'proposed':<12} decided")
    for cid in sorted(result.proposals):
        print(f"{cid:<9} {result.proposals[cid]:<12} {result.decisions[cid]}")

    decisions = list(result.decisions.values())
    terminated = all(d is not None for d in decisions)
    agreement = len(set(decisions)) == 1
    validity = all(d in values for d in decisions)
    print(f"termination={'ok' if terminated else 'VIOLATED'} "
          f"agreement={'ok' if agreement else 'VIOLATED'} "
          f"validity={'ok' if validity else 'VIOLATED'}")
    return EXIT_OK if terminated and agreement and validity else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledgerlab",
        description="replicated ledger simulator and consistency checker")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario and write its artifact")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", required=True, help="artifact output directory")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="verify a run artifact")
    p_check.add_argument("artifact", help="artifact directory from `ledgerlab run`")
    p_check.add_argument("--checker", required=True, choices=CHECKER_NAMES)
    p_check.set_defaults(fn=cmd_check)

    p_camp = sub.add_parser("campaign", help="run a seed range and check every run")
    p_camp.add_argument("--scenario", required=True)
    p_camp.add_argument("--seeds", required=True, metavar="START:COUNT")
    p_camp.add_argument("--checker", action="append", choices=CHECKER_NAMES,
                        help="repeatable; defaults to atomic")
    p_camp.add_argument("--jobs", type=int, default=None,
                        help="parallel runs (default: cpu count)")
    p_camp.add_argument("--out", default=None, help="directory for report.json/report.txt")
    p_camp.set_defaults(fn=cmd_campaign)

    p_cons = sub.add_parser("consensus", help="propose/decide over an eventual-mode ledger")
    p_cons.add_argument("--n", type=int, required=True)
    p_cons.add_argument("--f", type=int, required=True)
    p_cons.add_argument("--proposers", type=int, required=True)
    p_cons.add_argument("--seed", type=int, default=0)
    p_cons.add_argument("--values", default=None, help="comma-separated proposals")
    p_cons.add_argument("--max-delay", type=int, default=10)
    p_cons.set_defaults(fn=cmd_consensus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, checkers.CheckerError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
