"""Command-line front end: run scenarios, check artifacts, drive campaigns.

Exit codes are a stable contract: 0 pass, 1 internal error, 2 configuration
error, 3 check failure, 4 property/oracle divergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import checkers, sim
from .abcast import check_abcast_trace
from .histories import pair_events
from .ledger import predicate_from_config
from .sim import ConfigError, RunArtifact, Scenario
from .verdicts import DIVERGENCE, FAIL, Verdict

log = logging.getLogger("ledgerlab.cli")

CHECKER_NAMES = ("atomic", "sequential", "eventual", "vspec", "abcast")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_FAIL = 3
EXIT_DIVERGENCE = 4


def _setup_logging() -> None:
    level = os.environ.get("LEDGERLAB_LOG", "off").lower()
    if level == "debug":
        logging.basicConfig(level=logging.DEBUG)
    elif level == "info":
        logging.basicConfig(level=logging.INFO)
    else:
        logging.basicConfig(level=logging.WARNING)


def load_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    try:
        obj = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"scenario file is not valid JSON: {e}")
    return sim.scenario_from_dict(obj, seed_override=seed_override)


def _pair(events) -> tuple[list, list]:
    """``pair_events``, with a malformed history reported as a corrupt artifact."""
    try:
        return pair_events(events)
    except ValueError as e:
        raise ConfigError(f"artifact corrupt: {e}") from e


def run_checker(name: str, artifact: RunArtifact) -> Verdict:
    """Apply one named checker to a run artifact."""
    if name == "abcast":
        return check_abcast_trace(artifact.abtrace)

    probe_from_t = artifact.meta.get("probe_from_t")
    if name == "eventual":
        if probe_from_t is None:
            raise checkers.CheckerError(
                "eventual checker needs probe gets; re-run with probe_gets > 0")
        workload = [e for e in artifact.history if e.t < probe_from_t]
        probes = [e for e in artifact.history if e.t >= probe_from_t]
        completed, pending = _pair(workload)
        probe_completed, probe_pending = _pair(probes)
        if probe_pending:
            raise checkers.CheckerError("probe phase left incomplete operations")
        return checkers.verify_history(completed, pending, "eventual",
                                       probe_ops=probe_completed)

    completed, pending = _pair(artifact.history)
    if name in ("atomic", "sequential"):
        return checkers.verify_history(completed, pending, name)

    if name == "vspec":
        pred_cfg = artifact.meta.get("scenario", {}).get("predicate")
        if pred_cfg is None:
            raise checkers.CheckerError("vspec checker needs a scenario predicate")
        pred = predicate_from_config(pred_cfg)
        if pending:
            raise checkers.CheckerError("vspec checker needs a complete history")
        ordered = sorted(completed, key=lambda op: op.invoke_i)
        for a, b in zip(ordered, ordered[1:]):
            if not a.precedes(b):
                raise checkers.CheckerError(
                    "vspec checker needs a sequential (non-concurrent) history")
        return checkers.check_validated_spec(ordered, pred)

    raise ConfigError(f"unknown checker {name!r}; choose from {CHECKER_NAMES}")


def _verdict_exit(v: Verdict) -> int:
    if v.status == DIVERGENCE:
        return EXIT_DIVERGENCE
    if v.status == FAIL:
        return EXIT_FAIL
    return EXIT_OK


# -- subcommands --------------------------------------------------------------

def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, args.seed)
    artifact = sim.run(scenario)
    out = artifact.write(args.out)
    events = artifact.history
    invoked = sum(1 for e in events if e.ev == "invoke")
    completed = sum(1 for e in events if e.ev == "response")
    appended = sum(1 for e in events if e.ev == "response" and e.kind == "append"
                   and e.result == "ack")
    crashes = sum(1 for e in artifact.abtrace.events if e.kind == "crash")
    print(f"run seed={scenario.seed} mode={scenario.mode} "
          f"ops={completed}/{invoked} appended={appended} crashes={crashes} out={out}")
    return EXIT_OK


def cmd_check(args) -> int:
    artifact = sim.load_artifact(args.artifact)
    verdict = run_checker(args.checker, artifact)
    out = Path(args.artifact) / "verdict.json"
    out.write_text(json.dumps(verdict.to_json(args.checker)) + "\n")
    summary = verdict.status
    if verdict.violated:
        summary += f" violated={verdict.violated} witness={verdict.witness}"
    print(f"check {args.checker}: {summary}")
    return _verdict_exit(verdict)


def _campaign_worker(payload: tuple[str, int, tuple[str, ...]]) -> dict:
    scenario_json, seed, names = payload
    row: dict = {"seed": seed, "verdicts": {}}
    try:
        scenario = sim.scenario_from_dict(json.loads(scenario_json), seed_override=seed)
        artifact = sim.run(scenario)
        for name in names:
            row["verdicts"][name] = run_checker(name, artifact).to_json(name)
    except Exception as e:  # recorded, campaign continues
        row["error"] = f"{type(e).__name__}: {e}"
    return row


def run_campaign(scenario: Scenario, start: int, count: int,
                 names: tuple[str, ...], jobs: int = 1) -> dict:
    """Run `count` seeded scenarios and the requested checkers on each."""
    t0 = time.monotonic()
    scenario_json = json.dumps(scenario.to_dict())
    payloads = [(scenario_json, start + i, names) for i in range(count)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_campaign_worker, payloads, chunksize=16))
    else:
        rows = [_campaign_worker(p) for p in payloads]

    aggregate = {name: {"pass": 0, "fail": 0, "divergence": 0, "error": 0}
                 for name in names}
    failing = []
    for row in rows:
        if "error" in row:
            for name in names:
                aggregate[name]["error"] += 1
            failing.append({"seed": row["seed"], "error": row["error"]})
            continue
        bad = {}
        for name in names:
            status = row["verdicts"][name]["status"]
            aggregate[name][status] += 1
            if status != "pass":
                bad[name] = {k: row["verdicts"][name].get(k)
                             for k in ("status", "violated", "witness")}
        if bad:
            failing.append({"seed": row["seed"], "checkers": bad})
    return {
        "scenario_sha256": scenario.sha256(),
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
        if "error" in entry:
            lines.append(f"seed {entry['seed']}: ERROR {entry['error']}")
        else:
            parts = [f"{name}={v['status']}({v.get('violated')})"
                     for name, v in entry["checkers"].items()]
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
    names = tuple(args.checker or ("atomic",))
    for name in names:
        if name not in CHECKER_NAMES:
            raise ConfigError(f"unknown checker {name!r}; choose from {CHECKER_NAMES}")
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)

    report = run_campaign(scenario, start, count, names, jobs=jobs)
    text = format_report(report)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
        (out / "report.txt").write_text(text + "\n")

    if any(report["aggregate"][n]["divergence"] for n in names):
        return EXIT_DIVERGENCE
    if any(report["aggregate"][n]["fail"] or report["aggregate"][n]["error"] for n in names):
        return EXIT_FAIL
    return EXIT_OK


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
    _setup_logging()
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
