"""Reads are views of one id list, judged as the same reads held as tuples.

* A correct run holds one id list, in memory and loaded: every get's ``seq``
  is an `IdPrefix` view of the same list.
* The atomic, sequential and eventual verdicts (status, tag and witness, or
  the refusal) on a loaded artifact equal those on a copy whose every
  ``seq`` is ``tuple(seq)``: for the pinned scenarios over seeds 0..29, for
  the mutated pinned histories of ``test_history_reference.py``, and for
  pinned histories with a get made to diverge.
"""

import dataclasses
import random

import pytest

from test_history_reference import MUTATIONS, _mutants
from test_pinned_artifacts import SCENARIOS
from ledgerlab import checkers, cli
from ledgerlab.histories import GET, RESPONSE, events_from_jsonl, events_to_jsonl
from ledgerlab.ledger import IdPrefix
from ledgerlab.sim import ConfigError, RunArtifact, load_artifact, run, scenario_from_dict

SEEDS = range(30)
CHECKERS = ("atomic", "sequential", "eventual")


@pytest.fixture(scope="module")
def in_memory():
    """Each pinned scenario at each seed, run."""
    return {(name, seed): run(scenario_from_dict({**SCENARIOS[name], "seed": seed}))
            for name in sorted(SCENARIOS) for seed in SEEDS}


@pytest.fixture(scope="module")
def loaded(in_memory, tmp_path_factory):
    """Each run of ``in_memory``, written and loaded back."""
    out = tmp_path_factory.mktemp("runs")
    return {(name, seed): load_artifact(artifact.write(out / f"{name}-{seed}"))
            for (name, seed), artifact in in_memory.items()}


def _reads(artifact: RunArtifact) -> list:
    return [e.seq for e in artifact.history if e.ev == RESPONSE and e.kind == GET]


def _outcome(name: str, artifact: RunArtifact):
    try:
        v = cli.run_checker(name, artifact)
    except (ConfigError, checkers.CheckerError) as e:
        return type(e).__name__, str(e)
    return v.status, v.violated, v.witness


def assert_judged_as_tuples(artifact: RunArtifact) -> list:
    """The verdicts on ``artifact`` and on its tuple copy are equal; returns them."""
    tupled = dataclasses.replace(artifact, history=[
        e if e.seq is None else dataclasses.replace(e, seq=tuple(e.seq)) for e in artifact.history])
    assert all(type(seq) is tuple for seq in _reads(tupled))
    outcomes = [_outcome(name, artifact) for name in CHECKERS]
    assert outcomes == [_outcome(name, tupled) for name in CHECKERS]
    return outcomes


def assert_one_id_list(artifacts: dict) -> None:
    for key, artifact in artifacts.items():
        reads = _reads(artifact)
        assert reads, key
        assert all(type(seq) is IdPrefix for seq in reads), key
        assert len({id(seq.ids) for seq in reads}) == 1, key


def test_a_loaded_correct_run_holds_one_id_list(loaded):
    assert_one_id_list(loaded)


def test_an_in_memory_correct_run_holds_one_id_list(in_memory):
    assert_one_id_list(in_memory)


def test_loaded_runs_are_judged_as_their_tuple_copies(loaded):
    statuses = set()
    for artifact in loaded.values():
        statuses.update(outcome[0] for outcome in assert_judged_as_tuples(artifact))
    assert "pass" in statuses


def _diverged(history: list, rng: random.Random) -> str:
    """``history`` as JSONL with one get that leaves the order: it skips one
    of its ids, not its last."""
    i = rng.choice([i for i, e in enumerate(history) if e.seq is not None and len(e.seq) > 1])
    seq = list(history[i].seq)
    del seq[rng.randrange(len(seq) - 1)]
    copy = list(history)
    copy[i] = dataclasses.replace(history[i], seq=tuple(seq))
    return events_to_jsonl(copy)


@pytest.mark.parametrize("scenario", ["atomic", "eventual"])
def test_mutated_histories_are_judged_as_their_tuple_copies(scenario):
    artifact = run(scenario_from_dict(SCENARIOS[scenario]))
    text = events_to_jsonl(artifact.history)
    rng = random.Random(f"diverged:{scenario}")
    mutants = [mutant for mutation in sorted(MUTATIONS) for mutant in _mutants(text, mutation)]
    mutants += [_diverged(artifact.history, rng) for _ in range(30)]
    diverging = failed = 0
    for mutant in mutants:
        try:
            events = events_from_jsonl(mutant)
        except ValueError:
            continue
        loaded = dataclasses.replace(artifact, history=events, states=None)
        diverging += any(type(seq) is tuple for seq in _reads(loaded))
        failed += "fail" in [outcome[0] for outcome in assert_judged_as_tuples(loaded)]
    assert diverging and failed
