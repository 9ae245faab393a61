"""The consistency levels, separated on the protocols' own runs.

The paper's levels are ordered: an atomic history is sequentially
consistent, and a sequentially consistent one is eventually consistent.
Over seeds 0..199 of the campaign shape, each mode's runs are judged by all
three history checkers.  Each mode must pass its own checker and every
weaker one, and the weaker modes must fail the stronger checkers on the
committed counts: the hierarchy is strict on these runs, not only claimed.
What each level costs is pinned beside it, as workload latencies in ticks.
"""

import math

import pytest

from ledgerlab.histories import pair_events
from ledgerlab.protocols import MODES
from ledgerlab.sim import run

from conftest import scenario
from test_mutants import CAMPAIGN, violations

SEEDS = 200
# Weakest first: a mode passes its own checker and those before it.
LEVELS = ("eventual", "sequential", "atomic")

# run mode -> checker -> (its first failing seed, tag -> failing seeds), of seeds 0..199
SEPARATION = {
    "eventual": {"atomic": (0, {"A2": 188}), "sequential": (0, {"S3": 182}),
                 "eventual": (None, {})},
    "sequential": {"atomic": (0, {"A2": 4}), "sequential": (None, {}), "eventual": (None, {})},
    "atomic": {"atomic": (None, {}), "sequential": (None, {}), "eventual": (None, {})},
}


def test_the_table_covers_every_mode_and_checker():
    assert set(LEVELS) == set(MODES) == SEPARATION.keys()
    assert all(row.keys() == set(LEVELS) for row in SEPARATION.values())


@pytest.mark.parametrize("mode", LEVELS)
def test_each_mode_separates_from_the_stronger_levels(mode):
    counts = violations(mode, LEVELS, SEEDS)
    assert counts == SEPARATION[mode]
    level = LEVELS.index(mode)
    assert all(counts[checker] == (None, {}) for checker in LEVELS[:level + 1])
    assert all(counts[checker][1] for checker in LEVELS[level + 1:])


# run mode -> op kind -> nearest-rank (p50, p99) of its workload ops' latency
# in ticks (response t - invoke t), over seeds 0..199; probes left out
LATENCY = {
    "eventual": {"append": (9, 18), "get": (9, 18)},
    "sequential": {"append": (13, 25), "get": (9, 18)},
    "atomic": {"append": (14, 25), "get": (14, 24)},
}


def nearest_rank(ticks, p):
    return sorted(ticks)[math.ceil(p / 100 * len(ticks)) - 1]


@pytest.mark.parametrize("mode", LEVELS)
def test_each_mode_pays_its_committed_latency(mode):
    ticks = {"append": [], "get": []}
    for seed in range(SEEDS):
        art = run(scenario(mode=mode, **{**CAMPAIGN, "seed": seed}))
        for o in pair_events(art.history)[0]:
            if o.invoke_t < art.probe_from_t:
                ticks[o.kind].append(o.response_t - o.invoke_t)
    assert {kind: (nearest_rank(t, 50), nearest_rank(t, 99)) for kind, t in ticks.items()} \
        == LATENCY[mode]
