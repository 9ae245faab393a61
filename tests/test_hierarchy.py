"""The consistency levels, separated on the protocols' own runs.

The paper's levels are ordered: an atomic history is sequentially
consistent, and a sequentially consistent one is eventually consistent.
Over seeds 0..199 of the campaign shape, each mode's runs are judged by all
three history checkers.  Each mode must pass its own checker and every
weaker one, and the weaker modes must fail the stronger checkers on the
committed counts: the hierarchy is strict on these runs, not only claimed.
"""

import pytest

from ledgerlab.protocols import MODES

from test_mutants import violations

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
