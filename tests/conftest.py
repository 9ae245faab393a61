import heapq
import math

import pytest
from hypothesis import settings

from ledgerlab.abcast import AbTrace
from ledgerlab.histories import Op
from ledgerlab.sim import scenario_from_dict

# `--hypothesis-profile=ci` replays the same examples on every run, so a
# failure seen in a CI log reproduces locally.
settings.register_profile("ci", derandomize=True)
# `--hypothesis-profile=deep` runs the differential tests that guard the event
# loop and the broadcast checker on many more examples, just as reproducibly.
settings.register_profile("deep", derandomize=True, max_examples=2000)


def op(op_id, kind, inv, res=math.inf, *, seq=None, result="ack", payload=None):
    """Build a checker Op by hand; op ids look like '<client>.<counter>'."""
    return Op(
        op_id=op_id, client=int(op_id.split(".")[0]), kind=kind,
        invoke_i=inv, invoke_t=inv, response_i=res,
        response_t=None if res is math.inf else res,
        payload=payload,
        result=result if kind == "append" and res is not math.inf else None,
        seq=tuple(seq) if seq is not None else None,
    )


def scenario(**overrides):
    base = {
        "n": 3, "f": 1, "clients": 2, "mode": "atomic", "seed": 0,
        "workload": {"ops_per_client": 6, "append_ratio": 0.6},
    }
    base.update(overrides)
    return scenario_from_dict(base)


@pytest.fixture
def mk_scenario():
    return scenario


class HeapLoop:
    """An event loop as a heap of (due time, insertion count) keys: the order
    the simulator's calendar queue must reproduce.  ``send`` files after
    ``rng.randint(1, max_delay)`` ticks, as the simulator's delay stream does."""

    def __init__(self, rng, max_delay):
        self.now = 0
        self._heap = []
        self._count = 0
        self._rng = rng
        self._max_delay = max_delay

    def schedule(self, delay, fn, *args):
        self._count += 1
        heapq.heappush(self._heap, (self.now + delay, self._count, fn, args))

    def send(self, fn, *args):
        self.schedule(self._rng.randint(1, self._max_delay), fn, *args)

    def _drain(self):
        while self._heap:
            self.now, _, fn, args = heapq.heappop(self._heap)
            fn(*args)


def columnar(n, rows):
    """The `AbTrace` of n servers holding ``rows`` of (kind, server, t[, msg]).

    A row trace has a columnar form only when its broadcasts are numbered 0,
    1, ... in row order, since a message's number is its broadcast's index,
    and each server's deliveries are of 0, 1, ... in row order; any other
    raises ValueError.  A server's first crash row is its crash time.
    """
    trace = AbTrace.empty(n)
    for kind, server, t, *msg in rows:
        if kind == "crash":
            if trace.crash[server] is None:
                trace.crash[server] = t
            continue
        times = trace.t if kind == "broadcast" else trace.delivered[server]
        if msg != [len(times)]:
            raise ValueError(f"{kind} of {msg} at s{server} is not numbered {len(times)}")
        times.append(t)
        if kind == "broadcast":
            trace.sender.append(server)
    return trace
