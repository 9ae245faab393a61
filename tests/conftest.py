import math

import pytest
from hypothesis import settings

from ledgerlab.histories import Op
from ledgerlab.sim import scenario_from_dict

# `--hypothesis-profile=ci` replays the same examples on every run, so a
# failure seen in a CI log reproduces locally.
settings.register_profile("ci", derandomize=True)


def op(op_id, kind, inv, res=math.inf, *, seq=None, result="ack", payload=None):
    """Build a checker Op by hand; op ids look like '<client>.<counter>'."""
    client_s, c_s = op_id.split(".")
    return Op(
        op_id=op_id, client=int(client_s), kind=kind, c=int(c_s),
        invoke_i=inv, invoke_t=inv, response_i=res,
        response_t=None if res is math.inf else res,
        payload=payload, rid=op_id if kind == "append" else None,
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
