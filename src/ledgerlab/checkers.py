"""Offline history verification.

Two routes are provided for the strong consistency levels and they are kept
deliberately independent in spirit:

* property screens -- necessary ordering conditions checked pairwise
  (append/append, append/get, get/get, get/append, under real-time or
  same-client precedence) together with global integrity: no fabricated or
  duplicated record ids and all returned sequences pairwise prefix-related.
* an exhaustive oracle -- for small histories, a pruned DFS over all
  precedence-respecting permutations that replays the sequential ledger and
  accepts iff some permutation reproduces every recorded return value.

When both run and disagree, the verdict is `divergence` rather than silently
trusting either side.  Incomplete histories are handled by candidate
completion: pending gets are dropped, and each pending append is tried both
as taking effect and as never having happened; the history passes if any
candidate does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .histories import APPEND, GET, Op
from .ledger import ACK, NACK, Record, ValidityPredicate
from .verdicts import DIVERGENCE, Verdict, failed, passed

ORACLE_HARD_CAP = 12
ORACLE_AUTO_LIMIT = 10
PENDING_CAP = 8

REALTIME = "realtime"
PER_PROCESS = "per-process"


class CheckerError(Exception):
    """The checker cannot run on this input (not a verdict about the history)."""


class CapacityError(CheckerError):
    """Input exceeds a hard enumeration bound."""


@dataclass(frozen=True)
class CompletedHistory:
    """A complete history candidate: only whole operations remain."""

    ops: tuple[Op, ...]

    @property
    def gets(self) -> list[Op]:
        return [op for op in self.ops if op.kind == GET]

    @property
    def appends(self) -> list[Op]:
        return [op for op in self.ops if op.kind == APPEND]


def complete_history(completed: Sequence[Op], pending: Sequence[Op],
                     cap: int = PENDING_CAP) -> list[CompletedHistory]:
    """Expand an incomplete history into complete candidates.

    Pending gets are removed outright.  Each pending append either took
    effect (kept, with an unreachable response index so it precedes nothing)
    or did not (dropped); all 2^k combinations are produced, most-inclusive
    first.  k is capped because candidates are checked exhaustively.
    """
    pending_appends = [op for op in pending if op.kind == APPEND]
    k = len(pending_appends)
    if k > cap:
        raise CapacityError(
            f"{k} pending appends exceed the completion cap of {cap}; "
            f"re-run with a smaller workload")
    base = list(completed)
    out = []
    for mask in range((1 << k) - 1, -1, -1):
        chosen = [op for i, op in enumerate(pending_appends) if mask >> i & 1]
        ops = sorted(base + chosen, key=lambda op: op.invoke_i)
        out.append(CompletedHistory(tuple(ops)))
    return out


# -- sequential replays ------------------------------------------------------

def check_sequential_spec(ops: Sequence[Op]) -> Verdict:
    """Replay a sequential operation list against the plain ledger behaviour."""
    state: tuple[str, ...] = ()
    for op in ops:
        if op.kind == GET:
            if op.seq != state:
                return failed("SeqSpec", [op.op_id])
        else:
            if op.result != ACK:
                return failed("SeqSpec", [op.op_id])
            state += (op.rid,)
    return passed()


def check_validated_spec(ops: Sequence[Op], pred: ValidityPredicate) -> Verdict:
    """Replay a sequential operation list against the validated ledger behaviour.

    One fold of ``pred`` runs over the acked records.  A nack that the fold
    would have admitted fails at once, so the state that step updated is
    never read.
    """
    state = pred.start()
    rids: list[str] = []
    for op in ops:
        if op.kind == GET:
            if op.seq != tuple(rids):
                return failed("SeqSpec", [op.op_id])
            continue
        if op.result not in (ACK, NACK):
            return failed("SeqSpec", [op.op_id])
        valid = pred.step(state, Record(op.rid, op.client, op.payload or ""))
        if op.result == ACK:
            if not valid:
                return failed("Def5-2a", [op.op_id])
            rids.append(op.rid)
        elif valid:
            return failed("Def5-2b", [op.op_id])
    return passed()


# -- property screens --------------------------------------------------------

def _acked_appends(h: CompletedHistory) -> list[Op]:
    return [op for op in h.appends if op.result == ACK or op.result is None]


def _integrity_and_chain(gets: Sequence[Op], appended: dict[str, Op]) -> Verdict | None:
    """Fabrication, duplicates, and the global prefix chain over get returns."""
    for g in gets:
        seen: set[str] = set()
        for rid in g.seq or ():
            if rid not in appended:
                return failed("Fabrication", [g.op_id, rid])
            if rid in seen:
                return failed("Duplicate", [g.op_id, rid])
            seen.add(rid)
    chain = sorted(gets, key=lambda g: len(g.seq or ()))
    for a, b in zip(chain, chain[1:]):
        if (b.seq or ())[:len(a.seq or ())] != (a.seq or ()):
            return failed("PrefixChain", [a.op_id, b.op_id])
    return None


def _ordering_violation(h: CompletedHistory, same_client_only: bool) -> Verdict | None:
    """The four pairwise conditions, under real-time or same-client precedence.

    Tags are A1..A4 for the real-time variant and S1..S4 for the same-client
    one.  Assumes the prefix chain already passed, so membership and position
    can be read off the longest returned sequence, and prefix direction
    reduces to length comparison.
    """
    tag = {"aa": "S1", "ga": "S2", "ag": "S3", "gg": "S4"} if same_client_only \
        else {"aa": "A1", "ag": "A2", "gg": "A3", "ga": "A4"}
    gets = h.gets
    appends = _acked_appends(h)
    longest: tuple[str, ...] = ()
    longest_get = None
    for g in gets:
        if len(g.seq or ()) >= len(longest):
            longest = g.seq or ()
            longest_get = g
    pos = {rid: i for i, rid in enumerate(longest)}
    membership = {g.op_id: frozenset(g.seq or ()) for g in gets}

    def pairs(xs: Iterable[Op], ys: Iterable[Op]):
        for x in xs:
            for y in ys:
                if x is y or not x.precedes(y):
                    continue
                if same_client_only and x.client != y.client:
                    continue
                yield x, y

    # append -> append: the earlier record sits earlier in every sequence that
    # has the later one (so the later record also implies the earlier one).
    for a1, a2 in pairs(appends, appends):
        p2 = pos.get(a2.rid)
        if p2 is None:
            continue
        p1 = pos.get(a1.rid)
        if p1 is None or p1 > p2:
            return failed(tag["aa"], [a1.op_id, a2.op_id, longest_get.op_id])
    # append -> get: the record is visible.
    for a, g in pairs(appends, gets):
        if a.rid not in membership[g.op_id]:
            return failed(tag["ag"], [a.op_id, g.op_id])
    # get -> get: the earlier one returned a prefix.
    for g1, g2 in pairs(gets, gets):
        if len(g1.seq or ()) > len(g2.seq or ()):
            return failed(tag["gg"], [g1.op_id, g2.op_id])
    # get -> append: the record cannot have been visible yet.
    for g, a in pairs(gets, appends):
        if a.rid in membership[g.op_id]:
            return failed(tag["ga"], [g.op_id, a.op_id])
    return None


def _property_check(h: CompletedHistory, same_client_only: bool) -> Verdict:
    appended = {op.rid: op for op in _acked_appends(h)}
    v = _integrity_and_chain(h.gets, appended)
    if v is not None:
        return v
    v = _ordering_violation(h, same_client_only)
    if v is not None:
        return v
    return passed()


def check_atomic(h: CompletedHistory) -> Verdict:
    """Necessary conditions for linearizability of a ledger history."""
    return _property_check(h, same_client_only=False)


def check_sequential_consistency(h: CompletedHistory) -> Verdict:
    """Necessary conditions for sequential consistency of a ledger history."""
    return _property_check(h, same_client_only=True)


def check_eventual(h: CompletedHistory, probe_ops: Sequence[Op]) -> Verdict:
    """Eventual consistency: a single growing order exists and every
    completed append shows up in every post-quiescence probe get, at one
    agreed position.

    The probe gets are the concrete failure-free extension of the history;
    without them the eventual-inclusion clause cannot be witnessed, so an
    empty probe set is refused.
    """
    if not probe_ops:
        raise CheckerError("eventual checker needs at least one probe get")
    appends = _acked_appends(h)
    appended = {op.rid: op for op in appends}
    all_gets = list(h.gets) + list(probe_ops)
    v = _integrity_and_chain(all_gets, appended)
    if v is not None:
        return v
    probe_pos = [(p, {rid: i for i, rid in enumerate(p.seq or ())}) for p in probe_ops]
    for a in appends:
        expected = None
        for p, pos in probe_pos:
            i = pos.get(a.rid)
            if i is None or (expected is not None and i != expected):
                return failed("ProbeCompleteness", [a.op_id, p.op_id])
            expected = i
    return passed()


# -- exhaustive oracle -------------------------------------------------------

def linearize(h: CompletedHistory, constraint: str = REALTIME,
              limit: int = ORACLE_HARD_CAP) -> list[Op] | None:
    """Search for a precedence-respecting permutation that replays correctly.

    DFS over schedulable operations with the ledger state carried along:
    an append extends the state, a get is schedulable only when its returned
    sequence equals the state exactly.  Visited (scheduled-set, state) pairs
    are memoized.  Returns the permutation, or None when none exists.
    """
    ops = h.ops
    n = len(ops)
    if n > limit:
        raise CapacityError(
            f"{n} operations exceed the oracle bound of {limit}; "
            f"use the property checks instead")
    if constraint not in (REALTIME, PER_PROCESS):
        raise ValueError(f"unknown constraint {constraint!r}")
    preds = [0] * n
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if i == j or not a.precedes(b):
                continue
            if constraint == PER_PROCESS and a.client != b.client:
                continue
            preds[j] |= 1 << i

    target = (1 << n) - 1
    seen: set[tuple[int, tuple[str, ...]]] = set()
    order: list[Op] = []

    def dfs(mask: int, state: tuple[str, ...]) -> bool:
        if mask == target:
            return True
        key = (mask, state)
        if key in seen:
            return False
        seen.add(key)
        for i in range(n):
            if mask >> i & 1 or preds[i] & ~mask:
                continue
            op = ops[i]
            if op.kind == GET:
                if op.seq != state:
                    continue
                new_state = state
            else:
                if op.result not in (ACK, None):
                    continue
                new_state = state + (op.rid,)
            order.append(op)
            if dfs(mask | 1 << i, new_state):
                return True
            order.pop()
        return False

    if dfs(0, ()):
        return list(order)
    return None


# -- candidate aggregation ---------------------------------------------------

def verify_history(completed: Sequence[Op], pending: Sequence[Op], checker: str,
                   *, probe_ops: Sequence[Op] = (),
                   oracle_limit: int = ORACLE_AUTO_LIMIT,
                   cap: int = PENDING_CAP) -> Verdict:
    """Run a named checker over all completion candidates of a history.

    ``checker`` is one of atomic / sequential / eventual.  The history passes
    if any candidate does.  For atomic and sequential the permutation oracle
    also runs when every candidate fits under ``oracle_limit``; a property/
    oracle disagreement yields a divergence verdict.
    """
    candidates = complete_history(completed, pending, cap=cap)
    if checker == "atomic":
        prop: Callable[[CompletedHistory], Verdict] = check_atomic
        constraint = REALTIME
    elif checker == "sequential":
        prop = check_sequential_consistency
        constraint = PER_PROCESS
    elif checker == "eventual":
        def prop(h: CompletedHistory) -> Verdict:
            return check_eventual(h, probe_ops)
        constraint = None
    else:
        raise ValueError(f"unknown checker {checker!r}")

    verdicts = []
    prop_ok = False
    for cand in candidates:
        v = prop(cand)
        verdicts.append(v)
        if v.ok:
            prop_ok = True
            break
    result = verdicts[-1] if prop_ok else verdicts[0]

    if constraint is not None and max(len(c.ops) for c in candidates) <= oracle_limit:
        oracle_ok = any(linearize(c, constraint) is not None for c in candidates)
        if oracle_ok != prop_ok:
            return Verdict(DIVERGENCE,
                           violated=result.violated if not prop_ok else None,
                           witness=list(result.witness) if not prop_ok else [],
                           oracle_used=True)
        result.oracle_used = True
    return result
