"""Offline history verification.

Two routes are provided for the strong consistency levels and they are kept
deliberately independent in spirit:

* property screens -- integrity (every append acked, no fabricated or
  duplicated record ids, all returned sequences prefix-related), then one
  rank rule under real-time or same-client precedence: the longest returned
  sequence ranks a get ``2*len(seq)``, an append ``2*pos+1`` (+inf if
  unread), and x preceding y requires rank(x) <= rank(y).  One sweep checks
  it in O(n log n) for n ops.  Before it, the integrity and chain screen
  compares each get with a prefix of the longest one.  A correct run, in
  memory or loaded, holds its gets as views of one id list (see
  `histories`), so each comparison is O(1) and the screen is
  O(gets + longest read).  A Python loop over the ids runs only for a
  history that fails, to name its first violation.  A check finds the last
  longest get and its ids' positions once, for every screen.
* a linearization search -- one greedy replay of the sequential ledger in
  precedence order (`linearize`), which accepts iff some order reproduces
  every recorded return value.  A ledger's state only grows, so the search
  never branches; it runs on small histories.

When both run and disagree, the verdict is `divergence` rather than silently
trusting either side; it marks a bug, as the screens are exact.  Each screen
is necessary, and when all pass, sorting the ops by (rank, invoke index)
respects precedence and replays the ledger (the appends at positions
0..m-1, in order, come just before the gets of length m): a linearization.

A history is a tuple of ops in invoke order; an append's op id is its record
id.  An incomplete one is judged through one canonical completion: pending
gets are dropped, and a pending append is kept iff some completed get or
probe get returned its id.  An unread pending append precedes nothing and
appears in no read, so it can always be linearized last or left out; a read
one must be kept, or its id is a fabrication.  So the canonical candidate
passes iff any include/exclude candidate does.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Sequence

from .histories import APPEND, GET, Op
from .ledger import ACK, NACK, Record, ValidityPredicate
from .verdicts import DIVERGENCE, Verdict, failed, passed

ORACLE_AUTO_LIMIT = 10


class CheckerError(Exception):
    """The checker cannot run on this input (not a verdict about the history)."""


def complete_history(completed: Sequence[Op], pending: Sequence[Op],
                     probe_ops: Sequence[Op] = ()) -> tuple[Op, ...]:
    """The canonical completion of an incomplete history: a tuple of its ops
    in invoke order, the one candidate every checker judges.

    Pending gets are removed.  A pending append is kept, with an unreachable
    response index so it precedes nothing, iff its op id, the record id it
    mints, appears in the returned sequence of a completed get or of a probe
    get; otherwise it is dropped.
    """
    pending_rids = {op.op_id for op in pending if op.kind == APPEND}
    read: set[str] = set()
    if pending_rids:
        for g in (*completed, *probe_ops):
            if g.kind == GET:
                read.update(pending_rids.intersection(g.seq))
    kept = [op for op in pending if op.op_id in read]
    return tuple(sorted((*completed, *kept), key=attrgetter("invoke_i")))


# -- sequential replay -------------------------------------------------------

def check_validated_spec(ops: Sequence[Op], pred: ValidityPredicate) -> Verdict:
    """Replay a sequential operation list against the validated ledger behaviour;
    under ``ALWAYS_TRUE`` that is the plain ledger, which never nacks.

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
        valid = pred.step(state, Record(op.op_id, op.client, op.payload or ""))
        if op.result == ACK:
            if not valid:
                return failed("Def5-2a", [op.op_id])
            rids.append(op.op_id)
        elif valid:
            return failed("Def5-2b", [op.op_id])
    return passed()


# -- property screens --------------------------------------------------------

def _longest_read(gets: Sequence[Op]) -> tuple[Op | None, Sequence[str], dict[str, int]]:
    """The last longest get (None without gets), its sequence, and its ids' positions."""
    longest_get = max(reversed(gets), key=lambda g: len(g.seq), default=None)
    longest = longest_get.seq if longest_get else ()
    return longest_get, longest, {rid: i for i, rid in enumerate(longest)}


def _non_ack_append(appends: Sequence[Op]) -> Verdict | None:
    """A completed append answered with anything but ack breaks the plain ledger."""
    for op in appends:
        if op.result not in (ACK, None):
            return failed("SeqSpec", [op.op_id])
    return None


def _integrity_and_chain(gets: Sequence[Op], appended: set[str], longest: Sequence[str],
                         pos: dict[str, int]) -> Verdict | None:
    """Fabrication, duplicates, and the global prefix chain over get returns.

    All three hold iff every get is a prefix of ``longest``, a longest one,
    and that one holds only appended ids, each once (``pos`` has a key per
    id); that is tested first with sequence and set operations.  Only a
    history that fails it walks the ids one by one, to name the first
    violation.
    """
    if (len(pos) == len(longest) and pos.keys() <= appended
            and all(g.seq == longest[:len(g.seq)] for g in gets)):
        return None
    for g in gets:
        seen: set[str] = set()
        for rid in g.seq:
            if rid not in appended:
                return failed("Fabrication", [g.op_id, rid])
            if rid in seen:
                return failed("Duplicate", [g.op_id, rid])
            seen.add(rid)
    chain = sorted(gets, key=lambda g: len(g.seq))
    for a, b in zip(chain, chain[1:]):
        if b.seq[:len(a.seq)] != a.seq:
            return failed("PrefixChain", [a.op_id, b.op_id])
    return None


_TAGS = {
    False: {(APPEND, APPEND): "A1", (APPEND, GET): "A2", (GET, GET): "A3", (GET, APPEND): "A4"},
    True: {(APPEND, APPEND): "S1", (GET, APPEND): "S2", (APPEND, GET): "S3", (GET, GET): "S4"},
}


def _ordering_violation(ops: Sequence[Op], longest_get: Op | None, pos: dict[str, int],
                        same_client_only: bool) -> Verdict | None:
    """The rank rule as one sweep: A1..A4 under real-time precedence, S1..S4
    under same-client precedence.  Assumes ``ops`` in invoke order and a passed chain.

    Ops are visited by invoke index while a pointer over the response order
    folds each op that precedes the visited one into its group's running max
    rank.  The first op ranked below that max fails, with the earliest-
    responding holder of the max; A1/S1 add the longest get as witness.
    """
    rank = [2 * len(op.seq) if op.kind == GET else 2 * pos.get(op.op_id, math.inf) + 1
            for op in ops]
    by_response = sorted(range(len(ops)), key=[op.response_i for op in ops].__getitem__)
    top: dict[int | None, int] = {}  # group -> index of its max-rank op
    k = 0
    for j, y in enumerate(ops):
        while k < len(ops) and ops[by_response[k]].response_i < y.invoke_i:
            i = by_response[k]
            k += 1
            group = ops[i].client if same_client_only else None
            if group not in top or rank[i] > rank[top[group]]:
                top[group] = i
        i = top.get(y.client if same_client_only else None)
        if i is not None and rank[i] > rank[j]:
            x = ops[i]
            tag = _TAGS[same_client_only][x.kind, y.kind]
            witness = [x.op_id, y.op_id]
            if x.kind == y.kind == APPEND:
                witness.append(longest_get.op_id)
            return failed(tag, witness)
    return None


def _property_check(ops: Sequence[Op], same_client_only: bool) -> Verdict:
    gets, appends = [op for op in ops if op.kind == GET], [op for op in ops if op.kind == APPEND]
    longest_get, longest, pos = _longest_read(gets)
    v = (_non_ack_append(appends)
         or _integrity_and_chain(gets, {op.op_id for op in appends}, longest, pos)
         or _ordering_violation(ops, longest_get, pos, same_client_only))
    return v or passed()


def check_atomic(ops: Sequence[Op]) -> Verdict:
    """Linearizability of a ledger history, ops in invoke order (real-time precedence)."""
    return _property_check(ops, same_client_only=False)


def check_sequential_consistency(ops: Sequence[Op]) -> Verdict:
    """Sequential consistency of a history, ops in invoke order (same-client precedence)."""
    return _property_check(ops, same_client_only=True)


def check_eventual(ops: Sequence[Op], probe_ops: Sequence[Op]) -> Verdict:
    """Eventual consistency: a single growing order exists and every
    completed append shows up in every post-quiescence probe get, at one
    agreed position.  ``ops`` in invoke order.

    The probe gets are the concrete failure-free extension of the history;
    without them the eventual-inclusion clause cannot be witnessed, so an
    empty probe set is refused.
    """
    if not probe_ops:
        raise CheckerError("eventual checker needs at least one probe get")
    reads = [*(op for op in ops if op.kind == GET), *probe_ops]
    appends = [op for op in ops if op.kind == APPEND]
    _, longest, pos = _longest_read(reads)
    v = (_non_ack_append(appends)
         or _integrity_and_chain(reads, {op.op_id for op in appends}, longest, pos))
    if v is not None:
        return v
    # Past the chain check every probe is a prefix of the longest read: the
    # first append missing from a probe is the first that the shortest misses.
    shortest = min(len(p.seq) for p in probe_ops)
    for a in appends:
        at = pos.get(a.op_id, math.inf)
        if at >= shortest:
            probe = next(p for p in probe_ops if len(p.seq) <= at)
            return failed("ProbeCompleteness", [a.op_id, probe.op_id])
    return passed()


# -- greedy replay -----------------------------------------------------------

def linearize(ops: Sequence[Op], same_client_only: bool = False) -> list[Op] | None:
    """An order of ``ops``, in invoke order, that respects real-time
    precedence, or only same-client precedence with ``same_client_only``, and
    replays the ledger; None when there is none.

    One greedy replay (Wing & Gong's search with Lowe's forced moves).  An op
    is ready when no unplaced op precedes it.  Each step places every ready
    get that reads the state; else every unplaced get must extend the state
    by one next id, whose append must be ready; else, with no get left, every
    ready append.  The state only grows, so no step has a choice to undo.
    """
    if any(op.kind == APPEND and op.result not in (ACK, None) for op in ops):
        return None
    left, order, state = list(ops), [], ()
    group = attrgetter("client") if same_client_only else lambda op: None
    while left:
        due: dict = {}  # group -> the earliest response among its unplaced ops
        for op in left:
            due[group(op)] = min(due.get(group(op), math.inf), op.response_i)
        ready = [op for op in left if op.invoke_i <= due[group(op)]]
        gets = [op for op in left if op.kind == GET]
        placed = [op for op in ready if op.kind == GET and op.seq == state]
        if not placed and gets:
            n = len(state)
            if any(len(g.seq) <= n for g in gets) or len({g.seq[n] for g in gets}) > 1:
                return None
            placed = [op for op in ready if op.kind == APPEND and op.op_id == gets[0].seq[n]]
            if not placed:
                return None
        elif not placed:
            placed = ready  # only appends are left: any order of the ready ones replays
        state += tuple(op.op_id for op in placed if op.kind == APPEND)
        order += placed
        left = [op for op in left if op not in placed]
    return order


# -- verification ------------------------------------------------------------

def verify_history(completed: Sequence[Op], pending: Sequence[Op], checker: str,
                   *, probe_ops: Sequence[Op] = ()) -> Verdict:
    """Run a named checker over the canonical completion of a history.

    ``checker`` is one of atomic / sequential / eventual.  For atomic and
    sequential the linearization search also runs when the completion has at
    most ``ORACLE_AUTO_LIMIT`` operations; a property/oracle disagreement
    yields a divergence verdict.
    """
    ops = complete_history(completed, pending, probe_ops)
    if checker == "eventual":
        return check_eventual(ops, probe_ops)
    if checker not in ("atomic", "sequential"):
        raise ValueError(f"unknown checker {checker!r}")
    same_client_only = checker == "sequential"
    v = check_sequential_consistency(ops) if same_client_only else check_atomic(ops)
    if len(ops) <= ORACLE_AUTO_LIMIT:
        if (linearize(ops, same_client_only) is not None) != v.ok:
            return Verdict(DIVERGENCE, v.violated, list(v.witness), oracle_used=True)
        v.oracle_used = True
    return v
