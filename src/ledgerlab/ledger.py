"""Sequential ledger objects.

The plain ledger is an append-only sequence of records read in full by
``get``, or as a prefix by ``read``, which also serves read-side repair from
one fold per predicate.  The validated ledger additionally filters every
append through a pluggable validity predicate and answers ``nack`` when the
extended sequence would violate it.  These objects are the reference behaviour that the offline
checkers replay, and each simulated server holds one as its replica state.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping

log = logging.getLogger("ledgerlab.ledger")

ACK = "ack"
NACK = "nack"

PREDICATE_KINDS = ("always_true", "unique_tau", "account_balance")


class DuplicateRecordError(Exception):
    """Appending a record whose id is already present in the sequence.

    This is a programming-contract violation, not a validity failure: the
    replication protocols deduplicate by construction, so a duplicate id
    reaching a ledger means the caller is broken.
    """


@dataclass(frozen=True, eq=False)
class Record:
    """One ledger entry: globally unique id, creating process, payload.

    Identity is the id alone; two records with the same ``rid`` are the same
    record regardless of the other fields.
    """

    rid: str
    creator: int
    payload: str

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.rid == other.rid

    def __hash__(self) -> int:
        return hash(self.rid)


def make_rid(creator: int, counter: int) -> str:
    """Record ids are (creator, per-creator counter), rendered `creator.counter`."""
    return f"{creator}.{counter}"


def make_record(creator: int, counter: int, payload: str) -> Record:
    return Record(make_rid(creator, counter), creator, payload)


@dataclass(frozen=True)
class ValidityPredicate:
    """Deterministic boolean test over a record sequence, run as a fold.

    ``start`` gives the state after the empty sequence and ``step`` either
    admits a record, updating that state in place, or rejects it and leaves
    the state untouched.  A sequence is valid iff every record is admitted in
    turn, so a predicate must be prefix-closed: every prefix of a valid
    sequence is valid, as it is for all three built-in kinds.

    ``unique_tau`` rejects a record id seen before.  ``account_balance``
    replays ``deposit:<acct>:<amount>`` / ``withdraw:<acct>:<amount>``
    payloads against the configured starting balances and rejects any record
    that drives an account negative or does not fit that grammar.
    """

    kind: str
    balances: Mapping[str, int] = field(default_factory=dict)

    def start(self):
        if self.kind == "always_true":
            return None
        if self.kind == "unique_tau":
            return set()
        if self.kind == "account_balance":
            return dict(self.balances)
        raise ValueError(f"unknown predicate kind {self.kind!r}")

    def step(self, state, r: Record) -> bool:
        if self.kind == "unique_tau":
            if r.rid in state:
                return False
            state.add(r.rid)
        elif self.kind == "account_balance":
            parsed = _parse_transfer(r.payload)
            if parsed is None:
                log.debug("account_balance: unparseable payload %r (record %s)", r.payload, r.rid)
                return False
            action, acct, amount = parsed
            balance = state.get(acct, 0) + (amount if action == "deposit" else -amount)
            if balance < 0:
                return False
            state[acct] = balance
        return True


ALWAYS_TRUE = ValidityPredicate("always_true")
UNIQUE_RID = ValidityPredicate("unique_tau")


def account_balance(balances: Mapping[str, int]) -> ValidityPredicate:
    return ValidityPredicate("account_balance", dict(balances))


def predicate_from_config(obj: Mapping) -> ValidityPredicate:
    """Build a predicate from its JSON configuration (fail-closed)."""
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ValueError("predicate config must be an object with a 'kind'")
    kind = obj["kind"]
    if kind not in PREDICATE_KINDS:
        raise ValueError(f"unknown predicate kind {kind!r}")
    extra = set(obj) - {"kind", "balances"}
    if extra:
        raise ValueError(f"unknown predicate fields: {sorted(extra)}")
    balances = obj.get("balances", {})
    if kind != "account_balance" and balances:
        raise ValueError(f"predicate {kind!r} takes no balances")
    if not all(isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool) and v >= 0
               for k, v in balances.items()):
        raise ValueError("balances must map account names to non-negative integers")
    return ValidityPredicate(kind, dict(balances))


def predicate_to_config(pred: ValidityPredicate) -> dict:
    cfg: dict = {"kind": pred.kind}
    if pred.kind == "account_balance":
        cfg["balances"] = dict(pred.balances)
    return cfg


def _parse_transfer(payload: str):
    """Parse an account-balance payload, or None if it does not fit the grammar."""
    parts = payload.split(":")
    if len(parts) != 3:
        return None
    action, acct, amount = parts
    if action not in ("deposit", "withdraw") or not acct:
        return None
    if not amount.isdigit():  # non-negative integers only
        return None
    return action, acct, int(amount)


def evaluate_predicate(pred: ValidityPredicate, seq: Iterable[Record]) -> bool:
    state = pred.start()
    return all(pred.step(state, r) for r in seq)


def filter_valid(seq: Iterable[Record], pred: ValidityPredicate) -> tuple[Record, ...]:
    """Keep records left to right, dropping any whose addition would be invalid.

    This is the read-side repair used when invalid records were allowed into
    the underlying sequence: record ``r`` survives iff the predicate accepts
    ``kept-so-far + [r]``, which for a prefix-closed predicate is one fold
    step from the state of the records kept so far.
    """
    state = pred.start()
    return tuple(r for r in seq if pred.step(state, r))


class _Fold:
    """One predicate's read-side repair of a ledger, advanced lazily.

    ``kept`` and ``kept_ids`` are what `filter_valid` keeps from the first
    ``len(upto) - 1`` records, ``state`` is the fold state after them, and
    ``upto[i]`` is the number kept among the first ``i`` records.
    """

    __slots__ = ("pred", "state", "kept", "kept_ids", "upto")

    def __init__(self, pred: ValidityPredicate) -> None:
        self.pred = pred
        self.state = pred.start()
        self.kept: list[Record] = []
        self.kept_ids: list[str] = []
        self.upto = [0]


class Ledger:
    """Append-only record sequence with whole-sequence and prefix reads.

    The sequence never shrinks or reorders, so a ledger and a length are an
    immutable snapshot of its first records.
    """

    def __init__(self) -> None:
        self._items: list[Record] = []
        self._ids: list[str] = []
        self._rids: set[str] = set()
        self._folds: dict[int, _Fold] = {}  # id(pred) -> its fold; the fold holds pred

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, r: Record) -> bool:
        return r.rid in self._rids

    def get(self) -> tuple[Record, ...]:
        return tuple(self._items)

    def read(self, n: int, pred: ValidityPredicate | None = None) -> tuple[Record, ...]:
        """The first ``n`` records, through ``pred`` if given.

        With a predicate this equals ``filter_valid(self.get()[:n], pred)``.
        `filter_valid` decides each record from the ones kept before it, so
        the filtered view of a prefix is a prefix of the filtered view: one
        fold per predicate, run only past the furthest length read so far,
        serves every read.
        """
        if pred is None:
            return tuple(self._items[:n])
        fold, k = self._fold(n, pred)
        return tuple(fold.kept[:k])

    def read_ids(self, n: int, pred: ValidityPredicate | None = None) -> tuple[str, ...]:
        """The ids of ``read(n, pred)``."""
        if pred is None:
            return tuple(self._ids[:n])
        fold, k = self._fold(n, pred)
        return tuple(fold.kept_ids[:k])

    def _fold(self, n: int, pred: ValidityPredicate) -> tuple[_Fold, int]:
        """``pred``'s fold, advanced past the first ``n`` records, and how
        many of them it keeps."""
        fold = self._folds.get(id(pred))
        if fold is None:
            fold = self._folds[id(pred)] = _Fold(pred)
        upto = fold.upto
        if n >= len(upto):
            step, state, kept, kept_ids = pred.step, fold.state, fold.kept, fold.kept_ids
            for r in self._items[len(upto) - 1:n]:
                if step(state, r):
                    kept.append(r)
                    kept_ids.append(r.rid)
                upto.append(len(kept))
        return fold, upto[n]

    def append(self, r: Record) -> str:
        if r.rid in self._rids:
            raise DuplicateRecordError(f"record id {r.rid} already in ledger")
        self._items.append(r)
        self._ids.append(r.rid)
        self._rids.add(r.rid)
        return ACK


class ValidatedLedger(Ledger):
    """Ledger whose appends are admitted only if the extended sequence is valid.

    The predicate's fold state for the stored sequence is carried along, so
    each append costs one fold step.
    """

    def __init__(self, pred: ValidityPredicate) -> None:
        super().__init__()
        self.pred = pred
        self._state = pred.start()

    def append(self, r: Record) -> str:
        if r.rid not in self._rids and not self.pred.step(self._state, r):
            return NACK
        return super().append(r)
