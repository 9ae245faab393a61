"""Sequential ledger objects.

The plain ledger is an append-only sequence of records read in full by
``get``; ``read_ids`` gives a prefix's ids as an `IdPrefix` view, no copy,
and serves read-side repair through one `ValidatedLedger` per predicate:
the ledger that filters every append through a pluggable validity predicate
and answers ``nack`` when the extended sequence would violate it.
These objects are the reference behaviour that the offline checkers replay,
and one plain ledger is a simulated run's record order (see `protocols`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Mapping

ACK = "ack"
NACK = "nack"

PREDICATE_KINDS = ("always_true", "unique_tau", "account_balance")


class DuplicateRecordError(Exception):
    """Appending a record whose id is already present in the sequence.

    This is a programming-contract violation, not a validity failure: the
    replication protocols deduplicate by construction, so a duplicate id
    reaching a ledger means the caller is broken.
    """


@dataclass(frozen=True)
class Record:
    """One ledger entry: globally unique id, creating process, payload.

    Identity is the id alone; two records with the same ``rid`` are the same
    record regardless of the other fields.
    """

    rid: str
    creator: int = field(compare=False)
    payload: str = field(compare=False)


def is_int(v) -> bool:
    """An integer that is not a bool (JSON ``true`` loads as one)."""
    return isinstance(v, int) and not isinstance(v, bool)


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
    if not (isinstance(balances, Mapping) and all(
            isinstance(k, str) and is_int(v) and v >= 0 for k, v in balances.items())):
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
    if not amount.isdecimal() or len(amount) > 640:  # 640: int()'s lowest digit limit
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


class IdPrefix:
    """The first ``n`` ids of the append-only list ``ids``: an immutable
    sequence that costs O(1) to make, however long it is.

    It compares equal to, and hashes as, ``tuple(view)``.  Two views of one
    list are equal iff their lengths are, and a slice from 0 is a view of the
    same list, so ``a == b[:len(a)]`` is O(1) for two views of one list.
    """

    __slots__ = ("ids", "n")

    def __init__(self, ids: list[str], n: int) -> None:
        self.ids, self.n = ids, n

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return islice(self.ids, self.n)

    def __getitem__(self, i):
        if type(i) is not slice:
            return self.ids[range(self.n)[i]]
        start, stop, step = i.indices(self.n)
        if start == 0 and step == 1:
            return IdPrefix(self.ids, stop)
        return tuple(self.ids[:self.n][i])

    def __eq__(self, other: object) -> bool:
        if type(other) is IdPrefix:
            return other.n == self.n and (
                other.ids is self.ids or other.ids[:self.n] == self.ids[:self.n])
        if type(other) is tuple:
            return len(other) == self.n and tuple(self.ids[:self.n]) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class Ledger:
    """Append-only record sequence with whole-sequence and prefix-id reads.

    The sequence never shrinks or reorders, so a ledger and a length are an
    immutable snapshot of its first records, each id once.  ``read_ids``
    alone runs a predicate, for read-side repair.
    """

    def __init__(self) -> None:
        self._items: list[Record] = []
        self._ids: list[str] = []
        self.positions: dict[str, int] = {}  # record id -> its index
        # id(pred) -> (ValidatedLedger(pred), upto), which keeps pred alive: it has
        # been fed len(upto) - 1 records, and the first i of them keep upto[i].
        self._folds: dict[int, tuple[ValidatedLedger, list[int]]] = {}

    def __len__(self) -> int:
        return len(self._items)

    def get(self) -> tuple[Record, ...]:
        return tuple(self._items)

    def read_ids(self, n: int, pred: ValidityPredicate | None = None) -> IdPrefix:
        """The ids of the first ``n`` records, through ``pred`` if given, as a
        view of an id list that only grows: it is not copied per read.

        With a predicate this equals the ids of ``filter_valid(self.get()[:n],
        pred)``.  `filter_valid` decides each record from the ones kept
        before it, so the filtered view of a prefix is a prefix of the
        filtered view: one `ValidatedLedger` per predicate, fed records only
        past the furthest length read so far, serves every read from its ids.
        """
        if pred is None:
            return IdPrefix(self._ids, n)
        fold = self._folds.get(id(pred))
        if fold is None:
            fold = self._folds[id(pred)] = (ValidatedLedger(pred), [0])
        kept, upto = fold
        if n >= len(upto):
            for r in self._items[len(upto) - 1:n]:
                kept.add(r)
                upto.append(len(kept))
        return IdPrefix(kept._ids, upto[n])

    def append(self, r: Record) -> str:
        if r.rid in self.positions:
            raise DuplicateRecordError(f"record id {r.rid} already in ledger")
        return ACK if self.add(r) else NACK

    def add(self, r: Record) -> bool:
        """Append ``r`` if its id is new and any predicate admits it; say whether it did."""
        if r.rid in self.positions:
            return False
        self.positions[r.rid] = len(self._items)
        self._items.append(r)
        self._ids.append(r.rid)
        return True


class ValidatedLedger(Ledger):
    """Ledger whose appends are admitted only if the extended sequence is valid.

    The predicate's fold state for the stored sequence is carried along, so
    each append costs one fold step.
    """

    def __init__(self, pred: ValidityPredicate) -> None:
        super().__init__()
        self.pred = pred
        self._state = pred.start()

    def add(self, r: Record) -> bool:
        return r.rid not in self.positions and self.pred.step(self._state, r) and super().add(r)
