import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ledgerlab.checkers import check_validated_spec
from ledgerlab.histories import Op
from ledgerlab.ledger import (
    ACK,
    NACK,
    ALWAYS_TRUE,
    UNIQUE_RID,
    DuplicateRecordError,
    Ledger,
    Record,
    ValidatedLedger,
    account_balance,
    evaluate_predicate,
    filter_valid,
    make_record,
    predicate_from_config,
    predicate_to_config,
)


def rec(i, payload="x", creator=0):
    return make_record(creator, i, payload)


class TestRecord:
    def test_identity_is_the_record_id(self):
        a = Record("0.1", 0, "x")
        b = Record("0.1", 9, "different payload")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Record("0.2", 0, "x")

    def test_minting_encodes_creator_and_counter(self):
        assert make_record(3, 7, "v").rid == "3.7"


class TestLedger:
    def test_get_initially_empty(self):
        assert Ledger().get() == ()

    def test_get_returns_appended_records_in_order(self):
        led = Ledger()
        r1, r2 = rec(1), rec(2)
        assert led.append(r1) == ACK
        assert led.get() == (r1,)
        assert led.append(r2) == ACK
        assert led.get() == (r1, r2)

    def test_get_returns_a_snapshot(self):
        led = Ledger()
        led.append(rec(1))
        snap = led.get()
        led.append(rec(2))
        assert len(snap) == 1

    def test_duplicate_id_is_an_error_not_a_nack(self):
        led = Ledger()
        led.append(rec(1))
        with pytest.raises(DuplicateRecordError):
            led.append(rec(1, payload="other"))


class TestValidatedLedger:
    def test_valid_append_acks(self):
        vl = ValidatedLedger(account_balance({"A": 0}))
        assert vl.append(rec(1, "deposit:A:5")) == ACK
        assert vl.get() == (rec(1),)

    def test_invalid_append_nacks_and_leaves_state(self):
        vl = ValidatedLedger(account_balance({"A": 0}))
        vl.append(rec(1, "deposit:A:5"))
        assert vl.append(rec(2, "withdraw:A:7")) == NACK
        assert vl.get() == (rec(1),)

    def test_always_true_acks_anything(self):
        vl = ValidatedLedger(ALWAYS_TRUE)
        assert vl.append(rec(1, "whatever")) == ACK

    def test_nacked_record_can_be_retried(self):
        vl = ValidatedLedger(account_balance({"A": 0}))
        assert vl.append(rec(1, "withdraw:A:1")) == NACK
        vl.append(rec(2, "deposit:A:1"))
        assert vl.append(rec(1, "withdraw:A:1")) == ACK

    def test_duplicate_id_is_an_error(self):
        vl = ValidatedLedger(ALWAYS_TRUE)
        vl.append(rec(1))
        with pytest.raises(DuplicateRecordError):
            vl.append(rec(1))


class TestPredicates:
    def test_always_true(self):
        assert evaluate_predicate(ALWAYS_TRUE, [rec(1, "garbage"), rec(2, "")])

    def test_unique_id_rejects_duplicates(self):
        r1 = rec(1)
        assert not evaluate_predicate(UNIQUE_RID, [r1, r1])
        assert evaluate_predicate(UNIQUE_RID, [rec(1), rec(2)])

    def test_account_balance_replay(self):
        pred = account_balance({"A": 0})
        assert evaluate_predicate(pred, [rec(1, "deposit:A:5"), rec(2, "withdraw:A:3")])
        assert not evaluate_predicate(pred, [rec(1, "deposit:A:5"), rec(2, "withdraw:A:6")])

    def test_account_balance_uses_initial_balances(self):
        assert evaluate_predicate(account_balance({"A": 4}), [rec(1, "withdraw:A:4")])
        assert not evaluate_predicate(account_balance({}), [rec(1, "withdraw:A:4")])

    @pytest.mark.parametrize("payload", [
        "junk", "deposit:A", "deposit:A:5:extra", "deposit:A:-5",
        "deposit:A:1.5", "steal:A:5", "deposit::5", "",
    ])
    def test_malformed_payload_is_invalid(self, payload):
        assert not evaluate_predicate(account_balance({"A": 100}), [rec(1, payload)])

    def test_config_round_trip(self):
        pred = predicate_from_config({"kind": "account_balance", "balances": {"A": 3}})
        assert pred == account_balance({"A": 3})
        assert predicate_from_config(predicate_to_config(pred)) == pred

    @pytest.mark.parametrize("cfg", [
        {"kind": "nope"},
        {"kind": "always_true", "balances": {"A": 1}},
        {"kind": "account_balance", "balances": {"A": -1}},
        {"kind": "account_balance", "extra": 1},
        {},
    ])
    def test_bad_config_rejected(self, cfg):
        with pytest.raises(ValueError):
            predicate_from_config(cfg)


class TestFilterValid:
    def test_empty(self):
        assert filter_valid([], account_balance({})) == ()

    def test_skips_records_that_break_validity(self):
        # replaying by hand: +5 kept, -7 would go negative, -3 then fine
        s = [rec(1, "deposit:A:5"), rec(2, "withdraw:A:7"), rec(3, "withdraw:A:3")]
        assert filter_valid(s, account_balance({"A": 0})) == (s[0], s[2])

    def test_always_true_is_identity(self):
        s = [rec(1), rec(2), rec(3)]
        assert filter_valid(s, ALWAYS_TRUE) == tuple(s)

    def test_unique_id_drops_later_duplicates(self):
        r1 = rec(1)
        assert filter_valid([r1, r1, rec(2)], UNIQUE_RID) == (r1, rec(2))


# -- property tests -----------------------------------------------------------

account_payloads = st.builds(
    lambda action, acct, amt: f"{action}:{acct}:{amt}",
    st.sampled_from(["deposit", "withdraw"]),
    st.sampled_from(["A", "B"]),
    st.integers(0, 9),
)
payloads = st.one_of(account_payloads, st.just("junk"))
streams = st.lists(payloads, max_size=30).map(
    lambda ps: [make_record(0, i + 1, p) for i, p in enumerate(ps)])
predicates = st.one_of(
    st.just(ALWAYS_TRUE),
    st.just(UNIQUE_RID),
    st.just(account_balance({"A": 0, "B": 2})),
)


@given(streams, predicates)
def test_validated_appends_equal_filter(stream, pred):
    vl = ValidatedLedger(pred)
    for r in stream:
        vl.append(r)
    assert vl.get() == filter_valid(stream, pred)


@given(streams, predicates)
def test_filter_is_idempotent(stream, pred):
    once = filter_valid(stream, pred)
    assert filter_valid(once, pred) == once


@given(streams, predicates)
def test_acked_records_stay_valid_as_a_sequence(stream, pred):
    vl = ValidatedLedger(pred)
    acked = [r for r in stream if vl.append(r) == ACK]
    assert filter_valid(acked, pred) == tuple(acked)


@given(streams)
def test_sequential_replay_matches_append_order(stream):
    led = Ledger()
    for r in stream:
        assert led.append(r) == ACK
        assert led.get() == tuple(stream[:len(led.get())])
    assert led.get() == tuple(stream)


# An integer move reads the first n records, for n some records short of the
# current length and then n the full length, so reads skip ahead, fall behind
# an earlier read and repeat.  Each read runs under every predicate and none,
# twice, on the one ledger.  Payloads include overdrafts and unparseable ones.
read_predicates = (None, ALWAYS_TRUE, UNIQUE_RID, account_balance({"A": 0, "B": 2}))
ledger_moves = st.lists(st.one_of(
    st.builds(lambda action, amt: f"{action}:A:{amt}",
              st.sampled_from(["deposit", "withdraw"]), st.integers(1, 3)),
    account_payloads, st.sampled_from(["junk", "", "deposit:A", "x:A:1"]),
    st.integers(0, 40)), max_size=40)


@given(ledger_moves)
@example(["deposit:A:2", 0, "withdraw:A:1", 40])  # the withdraw needs the earlier read's deposit
def test_prefix_reads_equal_filter_of_the_prefix(moves):
    led = Ledger()
    for move in moves:
        if isinstance(move, str):
            led.append(make_record(0, len(led) + 1, move))
            continue
        for n in (len(led) - move % (len(led) + 1), len(led)):
            prefix = led.get()[:n]
            for pred in read_predicates * 2:
                expected = prefix if pred is None else filter_valid(prefix, pred)
                records = led.read(n, pred)
                assert ([(r.rid, r.payload) for r in records]
                        == [(r.rid, r.payload) for r in expected])
                assert led.read_ids(n, pred) == tuple(r.rid for r in expected)


# -- reference definition -----------------------------------------------------
#
# The library runs each predicate as a fold.  These tests keep the definition
# it replaced: a sequence is replayed in full, and a record survives iff the
# replay of `kept + [r]` accepts.  The fold must agree with it everywhere.

def reference_valid(pred, seq):
    if pred.kind == "always_true":
        return True
    if pred.kind == "unique_tau":
        rids = [r.rid for r in seq]
        return len(rids) == len(set(rids))
    balances = dict(pred.balances)
    for r in seq:
        parts = r.payload.split(":")
        if (len(parts) != 3 or parts[0] not in ("deposit", "withdraw") or not parts[1]
                or not parts[2].isdigit()):
            return False
        action, acct, amount = parts
        sign = 1 if action == "deposit" else -1
        balances[acct] = balances.get(acct, 0) + sign * int(amount)
        if balances[acct] < 0:
            return False
    return True


def reference_filter(seq, pred):
    kept = []
    for r in seq:
        if reference_valid(pred, kept + [r]):
            kept.append(r)
    return tuple(kept)


def reference_appends(seq, pred):
    """The ACK/NACK (or 'dup' for a stored id) answer to each append in turn."""
    kept, out = [], []
    for r in seq:
        if r.rid in {k.rid for k in kept}:
            out.append("dup")
        elif reference_valid(pred, kept + [r]):
            kept.append(r)
            out.append(ACK)
        else:
            out.append(NACK)
    return out


def reference_validated_spec(ops, pred):
    """The verdict of a strict validated replay, by full replays."""
    state = []
    for op in ops:
        if op.kind == "get":
            if op.seq != tuple(r.rid for r in state):
                return "SeqSpec", op.op_id
            continue
        r = Record(op.rid, op.client, op.payload or "")
        valid = reference_valid(pred, state + [r])
        if op.result == ACK:
            if not valid:
                return "Def5-2a", op.op_id
            state.append(r)
        elif op.result == NACK:
            if valid:
                return "Def5-2b", op.op_id
        else:
            return "SeqSpec", op.op_id
    return None


# Record ids come from a small pool so that streams repeat them; payloads
# include ones the account grammar cannot parse.
any_payloads = st.one_of(account_payloads, st.sampled_from(["junk", "", "deposit:A", "x:A:1"]))
dup_streams = st.lists(st.tuples(st.integers(1, 6), any_payloads), max_size=25).map(
    lambda xs: [Record(f"0.{k}", 0, p) for k, p in xs])
ref_predicates = st.one_of(predicates, st.just(account_balance({})))
# How each record enters a sequential history: appended with the result the
# reference gives, with a forced result, or read back by a get (possibly a
# stale one).
history_moves = st.sampled_from(["true", "ack", "nack", "other", "get", "stale"])


@given(dup_streams, ref_predicates)
def test_fold_matches_the_full_replay_reference(stream, pred):
    assert filter_valid(stream, pred) == reference_filter(stream, pred)
    assert evaluate_predicate(pred, stream) == reference_valid(pred, stream)
    kept = filter_valid(stream, pred)
    assert evaluate_predicate(pred, kept) == reference_valid(pred, kept)

    vl, answers = ValidatedLedger(pred), []
    for r in stream:
        try:
            answers.append(vl.append(r))
        except DuplicateRecordError:
            answers.append("dup")
    assert answers == reference_appends(stream, pred)


@given(st.lists(st.tuples(st.integers(1, 6), any_payloads, history_moves), max_size=20),
       ref_predicates)
def test_validated_spec_matches_the_full_replay_reference(moves, pred):
    ops, model = [], []
    for i, (k, payload, move) in enumerate(moves):
        common = dict(op_id=f"9.{i}", client=0, c=i, invoke_i=2 * i, invoke_t=2 * i,
                      response_i=2 * i + 1, response_t=2 * i + 1)
        if move in ("get", "stale"):
            seq = tuple(r.rid for r in model)
            ops.append(Op(kind="get", seq=seq[:-1] if move == "stale" else seq, **common))
            continue
        r = Record(f"0.{k}", 0, payload)
        if move == "true":
            result = ACK if reference_valid(pred, model + [r]) else NACK
        else:
            result = {"ack": ACK, "nack": NACK, "other": None}[move]
        if result == ACK:
            model.append(r)
        ops.append(Op(kind="append", payload=payload, rid=r.rid, result=result, **common))

    v = check_validated_spec(ops, pred)
    expected = reference_validated_spec(ops, pred)
    if expected is None:
        assert v.ok
    else:
        assert (v.violated, v.witness) == (expected[0], [expected[1]])
