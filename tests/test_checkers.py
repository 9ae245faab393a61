import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ledgerlab import checkers
from ledgerlab.checkers import (
    ORACLE_AUTO_LIMIT,
    CheckerError,
    check_atomic,
    check_eventual,
    check_sequential_consistency,
    check_validated_spec,
    complete_history,
    linearize,
    verify_history,
)
from ledgerlab.histories import GET, pair_events
from ledgerlab.ledger import ACK, ALWAYS_TRUE, account_balance
from ledgerlab.sim import run
from ledgerlab.verdicts import DIVERGENCE, Verdict, failed, passed

from conftest import op, scenario


def hist(*ops):
    """A history as the checkers take it: its ops as a tuple in invoke order."""
    return tuple(sorted(ops, key=lambda o: o.invoke_i))


def gets_of(h):
    return [o for o in h if o.kind == "get"]


def appends_of(h):
    return [o for o in h if o.kind == "append"]


def integrity_and_chain(gets, appended):
    """`_integrity_and_chain` given the longest read of ``gets`` and its positions."""
    _, longest, pos = checkers._longest_read(gets)
    return checkers._integrity_and_chain(gets, set(appended), longest, pos)


class TestCompletion:
    def test_complete_history_is_its_own_single_candidate(self):
        ops = [op("0.1", "append", 0, 1), op("0.2", "get", 2, 3, seq=["0.1"])]
        assert complete_history(ops, []) == tuple(ops)

    def test_pending_gets_are_removed(self):
        pending = [op("1.1", "get", 4)]
        out = complete_history([op("0.1", "append", 0, 1)], pending)
        assert [o.kind for o in out] == ["append"]

    def test_pending_appends_fork_into_include_and_exclude(self):
        # the read pending append is kept and precedes nothing; the unread one
        # is dropped
        completed = [op("0.1", "get", 3, 6, seq=["1.1"])]
        pending = [op("1.1", "append", 1), op("2.1", "append", 2)]
        h = complete_history(completed, pending)
        assert [o.op_id for o in h] == ["1.1", "0.1"]
        assert h[0].response_i == math.inf
        # a probe read keeps a pending append too
        h = complete_history([], pending, [op("0.2", "get", 7, 8, seq=["2.1"])])
        assert [o.op_id for o in h] == ["2.1"]

    def test_forty_pending_appends_get_a_verdict(self):
        pending = [op(f"{i}.1", "append", i) for i in range(40)]
        read = [f"{i}.1" for i in range(0, 40, 2)]
        completed = [op("40.1", "get", 40, 41, seq=read)]
        probes = [op("40.2", "get", 42, 43, seq=read)]
        assert verify_history(completed, pending, "atomic").ok
        assert verify_history(completed, pending, "sequential").ok
        assert verify_history(completed, pending, "eventual", probe_ops=probes).ok
        bad = [op("40.1", "get", 40, 41, seq=[*read, "9.9"])]
        assert verify_history(bad, pending, "atomic").violated == "Fabrication"

    def test_include_candidate_saves_a_history_whose_record_was_read(self):
        completed = [op("0.1", "get", 1, 6, seq=["1.1"])]
        pending = [op("1.1", "append", 0, payload="x")]
        h = complete_history(completed, pending)
        assert [o.op_id for o in h] == ["1.1", "0.1"]
        assert verify_history(completed, pending, "atomic").ok
        # while the history without the read record is a fabrication
        assert check_atomic(hist(*completed)).violated == "Fabrication"


ORACLE_HARD_CAP = 12


def reference_linearize(ops, same_client_only=False):
    """Reference: an exhaustive search for a linearization, the ground truth
    for `linearize` on histories of at most ``ORACLE_HARD_CAP`` ops.

    DFS over schedulable operations with the ledger state carried along:
    an append extends the state, a get is schedulable only when its returned
    sequence equals the state exactly.  Visited (scheduled-set, state) pairs
    are memoized.  Returns the permutation, or None when none exists.
    """
    n = len(ops)
    if n > ORACLE_HARD_CAP:
        raise ValueError(f"{n} operations exceed the oracle bound of {ORACLE_HARD_CAP}")
    preds = [0] * n
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if i == j or not a.precedes(b):
                continue
            if same_client_only and a.client != b.client:
                continue
            preds[j] |= 1 << i

    target = (1 << n) - 1
    seen = set()
    order = []

    def dfs(mask, state):
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
                new_state = state + (op.op_id,)
            order.append(op)
            if dfs(mask | 1 << i, new_state):
                return True
            order.pop()
        return False

    return order if dfs(0, ()) else None


def enumerated_completions(completed, pending):
    """Reference: all 2^k include/exclude completions, most-inclusive first."""
    appends = [o for o in pending if o.kind == "append"]
    out = []
    for mask in range((1 << len(appends)) - 1, -1, -1):
        chosen = [o for i, o in enumerate(appends) if mask >> i & 1]
        out.append(hist(*sorted([*completed, *chosen], key=lambda o: o.invoke_i)))
    return out


def enumerated_verdict(completed, pending, checker, probe_ops=()):
    """Reference aggregation over the enumeration: pass iff some candidate
    passes, else the most-inclusive candidate's failure; the reference search
    runs over every candidate when all fit under ORACLE_AUTO_LIMIT."""
    candidates = enumerated_completions(completed, pending)
    prop = {"atomic": check_atomic, "sequential": check_sequential_consistency,
            "eventual": lambda h: check_eventual(h, probe_ops)}[checker]
    verdicts = []
    for cand in candidates:
        verdicts.append(prop(cand))
        if verdicts[-1].ok:
            break
    result = verdicts[-1] if verdicts[-1].ok else verdicts[0]
    if checker != "eventual" and max(len(c) for c in candidates) <= ORACLE_AUTO_LIMIT:
        same_client_only = checker == "sequential"
        oracle_ok = any(reference_linearize(c, same_client_only) is not None
                        for c in candidates)
        if oracle_ok != result.ok:
            return Verdict(DIVERGENCE, result.violated, list(result.witness), oracle_used=True)
        result.oracle_used = True
    return result


def crashy_split(rng, seed):
    """A simulator run with most of its clients (at most 8) crashing early,
    split into (completed, pending, probe gets); one client always survives so
    the probe phase has a reader."""
    clients = rng.randint(2, 9)
    crashed = rng.sample(range(clients), rng.randint(max(1, clients - 3), min(clients - 1, 8)))
    art = run(scenario(
        seed=seed, clients=clients, mode=rng.choice(("atomic", "sequential", "eventual")),
        max_delay=rng.choice((3, 10, 30)),
        client_crashes=[[c, rng.randint(1, 15)] for c in crashed],
        workload={"ops_per_client": rng.randint(1, 5), "append_ratio": rng.choice((0.6, 0.9))}))
    probe_from_t = art.probe_from_t
    completed, pending = pair_events([e for e in art.history if e.t < probe_from_t])
    probes, _ = pair_events([e for e in art.history if e.t >= probe_from_t])
    return completed, pending, probes


def mutate_reads(rng, completed, pending, probes):
    """Either erase one pending append's id from every returned sequence, or
    drop, swap or inject one id in one or two of them; half the injected ids
    are pending rids, the rest completed or fabricated ones."""
    pending_rids = [o.op_id for o in pending if o.kind == "append"]
    pool = [o.op_id for o in completed if o.kind == "append"] + ["9.99"]

    def mutate(g):
        seq = list(g.seq)
        how = rng.choice(("drop", "swap", "inject"))
        if how == "drop" and seq:
            del seq[rng.randrange(len(seq))]
        elif how == "swap" and len(seq) > 1:
            i = rng.randrange(len(seq) - 1)
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
        else:
            rid = rng.choice(pending_rids if pending_rids and rng.random() < 0.5 else pool)
            seq.insert(rng.randint(0, len(seq)), rid)
        return g._replace(seq=tuple(seq))

    ops = [*completed, *probes]
    gets = [i for i, o in enumerate(ops) if o.kind == "get"]
    if pending_rids and rng.random() < 0.3:
        rid = rng.choice(pending_rids)
        for i in gets:
            ops[i] = ops[i]._replace(seq=tuple(r for r in ops[i].seq if r != rid))
    else:
        for i in rng.sample(gets, min(len(gets), rng.randint(1, 2))):
            ops[i] = mutate(ops[i])
    return ops[:len(completed)], ops[len(completed):]


class TestCanonicalCompletion:
    def test_agrees_with_the_enumeration(self):
        rng = random.Random("canonical-vs-enumeration")
        stats = {"pending": 0, "read_pending": 0, "max_k": 0, "oracle": 0, "pass": 0, "fail": 0}
        for seed in range(300):
            completed, pending, probes = crashy_split(rng, seed)
            k = sum(o.kind == "append" for o in pending)
            assert k <= 8
            h = complete_history(completed, pending, probes)
            stats["pending"] += k > 0
            stats["max_k"] = max(stats["max_k"], k)
            stats["read_pending"] += any(o.response_i == math.inf for o in h)
            for variant in ((completed, probes), mutate_reads(rng, completed, pending, probes)):
                c, p = variant
                for checker in ("atomic", "sequential", "eventual"):
                    got = verify_history(c, pending, checker, probe_ops=p)
                    want = enumerated_verdict(c, pending, checker, p)
                    assert got.status == want.status, (seed, checker, got, want)
                    if checker != "eventual":
                        assert (got.violated, got.witness) == (want.violated, want.witness), \
                            (seed, checker, got, want)
                    stats["oracle"] += got.oracle_used
                    stats[got.status] += 1
        # every route is represented
        assert stats["read_pending"] > 30 and stats["pending"] > 150 and stats["max_k"] == 8
        assert stats["oracle"] > 50 and stats["pass"] > 300 and stats["fail"] > 300, stats

class TestSequentialSpecReplay:
    def test_append_then_get_passes(self):
        assert check_validated_spec([
            op("0.1", "append", 0, 1),
            op("0.2", "get", 2, 3, seq=["0.1"]),
        ], ALWAYS_TRUE).ok

    def test_get_of_unappended_record_fails(self):
        v = check_validated_spec([op("0.1", "get", 0, 1, seq=["9.9"])], ALWAYS_TRUE)
        assert v.violated == "SeqSpec" and v.witness == ["0.1"]

    def test_empty_history_passes(self):
        assert check_validated_spec([], ALWAYS_TRUE).ok

    def test_replay_is_order_sensitive(self):
        a = op("0.1", "append", 0, 1)
        g = op("0.2", "get", 2, 3, seq=())
        assert check_validated_spec([g, a], ALWAYS_TRUE).ok
        assert not check_validated_spec([a, g], ALWAYS_TRUE).ok


class TestAtomicChecker:
    def test_own_append_invisible_to_later_get_fails_a2(self):
        v = check_atomic(hist(
            op("0.1", "append", 0, 1),
            op("0.2", "get", 2, 3, seq=()),
        ))
        assert v.violated == "A2" and v.witness == ["0.1", "0.2"]

    def test_concurrent_append_and_empty_get_pass(self):
        h = hist(
            op("0.1", "append", 0, 3),
            op("1.1", "get", 1, 2, seq=()),
        )
        assert check_atomic(h).ok
        assert linearize(h) is not None  # the oracle agrees: get goes first

    def test_incomparable_returns_fail_prefix_chain(self):
        v = check_atomic(hist(
            op("0.1", "append", 0, 1),
            op("1.1", "append", 0, 1),
            op("0.2", "get", 2, 3, seq=["0.1", "1.1"]),
            op("1.2", "get", 2, 3, seq=["1.1", "0.1"]),
        ))
        assert v.violated == "PrefixChain"

    def test_ordered_appends_must_land_in_order(self):
        v = check_atomic(hist(
            op("0.1", "append", 0, 1),
            op("1.1", "append", 2, 3),
            op("1.2", "get", 4, 5, seq=["1.1", "0.1"]),
        ))
        assert v.violated == "A1"

    def test_later_record_present_without_earlier_fails_a1(self):
        v = check_atomic(hist(
            op("0.1", "append", 0, 1),
            op("1.1", "append", 2, 3),
            op("1.2", "get", 4, 5, seq=["1.1"]),
        ))
        assert v.violated == "A1"

    def test_ordered_gets_must_not_shrink(self):
        # the append stays concurrent with both gets so only A3 is at stake
        v = check_atomic(hist(
            op("0.1", "append", 0, 10),
            op("1.1", "get", 2, 3, seq=["0.1"]),
            op("2.1", "get", 4, 5, seq=()),
        ))
        assert v.violated == "A3" and v.witness == ["1.1", "2.1"]

    def test_get_before_append_cannot_see_the_record(self):
        v = check_atomic(hist(
            op("0.1", "get", 0, 1, seq=["1.1"]),
            op("1.1", "append", 2, 3),
        ))
        assert v.violated == "A4"

    def test_fabricated_and_duplicated_records_are_caught(self):
        assert check_atomic(hist(op("0.1", "get", 0, 1, seq=["7.7"]))).violated == "Fabrication"
        v = check_atomic(hist(
            op("0.1", "append", 0, 1),
            op("0.2", "get", 2, 3, seq=["0.1", "0.1"]),
        ))
        assert v.violated == "Duplicate"

    def test_empty_history_passes(self):
        assert check_atomic(hist()).ok


class TestSequentialConsistencyChecker:
    def separating_history(self):
        # c0's completed append is invisible to c1's later get: fails the
        # cross-client real-time check but is fine per-process.
        return (
            op("0.1", "append", 0, 1),
            op("1.1", "get", 2, 3, seq=()),
        )

    def test_cross_client_staleness_is_allowed(self):
        h = hist(*self.separating_history())
        assert check_sequential_consistency(h).ok
        assert linearize(h, same_client_only=True) is not None

    def test_the_same_history_fails_the_atomic_checker(self):
        h = hist(*self.separating_history())
        v = check_atomic(h)
        assert v.violated == "A2"
        assert linearize(h, same_client_only=False) is None

    def test_own_gets_must_not_shrink(self):
        # the record belongs to another client, so S3 stays out of the way
        v = check_sequential_consistency(hist(
            op("1.1", "append", 0, 1),
            op("0.1", "get", 2, 3, seq=["1.1"]),
            op("0.2", "get", 4, 5, seq=()),
        ))
        assert v.violated == "S4"

    def test_own_append_must_become_visible(self):
        v = check_sequential_consistency(hist(
            op("0.1", "append", 0, 1),
            op("0.2", "get", 2, 3, seq=()),
        ))
        assert v.violated == "S3"

    def test_get_cannot_see_own_future_append(self):
        v = check_sequential_consistency(hist(
            op("0.1", "get", 0, 1, seq=["0.2"]),
            op("0.2", "append", 2, 3),
        ))
        assert v.violated == "S2"

    def test_own_appends_keep_their_order(self):
        v = check_sequential_consistency(hist(
            op("0.1", "append", 0, 1),
            op("0.2", "append", 2, 3),
            op("1.1", "get", 4, 5, seq=["0.2"]),
        ))
        assert v.violated == "S1"

    def test_anything_atomic_accepts_it_accepts(self):
        for seed in range(40):
            art = run(scenario(seed=seed, mode="eventual",
                               workload={"ops_per_client": 8, "append_ratio": 0.6}))
            completed, pending = pair_events(art.history)
            va = verify_history(completed, pending, "atomic")
            vs = verify_history(completed, pending, "sequential")
            if va.ok:
                assert vs.ok


class TestEventualChecker:
    def workload(self):
        return [
            op("0.1", "append", 0, 1),
            op("1.1", "get", 2, 3, seq=()),  # stale read, fine
        ]

    def test_converged_probes_pass(self):
        probes = [
            op("0.2", "get", 4, 5, seq=["0.1"]),
            op("1.2", "get", 4, 6, seq=["0.1"]),
        ]
        assert check_eventual(hist(*self.workload()), probes).ok

    def test_append_missing_from_a_probe_fails(self):
        probes = [op("0.2", "get", 4, 5, seq=())]
        v = check_eventual(hist(*self.workload()), probes)
        assert v.violated == "ProbeCompleteness" and v.witness == ["0.1", "0.2"]

    def test_names_the_first_missing_append_and_the_first_probe_it_misses(self):
        # 2.1 is invoked first and read at position 2; probe 1.2 is the
        # shortest, but 0.3 is the first probe that misses 2.1
        h = hist(op("2.1", "append", 0, 1), op("0.1", "append", 1, 2),
                 op("1.1", "append", 2, 3), op("0.2", "get", 4, 5, seq=["0.1", "1.1", "2.1"]))
        probes = [op("0.3", "get", 10, 11, seq=["0.1", "1.1"]),
                  op("1.2", "get", 10, 12, seq=["0.1"])]
        v = check_eventual(h, probes)
        assert v.violated == "ProbeCompleteness" and v.witness == ["2.1", "0.3"]
        assert v.witness == nested_eventual(h, probes).witness

    def test_disagreeing_positions_fail(self):
        h = hist(op("0.1", "append", 0, 1), op("1.1", "append", 0, 1))
        probes = [
            op("0.2", "get", 4, 5, seq=["0.1", "1.1"]),
            op("1.2", "get", 4, 6, seq=["1.1", "0.1"]),
        ]
        v = check_eventual(h, probes)
        # caught as a chain break before the position comparison
        assert v.violated in ("PrefixChain", "ProbeCompleteness")

    def test_probe_fabrication_is_caught(self):
        probes = [op("0.2", "get", 4, 5, seq=["9.9"])]
        assert check_eventual(hist(), probes).violated == "Fabrication"

    def test_unread_pending_append_is_not_blamed(self):
        completed = [op("0.1", "append", 1, 2)]
        pending = [op("1.1", "append", 0)]
        probes = [op("0.2", "get", 4, 5, seq=())]
        v = verify_history(completed, pending, "eventual", probe_ops=probes)
        assert v.violated == "ProbeCompleteness" and v.witness == ["0.1", "0.2"]

    def test_refuses_without_probes(self):
        with pytest.raises(CheckerError):
            check_eventual(hist(*self.workload()), [])


def positional_eventual(h, probe_ops):
    """Reference: the eventual screen as it was before the set test, which
    also compared each record's position across the probes."""
    v = (checkers._non_ack_append(appends_of(h))
         or integrity_and_chain([*gets_of(h), *probe_ops], {op.op_id: op for op in appends_of(h)}))
    if v is not None:
        return v
    probe_pos = [(p, {rid: i for i, rid in enumerate(p.seq or ())}) for p in probe_ops]
    for a in appends_of(h):
        expected = None
        for p, pos in probe_pos:
            i = pos.get(a.op_id)
            if i is None or (expected is not None and i != expected):
                return failed("ProbeCompleteness", [a.op_id, p.op_id])
            expected = i
    return passed()


def nested_eventual(h, probe_ops):
    """Reference: the eventual screen's probe loop as it was before the one
    pass, every append against every probe in turn."""
    reads = [*gets_of(h), *probe_ops]
    _, longest, pos = checkers._longest_read(reads)
    v = (checkers._non_ack_append(appends_of(h))
         or checkers._integrity_and_chain(reads, {op.op_id for op in appends_of(h)}, longest, pos))
    if v is not None:
        return v
    for a in appends_of(h):
        for p in probe_ops:
            if pos.get(a.op_id, math.inf) >= len(p.seq):
                return failed("ProbeCompleteness", [a.op_id, p.op_id])
    return passed()


def mutate_probe(rng, probes, how):
    """Drop one id from, swap two adjacent ids of, or truncate one probe."""
    probes = list(probes)
    i = rng.randrange(len(probes))
    seq = list(probes[i].seq)
    if how == "drop" and seq:
        del seq[rng.randrange(len(seq))]
    elif how == "swap" and len(seq) > 1:
        j = rng.randrange(len(seq) - 1)
        seq[j], seq[j + 1] = seq[j + 1], seq[j]
    elif how == "truncate":
        seq = seq[:rng.randrange(len(seq))] if seq else seq
    probes[i] = probes[i]._replace(seq=tuple(seq))
    return probes


class TestEventualSetCheck:
    def test_agrees_with_the_positional_reference(self):
        rng = random.Random("eventual-set-vs-positions")
        stats = {"pass": 0, "fail": 0, "ProbeCompleteness": 0}
        for seed in range(400):
            clients = rng.randint(2, 5)
            art = run(scenario(
                seed=seed, clients=clients, mode="eventual", probe_gets=rng.randint(1, 3),
                max_delay=rng.choice((3, 10, 30)),
                crash_schedule={"random": {"max_crashes": 1, "until": 40}},
                client_crashes=[[0, rng.randint(1, 30)]] if rng.random() < 0.3 else [],
                workload={"ops_per_client": rng.randint(2, 8),
                          "append_ratio": rng.choice((0.3, 0.6, 0.9))}))
            probe_from_t = art.probe_from_t
            completed, pending = pair_events([e for e in art.history if e.t < probe_from_t])
            probes, _ = pair_events([e for e in art.history if e.t >= probe_from_t])
            for how in (None, "drop", "swap", "truncate"):
                p = mutate_probe(rng, probes, how) if how else probes
                h = complete_history(completed, pending, p)
                got = check_eventual(h, p)
                for reference in (positional_eventual, nested_eventual):
                    want = reference(h, p)
                    assert (got.status, got.violated, got.witness) == \
                        (want.status, want.violated, want.witness), (seed, how, got, want)
                stats[got.status] += 1
                stats["ProbeCompleteness"] += got.violated == "ProbeCompleteness"
        # 1600 cases, most of the mutated ones failing
        assert stats["pass"] > 300 and stats["fail"] > 900, stats
        assert stats["ProbeCompleteness"] > 300, stats


class TestOracle:
    def test_concurrent_appends_follow_the_returned_order(self):
        h = hist(
            op("0.1", "append", 0, 3, payload="a"),
            op("1.1", "append", 1, 4, payload="b"),
            op("0.2", "get", 5, 6, seq=["1.1", "0.1"]),
        )
        order = linearize(h)
        assert [o.op_id for o in order] == ["1.1", "0.1", "0.2"]
        assert check_validated_spec(order, ALWAYS_TRUE).ok  # replay fidelity

    def test_unlinearizable_history_yields_nothing(self):
        h = hist(
            op("0.1", "append", 0, 1),
            op("0.2", "get", 2, 3, seq=["0.1"]),
            op("1.1", "get", 4, 5, seq=()),  # shrinking gets, rt-ordered
        )
        assert linearize(h) is None

    def test_empty_history_linearizes_trivially(self):
        assert linearize(hist()) == []

    @pytest.mark.parametrize("n_ops", [13, 40])
    def test_histories_past_the_reference_cap_get_an_order_that_replays(self, n_ops):
        h = random_history(random.Random(n_ops), n_clients=4, n_ops=n_ops, noise=0)
        assert len(h) == n_ops > ORACLE_HARD_CAP
        for same_client_only in (False, True):
            assert is_linearization(linearize(h, same_client_only), h, same_client_only)

    def test_oracle_results_always_replay_clean(self):
        for seed in range(25):
            art = run(scenario(seed=seed, probe_gets=0,
                               workload={"ops_per_client": 4, "append_ratio": 0.5}))
            completed, _ = pair_events(art.history)
            order = linearize(hist(*completed))
            assert order is not None
            assert check_validated_spec(order, ALWAYS_TRUE).ok


class TestValidatedSpecReplay:
    def test_bank_example_passes(self):
        pred = account_balance({"A": 0})
        assert check_validated_spec([
            op("0.1", "append", 0, 1, payload="deposit:A:5"),
            op("0.2", "append", 2, 3, payload="withdraw:A:7", result="nack"),
            op("0.3", "get", 4, 5, seq=["0.1"]),
        ], pred).ok

    def test_ack_on_an_invalid_append_fails_2a(self):
        pred = account_balance({"A": 0})
        v = check_validated_spec([
            op("0.1", "append", 0, 1, payload="withdraw:A:7", result="ack"),
        ], pred)
        assert v.violated == "Def5-2a" and v.witness == ["0.1"]

    def test_nack_on_a_valid_append_fails_2b(self):
        from ledgerlab.ledger import ALWAYS_TRUE
        v = check_validated_spec([
            op("0.1", "append", 0, 1, payload="x", result="nack"),
        ], ALWAYS_TRUE)
        assert v.violated == "Def5-2b"

    def test_nacked_append_leaves_state_unchanged(self):
        pred = account_balance({"A": 0})
        assert check_validated_spec([
            op("0.1", "append", 0, 1, payload="withdraw:A:7", result="nack"),
            op("0.2", "get", 2, 3, seq=()),
        ], pred).ok


class TestVerifyHistory:
    def test_oracle_runs_on_small_histories(self):
        completed = [op("0.1", "append", 0, 1), op("0.2", "get", 2, 3, seq=["0.1"])]
        v = verify_history(completed, [], "atomic")
        assert v.ok and v.oracle_used

    def test_oracle_skipped_above_the_limit(self):
        completed = [op(f"{i}.1", "append", 2 * i, 2 * i + 1) for i in range(11)]
        v = verify_history(completed, [], "atomic")
        assert v.ok and not v.oracle_used

    def test_disagreement_is_reported_as_divergence(self, monkeypatch):
        bad = [
            op("0.1", "append", 0, 1),
            op("0.2", "get", 2, 3, seq=()),
        ]
        monkeypatch.setattr(checkers, "check_atomic", lambda h: passed())
        v = verify_history(bad, [], "atomic")
        assert v.status == "divergence" and v.oracle_used

    def test_first_failure_candidate_supplies_the_witness(self):
        completed = [op("0.1", "get", 1, 2, seq=["0.9"])]
        v = verify_history(completed, [], "atomic")
        assert v.status == "fail" and v.witness

    def test_an_unknown_checker_is_refused(self):
        with pytest.raises(ValueError, match="^unknown checker 'bogus'$"):
            verify_history([], [], "bogus")


def violates_named_property(tag, witness_ops):
    """Evaluate a property's defining condition on the witness ops alone.

    The S tags are the A conditions under same-client precedence, so their
    ordered pair must come from one client."""
    if tag.startswith("S") and witness_ops[0].client != witness_ops[1].client:
        return False
    if tag in ("A2", "S3"):
        a, g = witness_ops
        return a.precedes(g) and a.op_id not in g.seq
    if tag in ("A3", "S4"):
        g1, g2 = witness_ops
        return g1.precedes(g2) and g2.seq[:len(g1.seq)] != g1.seq
    if tag in ("A4", "S2"):
        g, a = witness_ops
        return g.precedes(a) and a.op_id in g.seq
    if tag in ("A1", "S1"):
        a1, a2, g = witness_ops
        pos = {rid: i for i, rid in enumerate(g.seq)}
        return a1.precedes(a2) and a2.op_id in pos and \
            pos.get(a1.op_id, len(g.seq) + 1) > pos[a2.op_id]
    if tag == "PrefixChain":
        g1, g2 = witness_ops
        s1, s2 = g1.seq, g2.seq
        return s1[:len(s2)] != s2 and s2[:len(s1)] != s1
    raise NotImplementedError(tag)


def random_history(rng, n_clients, n_ops, noise=None):
    """A well-formed but otherwise arbitrary concurrent history.

    Per-client operations stay serial; gets return random (often wrong)
    orderings of the appended record ids, so violations of every kind occur.
    With a ``noise`` probability, gets instead read prefixes of one order,
    the order of a random point inside each op's interval (a linearization);
    then each adjacent pair of that order swaps, and each get's length moves
    by one, with probability ``noise``.
    """
    from ledgerlab.histories import Op

    counters = [0] * n_clients
    intervals = []
    per_client_t = [0] * n_clients
    for _ in range(n_ops):
        cid = rng.randrange(n_clients)
        counters[cid] += 1
        kind = rng.choice(("get", "append"))
        start = per_client_t[cid] + rng.randrange(0, 4)
        end = start + 1 + rng.randrange(0, 5)
        per_client_t[cid] = end + rng.randrange(0, 2)
        intervals.append((start, end, f"{cid}.{counters[cid]}", cid, kind))
    points = []
    for start, end, op_id, cid, kind in intervals:
        points.append((start, 0, rng.random(), op_id, "inv"))
        points.append((end, 1, rng.random(), op_id, "res"))
    points.sort()
    idx = {}
    for i, (_, _, _, op_id, ev) in enumerate(points):
        idx.setdefault(op_id, {})[ev] = i
    rids = [op_id for _, _, op_id, _, k in intervals if k == "append"]
    if noise is not None:
        point = {op_id: start + rng.uniform(0.01, 0.99) * (end - start)
                 for start, end, op_id, _, _ in intervals}
        order = sorted(rids, key=point.get)
        for i in range(len(order) - 1):
            if rng.random() < noise:
                order[i], order[i + 1] = order[i + 1], order[i]
    ops = []
    for start, end, op_id, cid, kind in intervals:
        seq = None
        if kind == "get" and noise is not None:
            n = sum(point[r] < point[op_id] for r in rids)
            if rng.random() < noise:
                n = min(max(n + rng.choice((-1, 1)), 0), len(order))
            seq = tuple(order[:n])
        elif kind == "get":
            pool = list(rids)
            rng.shuffle(pool)
            seq = tuple(pool[:rng.randrange(0, len(pool) + 1)])
        ops.append(op(op_id, kind, idx[op_id]["inv"], idx[op_id]["res"], seq=seq))
    return hist(*sorted(ops, key=lambda o: o.invoke_i))


class TestPropertyOracleEquivalence:
    def test_screens_agree_with_the_oracle_on_arbitrary_histories(self):
        # The screens are exact (see the checkers module docstring): each is
        # a necessary condition, and when all pass the (rank, invoke) order
        # is a linearization.  This checks that claim on histories the
        # protocols would never produce.
        import random as _random
        rng = _random.Random("screen-vs-oracle")
        passes = 0
        for _ in range(1500):
            h = random_history(rng, n_clients=rng.choice((1, 2, 3)),
                               n_ops=rng.choice((3, 5, 7)))
            for checkfn, same_client_only in ((check_atomic, False),
                                              (check_sequential_consistency, True)):
                prop_ok = checkfn(h).ok
                oracle_ok = linearize(h, same_client_only) is not None
                assert prop_ok == oracle_ok, (h, same_client_only)
                passes += prop_ok
        assert passes > 100  # both outcomes are represented


def is_linearization(order, h, same_client_only):
    """``order`` holds each op of ``h`` once, respects its precedence, and
    replays the ledger, a pending append taking effect as an ack."""
    at = {o.op_id: i for i, o in enumerate(order)}
    return (len(order) == len(h) and at.keys() == {o.op_id for o in h}
            and all(at[a.op_id] < at[b.op_id] for a in h for b in h
                    if a.precedes(b) and (not same_client_only or a.client == b.client))
            and check_validated_spec([o._replace(result=ACK) if o.kind == "append"
                                      and o.result is None else o for o in order],
                                     ALWAYS_TRUE).ok)


def small_history(rng):
    """A `random_history` of 1..12 ops on 1..4 clients, in any of its noise
    modes, with about 15 % of its appends left pending and 5 % nacked."""
    h = random_history(rng, n_clients=rng.randint(1, 4), n_ops=rng.randint(1, ORACLE_HARD_CAP),
                       noise=rng.choice((None, 0, 0.05, 0.2, 0.5)))
    out = []
    for o in h:
        r = rng.random() if o.kind == "append" else 1
        if r < 0.15:
            o = o._replace(response_i=math.inf, response_t=None, result=None)
        elif r < 0.2:
            o = o._replace(result="nack")
        out.append(o)
    return tuple(out)


def search_matches_the_reference(h, same_client_only):
    """`linearize` finds an order iff the exhaustive reference does, and any
    order it returns is a linearization; returns whether one was found."""
    order = linearize(h, same_client_only)
    assert (order is None) == (reference_linearize(h, same_client_only) is None), \
        (h, same_client_only, order)
    assert order is None or is_linearization(order, h, same_client_only), (h, order)
    return order is not None


class TestSearchAgainstTheReference:
    def test_agrees_on_random_histories(self):
        rng = random.Random("search-vs-reference")
        found = Counter()
        for _ in range(1500):
            h = small_history(rng)
            for same_client_only in (False, True):
                found[search_matches_the_reference(h, same_client_only)] += 1
        assert found[True] > 600 and found[False] > 600, found  # both outcomes are represented

    def test_agrees_with_the_screens_at_campaign_scale(self):
        # perfbench's campaign shape: about 70 ops a history, past any
        # exhaustive search, in all three modes so both outcomes occur
        found = Counter()
        for mode in ("atomic", "sequential", "eventual"):
            sc = scenario(clients=4, mode=mode,
                          workload={"ops_per_client": 20, "append_ratio": 0.6},
                          crash_schedule={"random": {"max_crashes": 1, "until": 150}},
                          client_crashes=[[3, 60]])
            for seed in range(20):
                h = complete_history(*pair_events(run(sc.with_seed(seed)).history))
                for screens, same_client_only in ((check_atomic, False),
                                                  (check_sequential_consistency, True)):
                    order = linearize(h, same_client_only)
                    assert (order is not None) == screens(h).ok, (mode, seed, same_client_only)
                    assert order is None or is_linearization(order, h, same_client_only)
                    found[order is not None] += 1
        assert found[True] > 60 and found[False] > 20, found


@given(st.randoms(use_true_random=False), st.booleans())
def test_linearize_matches_the_exhaustive_reference(rng, same_client_only):
    search_matches_the_reference(small_history(rng), same_client_only)


class TestWitnessMinimality:
    @pytest.mark.parametrize("ops,tag", [
        ((op("0.1", "append", 0, 1), op("1.1", "get", 2, 3, seq=())), "A2"),
        ((op("0.1", "append", 0, 10),
          op("1.1", "get", 2, 3, seq=["0.1"]),
          op("2.1", "get", 4, 5, seq=())), "A3"),
        ((op("0.1", "get", 0, 1, seq=["1.1"]), op("1.1", "append", 2, 3)), "A4"),
        ((op("0.1", "append", 0, 1), op("1.1", "append", 2, 3),
          op("1.2", "get", 4, 5, seq=["1.1"])), "A1"),
        ((op("0.1", "append", 0, 1), op("1.1", "append", 0, 1),
          op("0.2", "get", 2, 3, seq=["0.1", "1.1"]),
          op("1.2", "get", 2, 3, seq=["1.1", "0.1"])), "PrefixChain"),
        ((op("0.1", "append", 0, 1), op("0.2", "append", 2, 3),
          op("1.1", "get", 4, 5, seq=["0.2"])), "S1"),
        ((op("0.1", "get", 0, 1, seq=["0.2"]), op("0.2", "append", 2, 3)), "S2"),
        ((op("1.1", "append", 0, 1), op("0.1", "append", 2, 3),
          op("0.2", "get", 4, 5, seq=["1.1"])), "S3"),
        ((op("1.1", "append", 0, 1), op("0.1", "get", 2, 3, seq=["1.1"]),
          op("0.2", "get", 4, 5, seq=())), "S4"),
    ])
    def test_witnesses_exhibit_the_named_violation_in_isolation(self, ops, tag):
        h = hist(*ops)
        v = (check_sequential_consistency if tag.startswith("S") else check_atomic)(h)
        assert v.violated == tag
        by_id = {o.op_id: o for o in h}
        witness_ops = [by_id[w] for w in v.witness if w in by_id]
        assert violates_named_property(tag, witness_ops)


def serial_history(steps, late=None, unread=None):
    """The history of ``steps``, (client, kind) pairs, run one at a time, each
    get reading every record appended before it, and the op ids of the
    steps.  Step ``late`` is then invoked after every other op has returned,
    and the record of step ``unread`` is left out of every read.  Op ids are
    ``<client>.<c>`` with c counted in invoke order."""
    times = [2 * i for i in range(len(steps))]
    if late is not None:
        times[late] = 2 * len(steps)
    ids, counters = {}, Counter()
    for i in sorted(range(len(steps)), key=times.__getitem__):
        client = steps[i][0]
        counters[client] += 1
        ids[i] = f"{client}.{counters[client]}"
    ops, state = [], []
    for i, (client, kind) in enumerate(steps):
        if kind == "append" and i != unread:
            state.append(ids[i])
        ops.append(op(ids[i], kind, times[i], times[i] + 1,
                      seq=list(state) if kind == "get" else None))
    return hist(*ops), ids


KINDS = st.sampled_from(["append", "get"])
CLIENTS = st.integers(0, 3)


def _others(x):
    """A client other than ``x``."""
    return st.integers(0, 2).map(lambda c: c + (c >= x))


@st.composite
def reads_of_a_later_append(draw, own_client):
    """A serial history of at most 10 ops in which client x's append is
    invoked after a get that reads its record returned: the get is x's own
    with ``own_client``, else every get after the append's slot is another
    client's.  Returns the history and the append's op id."""
    x = draw(CLIENTS)
    before = draw(st.lists(st.tuples(CLIENTS, KINDS), max_size=4))
    after = draw(st.lists(st.tuples(CLIENTS if own_client else _others(x), KINDS), max_size=4))
    reader = x if own_client else draw(_others(x))
    h, ids = serial_history([*before, (x, "append"), *after, (reader, "get")], late=len(before))
    return h, ids[len(before)]


@given(reads_of_a_later_append(own_client=False))
def test_a_get_that_reads_another_clients_later_append_fails_a4(case):
    h, late = case
    v = check_atomic(h)
    by_id = {o.op_id: o for o in h}
    assert v.violated == "A4" and v.witness[1] == late
    get = by_id[v.witness[0]]
    assert get.kind == "get" and get.client != by_id[late].client and late in get.seq
    assert linearize(h) is None


@given(reads_of_a_later_append(own_client=True))
def test_a_get_that_reads_its_own_clients_later_append_fails_s2(case):
    h, late = case
    v = check_sequential_consistency(h)
    by_id = {o.op_id: o for o in h}
    assert v.violated == "S2" and v.witness[1] == late
    get = by_id[v.witness[0]]
    assert get.kind == "get" and get.client == by_id[late].client and late in get.seq
    assert linearize(h, same_client_only=True) is None


@st.composite
def reads_without_an_earlier_append(draw):
    """A serial history of at most 10 ops in which client x appends twice in
    a row, other clients' ops between, and no get reads the first record,
    while the last op, a get, reads the second.  Returns the history and the
    two appends' op ids."""
    x = draw(CLIENTS)
    before = draw(st.lists(st.tuples(CLIENTS, KINDS), max_size=3))
    between = draw(st.lists(st.tuples(_others(x), KINDS), max_size=2))
    after = draw(st.lists(st.tuples(CLIENTS, KINDS), max_size=2))
    first, second = len(before), len(before) + 1 + len(between)
    h, ids = serial_history([*before, (x, "append"), *between, (x, "append"), *after,
                             (draw(CLIENTS), "get")], unread=first)
    return h, ids[first], ids[second]


@given(reads_without_an_earlier_append())
def test_a_get_that_reads_a_clients_later_append_but_not_its_earlier_one_fails_s1(case):
    h, first, second = case
    v = check_sequential_consistency(h)
    assert v.violated == "S1" and v.witness[:2] == [first, second]
    assert all(first not in o.seq for o in gets_of(h)) and second in h[-1].seq
    assert linearize(h, same_client_only=True) is None


def pairwise_ordering_violation(h, same_client_only):
    """Reference: the four ordering conditions checked over every precedence
    pair, as the screens did before the rank sweep."""
    tag = {"aa": "S1", "ga": "S2", "ag": "S3", "gg": "S4"} if same_client_only \
        else {"aa": "A1", "ag": "A2", "gg": "A3", "ga": "A4"}
    gets = gets_of(h)
    appends = [op for op in appends_of(h) if op.result == "ack" or op.result is None]
    longest = ()
    longest_get = None
    for g in gets:
        if len(g.seq or ()) >= len(longest):
            longest = g.seq or ()
            longest_get = g
    pos = {rid: i for i, rid in enumerate(longest)}
    membership = {g.op_id: frozenset(g.seq or ()) for g in gets}

    def pairs(xs, ys):
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
        p2 = pos.get(a2.op_id)
        if p2 is None:
            continue
        p1 = pos.get(a1.op_id)
        if p1 is None or p1 > p2:
            return failed(tag["aa"], [a1.op_id, a2.op_id, longest_get.op_id])
    # append -> get: the record is visible.
    for a, g in pairs(appends, gets):
        if a.op_id not in membership[g.op_id]:
            return failed(tag["ag"], [a.op_id, g.op_id])
    # get -> get: the earlier one returned a prefix.
    for g1, g2 in pairs(gets, gets):
        if len(g1.seq or ()) > len(g2.seq or ()):
            return failed(tag["gg"], [g1.op_id, g2.op_id])
    # get -> append: the record cannot have been visible yet.
    for g, a in pairs(gets, appends):
        if a.op_id in membership[g.op_id]:
            return failed(tag["ga"], [g.op_id, a.op_id])
    return None


def pairwise_check(h, same_client_only):
    """Reference screen: shared integrity and chain checks, then the pairwise loop."""
    appended = {o.op_id: o for o in appends_of(h)}
    return (integrity_and_chain(gets_of(h), appended)
            or pairwise_ordering_violation(h, same_client_only) or passed())


def rank_order(h):
    """The ops sorted by (rank, invoke index), ranks read off the longest get."""
    longest = max((g.seq for g in gets_of(h)), key=len, default=())
    pos = {rid: i for i, rid in enumerate(longest)}

    def rank(o):
        return 2 * len(o.seq) if o.kind == "get" else 2 * pos.get(o.op_id, math.inf) + 1
    return sorted(h, key=lambda o: (rank(o), o.invoke_i))


def sweep_corpus(rng):
    """Near-linearizable random histories of 20-200 ops, then simulator
    histories (some pending appends, eventual-mode staleness) with and
    without mutated reads."""
    for _ in range(200):
        yield random_history(rng, rng.randint(1, 8), rng.randint(20, 200),
                             noise=rng.choice((0, 0.002, 0.005, 0.01, 0.03)))
    for seed in range(60):
        completed, pending, probes = crashy_split(rng, seed)
        for c, p in ((completed, probes), mutate_reads(rng, completed, pending, probes)):
            h = complete_history(c, pending, p)
            yield h


ORDER_TAGS = {"A1", "A2", "A3", "A4", "S1", "S2", "S3", "S4"}


class TestRankSweep:
    def test_agrees_with_the_pairwise_reference(self):
        rng = random.Random("sweep-vs-pairwise")
        stats = {"pass": 0, "fail": 0, "order_fail": 0, "sequential_only": 0}
        for h in sweep_corpus(rng):
            by_id = {o.op_id: o for o in h}
            oks = []
            for checkfn, same_client_only in ((check_atomic, False),
                                              (check_sequential_consistency, True)):
                got = checkfn(h)
                want = pairwise_check(h, same_client_only)
                assert got.ok == want.ok, (h, same_client_only, got, want)
                if got.violated in ORDER_TAGS:
                    witness_ops = [by_id[w] for w in got.witness]
                    assert violates_named_property(got.violated, witness_ops), (h, got)
                    stats["order_fail"] += 1
                stats["pass" if got.ok else "fail"] += 1
                oks.append(got.ok)
            stats["sequential_only"] += oks == [False, True]
        assert stats["pass"] > 200 and stats["order_fail"] > 60, stats
        assert stats["sequential_only"] > 10, stats

    def test_passing_histories_replay_in_rank_order(self):
        rng = random.Random("rank-order")
        passed_by = {False: 0, True: 0}
        for _ in range(800):
            h = random_history(rng, rng.randint(1, 4), rng.randint(2, 40),
                               noise=rng.choice((None, 0, 0.05, 0.2)))
            for checkfn, same_client_only in ((check_atomic, False),
                                              (check_sequential_consistency, True)):
                if not checkfn(h).ok:
                    continue
                order = rank_order(h)
                at = {o.op_id: i for i, o in enumerate(order)}
                for x in h:
                    for y in h:
                        if x.precedes(y) and (not same_client_only or x.client == y.client):
                            assert at[x.op_id] < at[y.op_id], (h, x, y)
                assert check_validated_spec(order, ALWAYS_TRUE).ok, h
                passed_by[same_client_only] += 1
        assert min(passed_by.values()) > 150, passed_by


class TestNonAckAppend:
    @pytest.mark.parametrize("checker", ["atomic", "sequential"])
    @pytest.mark.parametrize("empty_gets", [0, 10])
    def test_nacked_append_fails_seqspec_with_or_without_the_oracle(self, checker, empty_gets):
        completed = [op("0.1", "append", 0, 1, result="nack"), op("1.1", "get", 2, 3, seq=()),
                     *(op(f"1.{k}", "get", 2 * k, 2 * k + 1, seq=()) for k in range(2, 2 + empty_gets))]
        v = verify_history(completed, [], checker)
        assert (v.status, v.violated, v.witness) == ("fail", "SeqSpec", ["0.1"])
        assert v.oracle_used == (len(completed) <= ORACLE_AUTO_LIMIT)


def loop_integrity_and_chain(gets, appended):
    """Reference: `_integrity_and_chain` as it was before its tuple-and-set
    test, walking every returned id."""
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


def mutate_one_read(rng, gets, appended):
    """Drop, swap, inject or duplicate one id of one get, the longest one half
    the time; an injected id is, half the time each, an appended one or the
    fabricated ``9.99``."""
    gets = list(gets)
    i = (max(range(len(gets)), key=lambda k: len(gets[k].seq)) if rng.random() < 0.5
         else rng.randrange(len(gets)))
    seq = list(gets[i].seq)
    how = rng.choice(("drop", "swap", "inject", "duplicate"))
    if how == "drop" and seq:
        del seq[rng.randrange(len(seq))]
    elif how == "swap" and len(seq) > 1:
        j = rng.randrange(len(seq) - 1)
        seq[j], seq[j + 1] = seq[j + 1], seq[j]
    elif how == "duplicate" and seq:
        seq.insert(rng.randint(0, len(seq)), rng.choice(seq))
    else:
        fabricate = not appended or rng.random() < 0.5
        seq.insert(rng.randint(0, len(seq)), "9.99" if fabricate else rng.choice([*appended]))
    gets[i] = gets[i]._replace(seq=tuple(seq))
    return gets


def chain_corpus(rng):
    """(gets, appended) pairs: random histories, then simulator histories of
    every mode with their probes, each as recorded and with one read mutated."""
    for _ in range(300):
        h = random_history(rng, rng.randint(1, 6), rng.randint(2, 80),
                           noise=rng.choice((None, 0, 0.01, 0.05, 0.2)))
        yield gets_of(h), {o.op_id: o for o in appends_of(h)}
    for seed in range(150):
        completed, pending, probes = crashy_split(rng, seed)
        h = complete_history(completed, pending, probes)
        gets, appended = [*gets_of(h), *probes], {o.op_id: o for o in appends_of(h)}
        yield gets, appended
        if gets:
            for _ in range(4):
                yield mutate_one_read(rng, gets, appended), appended


class TestChainScreenFastPath:
    def test_agrees_with_the_loop_reference(self):
        rng = random.Random("chain-screen-vs-loop")
        stats = {"pass": 0, "Fabrication": 0, "Duplicate": 0, "PrefixChain": 0}
        for gets, appended in chain_corpus(rng):
            got = integrity_and_chain(gets, appended)
            want = loop_integrity_and_chain(gets, appended)
            assert got == want, (gets, got, want)
            stats[got.violated if got else "pass"] += 1
        assert min(stats.values()) > 40, stats
