import random
import sys
from bisect import bisect_left, bisect_right
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rounds_lab import oracle
from rounds_lab.cake import CutQuery, DensityBackend, EvalQuery, PiecewiseDensity
from rounds_lab.harness import ExperimentConfig, run_experiment
from rounds_lab.oracle import (EQUAL, GREATER, LESS, TARGET, ComparisonQuery,
                               HiddenInstance, MalformedQuery, ProductBatch,
                               RankQuery, RationalAnswers, RoundLimitExceeded,
                               RoundTranscript, Session, check_index, compare,
                               is_identity, is_permutation, narrow,
                               open_session, pairs_of, random_ranks, rank_run)
from rounds_lab.rank_sort import AdversaryState
from rounds_lab.reductions import (AdversaryCakeBackend, LocateComparisonBackend,
                                   SelectComparisonBackend,
                                   ordered_to_locate_adapter, run_reduction)
from conftest import answers_consistent, session_for, shuffled_ranks, sorted_instance

perms = st.permutations(list(range(1, 7)))


def test_compare():
    assert compare(1, 2) == LESS
    assert compare(2, 2) == EQUAL
    assert compare(3, 2) == GREATER


def test_instance_validation():
    with pytest.raises(ValueError):
        HiddenInstance((1, 1, 3))
    with pytest.raises(ValueError):
        HiddenInstance((1, 2, 3), target_index=4)
    inst = HiddenInstance((2, 3, 1))
    assert inst.n == 3
    assert inst.ranks[3 - 1] == 1
    with pytest.raises(ValueError):
        inst.target_rank


def test_range_instance_validation():
    n = 50
    for bad in (range(0, n), range(2, n + 2), range(1, 2 * n, 2), range(n + 1, 1, -1)):
        with pytest.raises(ValueError):
            HiddenInstance(bad)
    for good in (range(1, n + 1), range(n, 0, -1), shuffled_ranks(n, 3),
                 tuple(range(1, n + 1)), range(1, 1)):
        inst = HiddenInstance(good, target_index=n if len(good) else None)
        assert inst.n == len(good)
    inst = HiddenInstance(range(n, 0, -1), target_index=1)
    assert inst.target_rank == n and inst.ranks[n - 1] == 1
    with pytest.raises(ValueError):
        HiddenInstance(range(1, n + 1), target_index=n + 1)


def test_target_index_must_be_an_exact_int():
    """A float or a bool names no item: it is refused when the instance is
    built, not by a later query about the target."""
    for bad in (2.0, True, "2"):
        with pytest.raises(ValueError, match="target_index must be an int"):
            HiddenInstance(range(1, 5), target_index=bad)
    inst = HiddenInstance(range(1, 5), target_index=2)
    assert open_session(inst, 1).submit_round([RankQuery(TARGET, 2)]) == EQUAL


def test_hidden_instance_refuses_a_malformed_block_in_the_opponents_order():
    """Query by query, a threshold is judged before its item, so a block
    whose first threshold and first item are both bad reports the
    threshold, and one whose first threshold passes reports the item;
    `AdversaryState` judges the same blocks the same way."""
    inst = HiddenInstance(shuffled_ranks(6, 2), target_index=1)
    batches = [
        (([9], [0, 3]), "threshold out of range: 0"),
        (([9], [3, 0]), "item index out of range: 9"),
        (([1, 2], [3, 1, 0]), "threshold out of range: 0"),
        (([1, 9], [3, 1]), "item index out of range: 9"),
        (([9, 1], [3, True]), "item index out of range: 9"),
        (([1], [3, 2.0]), "threshold out of range: 2.0"),
    ]
    for bad, message in batches:
        with pytest.raises(MalformedQuery) as raised:
            inst.answer_batch(ProductBatch(RankQuery, [([2, 3, 4], [2, 5]), bad]))
        assert str(raised.value) == message


def test_check_index_passes_1_to_n_and_names_what_it_refuses():
    """The one index rule of every backend: an exact int in 1..n passes,
    anything else raises a MalformedQuery that names what was asked for."""
    check_index(1, 5, "agent")
    check_index(5, 5, "agent")
    for bad in (0, 6, True, 1.0, "3", None):
        for what in ("item index", "threshold", "agent"):
            with pytest.raises(MalformedQuery) as raised:
                check_index(bad, 5, what)
            assert str(raised.value) == "%s out of range: %r" % (what, bad)


@st.composite
def ascending_thresholds(draw):
    """Ascending thresholds: a tuple with repeats, or a range of any
    positive step, either maybe empty."""
    if draw(st.booleans()):
        return tuple(sorted(draw(st.lists(st.integers(-2, 12), max_size=8))))
    return range(draw(st.integers(-2, 12)), draw(st.integers(-2, 30)),
                 draw(st.integers(1, 5)))


@given(ascending_thresholds(), st.integers(-4, 16))
def test_rank_run_answers_as_a_compare_per_threshold(ts, r):
    """`rank_run` gives what comparing the rank with each threshold gives,
    with no hint and with every valid (lo, hi) hint: the thresholds before
    lo below r, those from hi on above it."""
    want = "".join(compare(r, t) for t in ts)
    assert rank_run(ts, r) == want
    for lo in range(bisect_left(ts, r) + 1):
        for hi in range(bisect_right(ts, r), len(ts) + 1):
            assert rank_run(ts, r, lo, hi) == want


@given(ascending_thresholds(), st.integers(-4, 16), st.integers(-4, 16), st.data())
def test_narrow_reads_a_run_as_a_scan_in_threshold_order(ts, lo, hi, data):
    """`narrow` ends where a scan of the run answer by answer ends: the
    first `=` pins the rank at its threshold, every `<` caps it below its
    threshold, every `>` floors it above, and a foreign symbol says
    nothing. Runs are a rank's own or arbitrary, so often inconsistent."""
    run = data.draw(st.one_of(
        st.integers(-4, 16).map(lambda r: rank_run(ts, r)),
        st.text("<=>?", min_size=len(ts), max_size=len(ts))), label="run")
    want = lo, hi
    for answer, t in zip(run, ts):
        if answer == EQUAL:
            want = t, t
            break
        if answer == LESS:
            want = want[0], min(want[1], t - 1)
        elif answer == GREATER:
            want = max(want[0], t + 1), want[1]
    assert narrow(run, ts, lo, hi) == want


@given(perms)
def test_rank_queries_answer_by_rank(ranks):
    inst = HiddenInstance(tuple(ranks))
    sess = open_session(inst, 1)
    answers = sess.submit_round(
        [RankQuery(i, 3) for i in range(1, 7)])
    assert answers == "".join(compare(r, 3) for r in ranks)


def test_target_reference_and_promise():
    sess = session_for(8, 2, target_rank=5)
    assert sess.promised_rank == 5
    a = sess.submit_round([RankQuery(TARGET, 4), RankQuery(TARGET, 5)])
    assert a == GREATER + EQUAL
    sess = session_for(8, 2)
    with pytest.raises(MalformedQuery):
        sess.submit_round([RankQuery(TARGET, 4)])


def test_comparison_queries():
    inst = HiddenInstance((3, 1, 2), target_index=1)
    sess = open_session(inst, 1)
    a = sess.submit_round([ComparisonQuery(1, 2), ComparisonQuery(TARGET, 3),
                           ComparisonQuery(2, 3)])
    assert a == GREATER + GREATER + LESS
    sess = open_session(inst, 1)
    with pytest.raises(MalformedQuery):
        sess.submit_round([ComparisonQuery(2, 2)])


# (name, backend factory, a valid query, a query the backend rejects)
SESSION_BACKENDS = (
    ("oracle", lambda: sorted_instance(4), RankQuery(1, 2), RankQuery(1, 0)),
    ("opponent", lambda: AdversaryState(4), RankQuery(1, 2), RankQuery(9, 1)),
    ("density", lambda: DensityBackend([PiecewiseDensity((0, 1), (1,))] * 2),
     CutQuery(1, Fraction(1, 2)), EvalQuery(1, Fraction(3, 2))),
    ("locate view", lambda: LocateComparisonBackend(session_for(4, 2, 3)),
     RankQuery(TARGET, 2), RankQuery(1, 2)),
    ("select view", lambda: SelectComparisonBackend(session_for(4, 2, 3)),
     RankQuery(1, 3), RankQuery(1, 2)),
)


def test_round_limit_and_empty_batch_charge():
    """One session contract, whichever backend answers the batches: the
    backend's block (a str of symbols, or the density backend's
    RationalAnswers) is returned and kept in the transcript as it is."""
    for name, backend, good, bad in SESSION_BACKENDS:
        form = RationalAnswers if name == "density" else str
        with pytest.raises(ValueError):
            Session(backend(), 0)
        sess = Session(backend(), 2)
        empty = sess.submit_round([])
        assert empty.__class__ is form and len(empty) == 0, name
        with pytest.raises((MalformedQuery, ValueError)):
            sess.submit_round([good, bad])
        assert sess.rounds_used == 1, name  # a rejected batch is free
        answers = sess.submit_round([good])
        assert answers.__class__ is form and len(answers) == 1, name
        assert sess.rounds_used == 2, name
        with pytest.raises(RoundLimitExceeded):
            sess.submit_round([good])
        tr = sess.transcript()
        assert tr.batches[0][1] is empty and tr.batches[1][1] is answers, name
        assert tr.round_sizes == (0, 1), name
        assert tr.total_queries == 1, name


def test_repeated_queries_are_charged():
    sess = session_for(4, 1)
    sess.submit_round([RankQuery(2, 2)] * 5)
    assert sess.transcript().total_queries == 5


def test_malformed_thresholds():
    sess = session_for(4, 3)
    with pytest.raises(MalformedQuery):
        sess.submit_round([RankQuery(1, 0)])
    with pytest.raises(MalformedQuery):
        sess.submit_round([RankQuery(1, 5)])
    with pytest.raises(MalformedQuery):
        sess.submit_round([RankQuery(9, 2)])
    with pytest.raises(MalformedQuery):
        sess.submit_round([("truth", 2)])


@given(perms)
def test_transcript_replay(ranks):
    inst = HiddenInstance(tuple(ranks), target_index=2)
    sess = open_session(inst, 2)
    sess.submit_round([RankQuery(1, 2), ComparisonQuery(1, 2)])
    sess.submit_round([RankQuery(TARGET, 4)])
    assert answers_consistent(sess.transcript(), inst)


def test_transcript_replay_detects_mismatch():
    inst = HiddenInstance((1, 2, 3))
    sess = open_session(inst, 1)
    sess.submit_round([RankQuery(1, 1), RankQuery(3, 1)])
    tr = sess.transcript()
    assert answers_consistent(tr, inst)
    assert not answers_consistent(tr, HiddenInstance((3, 2, 1)))


def test_random_ranks_are_a_permutation():
    ranks = random_ranks(12, random.Random(9))
    assert ranks.__class__ is tuple and sorted(ranks) == list(range(1, 13))
    assert ranks != tuple(range(1, 13))
    assert ranks == random_ranks(12, random.Random(9))


def eager_rounds(transcript):
    return tuple(tuple(zip(qs, ans)) for qs, ans in transcript.batches)


def test_transcript_is_a_snapshot_that_zips_on_first_read():
    sess = session_for(6, 3)
    sess.submit_round([RankQuery(2, 3), RankQuery(5, 1)])
    early = sess.transcript()
    sess.submit_round([RankQuery(1, 6)])
    late = sess.transcript()
    assert early.round_sizes == (2,) and early.total_queries == 2
    assert late.round_sizes == (2, 1) and late.total_queries == 3
    assert "rounds" not in early.__dict__ and "rounds" not in late.__dict__
    assert early.rounds == (((RankQuery(2, 3), LESS), (RankQuery(5, 1), GREATER)),)
    assert late.rounds == eager_rounds(late)
    assert late.rounds[1] == ((RankQuery(1, 6), LESS),)
    assert late.rounds is late.rounds  # zipped once
    sess.submit_round([])
    assert early.round_sizes == (2,) and late.round_sizes == (2, 1)
    assert sess.transcript().round_sizes == (2, 1, 0)


@given(st.lists(st.lists(st.tuples(st.integers(min_value=1, max_value=3),
                                   st.integers(min_value=1, max_value=3)),
                         max_size=3), max_size=3),
       st.lists(st.lists(st.tuples(st.integers(min_value=1, max_value=3),
                                   st.integers(min_value=1, max_value=3)),
                         max_size=3), max_size=3),
       st.integers(min_value=3, max_value=4), st.integers(min_value=3, max_value=4))
def test_transcript_equality_and_hash_follow_the_pairs(left, right, k1, k2):
    """== and hash go by (rounds, k_limit); total follows from rounds."""
    trs = []
    for batches, k in ((left, k1), (right, k2), (left, k1)):
        sess = Session(HiddenInstance((3, 1, 2)), k)
        for batch in batches:
            sess.submit_round([RankQuery(i, t) for i, t in batch])
        trs.append(sess.transcript())
    a, b, twin = trs
    eager = [(tr.rounds, tr.k_limit, tr.total_queries) for tr in (a, b)]
    assert (a == b) == (eager[0] == eager[1])
    if a == b:
        assert hash(a) == hash(b)
    assert "rounds" not in twin.__dict__
    assert a == twin and hash(a) == hash(twin)
    # anything but a transcript is left to the other side to compare
    assert a.__eq__(5) is NotImplemented and a != 5


def test_session_refuses_a_backend_that_miscounts_its_answers():
    class Short:
        def answer_batch(self, queries):
            return [LESS] * (len(queries) - 1)

    sess = Session(Short(), 2)
    with pytest.raises(ValueError):
        sess.submit_round([RankQuery(1, 1), RankQuery(2, 1)])
    assert sess.rounds_used == 0 and sess.total_queries == 0


def test_rational_answers_read_like_the_tuple_of_their_fractions():
    F = Fraction
    want = (F(1, 2), F(0), F(2, 1), F(1), F(-3, 4))
    nums, dens = [2, 0, 6, 5, -6], [4, 7, 3, 5, 8]
    block = RationalAnswers(nums, dens)
    assert len(block) == 5
    assert pairs_of(block) == (nums, dens)  # the lists as handed over
    assert tuple(block) == want
    assert tuple(RationalAnswers([1, 0, 2, 1, -3], [2, 1, 1, 1, 4])) == want
    assert all(x.__class__ is Fraction for x in block)
    assert [(x.numerator, x.denominator) for x in block] == [
        (1, 2), (0, 1), (2, 1), (1, 1), (-3, 4)]
    fractions = block.fractions()  # built once, then kept
    assert block.fractions() is fractions
    assert all(a is b for a, b in zip(block, fractions))
    assert repr(block) == "RationalAnswers(%r)" % (want,)
    # once the Fractions exist the pairs come from them, in lowest terms
    assert pairs_of(block) == ([1, 0, 2, 1, -3], [2, 1, 1, 1, 4])
    assert pairs_of([F(2, 4), 3]) == ([1, 3], [2, 1])


def test_division_sessions_keep_their_answer_blocks():
    """Both division backends answer in a block that the session keeps and
    returns as it is; the transcript reads it as Fractions, the same
    objects on every read, and compares like a transcript of tuples."""
    half = PiecewiseDensity((0, 1), (1,))
    left = PiecewiseDensity((0, Fraction(1, 2), 1), (2, 0))
    rank_sess = open_session(HiddenInstance((2, 3, 1)), 2)
    for backend in (DensityBackend([half, left, half]),
                    AdversaryCakeBackend(3, rank_sess)):
        sess = Session(backend, 2)
        batch = ProductBatch(CutQuery, [((1, 2, 3), (Fraction(1, 3), 0, 1))])
        answers = sess.submit_round(batch)
        assert answers.__class__ is RationalAnswers
        first = sess.transcript()
        assert first.batches[0][1] is answers
        rounds = first.rounds
        again = sess.transcript().rounds
        assert rounds == again and rounds is not again
        assert all(a is b for (_, a), (_, b) in zip(rounds[0], again[0]))
        assert [a for _, a in rounds[0]] == list(answers)
        plain = RoundTranscript(batches=((tuple(batch), tuple(answers)),), k_limit=2)
        assert plain == first and hash(plain) == hash(first)


# the length from which an identity tuple of ranks is remembered
LONG = oracle._KEEP_MIN_LEN


def identity(n):
    """A fresh identity tuple of length n, distinct from every other."""
    return tuple(range(1, n + 1))


@pytest.fixture
def memo():
    """The memo of checked identity tuples, empty for the test and emptied
    after."""
    oracle._kept.clear()
    yield oracle._kept
    oracle._kept.clear()


def build(ranks, times):
    for _ in range(times):
        assert HiddenInstance(ranks).n == len(ranks)


def test_an_identity_tuple_is_kept_after_one_check(memo):
    ranks = identity(LONG)
    build(ranks, 1)
    assert dict(memo) == {LONG: ranks} and memo[LONG] is ranks
    build(ranks, 2)
    assert memo[LONG] is ranks


def test_a_distinct_identity_tuple_of_the_same_length_replaces_it(memo):
    first, second = identity(LONG), identity(LONG)
    assert first == second and first is not second
    build(first, 1)
    build(second, 1)
    assert len(memo) == 1 and memo[LONG] is second
    build(first, 1)  # checked in full again, and kept in its turn
    assert len(memo) == 1 and memo[LONG] is first


def test_a_shuffled_tuple_is_never_kept(memo):
    ranks = shuffled_ranks(LONG, 5)
    build(ranks, 5)
    assert is_permutation(ranks)
    assert not memo


def test_a_list_that_changes_is_checked_again(memo):
    ranks = list(range(1, LONG + 1))
    build(ranks, 3)
    ranks[0] = 2
    with pytest.raises(ValueError):
        HiddenInstance(ranks)
    assert not is_identity(ranks)
    ranks[0] = 1
    build(range(1, LONG + 1), 3)
    build(ranks, 1)
    assert not memo  # lists and ranges are never kept


def test_only_exact_tuples_of_exact_ints_are_remembered(memo):
    class Ranks(tuple):
        pass

    for ranks in (Ranks(range(1, LONG + 1)), (True,) + identity(LONG)[1:],
                  tuple(map(float, range(1, LONG + 1))), identity(LONG - 1)):
        build(ranks, 3)  # passes as before
    assert not memo
    ranks = identity(LONG)
    build(ranks, 1)
    assert list(memo.values()) == [ranks]


def test_a_tuple_checked_once_or_twice_is_not_held(memo):
    """A sampled sort or reduction trial checks its fresh permutation once
    or twice (the instance, then `run_reduction`); none of them is kept,
    and of distinct identity tuples of one length only the last is."""
    for seed in range(oracle._KEEP_CAP + 3):
        ranks = shuffled_ranks(LONG, seed)
        HiddenInstance(ranks)
        assert is_permutation(ranks)
    assert not memo
    for _ in range(oracle._KEEP_CAP + 3):
        ranks = identity(LONG)
        HiddenInstance(ranks)
        assert is_permutation(ranks)
        assert len(memo) == 1 and memo[LONG] is ranks


def test_sampled_sort_and_reduce_runs_leave_nothing_remembered(memo):
    """Each trial checks its fresh permutation at most twice: the instance,
    then, in a reduction, `run_reduction`; a permutation is never kept."""
    for seed, problem in enumerate(("sort", "reduce")):
        config = ExperimentConfig(problem=problem, n=LONG, k=8, trials=2,
                                  seed=seed, mode="mc")
        assert run_experiment(config).all_pass
    assert not memo


def test_a_rejected_tuple_is_rejected_every_time(memo):
    for bad in (identity(LONG - 1) + (LONG + 1,), identity(LONG - 1) + (1,),
                (2,) + identity(LONG)[1:]):
        for _ in range(3):
            with pytest.raises(ValueError):
                HiddenInstance(bad)
            assert not is_permutation(bad) and not is_identity(bad)
    assert not memo


def test_the_memo_keeps_at_most_its_cap_and_drops_the_least_recent(memo):
    cap = oracle._KEEP_CAP
    tuples = [identity(LONG + j) for j in range(cap + 3)]
    for ranks in tuples[:cap]:
        build(ranks, 1)
    assert len(memo) == cap
    HiddenInstance(tuples[0])  # a hit makes it the most recent
    build(tuples[cap], 1)
    assert memo[LONG] is tuples[0] and LONG + 1 not in memo
    for ranks in tuples:
        build(ranks, 1)
        assert len(memo) <= cap
    assert list(memo.values()) == tuples[3:]
    assert all(memo[len(ranks)] is ranks for ranks in tuples[3:])
    assert LONG not in memo  # an evicted tuple is checked again in full
    build(tuples[0], 1)
    assert memo[LONG] is tuples[0]


def test_threads_sharing_the_memo_keep_it_bounded_and_right(memo):
    cap = oracle._KEEP_CAP
    tuples = [identity(LONG + j % (cap + 2)) for j in range(2 * (cap + 2))]
    bad = tuples[0][:-1] + (1,)
    failures = []

    def work(offset):
        try:
            for i in range(40):
                assert is_permutation(tuples[(offset + i) % len(tuples)])
                assert not is_permutation(bad)
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(3 * i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert 0 < len(memo) <= cap
    assert all(n == len(ranks) and any(ranks is t for t in tuples)
               for n, ranks in memo.items())


def test_remembered_tuples_refuse_what_they_refused(memo):
    """The comparison view still refuses an unsorted tuple and
    `run_reduction` a non-permutation, before and after the tuples it
    accepts are remembered."""

    class BareRanks:
        def __init__(self, ranks):
            self.ranks = ranks

    class Reached(Exception):
        pass

    def protocol(session, n):
        raise Reached

    shuffled = shuffled_ranks(LONG, 7)
    ordered, again = identity(LONG), identity(LONG)  # distinct, so each replaces the other
    bad = ordered[:-1] + (1,)
    for _ in range(3):
        with pytest.raises(ValueError, match="sorted"):
            ordered_to_locate_adapter(open_session(HiddenInstance(shuffled, 1), 1))
        ordered_to_locate_adapter(open_session(HiddenInstance(ordered, 1), 1))
        with pytest.raises(ValueError, match="not a permutation"):
            run_reduction(protocol, LONG, Session(BareRanks(bad), 1))
        for ranks in (shuffled, again):  # the check passes and the protocol runs
            with pytest.raises(Reached):
                run_reduction(protocol, LONG, Session(BareRanks(ranks), 1))
    assert list(memo.values()) == [again] and memo[LONG] is again
