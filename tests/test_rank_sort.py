import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rounds_lab.oracle import (EQUAL, GREATER, LESS, ComparisonQuery, HiddenInstance,
                               MalformedQuery, ProductBatch, RankQuery,
                               RoundLimitExceeded, Session, compare, open_session,
                               random_ranks)
from rounds_lab.rank_sort import (AdversaryState, AlgorithmIncorrect, _commit,
                                  _read_round, block_thresholds,
                                  consistent_witness, forced_query_count,
                                  sort_rank, sorting_lower_bound)
from rounds_lab.util import ceil_log2
from conftest import shuffled_ranks


def sort_cost(ranks, k):
    inst = HiddenInstance(tuple(ranks))
    sess = open_session(inst, k)
    got = sort_rank(sess, inst.n, k)
    assert got == inst.ranks
    return sess.transcript().total_queries, sess.rounds_used


def test_block_thresholds_shape():
    assert block_thresholds(1, 9, 1) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert block_thresholds(1, 9, 2) == [3, 6]
    assert block_thresholds(4, 6, 2) == [5]
    assert block_thresholds(1, 5, 2) == [2, 4]


def test_frozen_examples():
    assert sort_cost(range(1, 10), 2) == (28, 2)
    assert sort_cost(range(1, 10), 1) == (72, 1)


@settings(deadline=None)
@given(st.permutations(list(range(1, 8))), st.integers(min_value=1, max_value=3))
def test_sorts_every_permutation(perm, k):
    total, rounds = sort_cost(perm, k)
    assert rounds <= k
    assert total <= 2 * k * 7 ** (1 + 1 / k)


def test_cost_ignores_input_order():
    """Threshold batches depend only on block spans, never on the ranks."""
    costs = {sort_cost(perm, 2)[0] for perm in itertools.permutations(range(1, 6))}
    assert len(costs) == 1


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=80), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10 ** 6))
def test_sort_meets_query_cap(n, k, seed):
    ranks = random_ranks(n, random.Random(seed))
    total, rounds = sort_cost(ranks, k)
    assert total <= 2 * k * n ** (1 + 1 / k)
    assert rounds <= k


def test_single_item_free():
    assert sort_cost((1,), 1) == (0, 0)


def test_opponent_starves_a_lone_probe():
    """One probed item among four: the unprobed three grab the low ranks."""
    state = AdversaryState(4)
    answers = state.answer_batch([RankQuery(1, 1)])
    assert answers == GREATER
    assert state.resolved == {1: 4}
    assert [(tuple(s.items), s.lo, s.hi) for s in state.segments] == [((2, 3, 4), 1, 3)]
    assert consistent_witness(state) == (4, 1, 2, 3)


def test_opponent_everything_probed_pins_rank_one():
    """All four probed at 1: no starving set, the first item pins at 1."""
    state = AdversaryState(4)
    answers = state.answer_batch([RankQuery(i, 1) for i in (1, 2, 3, 4)])
    assert answers == EQUAL + GREATER + GREATER + GREATER
    assert state.resolved == {1: 1}
    assert [(tuple(s.items), s.lo, s.hi) for s in state.segments] == [((2, 3, 4), 2, 4)]


def test_opponent_trace_two_thresholds():
    """Five items probed at 2 and 4: the untouched pair sinks low, the
    lowest probed id pins in the middle, the rest float high."""
    state = AdversaryState(5)
    answers = state.answer_batch([RankQuery(i, 2) for i in (1, 2, 3)]
                                 + [RankQuery(i, 4) for i in (4, 5)])
    assert state.resolved == {1: 3}
    low = next(s for s in state.segments if s.lo == 1)
    high = next(s for s in state.segments if s.lo == 4)
    assert tuple(low.items) == (4, 5) and tuple(high.items) == (2, 3)
    assert answers == GREATER + GREATER + GREATER + LESS + LESS


def test_opponent_forces_floor():
    for n, k in ((8, 1), (8, 2), (16, 2), (16, 3), (64, 1), (64, 2)):
        forced = forced_query_count(sort_rank, n, k)
        assert forced >= max(0.0, sorting_lower_bound(k, n))


def test_opponent_catches_lazy_sorters():
    def no_queries(session, n, k):
        return tuple(range(1, n + 1))

    with pytest.raises(AlgorithmIncorrect):
        forced_query_count(no_queries, 4, 2)

    def wrong_claim(session, n, k):
        got = list(sort_rank(session, n, k))
        got[0], got[1] = got[1], got[0]
        return tuple(got)

    with pytest.raises(AlgorithmIncorrect):
        forced_query_count(wrong_claim, 4, 2)


def test_opponent_answers_stay_consistent():
    """Replaying the adversary transcript against its witness never lies."""
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(2, 10)
        state = AdversaryState(n)
        log = []
        for _ in range(rng.randrange(1, 4)):
            batch = [RankQuery(rng.randrange(1, n + 1), rng.randrange(1, n + 1))
                     for _ in range(rng.randrange(1, 2 * n))]
            log.append((batch, state.answer_batch(batch)))
        ranks = consistent_witness(state)
        for batch, answers in log:
            for q, a in zip(batch, answers):
                r = ranks[q.item - 1]
                want = LESS if r < q.threshold else GREATER if r > q.threshold else EQUAL
                assert a == want


def test_adversary_session_enforces_rounds():
    sess = Session(AdversaryState(4), 1)
    sess.submit_round([RankQuery(1, 2)])
    with pytest.raises(RoundLimitExceeded):
        sess.submit_round([RankQuery(2, 2)])
    with pytest.raises(MalformedQuery):
        Session(AdversaryState(4), 1).submit_round([RankQuery(9, 1)])


def test_sort_needs_a_round():
    session = Session(AdversaryState(4), 1)
    with pytest.raises(ValueError):
        sort_rank(session, 4, 0)
    assert session.rounds_used == 0


def test_lower_bound_values():
    assert sorting_lower_bound(1, 4) < 0
    assert sorting_lower_bound(1, 64) > 0
    with pytest.raises(ValueError):
        sorting_lower_bound(0, 4)


def test_opponent_forces_floor_where_it_binds():
    for n, k in ((1024, 2), (4096, 3)):
        assert sorting_lower_bound(k, n) > 0
        assert forced_query_count(sort_rank, n, k) >= sorting_lower_bound(k, n)


def test_carve_depth_does_not_grow_with_n():
    """At k = 1 every item is probed at offset 1, so each carve step pins
    one item; the steps must not each take a stack frame."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        assert forced_query_count(sort_rank, 200, 1) == 200 * 199
    finally:
        sys.setrecursionlimit(limit)


# The recursive opponent that the counting pass replaced: it retries every
# x from m - 1 down, rescanning all probes per try, and recurses on the
# high remainder. Kept as the reference for the differential tests.

def reference_carve(state, items, lo, hi, local, answers):
    if not local:
        _commit(state, items, lo, hi)
        return
    m = hi - lo + 1
    probed = {}
    for _, item, t in local:
        probed.setdefault(item, set()).add(t - lo + 1)

    def untouched_below(x):
        return [i for i in items
                if not any(tau <= x for tau in probed.get(i, ()))]

    x = 0
    for cand in range(m - 1, 0, -1):
        if len(untouched_below(cand)) >= cand:
            x = cand
            break
    low = untouched_below(x)[:x]
    low_set = set(low)
    rest = [i for i in items if i not in low_set]
    mid = rest[0]
    state.resolved[mid] = lo + x
    _commit(state, low, lo, lo + x - 1)
    deeper = []
    for pos, item, t in local:
        if item in low_set:
            answers[pos] = LESS
        elif item == mid:
            answers[pos] = compare(lo + x, t)
        elif t <= lo + x:
            answers[pos] = GREATER
        else:
            deeper.append((pos, item, t))
    high = rest[1:]
    if high:
        reference_carve(state, tuple(high), lo + x + 1, hi, deeper, answers)
    else:
        assert not deeper


class InconsistentQuery(Exception):
    """The reference found an item in no segment and with no rank."""


def reference_round(state, queries):
    answers = [None] * len(queries)
    by_segment = {}
    for pos, q in enumerate(queries):
        item, t = q.item, q.threshold
        if item in state.resolved:
            answers[pos] = compare(state.resolved[item], t)
            continue
        seg = next((s for s in state.segments if item in s.items), None)
        if seg is None:
            raise InconsistentQuery("item %d belongs nowhere" % (item,))
        if t < seg.lo:
            answers[pos] = GREATER
        elif t > seg.hi:
            answers[pos] = LESS
        else:
            by_segment.setdefault(id(seg), (seg, []))[1].append((pos, item, t))
    for seg, local in by_segment.values():
        state.segments.remove(seg)
        reference_carve(state, seg.items, seg.lo, seg.hi, local, answers)
    return "".join(answers)


class ReferenceOpponent:
    def __init__(self, n):
        self.state = AdversaryState(n)

    def answer_batch(self, queries):
        return reference_round(self.state, queries)


def reference_forced_count(n, k):
    session = Session(ReferenceOpponent(n), k)
    claimed = sort_rank(session, n, k)
    state = session.backend.state
    assert all(len(seg.items) < 2 for seg in state.segments)
    assert claimed == consistent_witness(state)
    return session.total_queries


def segment_list(state):
    return [(tuple(s.items), s.lo, s.hi) for s in state.segments]


@st.composite
def probe_batches(draw, state):
    """A batch whose thresholds fall below, inside and above the probed
    item's open segment (or around its committed rank), with repeats."""
    n = state.n
    batch = []
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        item = draw(st.integers(min_value=1, max_value=n))
        seg = next((s for s in state.segments if item in s.items), None)
        lo, hi = (seg.lo, seg.hi) if seg else (state.resolved[item],) * 2
        where = [st.integers(min_value=lo, max_value=hi)]
        if lo > 1:
            where.append(st.integers(min_value=1, max_value=lo - 1))
        if hi < n:
            where.append(st.integers(min_value=hi + 1, max_value=n))
        batch.append(RankQuery(item, draw(st.one_of(where))))
    if batch:
        repeats = draw(st.lists(st.sampled_from(batch), max_size=n))
        batch = draw(st.permutations(batch + repeats))
    return batch


@settings(deadline=None, max_examples=400)
@given(st.integers(min_value=1, max_value=14), st.data())
def test_opponent_matches_recursive_reference(n, data):
    """Round for round, the counting pass gives the same answers, committed
    ranks and open segments as the recursive reference."""
    new, ref = AdversaryState(n), AdversaryState(n)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="rounds")):
        batch = data.draw(probe_batches(ref), label="batch")
        assert new.answer_batch(batch) == reference_round(ref, batch)
        assert new.resolved == ref.resolved
        assert segment_list(new) == segment_list(ref)


@st.composite
def block_batches(draw, n):
    """A `ProductBatch` of blocks with several thresholds each: ascending,
    unsorted or repeated, as a list or a step-1 `range`, and items that
    repeat within a block and recur across blocks."""
    blocks = []
    seen = []  # items of earlier blocks
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        pick = st.integers(min_value=1, max_value=n)
        if seen:
            pick = st.one_of(pick, st.sampled_from(seen))
        items = draw(st.lists(pick, max_size=n + 2))
        seen += items
        shape = draw(st.sampled_from(["ascending", "unsorted", "repeats", "range"]))
        if shape == "range":
            lo = draw(st.integers(min_value=1, max_value=n))
            ts = range(lo, draw(st.integers(min_value=lo, max_value=n + 1)))
        else:
            pool = st.integers(min_value=1, max_value=n)
            if shape == "repeats":
                pool = st.sampled_from(draw(st.lists(pool, min_size=1, max_size=3)))
            ts = draw(st.lists(pool, min_size=1, max_size=n + 2))
            if shape == "ascending":
                ts.sort()
        blocks.append((items, ts))
    return ProductBatch(RankQuery, blocks)


@settings(deadline=None, max_examples=400)
@given(st.integers(min_value=1, max_value=14), st.data())
def test_opponent_answers_blocks_as_the_recursive_reference(n, data):
    """Round for round, blocks of many thresholds give the same answers,
    committed ranks and open segments as the reference fed the same
    queries one by one."""
    new, ref = AdversaryState(n), AdversaryState(n)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="rounds")):
        batch = data.draw(block_batches(n), label="batch")
        assert new.answer_batch(batch) == reference_round(ref, batch)
        assert new.resolved == ref.resolved
        assert segment_list(new) == segment_list(ref)


def test_opponent_refuses_a_malformed_block_before_it_commits():
    """A bad threshold or item anywhere in the batch is refused with the
    message of the first bad query in item-major order, and leaves the
    state as it was."""
    batches = [
        # a threshold is judged before its item, as `HiddenInstance` does
        (([9], [0, 3]), "threshold out of range: 0"),
        (([9], [3, 0]), "item index out of range: 9"),
        (([1, 2], [3, 1, 0]), "threshold out of range: 0"),
        (([1, 9], [3, 1]), "item index out of range: 9"),
        (([9, 1], [3, True]), "item index out of range: 9"),
        (([1], [3, 2.0]), "threshold out of range: 2.0"),
    ]
    batches = [(ProductBatch(RankQuery, [([2, 3, 4], [2, 5]), bad]), message)
               for bad, message in batches]
    # a block of any other kind is refused whole
    batches.append(([RankQuery(2, 2), ComparisonQuery(2, 3)],
                    "the opponent only serves rank queries"))
    for batch, message in batches:
        state = AdversaryState(6)
        state.answer_batch([RankQuery(1, 3)])
        resolved, segments = dict(state.resolved), segment_list(state)
        with pytest.raises(MalformedQuery) as raised:
            state.answer_batch(batch)
        assert str(raised.value) == message
        assert state.resolved == resolved and segment_list(state) == segments


def test_k1_opponent_forces_every_probe_at_512():
    """At k = 1 the sorter probes every item at every inner rank: the
    opponent charges all n(n - 1) probes, commits every rank, and each of
    its answers agrees with that one order."""
    n = 512
    session = Session(AdversaryState(n), 1)
    claimed = sort_rank(session, n, 1)
    state = session.backend
    assert state.segments == [] and len(state.resolved) == n
    witness = consistent_witness(state)
    assert claimed == witness
    assert session.total_queries == n * (n - 1) == forced_query_count(sort_rank, n, 1)
    (batch, answers), = session.transcript().batches
    assert answers == "".join(compare(witness[item - 1], t)
                              for _, items, ts in batch.blocks
                              for item in items for t in ts)


def test_forced_counts_match_recursive_reference():
    for n in range(1, 65):
        for k in range(1, 5):
            assert forced_query_count(sort_rank, n, k) == reference_forced_count(n, k)


# The per-query planner that the bulk one replaced: it builds every probe
# with its own RankQuery call and reads the answers one threshold at a time.
# Kept as the reference for the differential tests.

def reference_read(spans, queries, answers, resolved):
    """Fold one round's answers in, answer by answer; returns the blocks
    still open."""
    pending = {}
    pos = 0
    for item, lo, hi, width in spans:
        hit = None
        for off in range(width):
            a = answers[pos + off]
            t = queries[pos + off].threshold
            if a == EQUAL:
                hit = t
                break
            if a == LESS:
                hi = min(hi, t - 1)
            else:
                lo = max(lo, t + 1)
        pos += width
        if hit is not None:
            resolved[item] = hit
        elif lo == hi:
            resolved[item] = lo
        else:
            pending.setdefault((lo, hi), []).append(item)
    return pending


def reference_sort_rank(session, n, k):
    if k < 1:
        raise ValueError("k must be at least 1")
    resolved = {}
    blocks = {}
    if n == 1:
        resolved[1] = 1
    elif n > 1:
        blocks[(1, n)] = list(range(1, n + 1))
    rounds_left = k
    while blocks and rounds_left >= 1:
        queries = []
        spans = []  # (item, lo, hi, probe count) in submission order
        for (lo, hi), items in sorted(blocks.items()):
            assert len(items) == hi - lo + 1, "block size must match its span"
            ts = block_thresholds(lo, hi, rounds_left)
            for item in items:
                spans.append((item, lo, hi, len(ts)))
                queries.extend(RankQuery(item, t) for t in ts)
        answers = session.submit_round(queries)
        rounds_left -= 1
        blocks = reference_read(spans, queries, answers, resolved)
    assert not blocks, "the round budget always suffices"
    return tuple(resolved[i] for i in range(1, n + 1))


def run_sorter(sorter, backend, n, k):
    """The sorter's result (or the exception it raised) and its transcript."""
    session = Session(backend, k)
    try:
        outcome = sorter(session, n, k)
    except Exception as exc:  # an inconsistent script may break the sorter
        # first line only: pytest appends its own detail to the assertions
        # of this module, not to those of the library
        outcome = (type(exc), str(exc).split("\n")[0])
    return outcome, session.transcript()


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=1, max_value=64).flatmap(
           lambda n: st.permutations(list(range(1, n + 1)))),
       st.integers(min_value=1, max_value=4))
def test_bulk_sort_matches_per_query_reference(perm, k):
    """Same ranks and the same transcript, round for round."""
    inst = HiddenInstance(tuple(perm))
    got, tr = run_sorter(sort_rank, inst, inst.n, k)
    want, ref_tr = run_sorter(reference_sort_rank, inst, inst.n, k)
    assert got == want == inst.ranks
    assert tr == ref_tr
    assert tr.rounds == ref_tr.rounds


def test_bulk_sort_matches_reference_against_the_opponent():
    """On the benchmark's forced grid, and at k = 1 for n <= 64, the forced
    count and every answer the opponent gives are the reference's."""
    grid = [(32, 2), (64, 2), (64, 3), (128, 2), (128, 3), (256, 2), (256, 3)]
    grid += [(n, 1) for n in range(1, 65)]
    for n, k in grid:
        got, tr = run_sorter(sort_rank, AdversaryState(n), n, k)
        want, ref_tr = run_sorter(reference_sort_rank, AdversaryState(n), n, k)
        assert got == want, (n, k)
        assert tr == ref_tr, (n, k)
        assert (forced_query_count(sort_rank, n, k)
                == forced_query_count(reference_sort_rank, n, k)
                == tr.total_queries), (n, k)


class ScriptedBackend:
    """Answers every rank probe with a random symbol from a seeded stream,
    with no regard for consistency."""

    def __init__(self, seed, symbols=LESS + EQUAL + GREATER):
        self.rng = random.Random(seed)
        self.symbols = symbols

    def answer_batch(self, queries):
        return "".join([self.rng.choice(self.symbols) for _ in queries])


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["<=>", "<>", "<<<=>>>", "<>>>>", "<<<<>", "<====>"]))
def test_bulk_reading_matches_reference_on_scripted_answers(n, k, seed, symbols):
    """Arbitrary, often inconsistent, answer strings: the sorter ends the
    same way (ranks or the same error) with the same transcript."""
    got, tr = run_sorter(sort_rank, ScriptedBackend(seed, symbols), n, k)
    want, ref_tr = run_sorter(reference_sort_rank, ScriptedBackend(seed, symbols), n, k)
    assert got == want
    assert tr == ref_tr


@st.composite
def open_blocks(draw):
    """Open blocks as a round would hold them: disjoint spans of ranks over
    disjoint items, each block as many items as its span is wide."""
    n = draw(st.integers(min_value=2, max_value=48))
    items = draw(st.permutations(list(range(1, n + 1))))
    blocks = {}
    lo = 1
    while lo < n:
        hi = draw(st.integers(min_value=lo + 1, max_value=n))
        if draw(st.booleans()):
            blocks[(lo, hi)] = items[lo - 1:hi]
        lo = hi + 1
    return blocks


@settings(deadline=None, max_examples=400)
@given(open_blocks(), st.integers(min_value=1, max_value=4), st.data())
def test_read_round_matches_reference_reading(blocks, rounds_left, data):
    """Round by round the slice reading resolves the same items at the same
    ranks and leaves the same blocks open as the answer-by-answer scan."""
    plan, spans, queries = [], [], []
    for (lo, hi), items in sorted(blocks.items()):
        ts = block_thresholds(lo, hi, rounds_left)
        plan.append((lo, hi, ts, items))
        for item in items:
            spans.append((item, lo, hi, len(ts)))
            queries.extend(RankQuery(item, t) for t in ts)
    answers = data.draw(st.lists(st.sampled_from([LESS, EQUAL, GREATER]),
                                 min_size=len(queries), max_size=len(queries)),
                        label="answers")
    resolved, ref_resolved = {}, {}
    assert _read_round(plan, "".join(answers), resolved) == reference_read(
        spans, queries, answers, ref_resolved)
    assert resolved == ref_resolved


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 16, 17, 100])
def test_rounds_past_log2_n_ask_the_same_queries(n):
    """Every round at least halves each block, so past
    k = max(1, ceil(log2 n)) a round budget changes no threshold: a huge
    one asks the same counts in the same round sizes, which the sampled
    budget guards rely on."""
    least = max(1, ceil_log2(n))
    txs = []
    for k in (least, 10 ** 12):
        sess = open_session(HiddenInstance(shuffled_ranks(n, n)), k)
        assert sort_rank(sess, n, k) == shuffled_ranks(n, n)
        txs.append(sess.transcript())
    assert txs[0].total_queries == txs[1].total_queries
    assert txs[0].round_sizes == txs[1].round_sizes
    if n <= 17:
        assert forced_query_count(sort_rank, n, least) == \
            forced_query_count(sort_rank, n, 10 ** 12)
