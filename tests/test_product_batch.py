"""Rounds submitted as item × level blocks (`ProductBatch`) against the same
queries submitted as a flat list: equal answers, equal errors, equal
transcripts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rounds_lab.cake import (CutQuery, DensityBackend, EvalQuery, random_density,
                             run_proportional)
from rounds_lab.locate import locate_det, locate_det_subset
from rounds_lab.oracle import (TARGET, ComparisonQuery, HiddenInstance,
                               MalformedQuery, ProductBatch, RankQuery, Session)
from rounds_lab.rank_sort import AdversaryState, sort_rank
from rounds_lab.reductions import (AdversaryCakeBackend, LocateComparisonBackend,
                                   SelectComparisonBackend, ordered_to_locate_adapter,
                                   run_reduction, unordered_to_select_adapter)
from rounds_lab.select import build_schedule, select_det
from conftest import shuffled_ranks


def flat(kind, blocks):
    return [kind(item, level) for items, levels in blocks
            for item in items for level in levels]


def outcome(backend, batch):
    """What one round of `batch` does to a fresh one-round session: its
    answers and transcript, or the exception it raised (and that no round
    was used)."""
    sess = Session(backend, 1)
    try:
        answers = sess.submit_round(batch)
    except Exception as exc:
        assert sess.rounds_used == 0 and sess.total_queries == 0
        return "raised", type(exc), str(exc)
    return "answered", tuple(answers), sess.transcript()


@st.composite
def rank_blocks(draw, n, bad=()):
    """Blocks whose thresholds ascend strictly, come in any order with
    repeats, or are empty."""
    refs = st.sampled_from(list(range(1, n + 1)) + [TARGET] + list(bad))
    thresholds = st.sampled_from(list(range(1, n + 1)) + list(bad))
    blocks = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        items = draw(st.lists(refs, max_size=6))
        shape = draw(st.sampled_from(["ascending", "any", "empty"]))
        if shape == "ascending":
            levels = sorted(draw(st.sets(st.integers(min_value=1, max_value=n),
                                         max_size=8)))
        elif shape == "any":
            levels = draw(st.lists(thresholds, max_size=8))
        else:
            levels = []
        blocks.append((items, levels))
    return blocks


def test_batch_iterates_like_its_queries():
    blocks = [([1, TARGET, 1], [2, 3]), ([], [1]), ([4], []), ([2], [5, 1])]
    pb = ProductBatch(RankQuery, blocks)
    queries = tuple(flat(RankQuery, blocks))
    assert len(pb) == len(queries) == 8
    assert tuple(pb) == queries
    assert all(q.__class__ is RankQuery for q in pb)
    # the same queries split into other blocks iterate the same
    split = ProductBatch(RankQuery, [((1,), (2, 3)), ((TARGET, 1), (2, 3)),
                                     ((2,), (5,)), ((2,), (1,))])
    assert tuple(pb) == tuple(split)
    assert tuple(ProductBatch(CutQuery, blocks)) == tuple(flat(CutQuery, blocks))
    assert tuple(ProductBatch(RankQuery, [])) == () and len(ProductBatch(RankQuery, [])) == 0


def test_batch_keeps_only_blocks_that_ask_something():
    """A block with no items or no levels adds no query, so it is not
    kept: no backend sees it."""
    pb = ProductBatch(RankQuery, [((1,), (2,)), ((), (3,)), ([4], [])])
    assert pb.blocks == ((RankQuery, (1,), (2,)),) and len(pb) == 1
    assert repr(ProductBatch(RankQuery, [((1,), (2,)), ((), (3,))])) == (
        "ProductBatch(RankQuery, (((1,), (2,)),))")
    assert ProductBatch(CutQuery, [((), ()), (range(3), range(0))]).blocks == ()


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10 ** 6),
       st.booleans(), st.data())
def test_hidden_instance_answers_blocks_as_it_answers_the_flat_batch(n, seed, promised, data):
    ranks = shuffled_ranks(n, seed)
    inst = HiddenInstance(ranks, target_index=seed % n + 1 if promised else None)
    blocks = data.draw(rank_blocks(n))
    assert outcome(inst, ProductBatch(RankQuery, blocks)) == outcome(
        inst, flat(RankQuery, blocks))


BAD_REFS = (0, -1, True, 1.0, "y", None, Fraction(1))


class Touchy:
    """A reference that raises when compared."""

    def __eq__(self, other):
        raise RuntimeError("compared")

    __hash__ = object.__hash__


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6),
       st.data())
def test_malformed_rank_blocks_raise_what_the_flat_batch_raises(n, seed, data):
    inst = HiddenInstance(shuffled_ranks(n, seed),
                          target_index=seed % n + 1 if seed % 3 else None)
    bad = BAD_REFS + (n + 1,)
    blocks = data.draw(rank_blocks(n, bad=bad))
    want = outcome(inst, flat(RankQuery, blocks))
    assert outcome(inst, ProductBatch(RankQuery, blocks)) == want
    # the opponent and comparison blocks judge their queries in the same order
    assert outcome(AdversaryState(n), ProductBatch(RankQuery, blocks)) == outcome(
        AdversaryState(n), flat(RankQuery, blocks))
    assert outcome(inst, ProductBatch(ComparisonQuery, blocks)) == outcome(
        inst, flat(ComparisonQuery, blocks))


@st.composite
def threshold_ranges(draw, n, rank=None):
    """A range of thresholds inside 1..n or reaching past it, of any step,
    maybe empty; starting at rank, when given, for a view that only serves
    that threshold."""
    start = rank or draw(st.integers(min_value=-1, max_value=n + 2))
    stop = draw(st.integers(min_value=-1, max_value=n + 3))
    return range(start, stop, draw(st.sampled_from((1, 1, 1, 2, 3, -1, -2))))


@settings(deadline=None, max_examples=400)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10 ** 6),
       st.data())
def test_range_levels_answer_and_raise_like_their_tuple(n, seed, data):
    """A rank block whose levels are a range (a search's last round) gets
    the answers, errors and transcripts the same levels get as a tuple,
    from the instance and through both comparison views."""
    ranks = shuffled_ranks(n, seed)
    target = seed % n + 1
    refs = st.one_of(st.just(TARGET), st.sampled_from(
        list(range(1, n + 1)) + list(BAD_REFS) + [n + 1]))

    def draw_blocks(rank=None):
        return [(data.draw(st.lists(refs, min_size=1, max_size=3)),
                 data.draw(threshold_ranges(n, rank)))
                for _ in range(data.draw(st.integers(min_value=1, max_value=3)))]

    def as_tuples(blocks):
        return [(items, tuple(levels)) for items, levels in blocks]

    blocks = draw_blocks()
    for inner, promised in ((ranks, target), (range(1, n + 1), target), (ranks, None)):
        inst = HiddenInstance(inner, target_index=promised)
        assert outcome(inst, ProductBatch(RankQuery, blocks)) == outcome(
            inst, ProductBatch(RankQuery, as_tuples(blocks)))
    for view, inner in ((LocateComparisonBackend, range(1, n + 1)),
                        (SelectComparisonBackend, ranks)):
        if view is SelectComparisonBackend and data.draw(st.booleans()):
            blocks = draw_blocks(HiddenInstance(inner, target_index=target).target_rank)
        got = []
        for form in (blocks, as_tuples(blocks)):
            inner_sess = Session(HiddenInstance(inner, target_index=target), 1)
            got.append((outcome(view(inner_sess), ProductBatch(RankQuery, form)),
                        inner_sess.transcript()))
        assert got[0] == got[1]


def test_each_malformed_rank_reference_raises_the_flat_message():
    n = 5
    inst = HiddenInstance(shuffled_ranks(n, 1))  # no promised element
    for bad in BAD_REFS + (n + 1, TARGET, Touchy()):
        for blocks in ([([1, 2], [1, 4]), ([3, bad], [2, 5])],
                       [([1, 2], [1, 4]), ([3, 4], [5, bad, 2])],
                       [([1, 2], [1, bad]), ([3, 4], [2, 5])],
                       [([1, 2, 3, 4, 5], [bad, 2, 3])],
                       [([bad], [])], [([], [bad])]):
            got = outcome(inst, ProductBatch(RankQuery, blocks))
            assert got == outcome(inst, flat(RankQuery, blocks)), (bad, blocks)


def agent_densities(seed, n):
    rng = random.Random(seed)
    return [random_density(rng, max_pieces=4, denom=12) for _ in range(n)]


ALPHAS = [Fraction(j, 12) for j in range(13)] + [0, 1, Fraction(1, 7)]


@st.composite
def cut_blocks(draw, n, bad=()):
    agents = st.sampled_from(list(range(1, n + 1)) + list(bad))
    alphas = st.sampled_from(ALPHAS + list(bad))
    blocks = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        ids = draw(st.lists(agents, max_size=5))
        blocks.append((ids, draw(st.lists(alphas, max_size=5))))
    return blocks


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6),
       st.data())
def test_density_backend_answers_blocks_as_it_answers_the_flat_batch(n, seed, data):
    backend = DensityBackend(agent_densities(seed, n))
    blocks = data.draw(cut_blocks(n))
    want = outcome(backend, flat(CutQuery, blocks))
    assert want[0] == "answered"
    assert outcome(backend, ProductBatch(CutQuery, blocks)) == want


BAD_CUTS = (0, -1, True, 1.0, 0.5, "1/2", None, Fraction(3, 2), Fraction(-1, 3))


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10 ** 6),
       st.data())
def test_malformed_cut_blocks_raise_what_the_flat_batch_raises(n, seed, data):
    backend = DensityBackend(agent_densities(seed, n))
    blocks = data.draw(cut_blocks(n, bad=BAD_CUTS + (n + 1,)))
    assert outcome(backend, ProductBatch(CutQuery, blocks)) == outcome(
        backend, flat(CutQuery, blocks))
    # eval blocks are judged the same way
    assert outcome(backend, ProductBatch(EvalQuery, blocks)) == outcome(
        backend, flat(EvalQuery, blocks))


def test_each_malformed_cut_raises_the_flat_message():
    backend = DensityBackend(agent_densities(3, 3))
    for bad in BAD_CUTS + (4,):
        for blocks in ([([1, 2], [Fraction(1, 3)]), ([3, bad], [Fraction(1, 2)])],
                       [([1, 2], [Fraction(1, 3)]), ([3], [1, bad])],
                       [([bad], [])], [([], [bad])]):
            got = outcome(backend, ProductBatch(CutQuery, blocks))
            assert got == outcome(backend, flat(CutQuery, blocks)), (bad, blocks)


class CutOnly:
    """A density that only offers `cut` and `prefix`, as a timing proxy does."""

    def __init__(self, density, log):
        self._density = density
        self._log = log

    def cut(self, alpha):
        self._log.append(alpha)
        return self._density.cut(alpha)

    def prefix(self, y):
        return self._density.prefix(y)


def test_duck_typed_densities_are_only_asked_for_cuts():
    agents = agent_densities(11, 9)
    log = []
    proxies = [CutOnly(d, log) for d in agents]
    sessions = [Session(DensityBackend(a), 2) for a in (agents, proxies)]
    allocations = [run_proportional(s, 9, 2) for s in sessions]
    assert allocations[0] == allocations[1]
    assert sessions[0].transcript() == sessions[1].transcript()
    assert len(log) == sessions[1].total_queries
    # a malformed block asks each agent only the cuts ahead of the bad
    # query, as query-by-query checking does
    for bad_block, message in ((((3,), (2,)), "cut argument"),
                               (((10,), (Fraction(1, 3),)), "agent out of range")):
        del log[:]
        with pytest.raises(MalformedQuery, match=message):
            Session(DensityBackend(proxies), 1).submit_round(
                ProductBatch(CutQuery, [((1, 2), (Fraction(1, 2),)), bad_block]))
        assert log == [Fraction(1, 2)] * 2


class Flattening:
    """Hands a session every batch as a flat list."""

    def __init__(self, session):
        self.session = session

    def submit_round(self, queries):
        return self.session.submit_round(list(queries))

    def __getattr__(self, name):
        return getattr(self.session, name)


def same_runs(make_backend, k, algorithm):
    """Run `algorithm` on a session directly and through `Flattening`; both
    give the same result and transcripts equal in rounds, ==, hash and
    sizes. Returns the classes of the batches the direct run kept."""
    plain, flat_ = Session(make_backend(), k), Session(make_backend(), k)
    got = algorithm(plain)
    assert got == algorithm(Flattening(flat_))
    a, b = plain.transcript(), flat_.transcript()
    assert a == b and hash(a) == hash(b)
    assert a.round_sizes == b.round_sizes and a.total_queries == b.total_queries
    assert a.rounds == b.rounds
    return [qs.__class__ for qs, _ in a.batches]


@pytest.mark.parametrize("n,k", [(2, 1), (9, 2), (64, 3), (100, 4), (1024, 10)])
def test_locate_transcripts_match_the_flat_submission(n, k):
    kinds = set()
    for target in sorted({1, 2, n // 3 + 1, n // 2, n - 1, n} - {0}):
        kinds.update(same_runs(lambda: HiddenInstance(range(1, n + 1), target_index=target),
                               k, lambda s: locate_det(s, n, k)))
        kinds.update(same_runs(
            lambda: HiddenInstance(range(1, n + 1), target_index=target),
            k, lambda s: locate_det_subset(s, n, k, range(1, n + 1, 3))))
    if n >= 9:
        assert ProductBatch in kinds


@pytest.mark.parametrize("n,k,p", [(1, 1, 1), (10, 3, Fraction(1, 2)),
                                   (64, 4, 1), (200, 2, Fraction(3, 4))])
def test_select_transcripts_match_the_flat_submission(n, k, p):
    sched = build_schedule(n, k, p)
    kinds = set()
    for seed in range(4):
        ranks = shuffled_ranks(n, seed)
        order = list(shuffled_ranks(n, seed + 100))
        kinds.update(same_runs(lambda: HiddenInstance(ranks, target_index=seed % n + 1),
                               k, lambda s: select_det(s, sched, order)))
    if n > 1:
        assert kinds == {ProductBatch}


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (17, 1), (40, 2), (64, 3), (130, 4)])
def test_sort_transcripts_match_the_flat_submission(n, k):
    ranks = shuffled_ranks(n, n + k)
    kinds = same_runs(lambda: HiddenInstance(ranks), k, lambda s: sort_rank(s, n, k))
    same_runs(lambda: AdversaryState(n), k, lambda s: sort_rank(s, n, k))
    if n > 1:
        assert ProductBatch in kinds


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (13, 1), (20, 2), (50, 3)])
def test_protocol_transcripts_match_the_flat_submission(n, k):
    agents = agent_densities(n * 10 + k, n)
    kinds = same_runs(lambda: DensityBackend(agents), k,
                      lambda s: run_proportional(s, n, k))
    if n > 1:
        assert ProductBatch in kinds
    # the lazy adversary reads the protocol's blocks
    ranks = shuffled_ranks(n, k)
    results = [run_reduction(lambda s, m: run_proportional(view(s), m, k), n,
                             Session(HiddenInstance(ranks), k))
               for view in (lambda s: s, Flattening)]
    assert results[0][0] == results[1][0] == ranks
    assert results[0][1] == results[1][1] and results[0][1].rounds == results[1][1].rounds
    assert hash(results[0][1]) == hash(results[1][1])


def test_changing_the_callers_lists_after_submission_keeps_the_record():
    items, levels = [1, 2, 3], [1, 3]
    blocks = [(items, levels)]
    sess = Session(HiddenInstance((2, 3, 1)), 2)
    answers = sess.submit_round(ProductBatch(RankQuery, blocks))
    items[0] = 3
    levels.append(2)
    blocks.append(([1], [1]))
    tr = sess.transcript()
    want = tuple(zip(flat(RankQuery, [([1, 2, 3], [1, 3])]), answers))
    assert tr.rounds == (want,) and tr.round_sizes == (6,)
    assert all(q.__class__ is RankQuery for q, _ in tr.rounds[0])


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6),
       st.data())
def test_views_judge_blocks_as_they_judge_the_flat_batch(n, seed, data):
    ranks = shuffled_ranks(n, seed)
    target = seed % n + 1
    blocks = data.draw(rank_blocks(n, bad=(0, n + 1, True, None)))
    # the locate view needs a sorted inner array, the select view does not
    for view, inner in ((LocateComparisonBackend, range(1, n + 1)),
                        (SelectComparisonBackend, ranks)):
        select_rank = HiddenInstance(inner, target_index=target).target_rank
        if view is SelectComparisonBackend and data.draw(st.booleans()):
            blocks = [(items, [select_rank] * len(levels)) for items, levels in blocks]
        got = []
        for batch in (ProductBatch(RankQuery, blocks), flat(RankQuery, blocks)):
            inner_sess = Session(HiddenInstance(inner, target_index=target), 1)
            got.append((outcome(view(inner_sess), batch), inner_sess.transcript()))
        assert got[0] == got[1]


def division_levels(n):
    return [Fraction(j, n) for j in range(n + 1)]


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10 ** 6),
       st.data())
def test_lazy_adversary_judges_blocks_as_it_judges_the_flat_batch(n, seed, data):
    """Two rounds of division blocks, the second holding evals at the first
    round's marks; equal answers, errors and rank probes either way."""
    ranks = shuffled_ranks(n, seed)
    bad = (0, n + 1, True, Fraction(1, n + 1), Fraction(3, 2), -1)
    agents = st.sampled_from(list(range(1, n + 1)) + list(bad))
    first = data.draw(st.lists(st.tuples(st.lists(agents, max_size=4), st.lists(
        st.sampled_from(division_levels(n) + list(bad)), max_size=4)), max_size=3))
    evals = data.draw(st.lists(st.tuples(st.lists(agents, max_size=3), st.lists(
        st.integers(min_value=0, max_value=8), max_size=3)), max_size=2))
    got = []
    for as_blocks in (True, False):
        rank_sess = Session(HiddenInstance(ranks), 2)
        backend = AdversaryCakeBackend(n, rank_sess)
        sess = Session(backend, 2)
        batch = (ProductBatch(CutQuery, first) if as_blocks
                 else flat(CutQuery, first))
        record = [outcome_in(sess, batch)]
        marks = [Fraction(0), Fraction(1)] + sorted(
            Fraction(p, backend.inst.den) for p in backend.inst.points)
        blocks = [(ids, [marks[j % len(marks)] for j in picks]) for ids, picks in evals]
        batch = (ProductBatch(EvalQuery, blocks) if as_blocks
                 else flat(EvalQuery, blocks))
        record.append(outcome_in(sess, batch))
        got.append((record, sess.transcript(), rank_sess.transcript()))
    assert got[0] == got[1]


def outcome_in(sess, batch):
    """`outcome` on a session that may have rounds behind it."""
    used = sess.rounds_used
    try:
        answers = sess.submit_round(batch)
    except Exception as exc:
        assert sess.rounds_used == used
        return "raised", type(exc), str(exc)
    return "answered", tuple(answers)


def test_no_answer_path_iterates_a_batch(monkeypatch):
    """Every backend reads a `ProductBatch` through its blocks, so the
    algorithms run with iteration switched off; only reading a
    transcript's `rounds` builds the queries."""

    def refuse(self):
        raise AssertionError("a ProductBatch was iterated")

    monkeypatch.setattr(ProductBatch, "__iter__", refuse)
    n, k = 40, 3
    ranks = shuffled_ranks(n, 5)
    assert sort_rank(Session(HiddenInstance(ranks), k), n, k) == ranks
    assert sort_rank(Session(AdversaryState(n), k), n, k)
    agents = agent_densities(7, n)
    run_proportional(Session(DensityBackend(agents), k), n, k)
    got = run_reduction(lambda s, m: run_proportional(s, m, k), n,
                        Session(HiddenInstance(ranks), k))
    assert got[0] == ranks
    for t in (1, 17, n):
        inner = Session(HiddenInstance(range(1, n + 1), target_index=t), k)
        assert locate_det(ordered_to_locate_adapter(inner), n, k) == t
        inner = Session(HiddenInstance(ranks, target_index=t), k)
        order = list(shuffled_ranks(n, t))
        assert select_det(unordered_to_select_adapter(inner), build_schedule(n, k, 1),
                          order) == t
    with pytest.raises(AssertionError, match="iterated"):
        tuple(ProductBatch(RankQuery, [((1,), (1,))]))
