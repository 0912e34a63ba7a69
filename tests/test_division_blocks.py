"""The one block reader of both division backends, `cake.division_blocks`:
which blocks it hands over, what it judges on reaching a block, and that
`DensityBackend` and `AdversaryCakeBackend` refuse a malformed batch with
the same message.

Needs neither pytest nor hypothesis, so it also runs as a script:

    PYTHONPATH=src python tests/test_division_blocks.py
"""

from fractions import Fraction

from rounds_lab.cake import (CutQuery, DensityBackend, EvalQuery,
                             PiecewiseDensity, division_blocks)
from rounds_lab.oracle import (HiddenInstance, MalformedQuery, ProductBatch,
                               RankQuery, open_session)
from rounds_lab.reductions import AdversaryCakeBackend

F = Fraction
N = 4
QUARTERS = (F(1, 4), F(1, 2), F(3, 4))


def _raises(it):
    """The message of the MalformedQuery that advancing `it` raises."""
    try:
        next(it)
    except MalformedQuery as exc:
        return str(exc)
    raise AssertionError("no MalformedQuery")


def test_one_triple_per_nonempty_block_in_order():
    batch = ProductBatch(CutQuery, [((1, 2), QUARTERS), ((), QUARTERS),
                                    ((3,), ()), ((4, 1), range(0, 1))])
    assert list(division_blocks(batch, N)) == [
        (True, (1, 2), QUARTERS), (True, (4, 1), range(0, 1))]
    evals = ProductBatch(EvalQuery, [((2,), (F(0), F(1)))])
    assert list(division_blocks(evals, N)) == [(False, (2,), (F(0), F(1)))]
    # a flat batch is one 1 x 1 block per query, kinds mixed
    flat = [CutQuery(1, F(1, 2)), EvalQuery(3, F(1, 4)), CutQuery(2, 1)]
    assert list(division_blocks(flat, N)) == [
        (True, (1,), (F(1, 2),)), (False, (3,), (F(1, 4),)), (True, (2,), (1,))]
    assert list(division_blocks([], N)) == []


def test_empty_blocks_are_skipped_whatever_their_kind():
    """A block that asks nothing is not judged: neither its kind nor its
    first agent."""
    odd = ProductBatch(RankQuery, [((), (1, 2)), ((0, 9), ())])
    assert list(division_blocks(odd, N)) == []
    bad_agent = ProductBatch(CutQuery, [((0,), ()), ((), QUARTERS)])
    assert list(division_blocks(bad_agent, N)) == []


def test_a_bad_block_raises_only_when_reached():
    """The blocks ahead of a bad one are yielded first; the kind is judged
    before the first agent, and only the first agent is judged."""
    good = (True, (1,), (F(1, 2),))
    cases = [
        ([CutQuery(1, F(1, 2)), RankQuery(1, 2)],
         "unknown division query: RankQuery(item=1, threshold=2)"),
        ([CutQuery(1, F(1, 2)), RankQuery(0, 2)],
         "unknown division query: RankQuery(item=0, threshold=2)"),
        ([CutQuery(1, F(1, 2)), "junk"], "unknown division query: 'junk'"),
        ([CutQuery(1, F(1, 2)), EvalQuery(0, F(1))], "agent out of range: 0"),
        ([CutQuery(1, F(1, 2)), CutQuery(N + 1, F(1))],
         "agent out of range: %d" % (N + 1)),
        ([CutQuery(1, F(1, 2)), CutQuery(True, F(1))], "agent out of range: True"),
        ([CutQuery(1, F(1, 2)), CutQuery(1.0, F(1))], "agent out of range: 1.0"),
    ]
    for batch, message in cases:
        it = division_blocks(batch, N)
        assert next(it) == good
        assert _raises(it) == message
    # creating the reader judges nothing
    division_blocks([RankQuery(1, 2)], N)
    # the block's later agents and its levels are the backend's to judge
    later = ProductBatch(CutQuery, [((1, 0, N + 1), (F(3, 2), None))])
    assert list(division_blocks(later, N)) == [(True, (1, 0, N + 1), (F(3, 2), None))]


def _message(backend, batch):
    try:
        backend.answer_batch(batch)
    except MalformedQuery as exc:
        return str(exc)
    return None


def test_both_backends_refuse_alike():
    """The same malformed batch draws the same message from both division
    backends. The levels are multiples of 1/N, and evals only ask 0 and 1,
    so the spiky adversary accepts every level the densities accept."""
    flat = PiecewiseDensity((0, 1), (1,))
    left = PiecewiseDensity((0, F(1, 2), 1), (2, 0))
    densities = DensityBackend([flat, left, flat, left])
    batches = [
        [CutQuery(1, F(1, 2)), RankQuery(1, 2)],
        ["junk", CutQuery(1, F(1, 2))],
        [EvalQuery(2, F(1)), CutQuery(0, F(1, 4))],
        ProductBatch(CutQuery, [((1, 2), QUARTERS), ((N + 1, 1), QUARTERS)]),
        ProductBatch(CutQuery, [((1, 2, 0), QUARTERS)]),
        ProductBatch(EvalQuery, [((3, True), (F(0), F(1)))]),
        ProductBatch(EvalQuery, [((), (F(0),)), ((1.0,), (F(1),))]),
        ProductBatch(RankQuery, [((1,), (F(1, 2),))]),
    ]
    for batch in batches:
        rank_sess = open_session(HiddenInstance((2, 4, 1, 3)), 2)
        adversary = AdversaryCakeBackend(N, rank_sess)
        want = _message(densities, batch)
        assert want is not None, batch
        assert _message(adversary, batch) == want, batch
        # a refused batch asks the rank session nothing
        assert rank_sess.rounds_used == 0
    # and a good one is answered by both
    good = ProductBatch(CutQuery, [((1, 2, 3, 4), QUARTERS)])
    rank_sess = open_session(HiddenInstance((2, 4, 1, 3)), 2)
    assert _message(AdversaryCakeBackend(N, rank_sess), good) is None
    assert _message(densities, good) is None


if __name__ == "__main__":
    import sys
    tests = sorted(name for name in globals() if name.startswith("test_"))
    for name in tests:
        globals()[name]()
        print("passed", name)
    print("%d block reader checks passed on Python %s"
          % (len(tests), sys.version.split()[0]))
