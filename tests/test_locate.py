import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rounds_lab.locate import (RankDistribution, _locate_sorted, locate_det,
                               locate_det_dist, locate_det_subset, locate_rand,
                               probe_positions)
from rounds_lab.oracle import (EQUAL, LESS, TARGET, HiddenInstance, RankQuery,
                               Session, open_session)
from rounds_lab.select import build_schedule, select_det
from rounds_lab.util import ceil_kth_root, ceil_log2
from conftest import session_for


def worst_case(n, k, runner):
    worst = 0
    for r in range(1, n + 1):
        sess = session_for(n, k, target_rank=r)
        assert runner(sess, r) == r
        worst = max(worst, sess.transcript().total_queries)
    return worst


def test_probe_positions_shape():
    assert probe_positions(16, 2) == (4, 8, 12)


@given(st.integers(min_value=2, max_value=400),
       st.integers(min_value=2, max_value=6))
def test_probe_positions_gaps(count, rounds):
    pos = probe_positions(count, rounds)
    z = ceil_kth_root(count, rounds)
    assert len(pos) == z - 1
    gaps = []
    prev = -1
    for q in pos:
        gaps.append(q - prev - 1)
        prev = q
    gaps.append(count - 1 - prev)
    assert sum(gaps) == count - len(pos)
    assert max(gaps) - min(gaps) <= 1
    assert gaps == sorted(gaps, reverse=True)  # larger gaps sit leftmost


def test_frozen_worst_cases():
    assert worst_case(16, 2, lambda s, r: locate_det(s, 16, 2)) == 7
    assert worst_case(1000, 3, lambda s, r: locate_det(s, 1000, 3)) == 28


@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=9))
def test_locate_det_meets_bound(n, k):
    cap = k * ceil_kth_root(n, k)
    assert worst_case(n, k, lambda s, r: locate_det(s, n, k)) <= cap


def test_single_candidate_costs_nothing():
    sess = session_for(1, 1, target_rank=1)
    assert locate_det(sess, 1, 1) == 1
    assert sess.transcript().total_queries == 0


@given(st.integers(min_value=2, max_value=120), st.integers(min_value=1, max_value=4),
       st.data())
def test_subset_variant(n, k, data):
    cands = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=n),
                                     min_size=1, max_size=n)))
    r = data.draw(st.integers(min_value=1, max_value=n))
    sess = session_for(n, k, target_rank=r)
    got = locate_det_subset(sess, n, k, cands)
    if r in cands:
        assert got == r
    else:
        assert got is None
    assert sess.rounds_used <= k
    assert sess.transcript().total_queries <= k * ceil_kth_root(len(cands), k)


@given(st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=4))
def test_subset_of_everything_matches_plain(n, k):
    r = (n * 2) // 3 or 1
    a = session_for(n, k, target_rank=r)
    b = session_for(n, k, target_rank=r)
    assert locate_det(a, n, k) == locate_det_subset(b, n, k, range(1, n + 1))
    assert a.transcript().round_sizes == b.transcript().round_sizes


def test_uniform_quarter_distribution():
    n, k = 100, 2
    dist = RankDistribution((Fraction(1, n),) * n)
    hits = 0
    for r in range(1, n + 1):
        sess = session_for(n, k, target_rank=r)
        got = locate_det_dist(sess, n, k, Fraction(1, 4), dist)
        hits += got == r
        assert sess.transcript().total_queries <= k * ceil_kth_root(25, k)
    assert hits == 25


def test_skewed_distribution_picks_heavy_ranks():
    weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
               Fraction(1, 16), Fraction(1, 16)]
    dist = RankDistribution(weights)
    sess = session_for(5, 2, target_rank=1)
    assert locate_det_dist(sess, 5, 2, Fraction(1, 2), dist) == 1
    sess = session_for(5, 2, target_rank=5)
    assert locate_det_dist(sess, 5, 2, Fraction(1, 2), dist) is None


def test_locate_rand_success_rate():
    n, k, p = 30, 2, Fraction(1, 3)
    rng = random.Random(42)
    trials, hits, total = 4000, 0, 0
    for _ in range(trials):
        r = rng.randrange(1, n + 1)
        sess = session_for(n, k, target_rank=r)
        got = locate_rand(sess, n, k, p, rng)
        assert got in (r, None)
        hits += got == r
        total += sess.transcript().total_queries
    rate = hits / trials
    assert abs(rate - float(p)) < 3 * math.sqrt(float(p) * (1 - p) / trials)
    assert total / trials <= float(p) * k * ceil_kth_root(n, k)


def test_rejects_bad_arguments():
    sess = session_for(10, 2)
    uniform = RankDistribution((Fraction(1, 10),) * 10)
    with pytest.raises(ValueError):
        locate_det_subset(sess, 10, 2, [])
    with pytest.raises(ValueError):
        locate_det_subset(sess, 10, 2, [0, 3])
    with pytest.raises(ValueError):
        locate_det_dist(sess, 10, 2, Fraction(0), uniform)


def test_distribution_must_cover_n():
    sess = session_for(10, 2)
    with pytest.raises(ValueError):
        locate_det_dist(sess, 10, 2, Fraction(1, 2),
                        RankDistribution((Fraction(1, 5),) * 5))


def reference_locate_det_subset(session, n, k, ranks):
    """The candidate narrowing as first written: rebuild the whole candidate
    list every round. Kept as the reference the bisect slicing must match."""
    if ranks.__class__ is range and ranks.step == 1:
        cands = ranks
    else:
        cands = sorted(set(ranks))
    if not cands or cands[0] < 1 or cands[-1] > n:
        raise ValueError("candidate ranks must be a nonempty subset of 1..n")
    lo, hi = 1, n
    rounds_left = min(k, max(1, ceil_log2(len(cands))))
    narrowed = lo > cands[0] or hi < cands[-1]
    while True:
        if narrowed:
            cands = [c for c in cands if lo <= c <= hi]
        if not cands:
            return None
        if lo == hi:
            return lo
        if len(cands) == 1:
            t = cands[0]
            answer = session.submit_round([RankQuery(TARGET, t)])[0]
            return t if answer == EQUAL else None
        # the last round probes every candidate
        probes = (list(cands) if rounds_left == 1 else
                  [cands[i] for i in probe_positions(len(cands), rounds_left)])
        answers = session.submit_round([RankQuery(TARGET, t) for t in probes])
        rounds_left -= 1
        for t, a in zip(probes, answers):
            if a == EQUAL:
                return t
            if a == LESS:
                hi = min(hi, t - 1)
            else:
                lo = max(lo, t + 1)
        narrowed = True


def identity_sessions(n, k, target):
    """Sessions over the same sorted instance, given as a range and as a tuple."""
    return [open_session(HiddenInstance(ranks, target_index=target), k)
            for ranks in (range(1, n + 1), tuple(range(1, n + 1)))]


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=8),
       st.data())
def test_bisect_narrowing_matches_reference(n, k, data):
    r = data.draw(st.integers(min_value=1, max_value=n))
    lo = data.draw(st.integers(min_value=1, max_value=n))
    hi = data.draw(st.integers(min_value=lo, max_value=n))
    subsets = [range(lo, hi + 1), list(range(lo, hi + 1)),
               range(lo, hi + 1, data.draw(st.integers(min_value=2, max_value=5))),
               data.draw(st.lists(st.integers(min_value=1, max_value=n), min_size=1))]
    for cands in subsets:  # targets land inside and outside each subset
        new, old = identity_sessions(n, k, r)
        assert (locate_det_subset(new, n, k, cands)
                == reference_locate_det_subset(old, n, k, cands))
        assert new.transcript() == old.transcript()
    # the O(1) range instance answers exactly like the materialised tuple
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32))
    p = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
    order = data.draw(st.permutations(list(range(1, n + 1))))
    runs = [lambda s: locate_det(s, n, k),
            lambda s: locate_rand(s, n, k, p, random.Random(seed)),
            lambda s: select_det(s, build_schedule(n, min(k, n), p), order)]
    for run in runs:
        a, b = identity_sessions(n, k, r)
        assert run(a) == run(b)
        assert a.transcript() == b.transcript()


class ScriptedAnswers:
    """Answers every probe with a symbol drawn from a seeded stream, each
    round from its own alphabet, so answers may contradict each other and
    every rank."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def answer_batch(self, batch):
        alphabet = self.rng.choice(("<=>", "<>", "<>", "<", ">", "<>>>", "<<<>"))
        return "".join([self.rng.choice(alphabet) for _ in range(len(batch))])


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2 ** 32), st.data())
def test_round_read_matches_the_scan_on_arbitrary_answers(n, k, seed, data):
    """Reading a round by its first `=`, first `<` and last `>` ends and
    narrows each search as the scan in probe order does, against answers
    no ranking gives."""
    lo = data.draw(st.integers(min_value=1, max_value=n))
    hi = data.draw(st.integers(min_value=lo, max_value=n))
    picked = sorted(set(data.draw(st.lists(st.integers(min_value=1, max_value=n),
                                           min_size=1))))
    subsets = [(range(lo, hi + 1), range(lo, hi + 1)), (picked, picked),
               (tuple(picked), picked)]  # a tuple, as locate_det_dist passes
    for cands, ref_cands in subsets:
        new, old = Session(ScriptedAnswers(seed), k), Session(ScriptedAnswers(seed), k)
        assert (_locate_sorted(new, n, k, cands)
                == reference_locate_det_subset(old, n, k, ref_cands))
        assert new.transcript() == old.transcript()


@pytest.mark.parametrize("k", [6, 12, 36])
def test_locate_on_range_instance_scales_with_queries(k):
    n = 2 ** 36  # a materialised instance would hold 64 Gi ranks
    for target in (1, 12_345_678_901, n):
        sess = open_session(HiddenInstance(range(1, n + 1), target_index=target), k)
        assert locate_det(sess, n, k) == target
        assert sess.total_queries <= k * ceil_kth_root(n, k)
        assert sess.rounds_used <= k


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=6),
       st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]),
       st.data())
def test_cached_distribution_prefix_matches_unsorted_prefix(n, k, p, data):
    """locate_det_dist on the cached sorted prefix gives the results and
    transcripts of locate_det_subset on the raw most-probable prefix."""
    raw = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                             min_size=n, max_size=n).filter(any), label="weights")
    dist = RankDistribution(tuple(Fraction(w, sum(raw)) for w in raw))
    for r in range(1, n + 1):
        new, old = identity_sessions(n, k, r)
        assert (locate_det_dist(new, n, k, p, dist)
                == locate_det_subset(old, n, k, dist.order[:math.ceil(p * n)]))
        assert new.transcript() == old.transcript()
