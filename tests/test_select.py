import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rounds_lab.oracle import HiddenInstance, open_session
from rounds_lab.select import (build_schedule, exact_expected_queries,
                               full_schedule, query_moments, select_det,
                               select_rand)
from conftest import shuffled_ranks

fractions = st.fractions(min_value=0, max_value=1, max_denominator=60)


def run_on_target(n, k, schedule, target_rank, order=None):
    ranks = shuffled_ranks(n, seed=n * 31 + k)
    inst = HiddenInstance(ranks, target_index=ranks.index(target_rank) + 1)
    sess = open_session(inst, k)
    got = select_det(sess, schedule, order or list(range(1, n + 1)))
    return got, inst, sess.transcript()


def test_schedule_frozen_examples():
    assert build_schedule(10, 2, Fraction(1)).round_sizes == (5, 4)
    assert build_schedule(4, 1, Fraction(1)).round_sizes == (3,)
    assert build_schedule(10, 2, Fraction(1, 100)).round_sizes == (0, 0)


def test_schedule_rejects_bad_arguments():
    for n, k, p, message in ((0, 1, 1, "n must be positive"),
                             (4, 5, 1, "k must be in 1..n"),
                             (4, 0, 1, "k must be in 1..n"),
                             (4, 2, 2, r"p must be in \[0, 1\]"),
                             (4, 2, -1, r"p must be in \[0, 1\]")):
        with pytest.raises(ValueError, match=message):
            build_schedule(n, k, p)


@given(st.integers(min_value=1, max_value=500), st.data())
def test_schedule_budget(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    p = data.draw(fractions)
    sizes = build_schedule(n, k, p).round_sizes
    assert len(sizes) == k
    assert all(s >= 0 for s in sizes)
    total = sum(sizes)
    assert total == max(0, math.ceil(n * p - 1))
    assert total <= n - 1


@given(st.integers(min_value=1, max_value=60), st.data())
def test_select_finds_target_or_guesses(n, data):
    k = data.draw(st.integers(min_value=1, max_value=min(n, 6)))
    p = data.draw(fractions)
    target = data.draw(st.integers(min_value=1, max_value=n))
    sched = build_schedule(n, k, p)
    got, inst, tr = run_on_target(n, k, sched, target)
    probed = sum(sched.round_sizes)
    item = inst.target_index
    if item <= probed + 1:  # probed, or happens to be the closing guess
        assert got == item
    else:
        assert got != item
    assert tr.total_queries <= probed
    assert len(tr.rounds) <= k


def test_expected_queries_frozen():
    assert exact_expected_queries(build_schedule(10, 2, Fraction(1))) == 7
    assert exact_expected_queries(build_schedule(4, 1, Fraction(1))) == 3


@given(st.integers(min_value=1, max_value=40), st.data())
def test_expected_queries_matches_average(n, data):
    k = data.draw(st.integers(min_value=1, max_value=min(n, 5)))
    p = data.draw(fractions)
    sched = build_schedule(n, k, p)
    total = Fraction(0)
    for target in range(1, n + 1):
        _, _, tr = run_on_target(n, k, sched, target)
        total += tr.total_queries
    assert total / n == exact_expected_queries(sched)


@pytest.mark.parametrize("n", range(1, 13))
def test_query_moments_match_target_enumeration(n):
    """Both moments of the query count over a uniform target, for every k
    and every p = j/n, equal the averages over all n targets."""
    for k in range(1, n + 1):
        for j in range(n + 1):
            sched = build_schedule(n, k, Fraction(j, n))
            counts = [run_on_target(n, k, sched, target)[2].total_queries
                      for target in range(1, n + 1)]
            assert query_moments(sched) == (
                Fraction(sum(counts), n), Fraction(sum(c * c for c in counts), n))



def test_expected_queries_is_the_first_moment():
    """exact_expected_queries sums the first moment on its own; it equals
    query_moments' first moment for every k up to n, at p = 0, at p below
    1/n (an all-zero schedule) and at p up to 1."""
    for n in range(1, 25):
        ps = {Fraction(0), Fraction(1, 2 * n), Fraction(1, n), Fraction(1, 3),
              Fraction(1, 2), Fraction(3, 4), Fraction(1)}
        for k in range(1, n + 1):
            for p in ps:
                sched = build_schedule(n, k, p)
                assert exact_expected_queries(sched) == query_moments(sched)[0]

# The Fraction formulas that the integer schedule and expectation replaced,
# kept as the reference for the differential test.

def reference_round_sizes(n, k, p):
    q = n * Fraction(p) - 1
    if q < 0:
        return (0,) * k
    marks = [math.ceil(q * j / k) for j in range(k + 1)]
    return tuple(marks[j] - marks[j - 1] for j in range(1, k + 1))


def reference_expected_queries(n, sizes):
    total = Fraction(0)
    prefix = 0
    issued = sum(sizes)
    for size in sizes:
        prefix += size
        total += Fraction(size, n) * prefix
    total += Fraction(n - issued, n) * issued
    return total


@given(st.integers(min_value=1, max_value=10 ** 15), st.data())
def test_integer_schedule_matches_fraction_reference(n, data):
    k = data.draw(st.integers(min_value=1, max_value=min(n, 300)), label="k")
    p = data.draw(st.one_of(
        fractions, st.fractions(min_value=0, max_value=1, max_denominator=10 ** 18),
        st.sampled_from([0, 1, Fraction(1, n), Fraction(n - 1, n),
                         Fraction(1, n + 1)])), label="p")
    sched = build_schedule(n, k, p)
    assert sched.round_sizes == reference_round_sizes(n, k, p)
    expected = exact_expected_queries(sched)
    assert expected.__class__ is Fraction
    assert expected == reference_expected_queries(n, sched.round_sizes)


def test_full_batch_is_charged_on_mid_batch_hit():
    inst = HiddenInstance(tuple(range(1, 11)), target_index=2)
    sess = open_session(inst, 2)
    got = select_det(sess, build_schedule(10, 2, Fraction(1)), list(range(1, 11)))
    assert got == 2
    assert sess.transcript().round_sizes == (5,)  # hit mid-batch, five charged


def test_select_rand_rate_and_cost():
    n, k, p = 10, 2, Fraction(1, 2)
    rng = random.Random(5)
    ranks = shuffled_ranks(n, seed=77)
    trials, hits, total = 6000, 0, 0
    for _ in range(trials):
        target = rng.randrange(1, n + 1)
        inst = HiddenInstance(ranks, target_index=ranks.index(target) + 1)
        sess = open_session(inst, k)
        got = select_rand(sess, n, k, p, rng)
        if got is not None:
            assert inst.ranks[got - 1] == target
            hits += 1
        total += sess.transcript().total_queries
    assert abs(hits / trials - 0.5) < 3 * math.sqrt(0.25 / trials)
    expect = float(p) * 7  # p times the full-coverage expectation for (10, 2)
    assert abs(total / trials - expect) < 0.3


def test_bad_probe_order_rejected():
    sched = build_schedule(4, 2, Fraction(1))
    sess = open_session(HiddenInstance((1, 2, 3, 4), target_index=2), 2)
    with pytest.raises(ValueError):
        select_det(sess, sched, [1, 1, 2, 3])


def test_zero_schedule_still_guesses():
    sched = build_schedule(4, 2, Fraction(1, 8))
    sess = open_session(HiddenInstance((1, 2, 3, 4), target_index=1), 2)
    got = select_det(sess, sched, [1, 2, 3, 4])
    assert got == 1
    assert sess.transcript().total_queries == 0
    assert sess.rounds_used == 0


def test_full_schedule_memo_stays_bounded():
    full_schedule.cache_clear()
    bound = full_schedule.cache_info().maxsize
    rng = random.Random(3)
    for n in range(2, bound + 8):
        sess = open_session(HiddenInstance(range(1, n + 1), target_index=1), 2)
        assert select_rand(sess, n, 2, Fraction(1), rng) is not None
        assert full_schedule.cache_info().currsize <= bound
    assert full_schedule.cache_info().currsize == bound
    for n, k in [(1, 1), (10, 3), (64, 64), (100, 8), (1000, 7)]:
        assert full_schedule(n, k) == build_schedule(n, k, Fraction(1))
    assert full_schedule.cache_info().currsize <= bound
