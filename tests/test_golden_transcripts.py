"""Pinned transcripts: every algorithm's answers and full per-round record
on a small fixed seed grid, hashed.

Each case runs one algorithm over a fixed grid of sizes, round budgets and
seeds and collects, per run, the result and `repr(transcript.rounds)`: every
query and every answer in submission order. The sha256 of that list is
pinned below. A wrong answer, a moved query or a changed result changes the
digest, whichever backend answered; the per-backend equivalence tests only
compare two code paths with each other.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from rounds_lab.cake import proportional_protocol, random_density, run_proportional
from rounds_lab.locate import RankDistribution, locate_det, locate_det_dist
from rounds_lab.oracle import HiddenInstance, Session, open_session, random_ranks
from rounds_lab.rank_sort import AdversaryState as new_adversary, sort_rank
from rounds_lab.reductions import (ordered_to_locate_adapter, run_reduction,
                                   unordered_to_select_adapter)
from rounds_lab.select import build_schedule, select_det, select_rand
from conftest import shuffled_ranks

LOCATE_GRID = [(1, 1), (2, 1), (9, 2), (64, 3), (100, 4), (1000, 2), (1024, 10),
               (2 ** 20, 3)]


def targets(n):
    return sorted({1, 2, n // 3 + 1, n // 2 + 1, n - 1, n} & set(range(1, n + 1)))


def locate_runs():
    for n, k in LOCATE_GRID:
        for t in targets(n):
            sess = open_session(HiddenInstance(range(1, n + 1), target_index=t), k)
            yield locate_det(sess, n, k), sess.transcript().rounds


def locate_dist_runs():
    for n, k in [(5, 2), (40, 3), (200, 4)]:
        rng = random.Random(n * 7 + k)
        raw = [rng.randint(0, 5) for _ in range(n)]
        raw[0] += 1
        dist = RankDistribution(tuple(Fraction(w, sum(raw)) for w in raw))
        for p in (Fraction(1, 3), Fraction(3, 4), Fraction(1)):
            for t in targets(n):
                sess = open_session(HiddenInstance(range(1, n + 1), target_index=t), k)
                yield locate_det_dist(sess, n, k, p, dist), sess.transcript().rounds


def select_runs():
    for n, k, p in [(1, 1, 1), (10, 3, Fraction(1, 2)), (64, 4, 1),
                    (200, 2, Fraction(3, 4))]:
        sched = build_schedule(n, k, p)
        for seed in range(3):
            inst = HiddenInstance(shuffled_ranks(n, seed), target_index=seed % n + 1)
            order = list(shuffled_ranks(n, seed + 100))
            sess = open_session(inst, k)
            yield select_det(sess, sched, order), sess.transcript().rounds


def select_rand_runs():
    # each run also records the next draw, so a probe order drawn from
    # another stream, or the same order left at another state, shows
    for n, k, p in [(1, 1, 1), (1, 1, 0), (2, 2, 1), (10, 3, Fraction(1, 2)),
                    (12, 12, 1), (64, 4, 1), (100, 8, Fraction(3, 4)),
                    (50, 2, 0), (200, 5, Fraction(1, 3))]:
        for seed in range(4):
            rng = random.Random(seed)
            inst = HiddenInstance(shuffled_ranks(n, seed + 50),
                                  target_index=seed % n + 1)
            sess = open_session(inst, k)
            got = select_rand(sess, n, k, p, rng)
            yield got, sess.transcript().rounds, rng.random()


def random_ranks_runs():
    for n in (0, 1, 2, 3, 31, 32, 33, 100, 257, 1000):
        for seed in range(5):
            rng = random.Random(seed * 1000 + n)
            yield random_ranks(n, rng), rng.random()


SORT_GRID = [(1, 1), (2, 1), (17, 1), (40, 2), (64, 3), (130, 4), (256, 2)]


def sort_oracle_runs():
    for n, k in SORT_GRID:
        sess = open_session(HiddenInstance(shuffled_ranks(n, n + k)), k)
        yield sort_rank(sess, n, k), sess.transcript().rounds


def sort_opponent_runs():
    for n, k in SORT_GRID:
        sess = Session(new_adversary(n), k)
        yield sort_rank(sess, n, k), sess.transcript().rounds


def agent_densities(seed, n, denom=12):
    rng = random.Random(seed)
    return [random_density(rng, max_pieces=4, denom=denom) for _ in range(n)]


CAKE_GRID = [(1, 1), (2, 1), (13, 1), (20, 2), (50, 3), (9, 5), (64, 2)]


def proportional_runs():
    for n, k in CAKE_GRID:
        allocation, tx = proportional_protocol(agent_densities(n * 10 + k, n), k)
        yield allocation, tx.rounds


def large_proportional_runs():
    # the benchmark's sizes and draw (denominators 24), where k = 1 asks
    # every agent for every multiple of 1/n in one block
    for n, k in [(256, 1), (256, 2), (128, 3)]:
        allocation, tx = proportional_protocol(agent_densities(n * 10 + k, n, 24), k)
        yield allocation, tx.rounds


def reduction_runs():
    for n, k in CAKE_GRID:
        rank_sess = open_session(HiddenInstance(shuffled_ranks(n, k)), k)
        ranks, tx, allocation = run_reduction(
            lambda s, m: run_proportional(s, m, k), n, rank_sess)
        yield (ranks, allocation), tx.rounds, rank_sess.transcript().rounds


def locate_view_runs():
    for n, k in LOCATE_GRID:
        for t in targets(n):
            inner = open_session(HiddenInstance(range(1, n + 1), target_index=t), k)
            view = ordered_to_locate_adapter(inner)
            yield (locate_det(view, n, k), view.transcript().rounds,
                   inner.transcript().rounds)


def select_view_runs():
    for n, k, p in [(1, 1, 1), (10, 3, Fraction(1, 2)), (64, 4, 1)]:
        sched = build_schedule(n, k, p)
        for seed in range(3):
            inst = HiddenInstance(shuffled_ranks(n, seed), target_index=seed % n + 1)
            inner = open_session(inst, k)
            view = unordered_to_select_adapter(inner)
            got = select_det(view, sched, list(shuffled_ranks(n, seed + 100)))
            yield got, view.transcript().rounds, inner.transcript().rounds


GOLDEN = {
    "locate_det": (locate_runs,
                  "6286663fb4876c9f4158dfa70d1473cf6b089b1b17e3e38251b36291d4562cf3"),
    "locate_det_dist": (locate_dist_runs,
                       "fa40954f45f8591918ee6776a840ea4e01e7f98ffc592ee53f6c576c424f84fc"),
    "select_det": (select_runs,
                  "2d80e11748455081889ab28da5d06e18255438788bb9b6e53d13675cae23b146"),
    "select_rand": (select_rand_runs,
                    "4a9c4c52d909ca6872e479759836e142e675ff504737f19b43aa1a50dada56f0"),
    "random_ranks": (random_ranks_runs,
                     "5c68dd0b17ce944cae9a8e043e9ef374d6ff11664b367dcdafd10e1a631db30e"),
    "sort_rank_oracle": (sort_oracle_runs,
                        "3a36e0f9b9f618a28eed103dcb8136f365e1614a37dcfa51eea2f4a099fe3c13"),
    "sort_rank_opponent": (sort_opponent_runs,
                          "6d2dca93589dfc7dca98340c42ea64e4bf79558d822456c0c58d7d016dfa8bfc"),
    "proportional_protocol": (proportional_runs,
                             "8a90db4ab127d553305c52a6dd4fe2d1c9402dfda366e34c3f09c99b9f1fce95"),
    "proportional_protocol_large": (large_proportional_runs,
                                   "fae7554bcccdfcc3fe39ea1af0eff861342b12cea50c56a92172d754dff91f22"),
    "run_reduction": (reduction_runs,
                     "bc92fd424f6efbf17af03f6f5044ba52c2311d28c7f4417d14637f4a0d65e368"),
    "locate_view": (locate_view_runs,
                   "256ff142a247b8ea91fe849413e0c1475ebc2969d0aa8869554629a054a5209f"),
    "select_view": (select_view_runs,
                   "54616b5569b281b1942aae65d724a92362c812dee0bf747809c457aadbd3e283"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_transcripts_match_the_pinned_digest(case):
    runs, want = GOLDEN[case]
    got = hashlib.sha256(repr(list(runs())).encode()).hexdigest()
    assert got == want, case
