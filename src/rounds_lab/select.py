"""Round-limited search for the item holding a promised rank.

Fresh indices are probed each round along a fixed budget curve: after
round j the number of probed items is ceil((n*p - 1) * j / k). The budget
stops one short of n*p because whatever stays unprobed after the last
round is covered by a single closing guess.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul, sub

from .oracle import EQUAL, ProductBatch, RankQuery, is_permutation
from .util import bernoulli, shuffled


@dataclass(frozen=True)
class SelectSchedule:
    """Per-round probe counts for a given (n, k, p)."""

    n: int
    k: int
    p: Fraction
    round_sizes: tuple


def build_schedule(n, k, p):
    """Probe counts ceil(q*j/k) - ceil(q*(j-1)/k) with q = n*p - 1.

    For p = a/b the mark ceil(q*j/k) is ceil((n*a - b)*j / (b*k)), all in
    integers. A negative budget (p below 1/n) clamps to an all-zero
    schedule: the closing guess alone already succeeds with probability
    1/n >= p.
    """
    p = Fraction(p)
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        raise ValueError("k must be in 1..n")
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    q = n * p.numerator - p.denominator  # (n*p - 1) * b
    if q < 0:
        sizes = (0,) * k
    else:
        bk = p.denominator * k
        marks = [-(-q * j // bk) for j in range(k + 1)]
        sizes = tuple(map(sub, marks[1:], marks))
    return SelectSchedule(n=n, k=k, p=p, round_sizes=sizes)


@lru_cache(maxsize=4)
def full_schedule(n, k):
    """build_schedule(n, k, 1), kept for the last few (n, k) asked: a
    sampled row builds it once, not once per trial. Few are kept because a
    schedule holds k sizes and k may reach n."""
    return build_schedule(n, k, Fraction(1))


def select_det(session, schedule, probe_order):
    """Probe along probe_order per the schedule; if the rank never surfaces,
    guess the first unprobed index. A batch is charged in full even when
    the hit lands mid-batch; empty batches are not submitted."""
    if len(probe_order) != schedule.n or not is_permutation(probe_order):
        raise ValueError("probe_order must be a permutation of 1..n")
    return _probe(session, schedule, probe_order)


def _probe(session, schedule, probe_order):
    """select_det's probe loop over a probe_order already known to be a
    permutation of 1..schedule.n."""
    r = session.promised_rank
    at = 0
    for size in schedule.round_sizes:
        if size == 0:
            continue
        batch = probe_order[at:at + size]
        answers = session.submit_round(ProductBatch(RankQuery, ((batch, (r,)),)))
        at += size
        hit = answers.find(EQUAL)
        if hit >= 0:
            return batch[hit]
    return probe_order[at]  # at <= n - 1 since the budget tops out at n*p - 1


def select_rand(session, n, k, p, rng):
    """With probability p run the full-coverage schedule over a uniformly
    shuffled probe order, else answer nothing.

    The shuffle makes the expected cost on every fixed input equal to p
    times the uniform-input expectation of the deterministic run.
    """
    if not bernoulli(p, rng):
        return None
    return _probe(session, full_schedule(n, k), shuffled(n, rng))


def query_moments(schedule):
    """The first two moments (E[c], E[c**2]) of select_det's query count c
    over a uniform target, exactly.

    Landing on a probe in round j costs the full prefix through round j;
    never landing costs every scheduled probe. n times either moment is an
    integer sum over the rounds, divided by n once.
    """
    n = schedule.n
    sizes = schedule.round_sizes
    issued = sum(sizes)
    prefixes = tuple(accumulate(sizes))
    landed = tuple(map(mul, sizes, prefixes))  # each round's summed cost
    missed = n - issued
    return (Fraction(sum(landed) + missed * issued, n),
            Fraction(sum(map(mul, landed, prefixes)) + missed * issued ** 2, n))


def exact_expected_queries(schedule):
    """Expected query count of select_det over a uniform target, exactly:
    query_moments' first moment, without the second."""
    sizes = schedule.round_sizes
    issued = sum(sizes)
    landed = sum(map(mul, sizes, accumulate(sizes)))
    return Fraction(landed + (schedule.n - issued) * issued, schedule.n)
