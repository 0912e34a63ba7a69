"""Round-limited search for the rank of a promised element.

Each round splits the live candidates into nearly equal blocks and probes
the block boundaries; the three-way answers either finish the search or
name the block to recurse into. With s candidates and j rounds left a
round uses ceil(s**(1/j)) - 1 probes, except that the last round probes
every candidate outright. The total stays within k * ceil(n**(1/k)).
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil

from .oracle import TARGET, ProductBatch, RankQuery, narrow
from .util import (bernoulli, ceil_kth_root, group_sizes, normalized_weights,
                   useful_rounds)


@dataclass(frozen=True)
class RankDistribution:
    """Probability that the promised element holds each rank 1..n."""

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", normalized_weights(self.weights))

    @cached_property
    def order(self):
        """Ranks 1..n by descending weight, ties toward the smaller rank;
        sorted once, on first use."""
        w = self.weights
        return tuple(sorted(range(1, len(w) + 1), key=lambda r: (-w[r - 1], r)))

    @cached_property
    def _tops(self):
        return {}

    def _top(self, count):
        """The `count` most probable ranks in increasing order; sorted once
        per count."""
        top = self._tops.get(count)
        if top is None:
            top = self._tops[count] = tuple(sorted(self.order[:count]))
        return top


@lru_cache(maxsize=1024)
def probe_positions(count, rounds_left):
    """0-based probe positions among `count` sorted candidates, as a tuple
    computed once per (count, rounds_left) while it stays in the cache.

    Defined for count >= 2 and rounds_left >= 2: the probes leave
    ceil(count**(1/rounds_left)) gaps whose sizes differ by at most one,
    larger gaps first. A lone candidate, or the last round, is probed
    outright by the caller.
    """
    z = ceil_kth_root(count, rounds_left)
    sizes = group_sizes(count - (z - 1), z)
    positions = []
    at = 0
    for size in sizes[:-1]:
        at += size
        positions.append(at)
        at += 1
    return tuple(positions)


def locate_det_subset(session, n, k, ranks):
    """Search only the candidate ranks in `ranks`.

    Returns the target's rank when it lies in the candidate set and None
    otherwise, spending at most k * ceil(len(ranks)**(1/k)) queries either
    way. Unused rounds are simply not submitted.
    """
    if ranks.__class__ is range and ranks.step == 1:
        cands = ranks  # already sorted and duplicate-free
    else:
        cands = sorted(set(ranks))
    return _locate_sorted(session, n, k, cands)


def _locate_sorted(session, n, k, cands):
    """locate_det_subset over candidates already sorted and duplicate-free.

    The rank lies in [lo, hi], at first [1, n] by the promise, and `cands`
    keeps only the candidates inside it. Each round probes them, `narrow`
    reads the answers into a new interval and a bisection slices `cands`
    to it, until the interval is one rank or no candidate is left.
    """
    if not cands or cands[0] < 1 or cands[-1] > n:
        raise ValueError("candidate ranks must be a nonempty subset of 1..n")
    if k < 1:
        raise ValueError("k must be at least 1")
    lo, hi = 1, n
    rounds_left = useful_rounds(len(cands), k)
    while lo < hi and cands:
        assert rounds_left > 0, "plan must resolve within the round budget"
        if rounds_left == 1 or len(cands) == 1:
            # the last round, or a lone candidate, probes every candidate:
            # the batch keeps a range or a tuple of them as it is
            probes = cands
        else:
            probes = tuple(map(cands.__getitem__,
                               probe_positions(len(cands), rounds_left)))
        answers = session.submit_round(ProductBatch(RankQuery, (((TARGET,), probes),)))
        rounds_left -= 1
        # the probes ascend, so the round is one run
        lo, hi = narrow(answers, probes, lo, hi)
        # cands is sorted: slicing keeps a range a range, a list a list
        cands = cands[bisect_left(cands, lo):bisect_right(cands, hi)]
    return lo if cands and lo == hi else None


def locate_det(session, n, k):
    """Rank of the promised element; correct on every input.

    Queries stay within k * ceil(n**(1/k)), rounds within min(k, ceil(log2 n)).
    """
    found = locate_det_subset(session, n, k, range(1, n + 1))
    assert found is not None
    return found


def locate_rand(session, n, k, p, rng):
    """Run the always-correct search with probability p, else do nothing."""
    if not bernoulli(p, rng):
        return None
    return locate_det(session, n, k)


def locate_det_dist(session, n, k, p, dist):
    """Search the ceil(p*n) most probable ranks under dist (ties broken
    toward the smaller rank); succeeds at least with probability p."""
    p = Fraction(p)
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    if len(dist.weights) != n:
        raise ValueError("dist must weigh exactly the ranks 1..n")
    return _locate_sorted(session, n, k, dist._top(ceil(p * n)))
