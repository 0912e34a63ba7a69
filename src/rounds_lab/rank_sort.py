"""Round-limited sorting with three-way rank probes, plus an adaptive
answering opponent that withholds order information as long as it can.

The sorter probes every unresolved item at thresholds shared by its block:
with m candidate ranks and j rounds left a block uses ceil(m**(1/j)) - 1
thresholds (all m - 1 inner ranks on the last round), so blocks shrink
fast enough to finish inside the budget with at most 2*k*n**(1+1/k)
queries.

The opponent (`AdversaryState`, a session backend) answers batches
without fixing a permutation up front. Inside each undetermined stretch it
finds the largest x such that x items carry no probes among the x lowest
ranks, silently packs those items at the bottom, names the item just above
them, and repeats on the rest within the same round. Everything it says
stays consistent with at least one total order, which forces any correct
sorter to pay for the separations it needs.

Each such step costs O(m + P) for a stretch of m items holding P probes:
one pass records every item's lowest probed rank, and one counting pass
over those finds x. A batch maps every open item to its stretch once.
The steps run as a loop, so the stack depth does not grow with n. A sorter
with one round probes every item at every inner rank, so x = 0 at every
step and its m steps cost O(m*P).
"""

from dataclasses import dataclass
from math import e

from .oracle import (GREATER, LESS, MalformedQuery, ProductBatch, RankQuery,
                     Session, blocks_of, compare, read_run)
from .util import ceil_div, ceil_kth_root


class AlgorithmIncorrect(Exception):
    pass


def block_thresholds(lo, hi, rounds_left):
    """Shared probe thresholds for a block of candidate ranks [lo, hi]."""
    m = hi - lo + 1
    z = m if rounds_left <= 1 else ceil_kth_root(m, rounds_left)
    return [lo - 1 + ceil_div(m * j, z) for j in range(1, z)]


def sort_rank(session, n, k):
    """Rank of every item, as a tuple indexed by item - 1.

    Each round is one `ProductBatch` of (items, thresholds) blocks, and
    the session answers it with one string, one symbol per query. Each
    item's run of it is read by `oracle.read_run`'s three string searches
    (`_read_round`), so a round costs Python steps per item and per block,
    not per query. No query object is built unless the transcript's
    `rounds` is read.
    """
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
        probes = []  # (items, thresholds) per block, in submission order
        plan = []  # (lo, hi, thresholds, items) per block, in the same order
        for (lo, hi), items in sorted(blocks.items()):
            assert len(items) == hi - lo + 1, "block size must match its span"
            ts = block_thresholds(lo, hi, rounds_left)
            probes.append((items, ts))
            plan.append((lo, hi, ts, items))
        answers = session.submit_round(ProductBatch(RankQuery, probes))
        rounds_left -= 1
        blocks = _read_round(plan, answers, resolved)
    assert not blocks, "the round budget always suffices"
    return tuple(resolved[i] for i in range(1, n + 1))


def _read_round(plan, answers, resolved):
    """Fold one round's answers into `resolved`; returns the blocks still
    open, keyed by span.

    `answers` is the round's answer string. Every item of a block was
    probed at the block's thresholds, which ascend, so its answers are one
    slice of the string, read by `read_run`. An `=` pins the item at its
    threshold. Otherwise the first `<` caps the item's span and the last
    `>` raises its floor; that is what a threshold-by-threshold scan finds
    too, even for inconsistent answers.
    """
    pending = {}
    pos = 0
    for lo, hi, ts, items in plan:
        width = len(ts)
        for item in items:
            hit, first_less, last_greater = read_run(answers[pos:pos + width])
            if hit >= 0:
                resolved[item] = ts[hit]
            else:
                top, bottom = hi, lo
                if first_less >= 0:
                    top = min(hi, ts[first_less] - 1)
                if last_greater >= 0:
                    bottom = max(lo, ts[last_greater] + 1)
                if bottom == top:
                    resolved[item] = bottom
                else:
                    pending.setdefault((bottom, top), []).append(item)
            pos += width
    return pending


@dataclass
class Segment:
    """Items whose relative order is still free, holding ranks [lo, hi]."""

    items: tuple
    lo: int
    hi: int


class AdversaryState:
    """Order commitments made so far; always realizable by a permutation.

    A fresh state has committed nothing: all n items share one open
    segment holding ranks [1, n].
    """

    def __init__(self, n):
        self.n = n
        self.resolved = {}  # item -> committed rank
        self.segments = []  # open Segments, disjoint
        if n == 1:
            self.resolved[1] = 1
        elif n > 1:
            self.segments.append(Segment(items=tuple(range(1, n + 1)), lo=1, hi=n))

    def answer_batch(self, batch):
        """Answer one batch, as a `str` of symbols, while committing as
        little order as possible."""
        n = self.n
        resolved = self.resolved
        answers = [None] * len(batch)
        segment_of = {item: seg for seg in self.segments for item in seg.items}
        by_segment = {}
        pos = 0
        for kind, items, ts in blocks_of(batch):
            if not ts:
                continue  # asks nothing, so nothing in it is judged
            if items and kind is not RankQuery:
                raise MalformedQuery("the opponent only serves rank queries")
            for item in items:
                if not (item.__class__ is int and 1 <= item <= n):
                    raise MalformedQuery("item index out of range: %r" % (item,))
                r = resolved.get(item)
                seg = segment_of.get(item)
                for t in ts:
                    if not (t.__class__ is int and 1 <= t <= n):
                        raise MalformedQuery("threshold out of range: %r" % (t,))
                    if r is not None:
                        answers[pos] = compare(r, t)
                    elif t < seg.lo:
                        answers[pos] = GREATER
                    elif t > seg.hi:
                        answers[pos] = LESS
                    else:
                        by_segment.setdefault(id(seg), (seg, []))[1].append((pos, item, t))
                    pos += 1
        self.segments = [s for s in self.segments if id(s) not in by_segment]
        for seg, local in by_segment.values():
            _carve(self, seg.items, seg.lo, seg.hi, local, answers)
        return "".join(answers)


def _commit(state, items, lo, hi):
    items = tuple(sorted(items))
    if not items:
        return
    assert len(items) == hi - lo + 1
    if len(items) == 1:
        state.resolved[items[0]] = lo
    else:
        state.segments.append(Segment(items=items, lo=lo, hi=hi))


def _carve(state, items, lo, hi, local, answers):
    """Answer the probes `local` on one open segment and commit the order
    they force, one loop step per pinned item."""
    # local: (answer position, item, threshold) with thresholds in [lo, hi]
    while local:
        m = hi - lo + 1
        lowest = dict.fromkeys(items, hi)  # lowest probed threshold, capped at hi
        for _, item, t in local:
            if t < lowest[item]:
                lowest[item] = t
        count = [0] * (m + 1)  # items by lowest probed offset, 1..m
        for t in lowest.values():
            count[t - lo + 1] += 1
        # largest x in [1, m - 1] with at least x items whose lowest
        # offset exceeds x; above holds that item count for x = cand
        x = 0
        above = count[m]
        for cand in range(m - 1, 0, -1):
            if above >= cand:
                x = cand
                break
            above += count[cand]
        cut = lo + x  # mid's rank; low takes [lo, cut - 1], the rest above
        low = []  # smallest item ids that qualify
        rest = []
        for i in items:
            if len(low) < x and lowest[i] >= cut:
                low.append(i)
            else:
                rest.append(i)
        low_set = set(low)
        mid = rest[0]
        state.resolved[mid] = cut
        _commit(state, low, lo, cut - 1)
        deeper = []
        for entry in local:
            pos, item, t = entry
            if item in low_set:
                answers[pos] = LESS  # its rank is below cut <= t
            elif item == mid:
                answers[pos] = compare(cut, t)
            elif t <= cut:
                answers[pos] = GREATER
            else:
                deeper.append(entry)
        items, lo, local = rest[1:], cut + 1, deeper
    _commit(state, items, lo, hi)


def consistent_witness(state):
    """One total order (tuple of ranks by item) agreeing with everything
    the opponent has said; open segments default to item-id order."""
    ranks = dict(state.resolved)
    for seg in state.segments:
        for offset, item in enumerate(seg.items):
            ranks[item] = seg.lo + offset
    assert sorted(ranks) == list(range(1, state.n + 1))
    assert sorted(ranks.values()) == list(range(1, state.n + 1))
    return tuple(ranks[i] for i in range(1, state.n + 1))


def forced_query_count(algorithm, n, k):
    """Queries `algorithm` spends against the opponent before naming the
    one order consistent with everything said. Raises AlgorithmIncorrect
    when several orders (or a different order) remain possible."""
    session = Session(AdversaryState(n), k)
    claimed = tuple(algorithm(session, n, k))
    state = session.backend
    for seg in state.segments:
        if len(seg.items) >= 2:
            # at least two orders remain; one of them defeats the claim
            raise AlgorithmIncorrect(
                "items %r were never separated" % (seg.items,))
    witness = consistent_witness(state)
    if claimed != witness:
        raise AlgorithmIncorrect(
            "claimed %r but the committed order is %r" % (claimed, witness))
    return session.total_queries


def sorting_lower_bound(k, n):
    """Query floor (k / 2e) * n**(1 + 1/k) - k*n; may be negative, in which
    case the floor is vacuous."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    return (k / (2 * e)) * n ** (1 + 1 / k) - k * n
