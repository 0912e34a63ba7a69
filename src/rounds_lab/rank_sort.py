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

A round's probes reach the opponent as (items, thresholds) blocks, and an
open item's thresholds inside its stretch in one block are one pending
run. The opponent keeps every item's lowest pending threshold, and the
number of items at each threshold, from step to step, so a step costs
O(m) for a stretch of m items: a downward scan of those counts finds x,
the pinned item's runs are split by bisection, the packed items' runs
are answered `<`, and only the items with a threshold at or below the cut
move past it, by one bisect per run. Every run, and the answers of a
resolved item, is written by `oracle.rank_run`, the writer the hidden
permutation uses too, and a block's thresholds are checked by the same
`oracle.read_thresholds`. The steps run as a loop, so the stack depth
does not grow with n.
A sorter with one round probes every item at every inner rank, so x = 0
at every step and its n steps cost O(n**2), one symbol per probe asked.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from math import e

from .oracle import (MalformedQuery, ProductBatch, RankQuery, Session,
                     blocks_of, check_index, narrow, rank_run, read_thresholds)
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
    item's run of it is read into its new span by `oracle.narrow`'s three
    string searches (`_read_round`), so a round costs Python steps per item
    and per block, not per query. No query object is built unless the
    transcript's `rounds` is read.
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
        plan = []  # (lo, hi, thresholds, items) per block, in submission order
        for (lo, hi), items in sorted(blocks.items()):
            assert len(items) == hi - lo + 1, "block size must match its span"
            plan.append((lo, hi, block_thresholds(lo, hi, rounds_left), items))
        answers = session.submit_round(
            ProductBatch(RankQuery, ((items, ts) for _, _, ts, items in plan)))
        rounds_left -= 1
        blocks = _read_round(plan, answers, resolved)
    assert not blocks, "the round budget always suffices"
    return tuple(resolved[i] for i in range(1, n + 1))


def _read_round(plan, answers, resolved):
    """Fold one round's answers into `resolved`; returns the blocks still
    open, keyed by span.

    `answers` is the round's answer string. Every item of a block was
    probed at the block's thresholds, which ascend, so its answers are one
    slice of the string, and `narrow` reads that slice into the item's new
    span within the block's. A span of one rank resolves the item.
    """
    pending = {}
    pos = 0
    for lo, hi, ts, items in plan:
        width = len(ts)
        for item in items:
            bottom, top = narrow(answers[pos:pos + width], ts, lo, hi)
            if bottom == top:
                resolved[item] = bottom
            else:
                pending.setdefault((bottom, top), []).append(item)
            pos += width
    return pending


@dataclass(eq=False)
class Segment:
    """Items whose relative order is still free, holding ranks [lo, hi].
    Hashes by identity, so the opponent files pending runs under it."""

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
        _commit(self, range(1, n + 1), 1, n)

    def answer_batch(self, batch):
        """Answer one batch, as a `str` of symbols, while committing as
        little order as possible.

        Each (items, thresholds) block is read once. Its thresholds are
        checked and put in ascending order by `oracle.read_thresholds`, in
        the order `HiddenInstance` checks them, and its items after that;
        nothing is committed before the whole batch has passed. A resolved
        item, and an open item with no threshold inside its segment, is
        answered by `oracle.rank_run`; an open item's thresholds inside its
        segment become one pending run, which `_carve` answers. Answers to
        thresholds that did not ascend are gathered back into block order.
        """
        n = self.n
        check = partial(check_index, n=n, what="item index")
        resolved = self.resolved
        segment_of = {item: seg for seg in self.segments for item in seg.items}
        out = []  # each (block, item)'s answers, in batch order
        gathers = []  # (first slot, item count, gather) per block not ascending
        by_segment = {}  # open Segment -> {item: [pending runs]}
        for kind, items, ts in blocks_of(batch):
            if kind is not RankQuery:
                raise MalformedQuery("the opponent only serves rank queries")
            ts, gather = read_thresholds(ts, n, check, items[0])
            if gather is not None:
                gathers.append((len(out), len(items), gather))
            for item in items:
                if not (item.__class__ is int and 1 <= item <= n):
                    check(item)
                r = resolved.get(item)
                if r is not None:
                    out.append(rank_run(ts, r))
                    continue
                seg = segment_of[item]
                below = bisect_left(ts, seg.lo)
                end = bisect_right(ts, seg.hi, below)
                if below == end:  # no threshold inside the segment
                    out.append(rank_run(ts, seg.lo, below, below))
                    continue
                # slot, thresholds, first pending, end of the pending ones
                run = [len(out), ts, below, end]
                out.append(None)
                by_segment.setdefault(seg, {}).setdefault(item, []).append(run)
        self.segments = [s for s in self.segments if s not in by_segment]
        for seg, runs in by_segment.items():
            _carve(self, seg.items, seg.lo, seg.hi, runs, out)
        for first, count, gather in gathers:
            for slot in range(first, first + count):
                out[slot] = "".join(gather(out[slot]))
        return "".join(out)


def _commit(state, items, lo, hi):
    items = tuple(sorted(items))
    if not items:
        return
    assert len(items) == hi - lo + 1
    if len(items) == 1:
        state.resolved[items[0]] = lo
    else:
        state.segments.append(Segment(items=items, lo=lo, hi=hi))


def _carve(state, items, lo, hi, runs, out):
    """Answer the pending runs on one open segment and commit the order
    they force, one loop step per pinned item.

    `runs` maps each probed item to its pending runs [slot, ts, i, end]:
    ts ascends, and ts[i:end] are the run's unanswered thresholds, all in
    [lo, hi]; the slot's answers are written once the run is decided. Each
    item's lowest pending threshold (hi when it has none) and the number
    of items at each such threshold are kept from step to step: a step
    touches only the items it pins, packs or moves past the cut.
    """
    base = lo
    lowest = dict.fromkeys(items, hi)
    for item, rs in runs.items():
        lowest[item] = min([ts[i] for _, ts, i, _ in rs])
    count = [0] * (hi - lo + 1)  # items by lowest pending threshold - base
    for t in lowest.values():
        count[t - base] += 1
    left = len(runs)  # items with pending runs
    while left:
        # largest x in [1, m - 1] with at least x items whose lowest
        # threshold is lo + x or more; above holds that item count
        x = hi - lo
        above = count[hi - base]
        for c in reversed(count[lo - base:hi - base]):
            if above >= x:
                break
            above += c
            x -= 1
        cut = lo + x  # mid's rank; low takes [lo, cut - 1], the rest above
        if x:
            low = []  # smallest item ids that qualify
            rest = []
            for j, item in enumerate(items):
                if lowest[item] >= cut:
                    low.append(item)
                    if len(low) == x:
                        rest += items[j + 1:]
                        break
                else:
                    rest.append(item)
        else:
            low, rest = (), items
        mid = rest[0]
        state.resolved[mid] = cut
        count[lowest[mid] - base] -= 1
        rs = runs.pop(mid, None)
        if rs is not None:
            left -= 1
            for slot, ts, i, end in rs:
                out[slot] = rank_run(ts, cut, i, end)
        for item in low:
            count[lowest[item] - base] -= 1
            rs = runs.pop(item, None)
            if rs is not None:
                left -= 1
                for slot, ts, i, _ in rs:
                    # its rank, lo or more, is below cut <= every pending
                    # threshold
                    out[slot] = rank_run(ts, lo, i, i)
        _commit(state, low, lo, cut - 1)
        items, lo = rest[1:], cut + 1
        for item in items:
            t = lowest[item]
            if t >= lo:
                continue
            # the item ranks above cut: `>` at every threshold up to it
            new = hi
            kept = []
            for run in runs[item]:
                slot, ts, i, end = run
                if ts[i] < lo:
                    i = run[2] = bisect_right(ts, cut, i, end)
                    if i == end:  # ts[:end] <= cut < its rank <= hi
                        out[slot] = rank_run(ts, hi, end, end)
                        continue
                kept.append(run)
                if ts[i] < new:
                    new = ts[i]
            if kept:
                runs[item] = kept
            else:
                del runs[item]
                left -= 1
            lowest[item] = new
            count[t - base] -= 1
            count[new - base] += 1
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
