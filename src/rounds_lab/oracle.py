"""Round-disciplined sessions and the hidden-permutation oracle.

Every model here is the same interaction: a `Session` accepts at most
k_limit batches of queries and hands each batch as a whole to its backend,
so a query can only depend on answers from strictly earlier batches.
Submitting a batch consumes one round even when the batch is empty, a
repeated query is charged every time it appears, and a batch the backend
rejects consumes nothing. Six backends answer through
`answer_batch(queries)`: `HiddenInstance` (rank and comparison queries over
a fixed permutation), the sorting opponent `rank_sort.AdversaryState`, the
division backends `cake.DensityBackend` and
`reductions.AdversaryCakeBackend`, and the comparison backends
`reductions.LocateComparisonBackend` and
`reductions.SelectComparisonBackend`.

A batch is any iterable of queries, or a `ProductBatch`: the same queries
given as item × level blocks, which is how every round the algorithms here
ask is shaped. The session keeps a `ProductBatch` as it is, so a round
costs no object per query until its transcript's `rounds` is read; a block
given as a tuple or a `range` is not even copied, so a search's last round,
which probes a `range` of candidates, costs O(1) to submit. Every
backend reads a batch one way, as the (kind, items, levels) blocks that
`blocks_of` returns, in one loop: a flat batch is one 1 × 1 block per
query. Neither form ever yields a block that asks nothing, as a
`ProductBatch` keeps no such block, so no backend skips one itself. A
malformed block raises what its first malformed query raises when the
same queries are checked one at a time, item-major.

A rank or comparison batch is answered with one `str`, one symbol (`<`,
`=` or `>`) per query, so a round costs one byte per answer. The two rank
backends, `HiddenInstance` and the sorting opponent, share one threshold
reader and one run writer: `read_thresholds` checks a block's thresholds
(a positive-step `range` in O(1)) and hands them over ascending, with a
gather back to block order when they were not; `rank_run` writes an
item's answers to ascending thresholds, a run of `>`, at most one `=` and
a run of `<`, by bisection. `narrow` reads such a run back as the
item's rank interval, for `locate` and `sort_rank` alike.

The two division backends share one block reader, as the rank backends
share `read_thresholds`: `cake.division_blocks` hands each block over as
(cut, agents, levels), with its kind and first agent judged on reaching
it. They answer with a `RationalAnswers` block: the batch's rational
answers as integer numerator and denominator lists, so a round costs no
`Fraction` per answer until a `Fraction` is read from it; algorithms read
rational answers as integer pairs through `pairs_of`, whichever form they
come in. Either block is immutable, and the session keeps and returns it
as it is.

`HiddenInstance` checks that its ranks are a permutation of 1..n. A
`range` checks in O(1). An identity tuple of at least 4096 exact ints is
remembered on its first full check, one per length and 16 lengths at
most, so the instances built over one sorted tuple again and again cost
O(1) each after that; any other tuple is checked in full every time and
never held.
"""

from bisect import bisect_left, bisect_right
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, product
from operator import eq, itemgetter
from threading import Lock

from .util import shuffled

LESS = "<"
EQUAL = "="
GREATER = ">"

# Placeholder reference to the promised element, so algorithms can query it
# without knowing where it sits.
TARGET = "z"


class RoundLimitExceeded(Exception):
    pass


class MalformedQuery(Exception):
    pass


RankQuery = namedtuple("RankQuery", ["item", "threshold"])
ComparisonQuery = namedtuple("ComparisonQuery", ["left", "right"])


class ProductBatch:
    """One round as item × level blocks, item-major.

    `kind` is a two-field query namedtuple (`RankQuery`, `cake.CutQuery`)
    and `blocks` an iterable of (items, levels) pairs. Block
    (items, levels) asks kind(item, level) for each item and, within an
    item, for each level; iterating yields those queries in that order,
    block after block. The constructor turns every block into a (kind,
    items, levels) triple of `blocks`: a tuple or a `range` is kept as it
    is, being immutable, and anything else is copied into a tuple, so
    changing the caller's lists afterwards does not change the batch;
    nothing here assigns its attributes after that, and callers must not
    either. A block with no items or no levels asks nothing, so `blocks`
    holds only the blocks that ask something: no backend ever sees, or
    judges, an empty one.
    """

    __slots__ = ("kind", "blocks", "_size")

    def __init__(self, kind, blocks):
        frozen = []
        size = 0
        for items, levels in blocks:
            if items.__class__ is not tuple and items.__class__ is not range:
                items = tuple(items)
            if levels.__class__ is not tuple and levels.__class__ is not range:
                levels = tuple(levels)
            if items and levels:
                size += len(items) * len(levels)
                frozen.append((kind, items, levels))
        self.kind = kind
        self.blocks = tuple(frozen)
        self._size = size

    def __len__(self):
        return self._size

    def __iter__(self):
        make = partial(tuple.__new__, self.kind)  # kind(item, level), in C
        return chain.from_iterable(map(make, product(items, levels))
                                   for _, items, levels in self.blocks)

    def __repr__(self):
        return "ProductBatch(%s, %r)" % (
            self.kind.__name__, tuple(block[1:] for block in self.blocks))


class NotAPair:
    """The block kind `blocks_of` gives a flat query that is not a pair; no
    backend serves it. The block's one item is the query itself."""


def blocks_of(batch):
    """A batch as (kind, items, levels) blocks: a `ProductBatch`'s own, or
    one 1 × 1 block per query of a flat batch, of the query's class."""
    if batch.__class__ is ProductBatch:
        return batch.blocks
    return [(q.__class__, (q[0],), (q[1],)) if isinstance(q, tuple) and len(q) == 2
            else (NotAPair, (q,), (None,)) for q in batch]


def query_at(kind, item, level):
    """The query a (kind, items, levels) block asks of item at level."""
    return item if kind is NotAPair else tuple.__new__(kind, (item, level))


class RationalAnswers:
    """One batch's rational answers, kept as integer pairs.

    Answer j is nums[j] / dens[j], with dens[j] positive and the pair not
    necessarily in lowest terms. Iterating yields the answers as
    normalised `Fraction`s, built on the first such read and kept; the
    integer lists are dropped then, so a block holds one form at a time.
    The caller hands its lists over: nothing changes them afterwards.
    """

    __slots__ = ("_nums", "_dens", "_fractions", "_size")

    def __init__(self, nums, dens):
        self._nums = nums
        self._dens = dens
        self._fractions = None
        self._size = len(nums)

    def fractions(self):
        """The answers as a tuple of normalised `Fraction`s."""
        fractions = self._fractions
        if fractions is None:
            fractions = self._fractions = tuple(map(Fraction, self._nums, self._dens))
            self._nums = self._dens = None
        return fractions

    def __len__(self):
        return self._size

    def __iter__(self):
        return iter(self.fractions())

    def __repr__(self):
        return "RationalAnswers(%r)" % (self.fractions(),)


def pairs_of(answers):
    """(numerators, denominators) of a batch's rational answers: the lists
    a `RationalAnswers` block still holds, else those of each answer in
    turn. Callers must not change the lists."""
    if answers.__class__ is RationalAnswers and answers._nums is not None:
        return answers._nums, answers._dens
    return [a.numerator for a in answers], [a.denominator for a in answers]


def compare(a, b):
    if a < b:
        return LESS
    if a == b:
        return EQUAL
    return GREATER


def rank_run(ts, r, lo=0, hi=None):
    """The answers, as a `str`, of an item of rank r to probes at the
    ascending thresholds ts, repeats allowed: `>` at each threshold below
    r, `=` at each equal to it and `<` above. Only ts[lo:hi] are searched;
    the caller vouches that the thresholds before lo are below r and those
    from hi on above it."""
    if hi is None:
        hi = len(ts)
    below = bisect_left(ts, r, lo, hi)
    end = bisect_right(ts, r, below, hi)
    return GREATER * below + EQUAL * (end - below) + LESS * (len(ts) - end)


def sorted_gather(values):
    """values in ascending order, as a list, and a gather: None when they
    already ascend, else an `itemgetter` that takes answers listed in
    ascending order back to the order of values."""
    ascending = sorted(values)
    if ascending == list(values):
        return ascending, None
    return ascending, itemgetter(*[bisect_left(ascending, v) for v in values])


def read_thresholds(ts, n, check, first):
    """Check a rank block's nonempty thresholds, each an int in 1..n, in
    the order query-by-query checking judges them: the first threshold,
    then the block's first item, by `check(first)`, which raises when it
    is malformed, then the rest. Returns (ts, None) when ts ascend, repeats
    allowed, else `sorted_gather(ts)`. A positive-step `range` inside 1..n
    is read in O(1)."""
    if ts.__class__ is range and ts.step > 0 and ts.start >= 1 and ts[-1] <= n:
        return ts, None
    prev = ts[0]
    if not (prev.__class__ is int and 1 <= prev <= n):
        raise MalformedQuery("threshold out of range: %r" % (prev,))
    ascending = True
    for t in ts:
        if t.__class__ is int and prev <= t <= n:
            prev = t
        elif t.__class__ is int and 1 <= t <= n:
            ascending = False
        else:
            check(first)
            raise MalformedQuery("threshold out of range: %r" % (t,))
    return (ts, None) if ascending else sorted_gather(ts)


def narrow(run, ts, lo, hi):
    """Narrow an item's rank interval [lo, hi] by its answers to probes at
    the ascending thresholds ts, repeats allowed, given as a `str` run.

    At the first `=`, at threshold t, the rank is t: (t, t). Otherwise the
    first `<` (the lowest cap) bounds hi below its threshold and the last
    `>` (the highest floor) bounds lo above its own, which is what a scan
    in threshold order concludes too, consistent or not. A symbol other
    than `<`, `=` and `>` reads as neither a cap nor a floor, and answers
    no ranking gives may leave lo > hi.
    """
    hit = run.find(EQUAL)
    if hit >= 0:
        return ts[hit], ts[hit]
    cap = run.find(LESS)
    if cap >= 0:
        hi = min(hi, ts[cap] - 1)
    floor = run.rfind(GREATER)
    if floor >= 0:
        lo = max(lo, ts[floor] + 1)
    return lo, hi


def is_identity(ranks):
    """True when ranks reads 1, 2, ..., len(ranks): O(1) for the range
    range(1, n + 1), one C-level pass for any other sequence."""
    ident = range(1, len(ranks) + 1)
    return ranks == ident or all(map(eq, ranks, ident))


# The identity tuple of each length checked last, so that a large sorted tuple
# a caller keeps and builds instances over again and again is checked in full
# once. Only an exact tuple of at least 4096 exact ints that reads 1..n is
# kept: nothing in it can change, shorter tuples are cheap to check, and a
# sorting or reduction trial's fresh permutation is never held. A new identity
# tuple of a kept length replaces the old one; past 16 lengths the least
# recently used goes.
_KEEP_MIN_LEN = 4096
_KEEP_CAP = 16
_kept = OrderedDict()  # n -> the identity tuple of length n checked last
_memo_lock = Lock()


def is_permutation(ranks):
    """True when ranks is a permutation of 1..len(ranks): O(1) for a kept
    identity tuple; otherwise the sort only runs when the sequence is not
    already the identity."""
    n = len(ranks)
    long = ranks.__class__ is tuple and n >= _KEEP_MIN_LEN
    if long:
        with _memo_lock:
            if _kept.get(n) is ranks:
                _kept.move_to_end(n)
                return True
    if not is_identity(ranks):
        return sorted(ranks) == list(range(1, n + 1))
    if long and set(map(type, ranks)) == {int}:
        with _memo_lock:
            _kept[n] = ranks
            _kept.move_to_end(n)
            if len(_kept) > _KEEP_CAP:
                _kept.popitem(last=False)
    return True


@dataclass(frozen=True)
class HiddenInstance:
    """A permutation of 1..n plus an optional promised element.

    ranks[i-1] is the rank of item i. Pass range(1, n + 1) for the sorted
    instance: it validates in O(1) and stores only n and the target, so a
    search over it costs time in its queries, not in n. An identity tuple
    of at least 4096 ranks is remembered on its first full check (see
    `is_permutation`), so building more instances over the same tuple costs
    O(1) too.
    target_index, when set, is an int in 1..n (a float or a bool is
    refused) naming the item the search tasks ask about; which half of
    that pair (the index or the rank) is public depends on the task.
    """

    ranks: tuple  # or range(1, n + 1)
    target_index: int = None

    def __post_init__(self):
        n = len(self.ranks)
        if not is_permutation(self.ranks):
            raise ValueError("ranks must be a permutation of 1..n")
        ti = self.target_index
        if ti is not None and ti.__class__ is not int:
            raise ValueError("target_index must be an int, not %r" % (ti,))
        if ti is not None and not 1 <= ti <= n:
            raise ValueError("target_index out of range")

    @property
    def n(self):
        return len(self.ranks)

    @property
    def target_rank(self):
        """Rank of the promised element (public input for select tasks)."""
        if self.target_index is None:
            raise ValueError("instance has no promised element")
        return self.ranks[self.target_index - 1]

    def _rank(self, ref):
        """Rank of the item `ref` names: an index in 1..n, or TARGET."""
        if ref.__class__ is int:
            if 1 <= ref <= len(self.ranks):
                return self.ranks[ref - 1]
            raise MalformedQuery("item index out of range: %r" % (ref,))
        if ref == TARGET:
            if self.target_index is None:
                raise MalformedQuery("no promised element to refer to")
            return self.ranks[self.target_index - 1]
        raise MalformedQuery("bad item reference: %r" % (ref,))

    def answer_batch(self, batch):
        """Answer one batch as a `str` of symbols; every answer is a
        function of the instance only.

        A rank block's thresholds are checked and put in ascending order
        once, by `read_thresholds`, which judges the first item after the
        first threshold and before the rest, as query-by-query checking
        does. Against one threshold each item is one comparison; against
        more, its answers are the run `rank_run` writes, gathered back
        into block order when the thresholds did not ascend.
        """
        ranks = self.ranks
        n = len(ranks)
        ti = self.target_index
        out = []
        for kind, items, ts in blocks_of(batch):
            if kind is RankQuery:
                ts, gather = read_thresholds(ts, n, self._rank, items[0])
                # a select round's one threshold is one comparison per item:
                # 0.064 us, where a `rank_run` call costs 0.21 us
                t = ts[0] if len(ts) == 1 else None
                first = len(out)
                for item in items:
                    if item.__class__ is int and 1 <= item <= n:
                        r = ranks[item - 1]
                    elif item == TARGET and ti is not None:
                        r = ranks[ti - 1]
                    else:
                        r = self._rank(item)  # raises
                    out.append(rank_run(ts, r) if t is None else
                               LESS if r < t else EQUAL if r == t else GREATER)
                if gather is not None:
                    out[first:] = ["".join(gather(run)) for run in out[first:]]
            elif kind is ComparisonQuery:
                rank = self._rank
                for left in items:
                    for right in ts:
                        if left == right:
                            raise MalformedQuery(
                                "comparison needs two distinct references")
                        out.append(compare(rank(left), rank(right)))
            else:
                raise MalformedQuery("unknown query type: %r"
                                     % (query_at(kind, items[0], ts[0]),))
        return "".join(out)


@dataclass(frozen=True, eq=False)
class RoundTranscript:
    """A session's record up to the moment `Session.transcript()` ran.

    It keeps the session's own (queries, answers) pairs, one per batch, so
    taking it costs O(k) and it does not grow with later rounds. The
    per-query (query, answer) pairs, the queries of a `ProductBatch` and
    the `Fraction`s of a `RationalAnswers` block are built on the first
    read of `rounds`; `round_sizes` and `total_queries` never build them.
    Equality and hash go by (`rounds`, `k_limit`), so a round submitted as
    a `ProductBatch` equals the same queries submitted flat.
    """

    # one (queries, answers) pair per round; queries is a tuple or a
    # ProductBatch, answers the block the backend gave: a str of symbols
    # or a RationalAnswers block
    batches: tuple
    k_limit: int

    @cached_property
    def rounds(self):
        """One tuple of (query, answer) pairs per batch."""
        return tuple(tuple(zip(qs, ans)) for qs, ans in self.batches)

    def __eq__(self, other):
        if other.__class__ is not RoundTranscript:
            return NotImplemented
        return (self.rounds, self.k_limit) == (other.rounds, other.k_limit)

    def __hash__(self):
        return hash((self.rounds, self.k_limit))

    @property
    def round_sizes(self):
        return tuple(len(qs) for qs, _ in self.batches)

    @property
    def total_queries(self):
        return sum(len(qs) for qs, _ in self.batches)


class Session:
    """Answers query batches from one backend, up to k_limit rounds.

    Single-owner: a session must not be shared by concurrently running
    algorithms. Independent sessions are fully isolated.
    """

    def __init__(self, backend, k_limit):
        if k_limit < 1:
            raise ValueError("k_limit must be at least 1")
        self.backend = backend
        self.k_limit = k_limit
        self._batches = []  # (queries, answers) per round, as in RoundTranscript
        self._total = 0

    @property
    def rounds_used(self):
        return len(self._batches)

    @property
    def total_queries(self):
        return self._total

    @property
    def promised_rank(self):
        return self.backend.target_rank

    def submit_round(self, queries):
        """Answer one batch through the backend, charging one round.

        `queries` is an iterable of queries, copied into a tuple, or a
        `ProductBatch`, which is immutable and kept as it is. Either way
        the transcript records the queries in iteration order. The backend
        answers with one immutable block, one answer per query: a `str` of
        `<`, `=` and `>` for rank and comparison queries, a
        `RationalAnswers` block for division queries. The session counts
        it, keeps it in the transcript and returns it as it is.
        """
        if len(self._batches) >= self.k_limit:
            raise RoundLimitExceeded(
                "already used %d of %d rounds" % (len(self._batches), self.k_limit))
        if queries.__class__ is not ProductBatch:
            queries = tuple(queries)
        answers = self.backend.answer_batch(queries)
        if len(answers) != len(queries):
            raise ValueError("the backend gave %d answers to %d queries"
                             % (len(answers), len(queries)))
        self._batches.append((queries, answers))
        self._total += len(queries)
        return answers

    def transcript(self):
        return RoundTranscript(batches=tuple(self._batches),
                               k_limit=self.k_limit)


def open_session(instance, k_limit):
    """Start a fresh session over the instance; k_limit must be positive."""
    return Session(instance, k_limit)


def random_ranks(n, rng):
    """A uniformly shuffled tuple of 1..n, not yet checked by an instance."""
    return tuple(shuffled(n, rng))
