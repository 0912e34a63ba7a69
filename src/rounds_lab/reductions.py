"""Query translations between the search, sorting, and division models.

Each translation is a `Session` backend that answers one batch in its own
model with exactly one batch against an inner session in another, so the
rounds and the round sizes carry over. The two comparison backends replay
rank probes as single element comparisons, so the search routines run
against comparison oracles without touching their logic or their query
counts.

The valuation family behind sorting-by-division concentrates each agent's
mass in n + 1 narrow spikes whose positions are decided lazily, one rank
probe per new mark. Any division protocol that only ever cuts at multiples
of 1/n and ends proportional is thereby forced to reveal the hidden
ordering of the agents.

The adversary reads a division batch through `cake.division_blocks`, as
`cake.DensityBackend` does, so both judge a block's kind and first agent
alike, and it maps each block's levels by its cut or eval rule.
It works on integer images of its grids. Grid point (i, c)
is one integer over a common denominator (`AdversaryCakeInstance.istep`,
`cstep` and `den`). A cut argument maps to its grid by a divisibility test,
`points` is keyed by those integers, and an eval compares slots on one
grid. Each answer costs O(1) integer work and no `Fraction`: a batch is
answered as one `RationalAnswers` block of numerators and denominators.

`run_reduction` checks the final allocation without building any density.
Each inner slice boundary must be a grid point, and each owner's value of
her slice has a closed form in integer grid coordinates, `_scaled_value`,
which the eval answers use too. The check costs O(1) integer work per
boundary and per owner, plus O(n) for each boundary grid on which an
owner's mark was never requested (`run_proportional` requests them all).
"""

from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .cake import check_allocation, division_blocks
from .oracle import (LESS, GREATER, ComparisonQuery, MalformedQuery,
                     ProductBatch, RankQuery, RationalAnswers, Session, TARGET,
                     blocks_of, check_index, compare, is_identity,
                     is_permutation)


_ZERO = Fraction(0)
# swaps the two sides of comparison answers
_FLIP = str.maketrans(LESS + GREATER, GREATER + LESS)


class ProtocolNotPrimitive(Exception):
    pass


class NotProportional(Exception):
    pass


class SlotExhausted(Exception):
    pass


class LocateComparisonBackend:
    """Answers rank probes about the promised element with one comparison
    each; valid when the underlying array is sorted, where the element at
    position t is exactly the element of rank t."""

    def __init__(self, comparison_session):
        if not is_identity(comparison_session.backend.ranks):
            raise ValueError("the underlying array must be sorted")
        self.inner = comparison_session

    def answer_batch(self, batch):
        blocks = []
        for kind, items, ts in blocks_of(batch):
            if kind is not RankQuery or any(item != TARGET for item in items):
                raise MalformedQuery(
                    "this view only serves rank probes on the promised element")
            blocks.append(((TARGET,) * len(items), ts))
        return self.inner.submit_round(ProductBatch(ComparisonQuery, blocks))


def ordered_to_locate_adapter(comparison_session):
    """Rank-probe session over a comparison oracle for a sorted array."""
    return Session(LocateComparisonBackend(comparison_session),
                   comparison_session.k_limit)


class SelectComparisonBackend:
    """Answers rank probes at the promised rank by comparing each probed
    item against the promised element (answers arrive flipped, since the
    comparison reads the other way around)."""

    def __init__(self, comparison_session):
        self.inner = comparison_session

    @property
    def target_rank(self):
        return self.inner.promised_rank

    def answer_batch(self, batch):
        r = self.inner.promised_rank
        blocks = []
        for kind, items, ts in blocks_of(batch):
            if kind is not RankQuery or any(t != r for t in ts):
                raise MalformedQuery(
                    "this view only serves rank probes at the promised rank")
            blocks.append(((TARGET,), [item for item in items for _ in ts]))
        return self.inner.submit_round(
            ProductBatch(ComparisonQuery, blocks)).translate(_FLIP)


def unordered_to_select_adapter(comparison_session):
    """Rank-probe session over a comparison oracle with a promised element."""
    return Session(SelectComparisonBackend(comparison_session),
                   comparison_session.k_limit)


class AdversaryCakeInstance:
    """Spiky valuations pinned to fixed grids, revealed one mark at a time.

    Grid i holds the n points i/(n+1) + c*eps for c = 1..n, with
    eps = 1/(n**4 + 1). Agent p's i/n mark lands on a grid-i point chosen
    by her hidden position: strictly below i takes the next point up from
    c = 1, strictly above takes the next point down from c = n, and
    position i itself takes c = i. The hidden positions form a
    permutation, so grid i sees at most i - 1 marks below and n - i above,
    and the three rules never meet.

    Grid point (i, c) is the integer i*istep + c*cstep over the common
    denominator den; `points` is keyed by that integer.
    """

    def __init__(self, n):
        self.n = n
        # i/(n+1) + c*eps = (i*f + c*(n+1)) / ((n+1)*f) with f = 1/eps
        f = n ** 4 + 1
        self.istep = f
        self.cstep = n + 1
        self.den = f * (n + 1)
        self.slots = {}   # (agent, i) -> c
        self.counts = {}  # i -> (marks below, above)
        self.points = {}  # grid point over den -> (agent, i)

    def point_key(self, y):
        """The integer over den that equals y, or None when there is none."""
        d = y.denominator
        return None if self.den % d else y.numerator * (self.den // d)

    def pin(self, agent, i, relation):
        """Pin agent's i/n mark; relation says how her hidden position
        compares to i. Returns its slot c on grid i (idempotent per
        pair); the mark is grid point (i, c)."""
        key = (agent, i)
        c = self.slots.get(key)
        if c is None:
            low, high = self.counts.get(i, (0, 0))
            c = (low + 1 if relation == LESS
                 else self.n - high if relation == GREATER else i)
            point = i * self.istep + c * self.cstep
            if compare(c, i) != relation or point in self.points:
                raise SlotExhausted(
                    "grid %d has no free point for relation %r" % (i, relation))
            self.counts[i] = (low + (relation == LESS),
                              high + (relation == GREATER))
            self.slots[key] = c
            self.points[point] = key
        return c


class AdversaryCakeBackend:
    """Answers division queries by pinning spikes on demand, spending at
    most one rank probe per new mark. Each division batch turns into
    exactly one batch against the rank session, preserving the rounds."""

    def __init__(self, n, rank_session):
        self.inst = AdversaryCakeInstance(n=n)
        self.rank_session = rank_session

    def _cut_level(self, alpha):
        """(grid i, None) for a cut at alpha, or (0, 0) when alpha is 0."""
        n = self.inst.n
        a = alpha if alpha.__class__ is Fraction else Fraction(alpha)
        # alpha*n is whole exactly when alpha's denominator divides n
        d = a.denominator
        if n % d:
            raise ProtocolNotPrimitive(
                "cut argument %s is not a multiple of 1/%d" % (alpha, n))
        i = a.numerator * (n // d)
        if not 0 <= i <= n:
            raise MalformedQuery("cut argument outside [0, 1]")
        return i, None if i else _ZERO

    def _eval_level(self, y):
        """(grid i, slot c) for an eval at grid point (i, c), or (0, y) at
        0 and 1."""
        inst = self.inst
        if y.__class__ is not Fraction:
            y = Fraction(y)
        if y == 0 or y == 1:
            return 0, y
        point = inst.point_key(y)
        ref = inst.points.get(point)
        if ref is None:
            raise MalformedQuery(
                "eval at a point that is not a previous cut: %s" % (y,))
        return ref[1], inst.slots[ref]

    def answer_batch(self, batch):
        inst = self.inst
        n = inst.n
        slots = inst.slots
        # per block: (agents, levels), a level being (grid i, eval slot or
        # None for a cut), or (0, answer) at 0 and 1
        plan = []
        new = {}  # (agent, i) pairs to probe, in order of first appearance
        for cut, agents, xs in division_blocks(batch, n):
            # each level once, after the block's first agent
            levels = list(map(self._cut_level if cut else self._eval_level, xs))
            grids = [i for i, _ in levels if i]
            for agent in agents:
                check_index(agent, n, "agent")
                for i in grids:
                    key = (agent, i)
                    if key not in slots:
                        new[key] = None
            plan.append((agents, levels))
        # one block per run of probes on the same agent
        relations = self.rank_session.submit_round(ProductBatch(RankQuery, [
            ((agent,), [i for _, i in run]) for agent, run in groupby(new, itemgetter(0))]))
        pin = inst.pin
        for (agent, i), relation in zip(new, relations):
            pin(agent, i, relation)
        istep, cstep, den = inst.istep, inst.cstep, inst.den
        nums = []
        dens = []
        put_num, put_den = nums.append, dens.append
        for agents, levels in plan:
            for agent in agents:
                for i, c in levels:
                    if not i:
                        put_num(c.numerator)
                        put_den(c.denominator)
                        continue
                    own = slots[agent, i]
                    if c is None:
                        put_num(i * istep + own * cstep)
                        put_den(den)
                    else:
                        put_num(_scaled_value(n, i, c, own))
                        put_den(n * (n + 1))
        return RationalAnswers(nums, dens)


def _scaled_value(n, i, c, own):
    """n(n+1) times the value of [0, grid point (i, c)] to an agent whose
    grid-i mark sits at slot own: i(n+1) at her mark, i*n below it and
    (i+1)*n above it."""
    return i * (n + 1) if c == own else i * n if c < own else (i + 1) * n


def _unrequested_slot(inst, pi, agent, i):
    """The grid-i slot of a mark the protocol never requested, for hidden
    ranks pi.

    Filling every missing mark, agent by agent, touches grid i's counts only
    through grid i's own marks, so the slot is what an agent-id-order fill
    of that one grid gives: O(n).
    """
    slots = inst.slots
    own = pi[agent - 1]
    low, high = inst.counts.get(i, (0, 0))
    if own < i:
        return low + 1 + sum(1 for p in range(1, agent)
                             if pi[p - 1] < i and (p, i) not in slots)
    if own > i:
        return inst.n - high - sum(1 for p in range(1, agent)
                                   if pi[p - 1] > i and (p, i) not in slots)
    return i


def _grid_ranks(allocation, inst, pi):
    """Ranks implied by a proportional allocation of the spiky cake, for
    hidden ranks pi.

    Boundary i must be the grid-i point (i, c) with 1 <= c <= n, else
    NotProportional. Scaled by n(n+1), an agent values [0, (i, c)] as
    `_scaled_value` says, [0, 0] at 0 and [0, 1] at n(n+1). An owner
    valuing her slice under n + 1 raises NotProportional. The agent
    holding the i-th slice sits at hidden position i. Needs an allocation
    that passed `check_allocation`.
    """
    n = inst.n
    pieces = allocation.pieces
    istep, cstep = inst.istep, inst.cstep
    grid = [0]  # slot c of each inner boundary, by boundary index
    for i in range(1, n):
        y = pieces[i - 1][1]
        point = inst.point_key(y if y.__class__ is Fraction else Fraction(y))
        if point is not None:
            c, off = divmod(point - i * istep, cstep)
        if point is None or off or not 1 <= c <= n:
            raise NotProportional("slice boundary %s sits off grid %d" % (y, i))
        grid.append(c)

    def scaled(agent, i):
        if i == 0 or i == n:
            return i * (n + 1)
        own = inst.slots.get((agent, i))
        if own is None:
            own = _unrequested_slot(inst, pi, agent, i)
        # marks increase: every slot sits on grid i, on its relation's side
        assert 1 <= own <= n and compare(own, i) == compare(pi[agent - 1], i)
        return _scaled_value(n, i, grid[i], own)

    ranks = [None] * n
    for position, agent in enumerate(allocation.owners, start=1):
        value = scaled(agent, position) - scaled(agent, position - 1)
        if value < n + 1:
            raise NotProportional(
                "agent %d values her slice at %s, under 1/%d"
                % (agent, Fraction(value, n * (n + 1)), n))
        ranks[agent - 1] = position
    return tuple(ranks)


def run_reduction(cake_protocol, n, rank_session):
    """Drive a division protocol against the lazy spiky valuations.

    cake_protocol is a callable (session, n) -> Allocation. Returns the
    recovered ranks plus the division transcript and allocation so callers
    can audit the costs. Raises ProtocolNotPrimitive for off-grid cuts,
    MalformedAllocation for slices that do not tile [0, 1] one per agent,
    NotProportional for a slice boundary off its grid or some agent short
    of 1/n, and ValueError before the protocol runs when the rank session's
    hidden ranks are not a permutation of 1..n."""
    ranks = rank_session.backend.ranks
    if len(ranks) != n:
        raise ValueError("the rank session holds %d items, not n = %d"
                         % (len(ranks), n))
    if not is_permutation(ranks):
        raise ValueError("the rank session's ranks are not a permutation of 1..n")
    backend = AdversaryCakeBackend(n, rank_session)
    session = Session(backend, rank_session.k_limit)
    allocation = cake_protocol(session, n)
    check_allocation(allocation, n)
    return (_grid_ranks(allocation, backend.inst, ranks), session.transcript(),
            allocation)
