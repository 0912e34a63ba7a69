"""Fair division of [0, 1] under exact rational arithmetic.

Valuations are piecewise-constant densities. The division protocol runs in
k batched rounds: every still-grouped agent marks fixed value fractions of
her private window [a_i, b_i], the group splits at order statistics of the
marks, and after the last round each agent keeps a slice worth at least
1/n to her. All arithmetic is exact and the proportionality check carries
no tolerance.

Division queries go through the shared round-limited `Session` (exported
here under its division name `CakeSession`); `DensityBackend` answers them
from actual densities. It and `reductions.AdversaryCakeBackend` read a
batch through one block reader, `division_blocks`, which hands over the
blocks and judges each block's kind and first agent on reaching it.

Answers are exact and cost no `Fraction`. A `PiecewiseDensity` keeps
integer images of itself next to its public `Fraction` fields: breakpoints
and prefix masses over common denominators, and two integer constants per
segment, all built by `_set_images`, whether the constructor checked the
fields first or `_from_images` takes a caller's word for them. The
constructor validates on those integers. Within a segment a cut and an
eval are affine in the level, so a density answers ascending levels p/D,
over one common denominator D, in runs: a bisect finds the segment of the
lowest level left and another ends its run of levels there, and the run's
numerators are one affine map of its p, a single `range` when the p are
one, over one denominator. `DensityBackend` answers a whole block that
way into a `RationalAnswers` block; `cut` and `prefix` are the one-level
case, wrapped in one `Fraction`.
`run_proportional` reads the marks as integer pairs: `assign_subcakes`
orders them by float first, settles float ties by cross-multiplication,
and builds a `Fraction` only for each boundary it picks.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Rational
from operator import itemgetter

from .oracle import (MalformedQuery, ProductBatch, RationalAnswers,
                     Session as CakeSession, blocks_of, pairs_of, query_at,
                     sorted_gather)
from .util import ceil_kth_root, group_sizes, useful_rounds


class MalformedAllocation(Exception):
    pass


CutQuery = namedtuple("CutQuery", ["agent", "alpha"])
EvalQuery = namedtuple("EvalQuery", ["agent", "y"])


@dataclass(frozen=True)
class PiecewiseDensity:
    """Nonnegative step density on [0, 1] with total mass exactly 1.

    breakpoints: 0 = t0 < t1 < ... < tm = 1; heights[j] applies between
    breakpoints j and j + 1.
    """

    breakpoints: tuple
    heights: tuple

    def __post_init__(self):
        bps = tuple(t if t.__class__ is Fraction else Fraction(t)
                    for t in self.breakpoints)
        hs = tuple(h if h.__class__ is Fraction else Fraction(h)
                   for h in self.heights)
        if len(bps) != len(hs) + 1:
            raise ValueError("need exactly one more breakpoint than heights")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("density must span [0, 1]")
        bden = lcm(*[b.denominator for b in bps])
        hden = lcm(*[h.denominator for h in hs])
        bpn = [b.numerator * (bden // b.denominator) for b in bps]
        hn = [h.numerator * (hden // h.denominator) for h in hs]
        for h, a, b in zip(hn, bpn, bpn[1:]):
            if a >= b:
                raise ValueError("breakpoints must increase strictly")
            if h < 0:
                raise ValueError("heights must be nonnegative")
        self._set_images(bps, hs, bpn, bden, hn, hden)
        if self._cumn[-1] != self._mden:
            raise ValueError("total mass must be exactly 1, got %s"
                             % (Fraction(self._cumn[-1], self._mden),))

    @classmethod
    def _from_images(cls, breakpoints, heights, bpn, bden, hn, hden):
        """A density its caller vouches for, built without a check:
        `breakpoints` and `heights` are tuples of `Fraction`s that pass
        every check of the constructor, and bpn[j]/bden and hn[j]/hden
        equal breakpoint j and height j."""
        self = object.__new__(cls)
        self._set_images(breakpoints, heights, bpn, bden, hn, hden)
        return self

    def _set_images(self, breakpoints, heights, bpn, bden, hn, hden):
        # integer images: breakpoint j is bpn[j]/bden, height j is hn[j]/hden
        # and the mass left of breakpoint j is cumn[j]/mden, mden = bden*hden.
        # On segment j, cut(p/q) = (q*ks[j] + p*mden) / (q*ls[j]) and
        # prefix(p/q) = (p*ls[j] - q*ks[j]) / (q*mden). The instance is
        # frozen, so every field goes in by one update of its __dict__
        acc = 0
        cumn = [0]
        for h, a, b in zip(hn, bpn, bpn[1:]):
            acc += h * (b - a)
            cumn.append(acc)
        self.__dict__.update(
            breakpoints=breakpoints, heights=heights, _bpn=bpn, _bden=bden,
            _cumn=cumn, _mden=bden * hden,
            _ks=[h * b - c for h, b, c in zip(hn, bpn, cumn)],
            _ls=[bden * h for h in hn])

    def _answers(self, cut, P, D, nums, dens):
        """Append cut(p/D), or prefix(p/D) when cut is false, to nums and
        dens as a numerator and a positive denominator, for each p of P,
        ascending numerators in [0, D]."""
        ks, ls, mden = self._ks, self._ls, self._mden
        # a cut's segment is where the mass reaches the level, an eval's
        # where the point lies
        edges, scale = (self._cumn, mden) if cut else (self._bpn, self._bden)
        j0 = bisect_right(P, 0)
        if j0:
            nums += [0] * j0
            dens += [1] * j0
        end = len(P)
        while j0 < end:
            # the lowest level left lies in (edges[i], edges[i + 1]] / scale,
            # and its run is every level up to that segment's end. A
            # zero-height plateau has equal edges, so it takes no cut and
            # each cut is the leftmost; prefix is continuous, so a point on
            # a breakpoint may take the segment on its left
            i = bisect_left(edges, -(-P[j0] * scale // D)) - 1
            j1 = bisect_right(P, edges[i + 1] * D // scale, j0)
            if cut:
                a, b, den = mden, D * ks[i], D * ls[i]
            else:
                a, b, den = ls[i], -D * ks[i], D * mden
            if j1 - j0 == 1:  # most runs of a short block: no slice, no list
                nums.append(a * P[j0] + b)
                dens.append(den)
            else:
                run = P[j0:j1]
                if a and run.__class__ is range:
                    nums += range(a * run.start + b, a * run.stop + b, a * run.step)
                else:
                    nums += [a * p + b for p in run]
                dens += [den] * len(run)
            j0 = j1

    def _one(self, cut, x):
        """cut(x), or prefix(x) when cut is false: `_answers` at one level."""
        if x.__class__ is not Fraction:
            x = Fraction(x)
        p, q = x.numerator, x.denominator
        if p < 0 or p > q:
            raise ValueError("%s outside [0, 1]" % ("alpha" if cut else "point"))
        nums, dens = [], []
        self._answers(cut, [p], q, nums, dens)
        return Fraction(nums[0], dens[0])

    def prefix(self, y):
        return self._one(False, y)

    def cut(self, alpha):
        """Leftmost y whose prefix value equals alpha."""
        return self._one(True, alpha)


def _numerators(levels):
    """Rational levels in [0, 1] over their least common denominator D:
    (P, D, gather). P holds the numerators in ascending order, as a
    `range` when more than two of them form an arithmetic progression.
    gather is None when the levels already ascend, else it takes answers
    in P's order back to the levels' order."""
    qs = [x.denominator for x in levels]
    D = lcm(*qs)
    P = [x.numerator * (D // q) for x, q in zip(levels, qs)]
    ascending, gather = sorted_gather(P)
    if len(P) > 2 and ascending[1] > ascending[0]:
        run = range(ascending[0], ascending[-1] + 1, ascending[1] - ascending[0])
        if len(run) == len(P) and list(run) == ascending:
            return run, D, gather
    return ascending, D, gather


@dataclass(frozen=True)
class Allocation:
    """Contiguous slices tiling [0, 1] left to right, one owner each."""

    pieces: tuple  # (lo, hi) pairs in order
    owners: tuple  # agent ids aligned with pieces


def check_allocation(allocation, n):
    """Raise MalformedAllocation unless agents 1..n hold one slice each and
    the slices tile [0, 1] left to right."""
    pieces, owners = allocation.pieces, allocation.owners
    if len(pieces) != n or sorted(owners) != list(range(1, n + 1)):
        raise MalformedAllocation("need exactly one slice per agent")
    edge = Fraction(0)
    for lo, hi in pieces:
        # a protocol's pieces share their boundary objects, so `is` mostly
        # settles the first test without a Fraction comparison
        if (lo is not edge and lo != edge) or hi < lo:
            raise MalformedAllocation("slices must tile [0, 1] in order")
        edge = hi
    if edge != 1:
        raise MalformedAllocation("slices must end at 1")


def verify_proportional(allocation, agents):
    """Exact check that every agent values her slice at least 1/n.

    Returns (ok, values) with values listed by agent id.
    """
    n = len(agents)
    pieces, owners = allocation.pieces, allocation.owners
    check_allocation(allocation, n)
    piece_of = {owner: piece for piece, owner in zip(pieces, owners)}
    ok = True
    values = []
    for agent_id in range(1, n + 1):
        lo, hi = piece_of[agent_id]
        d = agents[agent_id - 1]
        if d.__class__ is PiecewiseDensity:
            # both ends in one pass over their common denominator D; an
            # eval's numerator is over D * mden (at point 0 it is 0 over 1)
            lo = lo if lo.__class__ is Fraction else Fraction(lo)
            hi = hi if hi.__class__ is Fraction else Fraction(hi)
            D = lcm(lo.denominator, hi.denominator)
            ends = []
            d._answers(False, [lo.numerator * (D // lo.denominator),
                               hi.numerator * (D // hi.denominator)], D, ends, [])
            num, den = ends[1] - ends[0], D * d._mden
            value = Fraction(num, den)
        else:
            value = d.prefix(hi) - d.prefix(lo)
            num, den = value.numerator, value.denominator
        if n * num < den:  # worth less than 1/n to her
            ok = False
        values.append(value)
    return ok, values


def check_agent(agent, n):
    """Raise MalformedQuery unless agent is an int in 1..n."""
    if not (agent.__class__ is int and 1 <= agent <= n):
        raise MalformedQuery("agent out of range: %r" % (agent,))


def division_blocks(batch, n):
    """The blocks of `blocks_of(batch)` as (cut, agents, levels) triples,
    cut true for a `CutQuery` block and false for an `EvalQuery` one; each
    has an agent and a level, since `blocks_of` yields no block that asks
    nothing. Only on reaching a block does it raise MalformedQuery for any
    other kind, then for the block's first agent unless it is in 1..n, so
    the blocks ahead of a bad one are answered first, and a backend judges
    the block's levels and its other agents itself."""
    for kind, agents, levels in blocks_of(batch):
        cut = kind is CutQuery
        if not cut and kind is not EvalQuery:
            raise MalformedQuery("unknown division query: %r"
                                 % (query_at(kind, agents[0], levels[0]),))
        check_agent(agents[0], n)
        yield cut, agents, levels


class DensityBackend:
    """Answers division queries from actual piecewise densities."""

    def __init__(self, agents):
        self.agents = tuple(agents)

    def answer_batch(self, batch):
        """Answer one batch, read through `division_blocks`, block by block
        into a `RationalAnswers` block: a cut block asks its agents' `cut`, an
        eval block their `prefix`, at the block's levels. The levels are put
        once per block over their least common denominator D, as ascending
        numerators: a `range` when they form a progression, as j/n for j =
        1..n-1 do. A `PiecewiseDensity` answers them from its integer images,
        one affine run per segment and no `Fraction` made; levels that do not
        ascend are answered in ascending order and gathered back into block
        order. Any other density is asked its own `cut` or `prefix`, and the
        result's numerator and denominator are kept. The pairs equal the
        answers but are not in lowest terms; levels with large coprime
        denominators make D, and so each pair, as long as their product.

        `division_blocks` judges a block's kind and first agent on
        reaching it. Its levels are then checked once, each agent before
        its levels, and every agent is asked for the answers ahead of the
        first bad level, just as query-by-query checking does.
        """
        agents = self.agents
        n = len(agents)
        nums = []
        dens = []
        for cut, ids, xs in division_blocks(batch, n):
            good = 0  # levels ahead of the first bad one
            for x in xs:
                if ((x.__class__ is not Fraction and not isinstance(x, Rational))
                        or not 0 <= x.numerator <= x.denominator):
                    break
                good += 1
            ok = xs[:good]
            P, D, gather = _numerators(ok)
            for agent in ids:
                check_agent(agent, n)
                density = agents[agent - 1]
                if density.__class__ is not PiecewiseDensity:
                    for y in map(density.cut if cut else density.prefix, ok):
                        nums.append(y.numerator)
                        dens.append(y.denominator)
                elif gather is None:
                    density._answers(cut, P, D, nums, dens)
                else:
                    run_nums, run_dens = [], []
                    density._answers(cut, P, D, run_nums, run_dens)
                    nums += gather(run_nums)
                    dens += gather(run_dens)
                if good < len(xs):
                    raise MalformedQuery("%s is not a rational in [0, 1]: %r" % (
                        "cut argument" if cut else "eval point",
                        xs[good]))
        return RationalAnswers(nums, dens)


def assign_subcakes(rows, nums, dens, targets):
    """Split agents into groups of the given sizes at mark order statistics.

    rows maps each agent to where her marks start in nums and dens: her
    candidate boundary after group j is nums[row + j] / dens[row + j]
    (denominators positive, pairs not necessarily in lowest terms). Group j takes
    the targets[j] agents with the smallest j-th marks, ties to the lower
    agent id; the boundary is the largest mark taken. Returns (cut points
    as `Fraction`s, agent groups).
    """
    assert sum(targets) == len(rows)
    unassigned = sorted(rows.items())  # (agent, row) pairs
    cuts = []
    groups = []
    for j, want in enumerate(targets[:-1]):
        # floats lead: int / int rounds the exact quotient to nearest, which
        # is monotone, so a float can never invert an exact order, only tie
        # -- and a tie falls through to the exact mark, then to the agent id
        col = [nums[r + j] / dens[r + j] for _, r in unassigned]
        if want == 1:
            low = min(col)
            at = col.index(low)
            if col.count(low) > 1:
                at = _exact_order([i for i, x in enumerate(col) if x == low],
                                  unassigned, nums, dens, j)[0]
            agent, r = unassigned.pop(at)
            groups.append([agent])
        else:
            order = sorted(range(len(col)), key=col.__getitem__)
            # only the float tie around the last agent taken can change who
            # is taken or which mark is the boundary
            edge = col[order[want - 1]]
            lo, hi = want - 1, want
            while lo and col[order[lo - 1]] == edge:
                lo -= 1
            while hi < len(order) and col[order[hi]] == edge:
                hi += 1
            if hi - lo > 1:
                order[lo:hi] = _exact_order(order[lo:hi], unassigned, nums, dens, j)
            agent, r = unassigned[order[want - 1]]
            groups.append(sorted(unassigned[i][0] for i in order[:want]))
            unassigned = [unassigned[i] for i in order[want:]]
        cuts.append(Fraction(nums[r + j], dens[r + j]))
    groups.append(sorted(agent for agent, _ in unassigned))
    return cuts, groups


def _exact_order(tie, entries, nums, dens, j):
    """The positions `tie` of (agent, row) entries whose j-th marks round to
    the same float, by exact mark and then agent id. Marks that are equal
    (by cross-multiplication) are ordered by agent id alone; only marks
    that differ become `Fraction`s."""
    marks = [(nums[entries[i][1] + j], dens[entries[i][1] + j]) for i in tie]
    p, q = marks[0]
    if all(a * q == p * b for a, b in marks):
        return sorted(tie, key=lambda i: entries[i][0])
    exact = {i: Fraction(a, b) for i, (a, b) in zip(tie, marks)}
    return sorted(tie, key=lambda i: (exact[i], entries[i][0]))


def run_proportional(session, n, k):
    """Drive the k-round splitting protocol over a division session.

    Every cut argument is a multiple of 1/n. Returns the Allocation; the
    session transcript carries the cost.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    # every round at least halves each group, so rounds past ceil(log2 n)
    # change no split; the clamp keeps n ** (k - round_no) small
    k = useful_rounds(n, k)
    # one tuple per group: (agents, lo, region_lo, region_hi); its members
    # mark values between lo/n and (lo + len(agents))/n
    groups = [(tuple(range(1, n + 1)), 0, Fraction(0), Fraction(1))]
    for round_no in range(1, k + 1):
        rounds_left = k - round_no + 1
        blocks = []  # (agents, alphas) per group that still splits
        plans = []
        for agents, lo, rlo, rhi in groups:
            m = len(agents)
            if m == 1:
                plans.append((agents, lo, rlo, rhi, None, None))
                continue
            sizes = group_sizes(m, ceil_kth_root(m, rounds_left))
            cum = lo
            alphas = []
            for size in sizes[:-1]:
                cum += size
                alphas.append(Fraction(cum, n))
            plans.append((agents, lo, rlo, rhi, sizes, alphas))
            blocks.append((agents, alphas))
        if not blocks:
            break  # every group is a singleton already
        nums, dens = pairs_of(session.submit_round(ProductBatch(CutQuery, blocks)))
        pos = 0
        next_groups = []
        for agents, lo, rlo, rhi, sizes, alphas in plans:
            if sizes is None:
                next_groups.append((agents, lo, rlo, rhi))
                continue
            width = len(alphas)
            rows = {agent: pos + r * width for r, agent in enumerate(agents)}
            pos += width * len(agents)
            cuts, subgroups = assign_subcakes(rows, nums, dens, sizes)
            assert all(x <= y for x, y in zip(cuts, cuts[1:]))
            edges = [rlo] + cuts + [rhi]
            for gi, sub in enumerate(subgroups):
                next_groups.append((tuple(sub), lo, edges[gi], edges[gi + 1]))
                lo += sizes[gi]
        groups = next_groups
        largest = max(len(g[0]) for g in groups)
        # populations shrink on schedule: at most ceil(n**(1 - j/k)) remain
        # grouped after round j (checked in exact integer arithmetic)
        limit = 1 if round_no == k else ceil_kth_root(n ** (k - round_no), k)
        assert largest <= limit
    pieces = []
    owners = []
    for agents, lo, rlo, rhi in groups:
        assert len(agents) == 1
        pieces.append((rlo, rhi))
        owners.append(agents[0])
    return Allocation(pieces=tuple(pieces), owners=tuple(owners))


def proportional_protocol(agents, k):
    """Run the protocol on real densities; returns (Allocation, transcript)."""
    agents = tuple(agents)
    backend = DensityBackend(agents)
    session = CakeSession(backend, max(k, 1))
    allocation = run_proportional(session, len(agents), k)
    return allocation, session.transcript()


def parse_cake_file(text):
    """One agent per line: t0 h1 t1 h2 t2 ... h_m t_m, exact fractions p/q."""
    agents = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            toks = [Fraction(tok) for tok in line.split()]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from exc
        if len(toks) < 3 or len(toks) % 2 == 0:
            raise ValueError("line %d: expected t0 h1 t1 ... h_m t_m" % (lineno,))
        agents.append(PiecewiseDensity(breakpoints=tuple(toks[0::2]),
                                       heights=tuple(toks[1::2])))
    return agents


def format_cake_file(agents):
    lines = []
    for d in agents:
        toks = [str(d.breakpoints[0])]
        for h, t in zip(d.heights, d.breakpoints[1:]):
            toks.append(str(h))
            toks.append(str(t))
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def random_density(rng, max_pieces=4, denom=24):
    """Random step density with small exact fractions: at most max_pieces
    steps on a grid of 1/denom. Raises ValueError, before drawing from rng,
    unless 1 <= max_pieces <= denom."""
    if not 1 <= max_pieces <= denom:
        raise ValueError("need 1 <= max_pieces <= denom, got max_pieces=%r, "
                         "denom=%r" % (max_pieces, denom))
    m = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, denom), m - 1)) if m > 1 else []
    edges = [0] + cuts + [denom]
    weights = [rng.randint(0, 4) for _ in range(m)]
    if sum(weights) == 0:
        weights[rng.randrange(m)] = 1
    total = sum(weights)
    # weight w over [a/denom, b/denom] is height (w/total) / ((b - a)/denom);
    # the edges are the breakpoints' integer images over denom
    heights = tuple([_fraction(w * denom, total * (b - a))
                     for w, a, b in zip(weights, edges, edges[1:])])
    hden = lcm(*[h.denominator for h in heights])
    return PiecewiseDensity._from_images(
        itemgetter(*edges)(_grid(denom)), heights, edges, denom,
        [h.numerator * (hden // h.denominator) for h in heights], hden)


@lru_cache(maxsize=16)
def _grid(denom):
    """The breakpoints c/denom for c = 0..denom, as `Fraction`s."""
    return tuple([Fraction(c, denom) for c in range(denom + 1)])


# the heights random_density draws repeat across draws: the default shape
# has 831 distinct (numerator, denominator) pairs, so each is built once
_fraction = lru_cache(maxsize=4096)(Fraction)
