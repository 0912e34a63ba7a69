"""Fair division of [0, 1] under exact rational arithmetic.

Valuations are piecewise-constant densities. The division protocol runs in
k batched rounds: every still-grouped agent marks fixed value fractions of
her private window [a_i, b_i], the group splits at order statistics of the
marks, and after the last round each agent keeps a slice worth at least
1/n to her. All arithmetic is exact and the proportionality check carries
no tolerance.

Division queries go through the shared round-limited `Session` (exported
here under its division name `CakeSession`); `DensityBackend` answers them
from actual densities.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .oracle import MalformedQuery, Session as CakeSession
from .util import ceil_kth_root


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
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "heights", hs)
        if len(bps) != len(hs) + 1:
            raise ValueError("need exactly one more breakpoint than heights")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("density must span [0, 1]")
        acc = bps[0]
        cum = [acc]
        prev = bps[0]
        for h, b in zip(hs, bps[1:]):
            if prev >= b:
                raise ValueError("breakpoints must increase strictly")
            if h < 0:
                raise ValueError("heights must be nonnegative")
            acc = acc + h * (b - prev)
            cum.append(acc)
            prev = b
        if acc != 1:
            raise ValueError("total mass must be exactly 1, got %s" % (acc,))
        # integer images of cum and breakpoints on common denominators, so the
        # bisects below compare plain ints instead of Fractions
        mden = lcm(*(c.denominator for c in cum))
        bden = lcm(*(b.denominator for b in bps))
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_cumn", [c.numerator * (mden // c.denominator) for c in cum])
        object.__setattr__(self, "_mden", mden)
        object.__setattr__(self, "_bpn", [b.numerator * (bden // b.denominator) for b in bps])
        object.__setattr__(self, "_bden", bden)
        object.__setattr__(self, "_hn", [h.numerator for h in hs])
        object.__setattr__(self, "_hd", [h.denominator for h in hs])

    def prefix(self, y):
        if y.__class__ is not Fraction:
            y = Fraction(y)
        p, q = y.numerator, y.denominator
        if p < 0 or p > q:
            raise ValueError("point outside [0, 1]")
        i = bisect_right(self._bpn, p * self._bden // q) - 1
        if i >= len(self.heights):
            return self._cum[-1]
        return self._cum[i] + self.heights[i] * (y - self.breakpoints[i])

    def cut(self, alpha):
        """Leftmost y whose prefix value equals alpha."""
        if alpha.__class__ is not Fraction:
            alpha = Fraction(alpha)
        p, q = alpha.numerator, alpha.denominator
        if p < 0 or p > q:
            raise ValueError("alpha outside [0, 1]")
        if not p:
            return self.breakpoints[0]
        mden = self._mden
        # zero-height plateaus repeat in _cum, so bisect_left lands on the
        # first segment that actually gains mass, keeping the cut leftmost
        i = bisect_left(self._cumn, -(-p * mden // q)) - 1
        # breakpoints[i] + (alpha - cum[i]) / heights[i], composed over ints
        # so a single normalization runs instead of three
        num = (p * mden - self._cumn[i] * q) * self._hd[i]
        den = q * mden * self._hn[i]
        bden = self._bden
        return Fraction(num * bden + self._bpn[i] * den, den * bden)


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
        if lo != edge or hi < lo:
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
    values = []
    for agent_id in range(1, n + 1):
        lo, hi = piece_of[agent_id]
        d = agents[agent_id - 1]
        values.append(d.prefix(hi) - d.prefix(lo))
    share = Fraction(1, n)
    return all(v >= share for v in values), values


class DensityBackend:
    """Answers division queries from actual piecewise densities."""

    def __init__(self, agents):
        self.agents = tuple(agents)

    def answer_batch(self, queries):
        agents = self.agents
        n = len(agents)
        out = []
        append = out.append
        for q in queries:
            cls = q.__class__
            if cls is not CutQuery and cls is not EvalQuery:
                raise MalformedQuery("unknown division query: %r" % (q,))
            agent = q.agent
            if not (agent.__class__ is int and 1 <= agent <= n):
                raise MalformedQuery("agent out of range: %r" % (agent,))
            density = agents[agent - 1]
            append(density.cut(q.alpha) if cls is CutQuery else density.prefix(q.y))
        return out


def group_sizes(m, z):
    """Split m agents into z groups as evenly as possible, larger first."""
    base, extra = divmod(m, z)
    return [base + 1] * extra + [base] * (z - extra)


def assign_subcakes(marks, targets):
    """Split agents into groups of the given sizes at mark order statistics.

    marks maps each agent to her cut points for the round (entry j is her
    candidate boundary after group j). Group j takes the targets[j] agents
    with the smallest j-th marks, ties to the lower agent id; the boundary
    is the largest mark taken. Returns (cut points, agent groups).
    """
    assert sum(targets) == len(marks)
    unassigned = sorted(marks)
    # floats lead the sort key: rounding to nearest is monotone, so the float
    # can never invert an exact order, only tie -- and ties fall through to
    # the exact mark
    approx = {agent: [float(x) for x in ms] for agent, ms in marks.items()}
    cuts = []
    groups = []
    for j, want in enumerate(targets[:-1]):
        unassigned.sort(
            key=lambda agent: (approx[agent][j], marks[agent][j], agent))
        taken, unassigned = unassigned[:want], unassigned[want:]
        cuts.append(marks[taken[-1]][j])
        groups.append(sorted(taken))
    groups.append(sorted(unassigned))
    return cuts, groups


def run_proportional(session, n, k):
    """Drive the k-round splitting protocol over a division session.

    Every cut argument is a multiple of 1/n. Returns the Allocation; the
    session transcript carries the cost.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    # one tuple per group: (agents, a, b, region_lo, region_hi)
    groups = [(tuple(range(1, n + 1)), Fraction(0), Fraction(1),
               Fraction(0), Fraction(1))]
    for round_no in range(1, k + 1):
        rounds_left = k - round_no + 1
        queries = []
        plans = []
        for agents, a, b, rlo, rhi in groups:
            m = len(agents)
            assert b - a == Fraction(m, n)
            if m == 1:
                plans.append((agents, a, b, rlo, rhi, None, None))
                continue
            sizes = group_sizes(m, ceil_kth_root(m, rounds_left))
            cum = 0
            alphas = []
            for size in sizes[:-1]:
                cum += size
                alphas.append(a + Fraction(cum, n))
            plans.append((agents, a, b, rlo, rhi, sizes, alphas))
            queries.extend(CutQuery(agent, alpha)
                           for agent in agents for alpha in alphas)
        if not queries:
            break  # every group is a singleton already
        answers = session.submit_round(queries)
        pos = 0
        next_groups = []
        for agents, a, b, rlo, rhi, sizes, alphas in plans:
            if sizes is None:
                next_groups.append((agents, a, b, rlo, rhi))
                continue
            width = len(alphas)
            marks = {}
            for agent in agents:
                marks[agent] = answers[pos:pos + width]
                pos += width
            cuts, subgroups = assign_subcakes(marks, sizes)
            assert all(x <= y for x, y in zip(cuts, cuts[1:]))
            edges = [rlo] + cuts + [rhi]
            cum = 0
            for gi, sub in enumerate(subgroups):
                new_a = a + Fraction(cum, n)
                cum += sizes[gi]
                new_b = a + Fraction(cum, n)
                next_groups.append((tuple(sub), new_a, new_b,
                                    edges[gi], edges[gi + 1]))
        groups = next_groups
        largest = max(len(g[0]) for g in groups)
        # populations shrink on schedule: at most ceil(n**(1 - j/k)) remain
        # grouped after round j (checked in exact integer arithmetic)
        limit = 1 if round_no == k else ceil_kth_root(n ** (k - round_no), k)
        assert largest <= limit
    pieces = []
    owners = []
    for agents, a, b, rlo, rhi in groups:
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
    """Random step density with small exact fractions."""
    m = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, denom), m - 1)) if m > 1 else []
    bps = [Fraction(0)] + [Fraction(c, denom) for c in cuts] + [Fraction(1)]
    weights = [rng.randint(0, 4) for _ in range(m)]
    if sum(weights) == 0:
        weights[rng.randrange(m)] = 1
    total = sum(weights)
    heights = [Fraction(w, total) / (b - a)
               for w, a, b in zip(weights, bps, bps[1:])]
    return PiecewiseDensity(breakpoints=tuple(bps), heights=tuple(heights))
