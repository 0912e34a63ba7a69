"""Differential checks of the division layer's integer images against the
plain-Fraction formulas they replaced, which are kept here as references,
and of the integer pairs the backend answers against the densities' own
`cut` and `prefix`.

Needs neither pytest nor hypothesis, so it also runs as a script:

    PYTHONPATH=src python tests/test_division_images.py
"""

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

from rounds_lab import cake
from rounds_lab.cake import (Allocation, CutQuery, DensityBackend, EvalQuery,
                             PiecewiseDensity, assign_subcakes,
                             parse_cake_file, proportional_protocol,
                             random_density, verify_proportional)
from rounds_lab.oracle import (HiddenInstance, MalformedQuery, ProductBatch,
                               Session, pairs_of, random_ranks)
from rounds_lab.reductions import AdversaryCakeBackend, AdversaryCakeInstance
from conftest import grid_point, mark_rows


def reference_cum(breakpoints, heights):
    """The validation and prefix masses of the Fraction-chain density."""
    bps = tuple(Fraction(t) for t in breakpoints)
    hs = tuple(Fraction(h) for h in heights)
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
    return cum


def reference_prefix(d, y):
    y = Fraction(y)
    cum = reference_cum(d.breakpoints, d.heights)
    i = bisect_right(d.breakpoints, y) - 1
    if i >= len(d.heights):
        return cum[-1]
    return cum[i] + d.heights[i] * (y - d.breakpoints[i])


def reference_cut(d, alpha):
    alpha = Fraction(alpha)
    if alpha == 0:
        return d.breakpoints[0]
    cum = reference_cum(d.breakpoints, d.heights)
    i = bisect_left(cum, alpha) - 1
    return d.breakpoints[i] + (alpha - cum[i]) / d.heights[i]


def reference_random_density(rng, max_pieces=4, denom=24):
    """The sampler that built each height by a chain of divisions."""
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


def reference_assign_subcakes(marks, targets):
    """The one-sort-per-column selection, keyed on floats of every mark."""
    unassigned = sorted(marks)
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


def _message(f, *args):
    try:
        f(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _densities():
    """Sampled densities of every shape, plus hand-built ones with zero
    plateaus first, inside, last and back to back, and large odd
    denominators."""
    out = []
    for seed in range(400):
        rng = random.Random(seed)
        out.append(random_density(rng, max_pieces=1 + seed % 8,
                                  denom=(24, 9, 101, 1000)[seed % 4]))
    F = Fraction
    out += [
        PiecewiseDensity((0, F(1, 3), 1), (0, F(3, 2))),
        PiecewiseDensity((0, F(2, 3), 1), (F(3, 2), 0)),
        PiecewiseDensity((0, F(1, 4), F(1, 2), F(3, 4), 1), (2, 0, 0, 2)),
        PiecewiseDensity((0, F(1, 7), F(5, 11), 1),
                         (0, F(77, 24), 0)),
        PiecewiseDensity((0, F(1, 10 ** 9 + 7), 1),
                         (F(10 ** 9 + 7, 2), F(10 ** 9 + 7, 2 * 10 ** 9 + 12))),
        PiecewiseDensity((0, 1), (1,)),
    ]
    return out


def _probes(d, cum):
    """Points and values 0, 1, every breakpoint and prefix mass, and the
    midpoints between neighbours, plus a coarse grid."""
    def with_midpoints(xs):
        xs = sorted(set(xs))
        return xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    grid = [Fraction(j, 29) for j in range(30)]
    return (with_midpoints(list(d.breakpoints) + grid),
            with_midpoints(cum + grid))


def test_cut_and_prefix_match_fraction_formulas():
    for d in _densities():
        cum = reference_cum(d.breakpoints, d.heights)
        ys, alphas = _probes(d, cum)
        for y in ys:
            got = d.prefix(y)
            assert got.__class__ is Fraction and got == reference_prefix(d, y), (d, y)
        for alpha in alphas:
            got = d.cut(alpha)
            assert got.__class__ is Fraction and got == reference_cut(d, alpha), (d, alpha)
        # plain ints take the same path as the Fractions they equal
        assert (d.prefix(0), d.prefix(1), d.cut(0), d.cut(1)) == (
            reference_prefix(d, 0), reference_prefix(d, 1),
            reference_cut(d, 0), reference_cut(d, 1))


def test_out_of_range_calls_keep_their_value_errors():
    d = PiecewiseDensity((0, Fraction(1, 2), 1), (2, 0))
    for bad in (Fraction(-1, 3), Fraction(4, 3), -1, 2):
        assert _message(d.cut, bad) == "alpha outside [0, 1]"
        assert _message(d.prefix, bad) == "point outside [0, 1]"


def test_malformed_densities_raise_the_reference_messages():
    F = Fraction
    cases = [
        ((0, F(1, 2)), (2,)),                       # short of 1
        ((F(1, 4), 1), (F(4, 3),)),                 # starts late
        ((0, 1, 2), (1, 1)),                        # runs past 1
        ((0, 1), ()),                               # one breakpoint short
        ((0, F(1, 2), 1), (1,)),                    # one height short
        ((0,), ()),
        ((0, F(1, 2), 1), (3, -1)),                 # negative height
        ((0, F(1, 2), 1), (-1, 3)),
        ((0, 1), (2,)),                             # mass 2
        ((0, F(1, 3), 1), (F(1, 7), F(5, 11))),     # mass under 1
        ((0, F(1, 2), F(1, 2), 1), (1, 0, 1)),      # repeated breakpoint
        ((0, F(1, 2), F(1, 3), 1), (1, 1, 1)),      # decreasing breakpoint
        ((0, F(1, 2), F(1, 2), 1), (1, -1, 1)),     # both faults at once
        ((0, F(1, 2), F(1, 3), 1), (-1, 1, 1)),     # negative before decrease
        ((0, F(1, 3), F(2, 3), 1), (1, 1, 2)),
        ((0, F(1, 10 ** 12), 1), (0, F(10 ** 12, 10 ** 12 - 2))),
    ]
    for bps, hs in cases:
        want = _message(reference_cum, bps, hs)
        assert want is not None, (bps, hs)
        assert _message(PiecewiseDensity, bps, hs) == want, (bps, hs)


def test_random_density_matches_reference_sampler():
    for seed in range(2000):
        shape = dict(max_pieces=1 + seed % 7, denom=(24, 8, 97, 7)[seed % 4])
        ours, ref = random.Random(seed), random.Random(seed)
        assert random_density(ours, **shape) == reference_random_density(ref, **shape)
        assert ours.getstate() == ref.getstate()  # the same rng calls


def test_assign_subcakes_matches_reference_sort():
    third = Fraction(1, 3)
    tiny = Fraction(1, 10 ** 30)
    # 1/3 and 1/3 +- 1e-30 round to the same float, so only the exact mark
    # or the agent id can separate them
    pool = [third, third + tiny, third - tiny, third + 2 * tiny,
            Fraction(1, 2), Fraction(0), Fraction(1), 0, 1]
    rng = random.Random(7)
    for trial in range(600):
        m = rng.randint(1, 12)
        width = rng.randint(1, 4)
        # each row ascends, as a density's cuts at ascending levels do
        if trial % 3:
            marks = {a: sorted(rng.choice(pool) for _ in range(width))
                     for a in rng.sample(range(1, 40), m)}
        else:
            marks = {a: sorted(Fraction(rng.randint(0, 6), rng.randint(1, 6)) % 1
                               for _ in range(width))
                     for a in rng.sample(range(1, 40), m)}
        parts = width + 1
        cuts = sorted(rng.sample(range(1, m + parts), parts - 1))
        targets = [b - a - 1 for a, b in zip([0] + cuts, cuts + [m + parts])]
        if any(t < 1 for t in targets[:-1]):
            continue
        want = reference_assign_subcakes(marks, targets)
        # the marks as reduced pairs, then each pair scaled by its own
        # factor, some past a float's 53 bits
        for scale in (lambda: 1, lambda: rng.choice((2, 3, 10 ** 6, 2 ** 70 + 1))):
            got = assign_subcakes(*mark_rows(marks, scale), targets)
            assert got == want, (marks, targets)
            assert all(cut.__class__ is Fraction for cut in got[0])
    # one target and no column: every agent in one group, and nums and dens
    # are empty, so reading any mark would raise
    for m in (1, 2, 7):
        marks = {a: [] for a in rng.sample(range(1, 40), m)}
        got = assign_subcakes(*mark_rows(marks), [m])
        assert got == reference_assign_subcakes(marks, [m]) == ([], [sorted(marks)])


def _protocol_calls(protocol):
    """Run protocol() and return every `assign_subcakes` call it made, as
    (rows, nums, dens, targets, result)."""
    calls = []
    real = cake.assign_subcakes

    def spy(rows, nums, dens, targets):
        got = real(rows, nums, dens, targets)
        calls.append((rows, nums, dens, targets, got))
        return got
    cake.assign_subcakes = spy
    try:
        protocol()
    finally:
        cake.assign_subcakes = real
    return calls


def test_assign_subcakes_matches_reference_on_protocol_rows():
    """The rows `run_proportional` builds at n in {64, 128, 256} and
    k in {1, 2, 3}, over seeded agents and copies of some of them, so that
    tie classes form; then again with some agents' pairs each scaled by its
    own factor, some past a float's 53 bits, so that equal marks have
    different pairs."""
    for n in (64, 128, 256):
        for k in (1, 2, 3):
            rng = random.Random(n * 10 + k)
            agents = [random_density(rng) for _ in range(n - n // 8)]
            agents += [rng.choice(agents) for _ in range(n // 8)]
            rng.shuffle(agents)
            calls = _protocol_calls(lambda: proportional_protocol(agents, k))
            assert calls
            for rows, nums, dens, targets, got in calls:
                width = len(targets) - 1
                marks = {agent: [Fraction(nums[r + j], dens[r + j])
                                 for j in range(width)]
                         for agent, r in rows.items()}
                want = reference_assign_subcakes(marks, targets)
                assert got == want, (n, k, targets)
                nums, dens = list(nums), list(dens)
                for r in rows.values():
                    if rng.random() < 0.3:
                        for j in range(r, r + width):
                            f = rng.choice((2, 3, 10 ** 6, 2 ** 70 + 1))
                            nums[j] *= f
                            dens[j] *= f
                assert assign_subcakes(rows, nums, dens, targets) == want, (n, k)


def _ascends(nums, dens):
    """Whether the rationals nums[i] / dens[i] never descend (dens > 0)."""
    return all(a * d <= c * b for a, b, c, d in zip(nums, dens, nums[1:], dens[1:]))


def test_density_cuts_never_descend_along_levels():
    """`assign_subcakes` needs each agent's marks not to descend: a
    density's cuts at ascending levels never do, over every shape of
    `_densities()` (zero plateaus, large coprime denominators) and the
    cake-file densities, at every prefix mass and between, and at j/n."""
    densities = _densities() + _cake_file_densities()
    for d in densities:
        _, alphas = _probes(d, reference_cum(d.breakpoints, d.heights))
        for levels in (sorted(alphas), [Fraction(j, 97) for j in range(98)]):
            nums, dens = pairs_of(DensityBackend([d]).answer_batch(
                ProductBatch(CutQuery, [((1,), levels)])))
            assert _ascends(nums, dens), d


def test_adversary_cuts_never_descend_along_levels():
    """The same for the lazy adversary: every agent's cuts at 0, 1/n, ...,
    1 ascend, on seeded hidden permutations up to n = 48."""
    rng = random.Random(48)
    for n in list(range(1, 13)) + [16, 24, 32, 48]:
        for _ in range(3):
            backend = AdversaryCakeBackend(
                n, Session(HiddenInstance(random_ranks(n, rng)), 1))
            levels = [Fraction(i, n) for i in range(n + 1)]
            nums, dens = pairs_of(backend.answer_batch(
                ProductBatch(CutQuery, [(range(1, n + 1), levels)])))
            for a in range(n):
                row = slice(a * (n + 1), (a + 1) * (n + 1))
                assert _ascends(nums[row], dens[row]), (n, a)


def _cake_file_densities():
    """Cake-file agents with large and coprime denominators and zero-height
    plateaus, read as `--cake-file` reads them."""
    F = Fraction
    p, q = 10 ** 9 + 7, 998244353
    lines = [
        (0, p, F(1, p), 0, 1),
        (0, 0, F(q - 1, q), q, 1),
        (0, F(1, 2), F(1, 3), 0, F(p - 1, p), F(5 * p, 6), 1),
        (0, F(2 * q, 2 * q - 1), F(1, 2), F(2 * q - 2, 2 * q - 1), 1),
    ]
    return parse_cake_file("\n".join(" ".join(map(str, line)) for line in lines))


def _pairs_match(kind, densities, xs, ask):
    """Ask DensityBackend one block of all agents at xs; every pair must
    equal ask(density, x) as a Fraction, with a positive denominator."""
    got = DensityBackend(densities).answer_batch(
        ProductBatch(kind, [(range(1, len(densities) + 1), xs)]))
    nums, dens = pairs_of(got)
    want = [ask(d, x) for d in densities for x in xs]
    assert len(nums) == len(dens) == len(want)
    for a, b, w in zip(nums, dens, want):
        assert a.__class__ is int and b.__class__ is int and b > 0
        assert Fraction(a, b) == w, (a, b, w)
    assert list(got) == want  # and the block reads as those Fractions


def test_backend_pairs_match_cut_and_prefix():
    """Over sampled densities, cake-file densities and the plateau cases,
    cut blocks at every prefix mass, at 0 and 1 (as ints and Fractions) and
    between, and eval blocks at every breakpoint and between."""
    for d in _densities() + _cake_file_densities():
        ys, alphas = _probes(d, reference_cum(d.breakpoints, d.heights))
        ends = [0, 1, Fraction(0), Fraction(1), True]
        _pairs_match(CutQuery, [d, d], alphas + ends, PiecewiseDensity.cut)
        _pairs_match(EvalQuery, [d, d], ys + list(d.breakpoints) + ends,
                     PiecewiseDensity.prefix)


def _level_blocks(d):
    """Level blocks of every shape a block can take: each j/n (the
    protocol's one-round block), ascending levels off a progression, the
    density's own prefix masses and breakpoints, duplicates, unsorted
    levels, the ends as int, Fraction and bool, and single levels."""
    F = Fraction
    blocks = [[F(j, n) for j in range(1, n)] for n in (2, 3, 7, 24, 64)]
    blocks += [
        [F(1, 7), F(1, 3), F(1, 2), F(5, 6), F(99, 100)],
        sorted(set(reference_cum(d.breakpoints, d.heights))),
        list(d.breakpoints),
        [F(1, 3), F(1, 3), F(1, 2), F(1, 2), F(1, 2)],
        [F(2, 5)] * 3,
        [F(3, 4), F(1, 5), F(1, 2), F(1, 5), 0, 1, F(1, 5)],
        [F(j, 9) for j in range(8, 0, -1)],
        [0, F(0), 1, F(1), True, False],
        [1, 0], [F(2, 3)], [0], [1], [True], [F(0)],
    ]
    return blocks


def test_backend_blocks_match_the_fraction_formulas():
    """Every answer of a cut or eval block, of every level shape, equals the
    plain-Fraction formula for its query, over densities with zero-height
    first, middle and last segments and over cake-file densities."""
    sampled = _densities()
    # the hand-built plateau cases close _densities()
    densities = sampled[-6:] + sampled[:32:4] + _cake_file_densities()
    for d in densities:
        for xs in _level_blocks(d):
            _pairs_match(CutQuery, [d, d], xs, reference_cut)
            _pairs_match(EvalQuery, [d, d], xs, reference_prefix)


def test_a_bad_level_mid_block_answers_ahead_then_raises():
    """A block with a bad level raises the message a flat batch of the same
    queries raises, and the levels ahead of it answer as the formulas do; a
    bad agent ahead of every answer raises first."""
    F = Fraction
    densities = _densities()[-6:-3] + _cake_file_densities()[:1]
    ids = range(1, len(densities) + 1)
    for kind, name in ((CutQuery, "cut argument"), (EvalQuery, "eval point")):
        for bad in (F(3, 2), F(-1, 5), 0.5, None):
            xs = [F(1, 3), F(1, 2), bad, F(1, 4)]
            block = ProductBatch(kind, [(ids, xs)])
            want = "%s is not a rational in [0, 1]: %r" % (name, bad)
            assert _answer(densities, block) == want
            assert _answer(densities, list(block)) == want
            assert _answer(densities, ProductBatch(kind, [([0] + list(ids), xs)])) == (
                "agent out of range: 0")
        ask = reference_cut if kind is CutQuery else reference_prefix
        _pairs_match(kind, densities, [F(1, 3), F(1, 2)], ask)


class Logged:
    """A density that is not a `PiecewiseDensity`: it forwards `cut` and
    `prefix` and logs every call."""

    def __init__(self, density, agent, log):
        self._density = density
        self._agent = agent
        self._log = log

    def cut(self, alpha):
        self._log.append((self._agent, "cut", alpha))
        return self._density.cut(alpha)

    def prefix(self, y):
        self._log.append((self._agent, "prefix", y))
        return self._density.prefix(y)


def _answer(densities, batch):
    try:
        return tuple(DensityBackend(densities).answer_batch(batch))
    except MalformedQuery as exc:
        return str(exc)


def test_wrapped_densities_answer_alike_and_are_asked_alike():
    """A wrapper takes the generic path: its answers equal the integer
    path's, and it is asked exactly the calls ahead of the first malformed
    query, item-major, as a flat batch of the same queries is asked."""
    rng = random.Random(5)
    densities = [random_density(rng) for _ in range(4)] + _cake_file_densities()
    n = len(densities)
    levels = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), 1, 0]
    bad_levels = [Fraction(3, 2), Fraction(-1, 5), 0.5, None]
    for trial in range(300):
        kind = rng.choice((CutQuery, EvalQuery))
        ids = rng.sample(range(1, n + 1), rng.randint(1, n))
        xs = [rng.choice(levels) for _ in range(rng.randint(1, 4))]
        if trial % 3 == 1:
            xs.insert(rng.randrange(len(xs) + 1), rng.choice(bad_levels))
        if trial % 3 == 2:
            ids.insert(rng.randrange(len(ids) + 1), rng.choice((0, n + 1, True)))
        batch = ProductBatch(kind, [(ids, xs)])
        flat = list(batch)
        plain = _answer(densities, batch)
        logs = []
        for b in (batch, flat):
            log = []
            wrapped = [Logged(d, a, log) for a, d in enumerate(densities, start=1)]
            assert _answer(wrapped, b) == plain, (ids, xs)
            logs.append(log)
        assert logs[0] == logs[1], (ids, xs)


def test_verify_values_match_prefix_differences():
    """Each value verify_proportional reports is the reference prefix
    difference over the agent's piece, for piece ends of every kind: 0 and
    1 as int or `Fraction`, breakpoints, midpoints, coarse and fine grid
    points, empty pieces and ends that share no denominator; its verdict is
    the reference's 1/n test. Wrapped densities take the generic path."""
    rng = random.Random(11)
    densities = _densities()
    grid = [Fraction(j, 29) for j in range(30)] + [Fraction(j, 10 ** 9 + 9)
                                                   for j in (1, 5 * 10 ** 8)]
    verdicts = set()
    for trial in range(400):
        n = rng.randint(1, 6)
        agents = rng.sample(densities, n)
        owners = list(range(1, n + 1))
        rng.shuffle(owners)
        if trial % 3 == 0:
            allocation = proportional_protocol(agents, rng.randint(1, 3))[0]
            pieces = allocation.pieces
            if trial % 2:
                owners = allocation.owners
        else:
            pool = list(grid)
            for d in agents:
                pool += d.breakpoints
                pool += [(a + b) / 2 for a, b in zip(d.breakpoints, d.breakpoints[1:])]
            inner = sorted(rng.choice(pool) for _ in range(n - 1))
            ends = [rng.choice((0, Fraction(0)))] + inner + [rng.choice((1, Fraction(1)))]
            pieces = tuple(zip(ends, ends[1:]))
        if trial % 4 == 1:
            agents[0] = Logged(agents[0], 1, [])
        ok, values = verify_proportional(Allocation(tuple(pieces), tuple(owners)), agents)
        piece_of = dict(zip(owners, pieces))
        want = []
        for agent, d in enumerate(agents, start=1):
            d = getattr(d, "_density", d)
            lo, hi = piece_of[agent]
            want.append(reference_prefix(d, hi) - reference_prefix(d, lo))
        assert values == want
        assert ok is all(v >= Fraction(1, n) for v in want)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_grid_points_are_integer_images():
    for n in (1, 2, 4, 7, 30):
        inst = AdversaryCakeInstance(n)
        assert inst.istep == n ** 4 + 1
        for i in range(n + 1):
            for c in range(1, n + 1):
                y = grid_point(inst, i, c)
                assert y == Fraction(i, n + 1) + Fraction(c, inst.istep)
                assert Fraction(inst.point_key(y), inst.den) == y
        assert inst.point_key(Fraction(1, inst.den + 1)) is None


if __name__ == "__main__":
    import sys
    tests = sorted(name for name in globals() if name.startswith("test_"))
    for name in tests:
        globals()[name]()
        print("passed", name)
    print("%d differential checks passed on Python %s"
          % (len(tests), sys.version.split()[0]))
