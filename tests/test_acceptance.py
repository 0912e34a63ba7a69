"""End-to-end acceptance checks, one per headline guarantee.

Each test prints `acceptance N (label): pass|fail` so a log scan shows the
whole scorecard at a glance. Tolerances are part of the checked claims:
exact where the claim is exact, 3 sigma where it is sampled.
"""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

from rounds_lab.cake import (DensityBackend, random_density, run_proportional,
                             verify_proportional)
from rounds_lab.harness import bounds, brute_force_select
from rounds_lab.locate import locate_det
from rounds_lab.oracle import HiddenInstance, Session, open_session, random_ranks
from rounds_lab.rank_sort import forced_query_count, sort_rank
from rounds_lab.reductions import (ordered_to_locate_adapter, run_reduction,
                                   unordered_to_select_adapter)
from rounds_lab.select import build_schedule, exact_expected_queries, select_det, select_rand
from rounds_lab.util import ceil_kth_root, ceil_log2
from conftest import random_instance, session_for, sorted_instance

PS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def report(num, label, ok):
    print("acceptance %d (%s): %s" % (num, label, "pass" if ok else "fail"))
    assert ok, "acceptance %d (%s) failed" % (num, label)


def test_acceptance_1_locate_exhaustive():
    ok = True
    for n in range(1, 513):
        for r in range(1, n + 1):
            inst = sorted_instance(n, target_rank=r)
            for k in range(1, max(1, ceil_log2(n)) + 1):
                sess = open_session(inst, k)
                got = locate_det(sess, n, k)
                if got != r or sess.total_queries > k * ceil_kth_root(n, k):
                    ok = False
    report(1, "locate exhaustive: always right, within k*ceil(n**(1/k))", ok)


def test_acceptance_2_select_expectation_sandwich():
    ok = True
    for n in (10, 100, 1000):
        ranks = tuple(range(1, n + 1))
        order = list(ranks)
        for k in (1, 2, 4, 8):
            for p in PS:
                sched = build_schedule(n, k, p)
                total = Fraction(0)
                for target in range(1, n + 1):
                    sess = open_session(
                        HiddenInstance(ranks, target_index=target), k)
                    select_det(sess, sched, order)
                    total += sess.transcript().total_queries
                mean = total / n
                b = bounds(n, k, p)
                if not b["thm2_lo"] <= mean <= b["thm2_hi"]:
                    ok = False
                if mean != exact_expected_queries(sched):
                    ok = False
    report(2, "deterministic select expectation inside the +-1 band", ok)


def test_acceptance_3_randomized_select():
    ok = True
    for n, k in ((10, 2), (10, 4), (100, 2), (100, 8), (1000, 4)):
        full = exact_expected_queries(build_schedule(n, k, Fraction(1)))
        for p in PS:
            analytic = p * full  # the shuffle makes every input cost this
            b = bounds(n, k, p)
            if not b["thm1_lo"] <= analytic <= b["thm1_hi"]:
                ok = False
    n, k, p = 10, 2, Fraction(1, 2)
    trials = 100_000
    analytic = p * exact_expected_queries(build_schedule(n, k, Fraction(1)))
    ranks = tuple(range(1, n + 1))
    counts = []
    for t in range(trials):
        rng = random.Random(900_000 + t)
        sess = open_session(HiddenInstance(ranks, target_index=n), k)
        select_rand(sess, n, k, p, rng)
        counts.append(sess.transcript().total_queries)
    mean = sum(counts) / trials
    var = sum((c - mean) ** 2 for c in counts) / (trials - 1)
    sigma = math.sqrt(var / trials)
    if abs(mean - float(analytic)) > 3 * sigma:
        ok = False
    report(3, "randomized select meets the p-scaled band, MC within 3 sigma", ok)


def test_acceptance_4_brute_force_select_conformance():
    ok = True
    for n in range(1, 6):
        for k in (1, 2):
            if k > n:
                continue
            for p in PS:
                opt = brute_force_select(n, k, p)
                b = bounds(n, k, p)
                if not b["thm2_lo"] <= opt <= b["thm2_hi"]:
                    ok = False
    report(4, "exhaustively optimal select cost stays inside the band", ok)


def test_acceptance_5_sorting():
    ok = True
    for n in range(1, 8):
        for k in (1, 2, 3):
            for perm in itertools.permutations(range(1, n + 1)):
                inst = HiddenInstance(tuple(perm))
                sess = open_session(inst, k)
                if sort_rank(sess, n, k) != inst.ranks:
                    ok = False
    for n in (64, 256):
        for k in (1, 2, 3):
            cap = 2 * k * n ** (1 + 1 / k)
            worst = 0
            for t in range(100):
                inst = HiddenInstance(random_ranks(n, random.Random(500_000 + t)))
                sess = open_session(inst, k)
                if sort_rank(sess, n, k) != inst.ranks:
                    ok = False
                worst = max(worst, sess.transcript().total_queries)
            if worst > cap:
                ok = False
            floor = max(0.0, bounds(n, k, Fraction(1))["thm5"])
            if forced_query_count(sort_rank, n, k) < floor:
                ok = False
    report(5, "sorting is exact, under 2k*n**(1+1/k), over the forced floor", ok)


def group_populations(queries):
    """Sizes of the agent groups implied by one round's queries."""
    alphas = defaultdict(list)
    for q in queries:
        a = q.alpha
        alphas[q.agent].append((a.numerator, a.denominator))
    sizes = defaultdict(int)
    for agent, marks in alphas.items():
        sizes[tuple(marks)] += 1
    return sizes.values()


def test_acceptance_6_cake_proportionality():
    ok = True
    for n in range(2, 65):
        for k in (1, 2, 3):
            cap = k * n ** (1 + 1 / k) + k * n
            for t in range(50):
                rng = random.Random(n * 10_000 + k * 1000 + t)
                agents = [random_density(rng) for _ in range(n)]
                session = Session(DensityBackend(agents), k)
                allocation = run_proportional(session, n, k)
                fair, _ = verify_proportional(allocation, agents)
                tr = session.transcript()
                # the queries alone: reading tr.rounds would build a
                # Fraction for every answer
                rounds = len(tr.round_sizes)
                if not fair or tr.total_queries > cap or rounds > k:
                    ok = False
                for j in range(1, rounds):
                    limit = ceil_kth_root(n ** (k - j), k)
                    pops = group_populations(tr.batches[j][0])
                    if pops and max(pops) > limit:
                        ok = False
    report(6, "division always proportional, on budget, populations on schedule", ok)


def test_acceptance_7_reduction_every_small_permutation():
    ok = True
    for n in range(1, 6):
        for k in (1, 2):
            for perm in itertools.permutations(range(1, n + 1)):
                rank_sess = open_session(HiddenInstance(perm), k)
                got, cake_tr, allocation = run_reduction(
                    lambda s, nn, kk=k: run_proportional(s, nn, kk),
                    n, rank_sess)
                if got != perm:
                    ok = False
                if (rank_sess.transcript().total_queries
                        > cake_tr.total_queries):
                    ok = False
                inv = tuple(perm.index(i) + 1 for i in range(1, n + 1))
                if allocation.owners != inv:
                    ok = False
                eps = Fraction(1, n ** 4 + 1)
                for i, (lo, hi) in enumerate(allocation.pieces[:-1], start=1):
                    c = (hi - Fraction(i, n + 1)) / eps
                    if c.denominator != 1 or not 1 <= c <= n:
                        ok = False
    report(7, "division bridge recovers every permutation, boundaries on grid", ok)


def test_acceptance_8_adapter_equivalence():
    ok = True
    for t in range(1000):
        rng = random.Random(700_000 + t)
        n = rng.randrange(1, 101)
        k = rng.randrange(1, 6)
        r = rng.randrange(1, n + 1)
        native = session_for(n, k, target_rank=r)
        locate_det(native, n, k)
        viewed = open_session(sorted_instance(n, r), k)
        locate_det(ordered_to_locate_adapter(viewed), n, k)
        if (native.transcript().round_sizes
                != viewed.transcript().round_sizes):
            ok = False
    for t in range(1000):
        rng = random.Random(800_000 + t)
        n = rng.randrange(1, 101)
        k = rng.randrange(1, min(n, 5) + 1)
        inst = random_instance(n, rng)
        sched = build_schedule(n, k, Fraction(1))
        order = list(range(1, n + 1))
        native = open_session(inst, k)
        select_det(native, sched, order)
        viewed = open_session(inst, k)
        select_det(unordered_to_select_adapter(viewed), sched, order)
        if (native.transcript().round_sizes
                != viewed.transcript().round_sizes):
            ok = False
    report(8, "comparison-oracle adapters cost exactly the native runs", ok)


def test_acceptance_9_bound_sweep_shapes():
    n, k = 2 ** 36, 4
    ps = [Fraction(j, 20) for j in range(21)]
    rows = [bounds(n, k, p) for p in ps]
    c1 = [(r["thm1_lo"] + r["thm1_hi"]) / 2 for r in rows]
    c2 = [(r["thm2_lo"] + r["thm2_hi"]) / 2 for r in rows]
    d2_1 = [c1[i + 1] - 2 * c1[i] + c1[i - 1] for i in range(1, 20)]
    d2_2 = [c2[i + 1] - 2 * c2[i] + c2[i - 1] for i in range(1, 20)]
    ok = all(d == 0 for d in d2_1)            # linear in p
    ok = ok and all(d < 0 for d in d2_2)      # strictly concave
    ok = ok and c1[0] == c2[0] and c1[-1] == c2[-1]
    ok = ok and all(c2[i] >= c1[i] for i in range(21))
    report(9, "bound sweep: linear vs concave curves meeting at both ends", ok)
