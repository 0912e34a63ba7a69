import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rounds_lab.cake import CutQuery, run_proportional
from rounds_lab.locate import locate_det
from rounds_lab.oracle import (HiddenInstance, MalformedQuery, RankQuery,
                               open_session, random_instance)
from rounds_lab.reductions import (AdversaryCakeInstance, ProtocolNotPrimitive,
                                   instance_cut, ordered_to_locate_adapter,
                                   realized_density, run_reduction,
                                   sort_via_cake, unordered_to_select_adapter)
from rounds_lab.select import build_schedule, select_det
from conftest import sorted_instance


def protocol(k):
    return lambda session, n: run_proportional(session, n, k)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=5),
       st.data())
def test_locate_adapter_matches_native(n, k, data):
    r = data.draw(st.integers(min_value=1, max_value=n))
    native = open_session(sorted_instance(n, r), k)
    assert locate_det(native, n, k) == r
    comparison = open_session(sorted_instance(n, r), k)
    assert locate_det(ordered_to_locate_adapter(comparison), n, k) == r
    assert (comparison.transcript().round_sizes
            == native.transcript().round_sizes)


def test_locate_adapter_needs_sorted_input():
    sess = open_session(HiddenInstance((2, 1, 3), target_index=1), 1)
    with pytest.raises(ValueError):
        ordered_to_locate_adapter(sess)
    view = ordered_to_locate_adapter(open_session(sorted_instance(3, 2), 1))
    with pytest.raises(MalformedQuery):
        view.submit_round([RankQuery(1, 2)])  # only the promise may be probed


@given(st.integers(min_value=1, max_value=80), st.data())
def test_select_adapter_matches_native(n, data):
    k = data.draw(st.integers(min_value=1, max_value=min(n, 4)))
    seed = data.draw(st.integers(min_value=0, max_value=10 ** 6))
    inst = random_instance(n, random.Random(seed))
    sched = build_schedule(n, k, Fraction(1))
    order = list(range(1, n + 1))
    native = open_session(inst, k)
    a = select_det(native, sched, order)
    viewed = open_session(inst, k)
    b = select_det(unordered_to_select_adapter(viewed), sched, order)
    assert a == b == inst.target_index
    assert viewed.transcript().round_sizes == native.transcript().round_sizes


def test_adversary_cake_marks_hit_exact_values():
    pi = (3, 1, 4, 2)
    inst = AdversaryCakeInstance(n=4, pi=pi)
    for agent in range(1, 5):
        d = realized_density(inst, agent)
        for i in range(1, 5):
            y = inst.grid_point(i, inst.slots[(agent, i)])
            assert d.prefix(y) == Fraction(i, 4)


def test_adversary_cake_separates_marks_by_rank():
    """On grid i the rank-i agent sits on the reserved point, lower ranks
    strictly below it, higher ranks strictly above, whatever the order the
    marks were requested in."""
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randrange(2, 9)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        inst = AdversaryCakeInstance(n=n, pi=tuple(pi))
        agents = list(range(1, n + 1))
        rng.shuffle(agents)
        for agent in agents:
            for i in rng.sample(range(1, n + 1), n):
                instance_cut(inst, agent, i)
        for i in range(1, n + 1):
            pivot = inst.grid_point(i, i)
            for a in range(1, n + 1):
                y = inst.grid_point(i, inst.slots[(a, i)])
                if pi[a - 1] == i:
                    assert y == pivot
                elif pi[a - 1] < i:
                    assert y < pivot
                else:
                    assert y > pivot


def test_between_grid_values_reveal_nothing():
    """Off the spikes the realized value is pinned by position alone."""
    inst = AdversaryCakeInstance(n=3, pi=(2, 3, 1))
    for agent in (1, 2, 3):
        d = realized_density(inst, agent)
        for i in range(4):
            y = Fraction(2 * i + 1, 8)  # midway between grid i and grid i + 1
            assert d.prefix(y) == Fraction(i + 1, 4)


def run_bridge(perm, k):
    n = len(perm)
    rank_sess = open_session(HiddenInstance(tuple(perm)), k)
    got, cake_tr, allocation = run_reduction(protocol(k), n, rank_sess)
    rank_tr = rank_sess.transcript()
    assert got == tuple(perm)
    assert rank_tr.total_queries <= cake_tr.total_queries
    assert len(rank_tr.rounds) == len(cake_tr.rounds)
    assert all(a <= b for a, b in zip(rank_tr.round_sizes,
                                      tuple(len(x) for x in cake_tr.rounds)))
    return allocation


def test_bridge_recovers_every_small_permutation():
    for n in range(1, 5):
        for perm in itertools.permutations(range(1, n + 1)):
            run_bridge(perm, 2)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10 ** 6))
def test_bridge_recovers_random_permutations(n, k, seed):
    perm = random_instance(n, random.Random(seed), with_target=False).ranks
    run_bridge(perm, k)


def test_bridge_rejects_off_grid_cuts():
    def sloppy(session, n):
        session.submit_round([CutQuery(1, Fraction(1, 3))])
        return None

    rank_sess = open_session(HiddenInstance((2, 1)), 1)
    with pytest.raises(ProtocolNotPrimitive):
        run_reduction(sloppy, 2, rank_sess)


def test_sort_via_cake_returns_ranks():
    rank_sess = open_session(HiddenInstance((3, 1, 2)), 2)
    assert sort_via_cake(protocol(2), 3, rank_sess) == (3, 1, 2)
