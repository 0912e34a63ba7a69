import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rounds_lab.cake import (Allocation, CakeSession, CutQuery, DensityBackend,
                             EvalQuery, MalformedAllocation, PiecewiseDensity,
                             assign_subcakes, format_cake_file,
                             parse_cake_file, proportional_protocol,
                             random_density, run_proportional,
                             verify_proportional)
from rounds_lab.oracle import MalformedQuery, RankQuery
from rounds_lab.util import group_sizes
from conftest import mark_rows

UNIFORM = PiecewiseDensity((0, 1), (1,))


def F(x):
    return Fraction(x)


def test_density_validation():
    with pytest.raises(ValueError):
        PiecewiseDensity((0, F("1/2")), (2,))  # does not span [0, 1]
    with pytest.raises(ValueError):
        PiecewiseDensity((0, F("1/2"), 1), (3, -1))  # negative height
    with pytest.raises(ValueError):
        PiecewiseDensity((0, 1), (2,))  # mass 2
    with pytest.raises(ValueError):
        PiecewiseDensity((0, F("1/2"), F("1/2"), 1), (1, 0, 1))


def test_eval_and_cut():
    d = PiecewiseDensity((0, F("1/4"), F("3/4"), 1), (2, 0, 2))
    assert d.prefix(F("1/8")) == F("1/4")
    assert d.prefix(F("1/2")) == F("1/2")
    assert d.cut(0) == 0
    assert d.cut(F("1/2")) == F("1/4")  # leftmost point over the plateau
    assert d.cut(F("3/4")) == F("7/8")
    assert d.cut(1) == 1


def test_density_backend_rejects_malformed_queries():
    half = PiecewiseDensity((0, 1), (1,))
    left = PiecewiseDensity((0, F("1/2"), 1), (2, 0))
    sess = CakeSession(DensityBackend([half, left]), 2)
    assert tuple(sess.submit_round([CutQuery(2, F("1/2")), EvalQuery(1, F("1/4"))])) \
        == (F("1/4"), F("1/4"))
    for bad in (CutQuery(0, F("1/2")), CutQuery(3, F("1/2")),
                EvalQuery(-1, F("1/2")), EvalQuery(True, F("1/2")),
                RankQuery(1, 1), ("cut", 1, F("1/2"))):
        with pytest.raises(MalformedQuery):
            sess.submit_round([CutQuery(1, F("1/2")), bad])
        assert sess.rounds_used == 1  # a rejected batch consumes no round
    assert sess.transcript().total_queries == 2


def test_density_backend_rejects_values_outside_the_unit_interval():
    """A cut argument or eval point that is not a rational in [0, 1] is a
    malformed query: the whole batch is refused and no round is used."""
    sess = CakeSession(DensityBackend([UNIFORM, UNIFORM]), 2)
    for bad in (CutQuery(1, F("3/2")), CutQuery(2, F("-1/4")), CutQuery(1, None),
                CutQuery(1, 0.5), CutQuery(1, "1/2"), EvalQuery(1, 2),
                EvalQuery(2, F("-1/3")), EvalQuery(1, None), EvalQuery(1, 0.25)):
        with pytest.raises(MalformedQuery):
            sess.submit_round([CutQuery(1, F("1/2")), bad])
        assert sess.rounds_used == 0
    assert tuple(sess.submit_round([CutQuery(1, 1), CutQuery(2, 0), EvalQuery(1, 1),
                                    EvalQuery(2, F("2/3"))])) \
        == (F(1), F(0), F(1), F("2/3"))
    # called directly, a density keeps its ValueError
    for call in (UNIFORM.cut, UNIFORM.prefix):
        with pytest.raises(ValueError):
            call(F("3/2"))


@given(st.integers(min_value=0, max_value=10 ** 6), st.data())
def test_cut_inverts_eval(seed, data):
    d = random_density(random.Random(seed))
    alpha = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=48))
    y = d.cut(alpha)
    assert 0 <= y <= 1
    assert d.prefix(y) == alpha


def test_random_density_checks_its_shape_before_drawing():
    """max_pieces outside 1..denom is refused before any rng call, so the
    caller's stream is left as it was; max_pieces == denom still draws."""
    for seed in range(40):
        for max_pieces, denom in ((6, 5), (0, 24), (-1, 24), (25, 24), (1, 0)):
            rng = random.Random(seed)
            before = rng.getstate()
            with pytest.raises(ValueError):
                random_density(rng, max_pieces=max_pieces, denom=denom)
            assert rng.getstate() == before
        d = random_density(random.Random(seed), max_pieces=5, denom=5)
        assert len(d.heights) <= 5 and d.prefix(1) == 1


def test_group_sizes():
    assert group_sizes(10, 3) == [4, 3, 3]
    assert group_sizes(9, 3) == [3, 3, 3]
    assert group_sizes(5, 5) == [1, 1, 1, 1, 1]


def test_assign_subcakes_order_statistics():
    marks = {1: [F("1/2")], 2: [F("1/4")], 3: [F("3/4")], 4: [F("1/4")]}
    cuts, groups = assign_subcakes(*mark_rows(marks), [2, 2])
    assert cuts == [F("1/4")]  # ties break toward the lower agent id
    assert groups == [[2, 4], [1, 3]]


def check_protocol(agents, k):
    allocation, tr = proportional_protocol(agents, k)
    ok, values = verify_proportional(allocation, agents)
    n = len(agents)
    assert ok, values
    assert len(tr.rounds) <= k
    assert tr.total_queries <= k * n ** (1 + 1 / k) + k * n
    return allocation, tr


def test_uniform_agents_get_equal_slices():
    n = 6
    allocation, _ = check_protocol([UNIFORM] * n, 2)
    assert allocation.pieces == tuple(
        (F(i) / n, F(i + 1) / n) for i in range(n))
    assert sorted(allocation.owners) == list(range(1, n + 1))


def test_single_agent_takes_everything():
    allocation, tr = check_protocol([UNIFORM], 3)
    assert allocation.pieces == ((F(0), F(1)),)
    assert tr.total_queries == 0


def test_run_proportional_rejects_bad_arguments():
    for n, k in ((0, 1), (1, 0)):
        session = CakeSession(DensityBackend([UNIFORM]), 1)
        with pytest.raises(ValueError):
            run_proportional(session, n, k)
        assert session.rounds_used == 0


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10 ** 6))
def test_protocol_is_proportional(n, k, seed):
    rng = random.Random(seed)
    check_protocol([random_density(rng) for _ in range(n)], k)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 100])
def test_rounds_past_log2_n_change_nothing(n):
    """Every round at least halves each group, so a budget past
    ceil(log2 n) rounds gives the same record, even a huge one."""
    rng = random.Random(n)
    agents = [random_density(rng, max_pieces=4, denom=12) for _ in range(n)]
    least = max(1, (n - 1).bit_length())
    want_allocation, want = proportional_protocol(agents, least)
    for k in (least + 1, least + 5, 50, 10 ** 12):
        allocation, tx = proportional_protocol(agents, k)
        assert allocation == want_allocation
        assert tx.rounds == want.rounds


def test_identical_agents_tie_break_by_id():
    """With everyone marking the same points, slices follow agent ids."""
    n = 9
    allocation, tr = check_protocol([UNIFORM] * n, 2)
    assert allocation.owners == tuple(range(1, n + 1))
    first = tr.rounds[0]
    agent_one = [(q.agent, q.alpha) for q, _ in first if q.agent == 1]
    assert [alpha for _, alpha in agent_one] == [F("1/3"), F("2/3")]


def test_round_one_marks_scale():
    n, k = 1000, 3
    agents = [UNIFORM] * n
    allocation, tr = check_protocol(agents, k)
    first_agent = [q.alpha for q, _ in tr.rounds[0] if q.agent == 1]
    assert first_agent == [Fraction(j, 10) for j in range(1, 10)]
    second = [q.alpha for q, _ in tr.rounds[1] if q.agent == 101]
    assert second == [Fraction(j, 100) for j in range(11, 20)]
    assert len(tr.rounds) == k


def test_proportional_verifier_rejects_junk():
    agents = [UNIFORM, UNIFORM]
    with pytest.raises(MalformedAllocation):
        verify_proportional(Allocation(((F(0), F(1)),), (1,)), agents)
    with pytest.raises(MalformedAllocation):
        verify_proportional(
            Allocation(((F(0), F("1/3")), (F("1/2"), F(1))), (1, 2)), agents)
    ok, values = verify_proportional(
        Allocation(((F(0), F("1/4")), (F("1/4"), F(1))), (1, 2)), agents)
    assert not ok and values == [F("1/4"), F("3/4")]


def test_cake_file_round_trip():
    rng = random.Random(11)
    agents = [random_density(rng) for _ in range(7)]
    text = format_cake_file(agents)
    assert parse_cake_file(text) == agents
    assert parse_cake_file("# comment\n\n0 1 1\n") == [UNIFORM]


def test_cake_file_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cake_file("0 1\n")
    with pytest.raises(ValueError):
        parse_cake_file("0 x 1\n")
    with pytest.raises(ValueError):
        parse_cake_file("0 2 1\n")  # mass 2
