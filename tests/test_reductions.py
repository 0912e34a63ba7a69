import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rounds_lab.cake import (Allocation, CutQuery, EvalQuery,
                             MalformedAllocation, PiecewiseDensity,
                             run_proportional, verify_proportional)
from rounds_lab.locate import locate_det
from rounds_lab.oracle import (EQUAL, GREATER, LESS, HiddenInstance,
                               MalformedQuery, RankQuery, Session, compare,
                               open_session, random_ranks)
from rounds_lab.reductions import (AdversaryCakeBackend, AdversaryCakeInstance,
                                   NotProportional, ProtocolNotPrimitive,
                                   SlotExhausted, ordered_to_locate_adapter,
                                   run_reduction, unordered_to_select_adapter)
from rounds_lab.select import build_schedule, select_det
from conftest import grid_point, random_instance, sorted_instance, take_slot


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


# The density-based check that run_reduction's grid-coordinate verdict
# replaced, kept here as the reference it is tested against.

def instance_cut(inst, pi, agent, i):
    """The mark revealed for a cut request at value i/n, for hidden ranks
    pi."""
    return take_slot(inst, agent, i, compare(pi[agent - 1], i))


def realized_density(inst, pi, agent):
    """The exact step density matching every answer given to this agent,
    for hidden ranks pi.

    Mass i/(n*(n+1)) sits immediately left of her i/n mark and
    (n-i)/(n*(n+1)) immediately right, in strips of width eps/2; the value
    of [0, mark_i] is then exactly i/n.
    """
    n = inst.n
    half = Fraction(1, 2 * inst.istep)
    unit = Fraction(1, n * (n + 1))
    marks = [Fraction(0)] + [instance_cut(inst, pi, agent, i)
                             for i in range(1, n + 1)]
    bps = [Fraction(0)]
    hs = []
    for i, y in enumerate(marks):
        for lo, hi, mass in ((y - half, y, i * unit),
                             (y, y + half, (n - i) * unit)):
            if mass == 0:
                continue
            assert lo >= bps[-1]
            if lo > bps[-1]:
                bps.append(lo)
                hs.append(Fraction(0))
            bps.append(hi)
            hs.append(mass / half)
    if bps[-1] < 1:
        bps.append(Fraction(1))
        hs.append(Fraction(0))
    return PiecewiseDensity(breakpoints=tuple(bps), heights=tuple(hs))


def recover_permutation(allocation, instance):
    """Ranks implied by slice order: the agent holding the i-th slice sits
    at hidden position i. Boundary i must land on grid i."""
    n = instance.n
    if len(allocation.pieces) != n:
        raise MalformedAllocation("expected %d slices" % (n,))
    for i in range(1, n):
        y = allocation.pieces[i - 1][1]
        c = (y - Fraction(i, n + 1)) * instance.istep
        if c.denominator != 1 or not 1 <= c <= n:
            raise NotProportional("slice boundary %s sits off grid %d" % (y, i))
    ranks = [None] * n
    for position, agent in enumerate(allocation.owners, start=1):
        ranks[agent - 1] = position
    if sorted(ranks) != list(range(1, n + 1)):
        raise MalformedAllocation("owners are not a permutation")
    return tuple(ranks)


def reference_verdict(allocation, inst, agents):
    """Verify against the realized densities, then recover the ranks."""
    ok, _ = verify_proportional(allocation, agents)
    if not ok:
        raise NotProportional("the allocation undervalues some agent")
    return recover_permutation(allocation, inst)


def test_adversary_cake_marks_hit_exact_values():
    pi = (3, 1, 4, 2)
    inst = AdversaryCakeInstance(4)
    for agent in range(1, 5):
        d = realized_density(inst, pi, agent)
        for i in range(1, 5):
            y = grid_point(inst, i, inst.slots[(agent, i)])
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
        inst = AdversaryCakeInstance(n)
        agents = list(range(1, n + 1))
        rng.shuffle(agents)
        for agent in agents:
            for i in rng.sample(range(1, n + 1), n):
                instance_cut(inst, pi, agent, i)
        for i in range(1, n + 1):
            pivot = grid_point(inst, i, i)
            for a in range(1, n + 1):
                y = grid_point(inst, i, inst.slots[(a, i)])
                if pi[a - 1] == i:
                    assert y == pivot
                elif pi[a - 1] < i:
                    assert y < pivot
                else:
                    assert y > pivot


def test_pin_refuses_a_slot_on_the_wrong_side():
    """Grid 1 has no point below its reserved slot c = 1, so an agent
    ranked below 1 cannot be pinned there; the refusal records nothing."""
    inst = AdversaryCakeInstance(3)
    with pytest.raises(SlotExhausted):
        inst.pin(1, 1, LESS)
    assert inst.slots == {} and inst.counts == {} and inst.points == {}
    assert inst.pin(1, 1, EQUAL) == 1


def test_between_grid_values_reveal_nothing():
    """Off the spikes the realized value is pinned by position alone."""
    inst = AdversaryCakeInstance(3)
    for agent in (1, 2, 3):
        d = realized_density(inst, (2, 3, 1), agent)
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
    perm = random_ranks(n, random.Random(seed))
    run_bridge(perm, k)


def test_bridge_rejects_off_grid_cuts():
    def sloppy(session, n):
        session.submit_round([CutQuery(1, Fraction(1, 3))])
        return None

    rank_sess = open_session(HiddenInstance((2, 1)), 1)
    with pytest.raises(ProtocolNotPrimitive):
        run_reduction(sloppy, 2, rank_sess)


def test_adversary_backend_rejects_bad_agents():
    """An agent that is not an int in 1..n is a malformed query, pinned or
    not, on a grid or at 0: the batch is refused, no round is used and the
    rank session is not touched."""
    rank_sess = open_session(HiddenInstance((2, 3, 1)), 3)
    backend = AdversaryCakeBackend(3, rank_sess)
    sess = Session(backend, 3)
    third = Fraction(1, 3)
    mark = tuple(sess.submit_round([CutQuery(1, third)]))
    assert rank_sess.transcript().round_sizes == (1,)
    for bad in (CutQuery(True, third), CutQuery(1.0, third),
                CutQuery(0, third), CutQuery(4, third), CutQuery("1", third),
                CutQuery(True, Fraction(0)), EvalQuery(True, mark[0]),
                EvalQuery(1.0, mark[0]), EvalQuery(0, Fraction(1))):
        with pytest.raises(MalformedQuery):
            sess.submit_round([CutQuery(2, third), bad])
        assert sess.rounds_used == 1
        assert rank_sess.transcript().round_sizes == (1,)
        assert set(backend.inst.slots) == {(1, 1)}
    assert tuple(sess.submit_round([CutQuery(1, third), EvalQuery(1, mark[0])])) \
        == (mark[0], Fraction(1, 3))


def test_reduction_needs_n_items_in_the_rank_session():
    for ranks in ((1, 2, 3, 4), (2, 5, 1, 4, 3)):
        rank_sess = open_session(HiddenInstance(ranks), 2)
        with pytest.raises(ValueError):
            run_reduction(protocol(2), 3, rank_sess)
        assert rank_sess.rounds_used == 0  # rejected before the protocol ran


class BareRanks:
    """A backend that only holds hidden ranks, checked by nobody else."""

    def __init__(self, ranks):
        self.ranks = ranks

    def answer_batch(self, queries):
        raise AssertionError("asked a round")


def test_reduction_refuses_hidden_ranks_that_are_not_a_permutation():
    for bad in ((1, 2, 2), (0, 1, 2), (2, 3, 4)):
        rank_sess = Session(BareRanks(bad), 2)
        with pytest.raises(ValueError, match="not a permutation"):
            run_reduction(protocol(2), 3, rank_sess)
        assert rank_sess.rounds_used == 0  # rejected before the protocol ran
    assert run_reduction(protocol(2), 3, Session(HiddenInstance([3, 1, 2]), 2))[0] \
        == (3, 1, 2)


class ReferenceCakeInstance(AdversaryCakeInstance):
    """The free-list slot rule that the per-grid (below, above) counts
    replaced: a mark below i takes the lowest free point, a mark above i
    the highest."""

    def __init__(self, n):
        super().__init__(n)
        self.used = {}  # i -> set of taken c

    def take_slot(self, agent, i, relation):
        key = (agent, i)
        if key in self.slots:
            return grid_point(self, i, self.slots[key])
        taken = self.used.setdefault(i, set())
        free = [c for c in range(1, self.n + 1) if c not in taken]
        if not free:
            raise SlotExhausted("grid %d has no free point" % (i,))
        if relation == EQUAL:
            c = i
            if c in taken:
                raise SlotExhausted(
                    "reserved point %d of grid %d already taken" % (c, i))
        elif relation == LESS:
            c = free[0]
        elif relation == GREATER:
            c = free[-1]
        else:
            raise ValueError("bad relation: %r" % (relation,))
        self.slots[key] = c
        taken.add(c)
        self.points[grid_point(self, i, c)] = key
        return grid_point(self, i, c)


class ReferenceCakeBackend:
    """The tagged-tuple backend that the two-pass answer_batch replaced,
    with the agent check that both now make first."""

    def __init__(self, n, rank_session):
        self.inst = ReferenceCakeInstance(n)
        self.rank_session = rank_session

    def _grid_index(self, alpha):
        n = self.inst.n
        i = Fraction(alpha) * n
        if i.denominator != 1:
            raise ProtocolNotPrimitive(
                "cut argument %s is not a multiple of 1/%d" % (alpha, n))
        i = int(i)
        if not 0 <= i <= n:
            raise MalformedQuery("cut argument outside [0, 1]")
        return i

    def answer_batch(self, queries):
        inst = self.inst
        wanted = []  # (agent, i) pairs needing a probe, first appearance
        seen = set()
        infos = []
        for q in queries:
            if (q.__class__ in (CutQuery, EvalQuery)
                    and not (type(q.agent) is int and 1 <= q.agent <= inst.n)):
                raise MalformedQuery("agent out of range: %r" % (q.agent,))
            if q.__class__ is CutQuery:
                i = self._grid_index(q.alpha)
                infos.append(("cut", q.agent, i, None))
                key = (q.agent, i)
                if i >= 1 and key not in inst.slots and key not in seen:
                    seen.add(key)
                    wanted.append(key)
            elif q.__class__ is EvalQuery:
                y = Fraction(q.y)
                if y == 0 or y == 1:
                    infos.append(("edge", q.agent, None, y))
                    continue
                ref = inst.points.get(y)
                if ref is None:
                    raise MalformedQuery(
                        "eval at a point that is not a previous cut: %s" % (y,))
                _, i = ref
                infos.append(("eval", q.agent, i, y))
                key = (q.agent, i)
                if key not in inst.slots and key not in seen:
                    seen.add(key)
                    wanted.append(key)
            else:
                raise MalformedQuery("unknown division query: %r" % (q,))
        probe_answers = self.rank_session.submit_round(
            [RankQuery(agent, i) for agent, i in wanted])
        relations = dict(zip(wanted, probe_answers))
        out = []
        for kind, agent, i, y in infos:
            if kind == "edge":
                out.append(Fraction(0) if y == 0 else Fraction(1))
            elif kind == "cut":
                if i == 0:
                    out.append(Fraction(0))
                else:
                    out.append(self._point(agent, i, relations))
            else:
                own = self._point(agent, i, relations)
                if own == y:
                    out.append(Fraction(i, inst.n))
                elif own > y:
                    out.append(Fraction(i, inst.n + 1))
                else:
                    out.append(Fraction(i + 1, inst.n + 1))
        return out

    def _point(self, agent, i, relations):
        key = (agent, i)
        if key in self.inst.slots:
            return grid_point(self.inst, i, self.inst.slots[key])
        return self.inst.take_slot(agent, i, relations[key])


def _verdict(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the class is what both sides must agree on
        return exc.__class__


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_backend_matches_free_list_reference(data):
    """Batch for batch, the counted slots and two-pass answering give the
    same answers, slots, exceptions and rank probes as the reference."""
    n = data.draw(st.integers(min_value=1, max_value=6), label="n")
    perm = data.draw(st.permutations(range(1, n + 1)), label="perm")
    k = data.draw(st.integers(min_value=1, max_value=3), label="k")
    sides = []
    for backend_class in (AdversaryCakeBackend, ReferenceCakeBackend):
        rank_session = open_session(HiddenInstance(tuple(perm)), k)
        backend = backend_class(n, rank_session)
        sides.append((backend, Session(backend, k), rank_session))
    agents = st.integers(min_value=1, max_value=n)
    odd_agents = st.sampled_from([0, n + 1, True])
    grid_cuts = st.integers(min_value=0, max_value=n).map(
        lambda i: Fraction(i, n))
    outside_cuts = st.sampled_from([Fraction(-1, n), Fraction(n + 1, n)])
    any_cuts = st.fractions(min_value=-1, max_value=2,
                            max_denominator=3 * n + 2)
    fixed_points = st.sampled_from([Fraction(0), Fraction(1), 0, 1])
    non_points = st.fractions(min_value=0, max_value=1, max_denominator=50)
    junk = st.sampled_from([RankQuery(1, 1), ("cut", 1, 0), None])
    for _ in range(k + 1):  # the last batch is one more than k
        points = sorted(sides[1][0].inst.points)
        earlier = st.sampled_from(points) if points else fixed_points
        queries = [st.builds(CutQuery, agents, grid_cuts),
                   st.builds(EvalQuery, agents, earlier),
                   st.builds(EvalQuery, agents, fixed_points)]
        # odd queries in only some batches, so that many batches are accepted
        if data.draw(st.booleans(), label="odd"):
            queries += [st.builds(CutQuery, odd_agents, grid_cuts),
                        st.builds(CutQuery, agents, any_cuts),
                        st.builds(CutQuery, agents, outside_cuts),
                        st.builds(EvalQuery, odd_agents, earlier),
                        st.builds(EvalQuery, odd_agents, fixed_points),
                        st.builds(EvalQuery, agents, non_points),
                        junk]
        batch = data.draw(st.lists(st.one_of(queries), max_size=8),
                          label="batch")
        new, ref = (_verdict(lambda: tuple(session.submit_round(batch)))
                    for _, session, _ in sides)
        assert new == ref
        assert sides[0][0].inst.slots == sides[1][0].inst.slots
        assert sides[0][2].transcript() == sides[1][2].transcript()


def verdicts(perm, k, make_allocation, edit_lists=((),)):
    """For each list of edits to the protocol's allocation: run_reduction's
    ranks (or exception class) next to the density reference's, both judged
    on the adversary state the protocol left. The protocol is deterministic,
    so the reference fills the slots and builds the densities once."""
    n = len(perm)
    out = []
    agents = None
    for edits in edit_lists:
        seen = []

        def spy(session, n):
            allocation = make_allocation(session, n)
            for edit in edits:
                allocation = edit(allocation, n)
            seen.append((allocation, copy.deepcopy(session.backend.inst)))
            return allocation

        rank_sess = open_session(HiddenInstance(tuple(perm)), k)
        new = _verdict(lambda: run_reduction(spy, n, rank_sess)[0])
        allocation, inst = seen[0]
        if agents is None:
            agents = [realized_density(inst, perm, p) for p in range(1, n + 1)]
        out.append((new, _verdict(reference_verdict, allocation, inst, agents)))
    return out


def requests_then(batches, owners, slots):
    """Submit the given batches of (agent, i) cuts, then hand slice j to
    owners[j - 1] with inner boundary i at grid point (i, slots[i - 1]).
    slots="upper" puts boundary i on the mark of slice i + 1's owner, as
    the reference fill places it: the highest point she still accepts."""
    upper = []  # the protocol is deterministic: fill once

    def make(session, n):
        for batch in batches:
            session.submit_round([CutQuery(a, Fraction(i, n)) for a, i in batch])
        inst = session.backend.inst
        grid = slots
        if slots == "upper":
            if not upper:
                filled = copy.deepcopy(inst)
                pi = session.backend.rank_session.backend.ranks
                for agent in range(1, n + 1):
                    realized_density(filled, pi, agent)
                upper.extend(filled.slots[(owners[i], i)] for i in range(1, n))
            grid = upper
        edges = ([Fraction(0)] + [grid_point(inst, i, c)
                                  for i, c in enumerate(grid, start=1)]
                 + [Fraction(1)])
        return Allocation(pieces=tuple(zip(edges, edges[1:])),
                          owners=tuple(owners))
    return make


def _eps(n):
    return Fraction(1, n ** 4 + 1)


def swap_owners(a, b):
    def edit(allocation, n):
        owners = list(allocation.owners)
        if max(a, b) > len(owners):
            return allocation
        owners[a - 1], owners[b - 1] = owners[b - 1], owners[a - 1]
        return Allocation(allocation.pieces, tuple(owners))
    return edit


def move_boundary(i, slots):
    """Move inner boundary i by `slots` grid steps (a Fraction moves it off
    the grid)."""
    def edit(allocation, n):
        pieces = [list(p) for p in allocation.pieces]
        if i >= len(pieces):
            return allocation
        pieces[i - 1][1] += slots * _eps(n)
        pieces[i][0] += slots * _eps(n)
        return Allocation(tuple(map(tuple, pieces)), allocation.owners)
    return edit


def retile(kind):
    """Break the tiling: a gap, a missing slice, a repeated owner, or a
    last slice that stops short of 1."""
    def edit(allocation, n):
        pieces, owners = list(allocation.pieces), list(allocation.owners)
        if kind == "gap":
            pieces[-1] = (pieces[-1][0] + _eps(n) / 3, pieces[-1][1])
        elif kind == "drop":
            pieces, owners = pieces[:-1], owners[:-1]
        elif kind == "owner":
            owners[-1] = owners[0]
        else:
            pieces[-1] = (pieces[-1][0], Fraction(1) - _eps(n) / 3)
        return Allocation(tuple(pieces), tuple(owners))
    return edit


def true_order(perm):
    """Owners by slice: the agent of hidden rank j holds slice j."""
    owners = [None] * len(perm)
    for agent, rank in enumerate(perm, start=1):
        owners[rank - 1] = agent
    return owners


def test_grid_verdict_matches_density_reference_on_small_permutations():
    """Every permutation for n <= 5 at k = 1, 2: the protocol's own
    allocation, swapped owners and each boundary moved one slot either
    way; then the same edits on allocations whose marks were never
    requested, with each boundary on a reserved point or on the next
    owner's mark."""
    for n in range(1, 6):
        inner = range(1, n)
        edit_lists = ([()] + [(swap_owners(1, 2),)] * (n >= 2)
                      + [(move_boundary(i, d),) for i in inner for d in (-1, 1)])
        for perm in itertools.permutations(range(1, n + 1)):
            for k in (1, 2):
                owners = true_order(perm)
                for make in (protocol(k),
                             requests_then([], owners, list(inner)),
                             requests_then([], owners, "upper")):
                    pairs = verdicts(perm, k, make, edit_lists)
                    assert all(new == ref for new, ref in pairs)
                    assert pairs[0][0] == perm


def test_grid_verdict_agrees_with_reference_on_every_failure_class():
    perm = (3, 1, 4, 2)
    cases = [
        (swap_owners(1, 4), NotProportional),
        (move_boundary(2, Fraction(1, 2)), NotProportional),
        (move_boundary(3, -5), NotProportional),
        (retile("gap"), MalformedAllocation),
        (retile("drop"), MalformedAllocation),
        (retile("owner"), MalformedAllocation),
        (retile("short"), MalformedAllocation),
    ]
    pairs = verdicts(perm, 2, protocol(2), [[edit] for edit, _ in cases])
    assert pairs == [(want, want) for _, want in cases]
    # reserved points, one mark requested: the rest fill in agent-id order
    assert verdicts(perm, 2, requests_then([[(1, 2)]], true_order(perm),
                                           [1, 2, 3])) == [(perm, perm)]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_grid_verdict_matches_density_reference(data):
    """Random permutations up to n = 48: protocol allocations and
    hand-built ones over partly requested marks, with random edits."""
    n = data.draw(st.integers(min_value=1, max_value=48), label="n")
    perm = tuple(data.draw(st.permutations(range(1, n + 1)), label="perm"))
    k = data.draw(st.integers(min_value=1, max_value=3), label="k")
    inner = st.integers(min_value=1, max_value=max(1, n - 1))
    edit = st.one_of(
        st.builds(swap_owners, st.integers(1, n), st.integers(1, n)),
        st.builds(move_boundary, inner,
                  st.sampled_from([-2, -1, 1, 2, Fraction(1, 2), -n])),
        st.builds(retile, st.sampled_from(["gap", "drop", "owner", "short"])))
    edit_lists = data.draw(st.lists(st.lists(edit, max_size=2 if n > 1 else 0),
                                    min_size=1, max_size=4), label="edits")
    if data.draw(st.booleans(), label="protocol"):
        make = protocol(k)
    else:
        cut = st.tuples(st.integers(1, n), st.integers(0, n))
        batches = data.draw(st.lists(st.lists(cut, max_size=3 * n), max_size=k),
                            label="batches")
        owners = (true_order(perm) if data.draw(st.booleans(), label="true")
                  else data.draw(st.permutations(range(1, n + 1)), label="owners"))
        slots = (data.draw(st.lists(st.integers(1, n), min_size=n - 1,
                                    max_size=n - 1), label="slots")
                 if data.draw(st.booleans(), label="random slots") else "upper")
        make = requests_then(batches, owners, slots)
    for new, ref in verdicts(perm, k, make, edit_lists):
        assert new == ref


def test_protocol_that_shorts_an_agent_is_not_proportional():
    """Handing the first slice to the rank-2 agent leaves her n/(n(n+1)),
    under 1/n, however proportional the rest looks."""
    for n, k in ((3, 1), (8, 2), (20, 3)):
        perm = random_ranks(n, random.Random(n))

        def shorting(session, n):
            allocation = run_proportional(session, n, k)
            return swap_owners(1, 2)(allocation, n)

        with pytest.raises(NotProportional, match="agent %d " % true_order(perm)[1]):
            run_reduction(shorting, n, open_session(HiddenInstance(perm), k))


def test_reduction_recovers_a_permutation_at_256_agents():
    perm = random_ranks(256, random.Random(256))
    run_bridge(perm, 2)
