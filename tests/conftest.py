import random
from fractions import Fraction

from rounds_lab.oracle import (TARGET, HiddenInstance, RankQuery, compare, open_session,
                               random_ranks)


def sorted_instance(n, target_rank=None):
    """Identity-ranked instance, optionally promising the given rank."""
    return HiddenInstance(tuple(range(1, n + 1)), target_index=target_rank)


def session_for(n, k, target_rank=None):
    return open_session(sorted_instance(n, target_rank), k)


def random_instance(n, rng):
    """A shuffled instance of 1..n promising a uniformly drawn item."""
    ranks = random_ranks(n, rng)
    return HiddenInstance(ranks, target_index=rng.randrange(1, n + 1))


def shuffled_ranks(n, seed):
    ranks = list(range(1, n + 1))
    random.Random(seed).shuffle(ranks)
    return tuple(ranks)


def mark_rows(marks, scale=lambda: 1):
    """`assign_subcakes`' (rows, nums, dens) for marks given as a map from
    agent to rational cut points; each pair is multiplied by scale()."""
    rows, nums, dens = {}, [], []
    for agent, xs in marks.items():
        rows[agent] = len(nums)
        for x in xs:
            f = scale()
            nums.append(x.numerator * f)
            dens.append(x.denominator * f)
    return rows, nums, dens


def answers_consistent(transcript, instance):
    """Replay a rank or comparison transcript against an instance,
    checking every answer."""
    for qs, ans in transcript.batches:
        for q, a in zip(qs, ans):
            if q.__class__ is RankQuery:
                idx = instance.target_index if q.item == TARGET else q.item
                want = compare(instance.ranks[idx - 1], q.threshold)
            else:
                li = instance.target_index if q.left == TARGET else q.left
                ri = instance.target_index if q.right == TARGET else q.right
                want = compare(instance.ranks[li - 1], instance.ranks[ri - 1])
            if a != want:
                return False
    return True


def grid_point(inst, i, c):
    """Grid point (i, c) of an `AdversaryCakeInstance` as a `Fraction`; the
    inverse of its `point_key`."""
    return Fraction(i * inst.istep + c * inst.cstep, inst.den)


def take_slot(inst, agent, i, relation):
    """Pin agent's i/n mark on an `AdversaryCakeInstance` and return the
    grid point (idempotent per pair)."""
    return grid_point(inst, i, inst.pin(agent, i, relation))
