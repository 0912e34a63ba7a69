import random

from rounds_lab.oracle import HiddenInstance, open_session


def sorted_instance(n, target_rank=None):
    """Identity-ranked instance, optionally promising the given rank."""
    return HiddenInstance(tuple(range(1, n + 1)), target_index=target_rank)


def session_for(n, k, target_rank=None):
    return open_session(sorted_instance(n, target_rank), k)


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
