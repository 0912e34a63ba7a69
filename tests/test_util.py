from fractions import Fraction
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rounds_lab.util import (bernoulli, ceil_div, ceil_kth_root, ceil_log2,
                             normalized_weights, root_multiple_exceeds,
                             shuffled)


@given(st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=1, max_value=10 ** 6))
def test_ceil_div_matches_math(a, b):
    assert ceil_div(a, b) == math.ceil(Fraction(a, b))


@given(st.integers(min_value=1, max_value=10 ** 12),
       st.integers(min_value=1, max_value=40))
def test_ceil_kth_root_is_tight(n, k):
    r = ceil_kth_root(n, k)
    assert r ** k >= n
    assert r == 1 or (r - 1) ** k < n


def test_ceil_kth_root_known():
    assert ceil_kth_root(16, 2) == 4
    assert ceil_kth_root(17, 2) == 5
    assert ceil_kth_root(1000, 3) == 10
    assert ceil_kth_root(1001, 3) == 11
    assert ceil_kth_root(1, 7) == 1
    # far past float range the root is still exact
    z = ceil_kth_root(10 ** 400, 3)
    assert z ** 3 >= 10 ** 400 > (z - 1) ** 3
    assert ceil_kth_root(10 ** 399, 3) == 10 ** 133
    # a root index far past log2 n answers at once
    for k in (10 ** 6, 10 ** 9, 10 ** 12):
        assert ceil_kth_root(2, k) == ceil_kth_root(10 ** 400, k) == 2
        assert ceil_kth_root(1, k) == 1 and ceil_kth_root(0, k) == 0
    assert ceil_kth_root(2 ** 40, 40) == 2 and ceil_kth_root(2 ** 40 + 1, 40) == 3
    assert ceil_kth_root(2 ** 40 + 1, 41) == 2


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_ceil_log2(n):
    assert 2 ** ceil_log2(n) >= n
    assert ceil_log2(n) == 0 or 2 ** (ceil_log2(n) - 1) < n


def test_bernoulli_edges():
    rng = random.Random(0)
    assert all(bernoulli(Fraction(1), rng) for _ in range(50))
    assert not any(bernoulli(Fraction(0), rng) for _ in range(50))


def test_bernoulli_rate():
    rng = random.Random(123)
    hits = sum(bernoulli(Fraction(1, 4), rng) for _ in range(40000))
    assert abs(hits / 40000 - 0.25) < 0.01


def reference_bernoulli(p, rng):
    """The two-Fraction form the integer test replaced."""
    p = Fraction(p)
    if p <= 0:
        return False
    if p >= 1:
        return True
    return Fraction(rng.getrandbits(64), 2 ** 64) < p


def test_bernoulli_matches_the_fraction_form():
    ps = ([Fraction(j, d) for d in range(1, 13) for j in range(-1, d + 2)]
          + [0, 1, 2, -3, 0.25, 0.3, 1e-30, 1 - 1e-16, True, False,
             Fraction(1, 2 ** 64), Fraction(2 ** 64 - 1, 2 ** 64),
             Fraction(1, 3 * 2 ** 70), Fraction(10 ** 30 - 1, 10 ** 30)])
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        for p in ps:
            assert bernoulli(p, rng) == reference_bernoulli(p, ref), (seed, p)
        assert rng.getstate() == ref.getstate()
    # draws at and either side of p * 2**64 decide the same way
    for p, u in ((Fraction(1, 3), 2 ** 64 // 3), (Fraction(1, 3), 2 ** 64 // 3 + 1),
                 (Fraction(1, 2), 2 ** 63 - 1), (Fraction(1, 2), 2 ** 63),
                 (Fraction(3, 4), 3 * 2 ** 62)):
        class Fixed:
            def getrandbits(self, bits):
                assert bits == 64
                return u
        assert bernoulli(p, Fixed()) == reference_bernoulli(p, Fixed())


def test_normalized_weights_rejects_bad():
    with pytest.raises(ValueError):
        normalized_weights([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        normalized_weights([Fraction(3, 2), Fraction(-1, 2)])
    ws = normalized_weights(["1/2", "1/2"])
    assert ws == (Fraction(1, 2), Fraction(1, 2))


@given(st.integers(min_value=0, max_value=100), st.integers(min_value=1, max_value=5000),
       st.integers(min_value=1, max_value=12), st.integers(min_value=-5, max_value=10 ** 5))
def test_root_multiple_exceeds_matches_integer_powers(c, n, k, bound):
    want = n * c ** k > bound ** k if c and bound >= 0 else 0 > bound
    assert root_multiple_exceeds(c, n, k, bound) == want


def test_root_multiple_exceeds_at_exact_roots_and_huge_k():
    for x in range(1, 20):
        for k in range(1, 6):
            for c in (1, 3, 7):
                assert not root_multiple_exceeds(c, x ** k, k, c * x)
                assert root_multiple_exceeds(c, x ** k, k, c * x - 1)
    # no power of the bound is formed: k in the millions answers at once
    assert not root_multiple_exceeds(10 ** 6, 3, 10 ** 6, 2 * 10 ** 6)
    assert root_multiple_exceeds(10 ** 6, 3, 10 ** 6, 10 ** 6 + 1)
    assert root_multiple_exceeds(3, 10 ** 400, 3, 10 ** 7)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2 ** 64))
def test_shuffled_draws_what_shuffle_draws(seed):
    # the same permutation and the same generator state afterwards, so a
    # CPython whose shuffle draws otherwise fails here, not in a transcript
    for n in list(range(71)) + [257, 4096]:
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = list(range(1, n + 1))
        want_rng.shuffle(want)
        assert shuffled(n, got_rng) == want, n
        assert got_rng.getstate() == want_rng.getstate(), n
