"""Small numeric helpers shared across modules."""

from fractions import Fraction


def ceil_div(a, b):
    return -(-a // b)


def ceil_kth_root(n, k):
    """Smallest integer z with z**k >= n, exact for every integer n."""
    if n <= 1:
        return n
    # integer Newton from above: the seed 2**ceil(bits/k) is at least the
    # root, and each step stays at or above floor(root) until it stops
    z = 1 << ceil_div(n.bit_length(), k)
    while True:
        y = ((k - 1) * z + n // z ** (k - 1)) // k
        if y >= z:
            break
        z = y
    return z if z ** k == n else z + 1


def ceil_log2(n):
    """Smallest k with 2**k >= n."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length()


def bernoulli(p, rng):
    """True with probability p; exact for any rational p in [0, 1]."""
    p = Fraction(p)
    if p <= 0:
        return False
    if p >= 1:
        return True
    return Fraction(rng.getrandbits(64), 2 ** 64) < p


def normalized_weights(ws):
    ws = tuple(Fraction(w) for w in ws)
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    if sum(ws) != 1:
        raise ValueError("weights must sum to exactly 1")
    return ws
