"""Small numeric helpers shared across modules."""

from fractions import Fraction


def ceil_div(a, b):
    return -(-a // b)


def ceil_kth_root(n, k):
    """Smallest integer z with z**k >= n, exact for every integer n."""
    if n <= 1:
        return n
    if (n - 1).bit_length() <= k:
        return 2  # 1 < n <= 2**k
    # integer Newton from above: the seed 2**ceil(bits/k) is at least the
    # root, and each step stays at or above floor(root) until it stops
    z = 1 << ceil_div(n.bit_length(), k)
    while True:
        y = ((k - 1) * z + n // z ** (k - 1)) // k
        if y >= z:
            break
        z = y
    return z if z ** k == n else z + 1


def root_multiple_exceeds(c, n, k, bound):
    """Whether c * n**(1/k) > bound, decided exactly for integers c >= 0,
    n >= 1, k >= 1 and any integer bound.

    With x = bound / c >= 1 the question is whether x**k < n. x**k is
    bracketed in fixed point by repeated squaring, stopping as soon as the
    lower end passes n, with precision doubled until n falls outside the
    bracket; so no power grows with k the way bound**k would.
    """
    if bound < 0:
        return True
    if c == 0:
        return False
    if bound < c:
        return True  # n**(1/k) >= 1
    if n == 1:
        return False
    bits = 64
    while True:
        target = n << bits
        scaled = bound << bits
        lo, hi = _fixed_power_bracket(scaled // c, -(-scaled // c), k, bits,
                                      target)
        if lo > target or lo == hi == target:
            return False
        if hi < target:
            return True
        bits *= 2


def _fixed_power_bracket(lo, hi, k, bits, cap):
    """Bounds on x**k, all numbers scaled by 2**bits, from bounds on x >= 1.
    Returns early once the lower bound of a partial power passes cap: the
    partial powers of x >= 1 never exceed x**k."""
    rlo = rhi = 1 << bits
    while True:
        if k & 1:
            rlo = (rlo * lo) >> bits
            rhi = -(-(rhi * hi) >> bits)
            if rlo > cap:
                return rlo, rhi
        k >>= 1
        if not k:
            return rlo, rhi
        lo = (lo * lo) >> bits
        hi = -(-(hi * hi) >> bits)
        if lo > cap:
            return lo, hi


def group_sizes(m, z):
    """Split m into z parts whose sizes differ by at most one, larger
    first."""
    base, extra = divmod(m, z)
    return [base + 1] * extra + [base] * (z - extra)


def ceil_log2(n):
    """Smallest k with 2**k >= n."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length()


def useful_rounds(n, k):
    """k clamped to max(1, ceil(log2 n)): a search or split that at least
    halves what is left in each round needs no more rounds than that, so a
    larger budget asks the same queries."""
    return min(k, max(1, ceil_log2(n)))


def bernoulli(p, rng):
    """True with probability p; exact for any rational p in [0, 1].

    One 64-bit draw u decides u / 2**64 < p, compared in integers.
    """
    if p.__class__ is not Fraction:
        p = Fraction(p)
    num, den = p.numerator, p.denominator
    if num <= 0:
        return False
    if num >= den:
        return True
    return rng.getrandbits(64) * den < num << 64


def shuffled(n, rng):
    """The list 1..n in the order rng.shuffle leaves list(range(1, n + 1)),
    with rng, a random.Random, left in the same state.

    For i = n - 1 down to 1, random.Random.shuffle draws
    j = getrandbits(m.bit_length()) with m = i + 1, again while j >= m, and
    swaps items i and j. This is that loop, without shuffle's Python-level
    helper call per position.
    """
    items = list(range(1, n + 1))
    getrandbits = rng.getrandbits
    for i in range(n - 1, 0, -1):
        m = i + 1
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]
    return items


def normalized_weights(ws):
    ws = tuple(Fraction(w) for w in ws)
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    if sum(ws) != 1:
        raise ValueError("weights must sum to exactly 1")
    return ws
