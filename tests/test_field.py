"""Field arithmetic and hash evaluation basics."""

import numpy as np
import pytest

from linbins.field import (
    MAX_MODULUS,
    Modulus,
    int_type,
    is_prime,
    next_prime_at_least,
    rem,
)
from reference import literal_bins


def h(a, b, mod, x):
    """h_{a,b}(x), read off the literal enumeration of every b."""
    return int(literal_bins(mod.p, mod.m, [x], a)[b, 0])


def sieve_primes(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for n in range(2, int(limit**0.5) + 1):
        if flags[n]:
            for k in range(n * n, limit, n):
                flags[k] = False
    return flags


def test_is_prime_matches_sieve_below_2000():
    flags = sieve_primes(2000)
    for n in range(2000):
        assert is_prime(n) == flags[n], n


def test_is_prime_known_values():
    assert is_prime(21787)
    assert is_prime(2147483647)
    assert is_prime(1048583)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(2047)  # strong pseudoprime to base 2
    assert not is_prime(1)
    assert not is_prime(0)


def test_next_prime_at_least():
    assert next_prime_at_least(256) == 257
    assert next_prime_at_least(1024) == 1031
    assert next_prime_at_least(2) == 2
    assert next_prime_at_least(13) == 13
    assert next_prime_at_least(14) == 17
    assert next_prime_at_least(1024 * 1024) == 1048583


def test_next_prime_at_least_domain():
    with pytest.raises(ValueError):
        next_prime_at_least(1)
    with pytest.raises(ValueError, match="exceeds the supported integer range"):
        next_prime_at_least(2**62 + 1)


def test_modulus_validation():
    Modulus(13, 13)
    Modulus(2, 1)
    with pytest.raises(ValueError):
        Modulus(12, 3)
    with pytest.raises(ValueError):
        Modulus(13, 0)
    with pytest.raises(ValueError):
        Modulus(13, 14)
    # The one range check every kernel relies on: a*x + b fits int64.
    Modulus(2147483647, 2)
    with pytest.raises(ValueError, match="exceeds"):
        Modulus(next_prime_at_least(MAX_MODULUS), 2)


def test_eval_examples():
    # With m = p the bin is the full-range value (a*x + b) mod p.
    assert h(1, 0, Modulus(13, 13), 5) == 5
    assert h(12, 0, Modulus(13, 13), 1) == 12
    assert h(1, 0, Modulus(13, 4), 6) == 2
    assert h(3, 2, Modulus(13, 5), 5) == 4


def test_eval_exhaustive_reduction():
    full, binned = Modulus(13, 13), Modulus(13, 5)
    for a in range(13):
        for b in range(13):
            for x in range(13):
                value = (a * x + b) % 13
                assert h(a, b, full, x) == value
                assert h(a, b, binned, x) == value % 5


def test_full_range_pairwise_uniform():
    # With m = p, every pair of distinct keys hits every target pair exactly
    # once across the p^2 parameter pairs.
    p = 7
    mod = Modulus(p, p)
    for x in range(p):
        for y in range(p):
            if x == y:
                continue
            seen = {}
            for a in range(p):
                for b in range(p):
                    pair = (h(a, b, mod, x), h(a, b, mod, y))
                    seen[pair] = seen.get(pair, 0) + 1
            assert all(count == 1 for count in seen.values())
            assert len(seen) == p * p


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 512, 21787, 2**30, 2147483647])
def test_rem_equals_numpy_remainder(n):
    # Powers of two take the mask, other n the floor division, in both dtypes.
    p = 2147483647
    for dtype, top in ((np.int64, (p - 1) * (p - 1) + (p - 1)), (np.int32, 2**31 - 1)):
        values = [0, 1, -1, n - 1, n, n + 1, -n, -n - 1, 5 * n + 3, -(5 * n + 3),
                  p - 1, -(p - 1), top, top - 1, -top, -top - 1, 2**62, -(2**62)]
        x = np.array([v for v in values if -top - 1 <= v <= top], dtype=dtype)
        x = np.concatenate([x, np.random.default_rng(n).integers(-top - 1, top, 1000, dtype=dtype)])
        expected = (x % n).tolist()
        assert expected == [v % n for v in x.tolist()]
        quotients = np.empty_like(x)
        for q in (None, quotients):
            y = x.copy()
            out = rem(y, n, q)
            assert out is y
            assert out.dtype == dtype
            assert out.tolist() == expected
        if n & (n - 1):
            # The floor division writes its quotients into the buffer given.
            assert quotients.tolist() == (x // n * n).tolist()


def test_rem_on_blocks_of_products():
    # The shapes the kernels reduce: a column of multipliers times a row of keys.
    p, m = 257, 16
    a = np.arange(p, dtype=np.int64)[:, None]
    keys = np.arange(-40, 40, dtype=np.int64)
    assert rem(rem(a * keys, p), m).tolist() == (a * keys % p % m).tolist()
    assert rem(np.zeros((0, 3), dtype=np.int64), 5).shape == (0, 3)


def test_int_type_boundaries():
    assert int_type(0) is np.int32
    assert int_type(2**31 - 1) is np.int32
    assert np.int32(2**31 - 1) == 2**31 - 1
    assert int_type(2**31) is np.int64
    # The largest value a field kernel forms, (p - 1)*(p - 1) + (p - 1) at p = 2^31 - 1.
    assert int_type((MAX_MODULUS - 2) * (MAX_MODULUS - 1)) is np.int64
