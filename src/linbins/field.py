"""Prime-field arithmetic for the simple linear hash family.

The family maps x in [p] to ((a*x + b) mod p) mod m for parameter pairs
(a, b) in [p]^2, where p is prime and m <= p is the number of bins.  The
array kernels elsewhere evaluate it with rem below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest modulus a Modulus accepts: a*x + b of field elements then stays
# below 2^62, so it is exact in int64, the widest type int_type picks.
MAX_MODULUS = 1 << 31

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2^64."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    # Miller-Rabin with a base set known to be exact below 2^64.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_at_least(n: int) -> int:
    """Smallest prime >= n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > (1 << 62):
        raise ValueError(f"{n} exceeds the supported integer range")
    candidate = n
    while not is_prime(candidate):
        candidate += 1
    return candidate


@dataclass(frozen=True)
class Modulus:
    """A prime modulus p <= MAX_MODULUS together with a bin count m, 1 <= m <= p."""

    p: int
    m: int

    def __post_init__(self):
        if self.p > MAX_MODULUS:
            raise ValueError(f"p={self.p} exceeds the supported range ({MAX_MODULUS})")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not 1 <= self.m <= self.p:
            raise ValueError(f"m must satisfy 1 <= m <= p, got m={self.m}, p={self.p}")


def int_type(bound: int) -> type:
    """np.int32 if every value of a kernel stays below 2^31 in absolute value, else np.int64.

    bound is the largest absolute value the kernel forms, intermediate
    products included.  Products, reductions and sorts of int32 arrays move
    half the bytes of int64 ones.
    """
    return np.int32 if bound < 1 << 31 else np.int64


def rem(x: np.ndarray, n: int, q: np.ndarray | None = None) -> np.ndarray:
    """x % n for an int32 or int64 array x and n >= 1, negative x included, written into x.

    A power of two n is one mask, x & (n - 1), which in two's complement is
    the floor-mod of negative x too.  Otherwise: numpy floor-divides by a
    scalar through one precomputed reciprocal but takes remainders element
    by element, so x - n*(x // n) costs about half.  The quotients go to q,
    an array of x's shape, where one is given.
    """
    if n & (n - 1) == 0:
        x &= n - 1
        return x
    q = np.floor_divide(x, n, out=q)
    q *= n
    x -= q
    return x
