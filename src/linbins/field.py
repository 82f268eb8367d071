"""Prime-field arithmetic and the simple linear hash family.

The family maps x in [p] to ((a*x + b) mod p) mod m for parameter pairs
(a, b) in [p]^2, where p is prime and m <= p is the number of bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest modulus the array-based enumeration code accepts: products of two
# field elements must fit in a signed 64-bit integer.
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
        raise OverflowError(f"{n} exceeds the supported integer range")
    candidate = n
    while not is_prime(candidate):
        candidate += 1
    return candidate


def mod_inverse(x: int, p: int) -> int:
    """Multiplicative inverse of x modulo the prime p."""
    if x % p == 0:
        raise ValueError("0 has no multiplicative inverse")
    return pow(x, -1, p)


@dataclass(frozen=True)
class Modulus:
    """A prime modulus p together with a bin count m, 1 <= m <= p."""

    p: int
    m: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not 1 <= self.m <= self.p:
            raise ValueError(f"m must satisfy 1 <= m <= p, got m={self.m}, p={self.p}")


@dataclass(frozen=True)
class HashParams:
    """One function of the family, identified by the pair (a, b)."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("a and b must be non-negative")


def _check_args(params: HashParams, mod: Modulus, x: int) -> None:
    if not (params.a < mod.p and params.b < mod.p):
        raise ValueError(f"params {params} out of range for p={mod.p}")
    if not 0 <= x < mod.p:
        raise ValueError(f"x={x} out of range for p={mod.p}")


def eval_full(params: HashParams, mod: Modulus, x: int) -> int:
    """Full-range value (a*x + b) mod p."""
    _check_args(params, mod, x)
    return (params.a * x + params.b) % mod.p


def eval_binned(params: HashParams, mod: Modulus, x: int) -> int:
    """Bin index ((a*x + b) mod p) mod m."""
    return eval_full(params, mod, x) % mod.m


def rem(x: np.ndarray, n: int) -> np.ndarray:
    """x % n for an int64 array x and n >= 1, negative x included, written into x.

    numpy floor-divides by a scalar through one precomputed reciprocal but
    takes remainders element by element, so x - n*(x // n) costs about half.
    """
    q = x // n
    q *= n
    x -= q
    return x
