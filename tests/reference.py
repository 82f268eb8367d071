"""Test-only references: the sample stream, the exact fully random baseline,
the canonical triple reduction and report helpers.

Nothing in the package calls these.  _sample_rng builds each block's
substream literally, a fresh generator per block, for the stream-lock tests
of the re-keyed generator in estimators.  The dynamic program is the oracle
the Monte Carlo estimators are calibrated against.  canonicalize_triple
reduces one triple to its (0, 1, d) form, the scalar reference for the
vectorised reduction of experiments.check_canonical_equality.  csv_body and
report_row read what the experiments wrote and returned.
"""

import math
from fractions import Fraction

import numpy as np

from linbins.field import mod_inverse


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one block of samples, derived only from (seed, index)."""
    # An explicit uint64 key: a list would go through float64 for seeds
    # >= 2^63 and merge neighbouring seeds into one stream.
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# The exact dynamic program below is only intended for calibration scale.
MAX_EXACT_BINS = 64


def max_load_distribution(m: int, balls: int) -> dict[int, Fraction]:
    """Exact max-load distribution for uniform throws, by dynamic programming.

    Counts assignments whose bins all hold at most t balls via
    W(i, r) = sum_k C(r, k) * W(i-1, r-k), then differences the CDF.
    Intended for calibration only, hence the small-m guard.
    """
    if not 1 <= m <= MAX_EXACT_BINS:
        raise ValueError(f"m must be in [1, {MAX_EXACT_BINS}], got {m}")
    if balls < 1:
        raise ValueError(f"balls must be >= 1, got {balls}")
    total = m**balls
    dist: dict[int, Fraction] = {}
    prev = Fraction(0)
    for t in range(1, balls + 1):
        w = [1] + [0] * balls
        for _ in range(m):
            w = [
                sum(math.comb(r, k) * w[r - k] for k in range(min(r, t) + 1))
                for r in range(balls + 1)
            ]
        at_most_t = Fraction(w[balls], total)
        if at_most_t > prev:
            dist[t] = at_most_t - prev
        prev = at_most_t
        if at_most_t == 1:
            break
    return dist


def fully_random_exact_mean(m: int, balls: int) -> Fraction:
    """Exact expected max load of uniform throws, from the distribution."""
    return sum((t * pr for t, pr in max_load_distribution(m, balls).items()), Fraction(0))


def canonicalize_triple(p: int, x: int, y: int, z: int) -> int:
    """The d of the canonical (0, 1, d) form of a distinct triple; never 0 or 1.

    The affine map t -> ((y - x)*t + x) mod p sends (0, 1, d) to (x, y, z);
    composing it with the hash family permutes the parameter pairs, so every
    joint-mapping count for (x, y, z) equals the count for (0, 1, d).
    """
    if len({x % p, y % p, z % p}) != 3:
        raise ValueError(f"triple ({x}, {y}, {z}) is not distinct mod {p}")
    return mod_inverse(y - x, p) * (z - x) % p


def csv_body(text: str) -> str:
    """Data portion of a CSV: everything except '#' metadata comment lines."""
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("#")
    )


def report_row(report, name: str):
    """The check row of a report, a tuple of CheckRow, with the given name."""
    for c in report:
        if c.name == name:
            return c
    raise KeyError(name)
