"""Monte Carlo estimation of maximum bin loads, with exact small-case baselines.

Samples come in blocks of SAMPLES_PER_BLOCK = 64: sample i is row i % 64 of
one draw from the counter-based substream keyed by (seed, i // 64), so one
generator serves 64 samples.  Bounded draws below 2^32 take values one after
another from the stream, so the first k rows of a 64-row draw equal a k-row
draw: sample i depends only on (seed, i), whatever the sample count.  Workers
split the blocks, never a block, and any worker count reproduces the
sequential result bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import MAX_MODULUS, Modulus, next_prime_at_least, rem
from .loads import Interval, KeySet, materialize, max_loads
from .oracles import _map_chunks

# Algorithm name and stream layout recorded in output metadata alongside
# every estimate.
GENERATOR_NAME = "philox4x64/block64"

# Samples drawn from one substream.  Larger blocks save little more time and
# cost memory: scaling over m = 16..1024 with 10,000 samples peaks at 39 MiB
# with 64-sample blocks, 44 MiB with 256 and 62 MiB with 1024.
SAMPLES_PER_BLOCK = 64

# The exact dynamic program below is only intended for calibration scale.
MAX_EXACT_BINS = 64

# Seeds are Philox key words: unsigned 64-bit integers.
SEED_SPACE = 2**64


def _check_seed(seed: int) -> None:
    if not 0 <= seed < SEED_SPACE:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


@dataclass(frozen=True)
class McConfig:
    """Inputs of one Monte Carlo max-load run over the linear hash family."""

    samples: int
    seed: int
    mod: Modulus
    key_set: KeySet

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        # Bins are computed as a*x + b in int64, exact only while p <= 2^31.
        if self.mod.p > MAX_MODULUS:
            raise ValueError(f"p={self.mod.p} exceeds the supported range ({MAX_MODULUS})")
        _check_seed(self.seed)


@dataclass(frozen=True)
class McEstimate:
    """Mean, normal-approximation standard error, and tail of sampled max loads.

    tail maps each threshold l in [1, max observed] to the empirical
    Pr[max_load >= l]; the mean equals the sum of the tail values.
    """

    mean: float
    std_error: float
    tail: dict[int, float]
    samples: int
    seed: int


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one block of samples, derived only from (seed, index)."""
    # An explicit uint64 key: a list would go through float64 for seeds
    # >= 2^63 and merge neighbouring seeds into one stream.
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _summarize(maxima: np.ndarray, seed: int) -> McEstimate:
    n = len(maxima)
    mean = float(maxima.mean())
    std_error = float(maxima.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    counts = np.bincount(maxima)
    above = counts[::-1].cumsum()[::-1]
    tail = {l: float(above[l]) / n for l in range(1, len(counts))}
    return McEstimate(mean=mean, std_error=std_error, tail=tail, samples=n, seed=seed)


def _block_maxima(seed, samples, high, width, m, keys, lo_block, hi_block):
    """Per-sample max loads of the samples in blocks [lo_block, hi_block).

    Block j draws one (rows, width) array from [0, high) out of
    _sample_rng(seed, j), a row per sample.  With keys None a row holds the
    bins of uniform throws; otherwise it is (a, b), and the bins are
    ((a*x + b) mod high) mod m over the keys x.
    """
    out = []
    for j in range(lo_block, hi_block):
        rows = min(SAMPLES_PER_BLOCK, samples - j * SAMPLES_PER_BLOCK)
        draws = _sample_rng(seed, j).integers(0, high, size=(rows, width))
        bins = draws if keys is None else rem(rem(draws[:, :1] * keys + draws[:, 1:], high), m)
        out.append(max_loads(rows, bins.shape[1], m, lambda lo, hi: bins[lo:hi]))
    return np.concatenate(out)


def _sample_maxima(seed, samples, high, width, m, keys, workers) -> np.ndarray:
    """Max loads of samples 0..samples-1, with the blocks split over workers."""
    blocks = -(-samples // SAMPLES_PER_BLOCK)
    n = width if keys is None else len(keys)
    parts = _map_chunks(
        _block_maxima, blocks, workers, samples * max(n, m), (seed, samples, high, width, m, keys)
    )
    return np.concatenate(parts)


def mc_linear_maxload(cfg: McConfig, workers: int = 1) -> McEstimate:
    """Estimate the expected max load under (a, b) drawn uniformly from [p]^2."""
    p, m = cfg.mod.p, cfg.mod.m
    if p < m * m:
        warnings.warn(
            f"p={p} is below m^2={m * m}; the constant-max-load claim assumes p >= m^2",
            stacklevel=2,
        )
    s = np.asarray(materialize(cfg.key_set, cfg.mod), dtype=np.int64)
    return _summarize(_sample_maxima(cfg.seed, cfg.samples, p, 2, m, s, workers), cfg.seed)


def mc_fully_random_maxload(
    m: int, balls: int, samples: int, seed: int, workers: int = 1
) -> McEstimate:
    """Estimate the expected max load of `balls` uniform throws into m bins."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if balls < 1:
        raise ValueError(f"balls must be >= 1, got {balls}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _check_seed(seed)
    return _summarize(_sample_maxima(seed, samples, m, balls, m, None, workers), seed)


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


@dataclass(frozen=True)
class ScalingRow:
    """One bin count in the scaling study: linear-hash vs fully random."""

    m: int
    p: int
    linear: McEstimate
    random: McEstimate


def scaling_study(
    m_values: list[int], samples: int, seed: int, workers: int = 1
) -> list[ScalingRow]:
    """Compare E[max load] of the linear family on [m] against uniform throws.

    For each m the prime is the next prime at or above m^2 and the two
    estimators get disjoint seeds derived from the base seed, seed + 2k and
    seed + 2k + 1 for the k-th m, wrapped modulo 2^64.
    """
    _check_seed(seed)
    if not m_values:
        raise ValueError("scaling study needs at least one m value, got an empty list")
    rows = []
    for k, m in enumerate(m_values):
        if m < 2:
            raise ValueError(f"scaling study needs m >= 2, got {m}")
        p = next_prime_at_least(m * m)
        linear_seed = (seed + 2 * k) % SEED_SPACE
        cfg = McConfig(samples=samples, seed=linear_seed, mod=Modulus(p, m), key_set=Interval(m))
        linear = mc_linear_maxload(cfg, workers)
        random = mc_fully_random_maxload(m, m, samples, (linear_seed + 1) % SEED_SPACE, workers)
        rows.append(ScalingRow(m=m, p=p, linear=linear, random=random))
    return rows


def tail_log_slope(tail: dict[int, float], samples: int) -> float | None:
    """Least-squares slope of log Pr[max >= l] against log l over l in [3, 10].

    Thresholds whose empirical tail falls below 10/samples are excluded as
    too noisy; returns None when fewer than two points remain.
    """
    points = [
        (l, tail[l]) for l in range(3, 11) if tail.get(l, 0.0) >= 10 / samples
    ]
    if len(points) < 2:
        return None
    xs = np.log([l for l, _ in points])
    ys = np.log([t for _, t in points])
    return float(np.polyfit(xs, ys, 1)[0])
