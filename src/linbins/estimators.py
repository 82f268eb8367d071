"""Monte Carlo estimation of maximum bin loads, and the fully random mean computed.

Samples come in blocks of SAMPLES_PER_BLOCK = 64: sample i is row i % 64 of
one draw from the counter-based substream keyed by (seed, i // 64), so one
generator serves 64 samples.  Bounded draws below 2^32 take values one after
another from the stream, so the first k rows of a 64-row draw equal a k-row
draw: sample i depends only on (seed, i), whatever the sample count.  They
are also the same values in int32 as in int64, so the samplers draw in
field.int_type's choice for the range and hash in int32 where a*x + b fits.
Each range of blocks re-keys one generator per block, to the stream a fresh
one would draw, draws consecutive blocks together, and hashes and bins them
one loads-kernel block at a time.  Workers
split the blocks, never a block, and any worker count reproduces the
sequential result bit for bit.

The linear mean and its standard error are those of a control variate.
The longest lattice run R(a) of each sampled multiplier
(oracles.multiplier_runs) tracks the max load given a; its exact mean over
[p] comes from oracles.multiplier_runs_total, and its slope on the even-
numbered blocks is fitted on the odd-numbered ones and the reverse.  So the
mean stays unbiased and does not depend on the worker count.  Its variance
is that of the plain mean times about 1 - corr(max, R)^2; over every (a, b)
on [m] the correlation is 0.946, 0.972 and 0.981 at m = 16, 64 and 256, so
the variance falls 9.5, 18 and 27 times.  The tail is that of the raw
maxima.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import loads
from .field import Modulus, int_type, next_prime_at_least, rem
from .loads import Interval, KeySet, materialize, max_loads
from .oracles import map_chunks, multiplier_runs, multiplier_runs_total

# Algorithm name and stream layout recorded in output metadata alongside
# every estimate.
GENERATOR_NAME = "philox4x64/block64"

# Samples drawn from one substream.  Larger blocks save little more time and
# cost memory: scaling over m = 16..1024 with 10,000 samples peaks at 39 MiB
# with 64-sample blocks, 44 MiB with 256 and 62 MiB with 1024.
SAMPLES_PER_BLOCK = 64

# Seeds are Philox key words: unsigned 64-bit integers.
SEED_SPACE = 2**64


def validate_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2^64), the range of one Philox key word."""
    if not 0 <= seed < SEED_SPACE:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


@dataclass(frozen=True)
class McEstimate:
    """Mean, normal-approximation standard error, and tail of sampled max loads.

    tail maps each threshold l in [1, max observed] to the empirical
    Pr[max_load >= l]; the raw sample mean equals the sum of the tail values.
    mean and std_error are those of the raw maxima for uniform throws.  For
    the linear family they are those of its control-variate terms, and
    runs_total is the exact sum over every multiplier of the covariate R
    those terms centre on its mean runs_total / p (see mc_linear_maxload).
    """

    mean: float
    std_error: float
    tail: dict[int, float]
    samples: int
    seed: int
    runs_total: int | None = None


def _summarize(maxima: np.ndarray, seed: int, terms=None, runs_total=None) -> McEstimate:
    """The mean and standard error of terms (the maxima if None), the tail of the maxima."""
    n = len(maxima)
    terms = maxima if terms is None else terms
    mean = float(terms.mean())
    std_error = float(terms.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    counts = np.bincount(maxima)
    above = counts[::-1].cumsum()[::-1]
    tail = {l: float(above[l]) / n for l in range(1, len(counts))}
    return McEstimate(mean, std_error, tail, n, seed, runs_total)


def _block_maxima(seed, samples, high, width, m, keys, lo_block, hi_block):
    """Per-sample max loads and first draws of the samples in blocks [lo_block, hi_block).

    Block j draws one (rows, width) array from [0, high) out of the Philox
    stream keyed by (seed, j), a row per sample, in passes of whole blocks up
    to loads.BLOCK_CELLS cells.  With keys None a row holds the bins of
    uniform throws; otherwise it is (a, b), and the bins are
    ((a*x + b) mod high) mod m over the keys x, in the dtype of keys.  The
    first draws are the multipliers a of linear samples.

    The loads kernel asks for the bins of up to loads.BLOCK_CELLS cells at a
    time, and each request hashes only those rows, also where one block of
    draws is more (four requests per block at m = 1024).  Whole-pass hash
    arrays of 256 KiB, twice glibc's default mmap threshold, made the page
    faults of a call depend on the process's earlier allocations: 7,500
    minor faults at m = 1024 in some fresh processes, 100 in others.
    """
    dtype = int_type(high - 1)
    n = width if keys is None else len(keys)
    per_pass = max(1, loads.BLOCK_CELLS // (SAMPLES_PER_BLOCK * max(n, m)))
    # One generator, set before each block to the state a fresh one keyed
    # (seed, j) starts in.  The key is explicit uint64: a list would go through
    # float64 for seeds >= 2^63 and merge neighbouring seeds into one stream.
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    fresh = bitgen.state
    gen = np.random.Generator(bitgen)
    out, firsts = [], []
    for first in range(lo_block, hi_block, per_pass):
        parts = []
        for j in range(first, min(first + per_pass, hi_block)):
            fresh["state"]["key"][1] = j
            bitgen.state = fresh
            rows = min(SAMPLES_PER_BLOCK, samples - j * SAMPLES_PER_BLOCK)
            parts.append(gen.integers(0, high, size=(rows, width), dtype=dtype))
        draws = parts[0] if len(parts) == 1 else np.concatenate(parts)
        firsts.append(draws[:, 0].copy())  # a view would keep every pass's draws

        def bins_of(lo, hi):
            if keys is None:
                return draws[lo:hi]
            bins = draws[lo:hi, :1] * keys
            bins += draws[lo:hi, 1:]
            return rem(rem(bins, high), m)

        out.append(max_loads(len(draws), n, m, bins_of))
    return np.concatenate(out), np.concatenate(firsts)


def _sample_maxima(seed, samples, high, width, m, keys, workers):
    """Check samples and seed, then take the max loads and first draws of samples 0..samples-1."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    validate_seed(seed)
    blocks = -(-samples // SAMPLES_PER_BLOCK)
    n = width if keys is None else len(keys)
    parts = map_chunks(
        _block_maxima, blocks, workers, samples * max(n, m), (seed, samples, high, width, m, keys)
    )
    return tuple(np.concatenate(column) for column in zip(*parts))


def _control_variate(maxima: np.ndarray, runs: np.ndarray, runs_mean: float) -> np.ndarray:
    """Per-sample terms max_i - beta*(R_i - E[R]), beta cross-fitted by halves.

    The samples of even-numbered blocks take the least-squares slope of max on
    R over the odd-numbered blocks, and the reverse: beta is independent of
    the samples it corrects, so the mean of the terms is unbiased.  Each slope
    is one correctly rounded division of exact integer sums, so it is the
    same on every platform, and 0 for a half whose fitting half holds no two
    distinct R.
    """
    terms = maxima.astype(float)
    odd = np.arange(len(runs)) // SAMPLES_PER_BLOCK % 2 == 1
    for own, other in ((~odd, odd), (odd, ~odd)):
        r, y = runs[other], maxima[other]
        r_sum, n = int(r.sum()), len(r)
        var = n * int(r @ r) - r_sum**2
        if var:
            beta = (n * int(r @ y) - r_sum * int(y.sum())) / var
            terms[own] -= beta * (runs[own] - runs_mean)
    return terms


def mc_linear_maxload(
    mod: Modulus, key_set: KeySet, samples: int, seed: int, workers: int = 1
) -> McEstimate:
    """Estimate the expected max load under (a, b) drawn uniformly from [p]^2.

    The mean and its standard error are those of the control-variate terms
    max_i - beta*(R(a_i) - E[R]), R = oracles.multiplier_runs and E[R] its
    exact mean over [p] (see _control_variate); the tail is that of the raw
    maxima.
    """
    p, m = mod.p, mod.m
    if p < m * m:
        warnings.warn(
            f"p={p} is below m^2={m * m}; the constant-max-load claim assumes p >= m^2",
            stacklevel=2,
        )
    # A key set that does not fit [p] is refused here, before any sampling.
    keys = materialize(key_set, mod)
    s = np.asarray(keys, dtype=int_type((p - 1) * (max(keys) + 1)))
    maxima, multipliers = _sample_maxima(seed, samples, p, 2, m, s, workers)
    total = multiplier_runs_total(mod)
    terms = _control_variate(maxima, multiplier_runs(mod, multipliers), total / p)
    return _summarize(maxima, seed, terms, total)


def mc_fully_random_maxload(
    m: int, balls: int, samples: int, seed: int, workers: int = 1
) -> McEstimate:
    """Estimate the expected max load of `balls` uniform throws into m bins."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if balls < 1:
        raise ValueError(f"balls must be >= 1, got {balls}")
    return _summarize(_sample_maxima(seed, samples, m, balls, m, None, workers)[0], seed)


# Unit roundoff of float64.
_U = 2.0**-53


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error of k roundings."""
    return k * _U / (1 - k * _U)


def _coefficient_n(a: np.ndarray, b: np.ndarray, n: int) -> float:
    """[z^n] of a(z) * b(z), as one dot product."""
    lo, hi = max(0, n - len(b) + 1), min(len(a), n + 1)
    return float(np.dot(a[lo:hi], b[n - hi + 1 : n - lo + 1][::-1])) if lo < hi else 0.0


def _power_coefficient(w: np.ndarray, m: int, n: int) -> float:
    """[z^n] w(z)^m for m >= 2, by repeated squaring truncated at degree n.

    The last product gives only its degree-n coefficient, as a dot product.
    """
    result, square = None, w[: n + 1]
    while m > 1:
        if m & 1:
            result = square if result is None else np.convolve(result, square)[: n + 1]
        m >>= 1
        if m == 1 and result is None:
            return _coefficient_n(square, square, n)
        square = np.convolve(square, square)[: n + 1]
    return _coefficient_n(result, square, n)


def fully_random_mean(m: int, balls: int) -> tuple[float, float]:
    """Expected max load of `balls` uniform throws into m bins, computed: (mean, bound).

    |mean - E[max load]| <= bound.  With n = balls and Y_1..Y_m iid
    Poisson(lam), the Y_i conditioned on Y_1 + ... + Y_m = n are the bin
    loads, so Pr[max <= t] = N(t) / N(n), where N(t) = [z^n] w_t(z)^m and w_t
    holds the weights w_k ~ lam^k / k! for k <= t.  A common factor of the
    weights and the value of lam cancel in that ratio, so w is built outward
    from its mode floor(n/m) by ratios of the float lam = n/m and then divided
    by its float sum.  N is taken by repeated squaring with np.convolve.  The
    mean is ceil(n/m) + sum over t >= ceil(n/m) of 1 - Pr[max <= t].

    The bound, with u = 2^-53 and gamma_k = k u / (1 - k u):
    - Weight k is within relative gamma_(2|k - mode| + 1) of an exact
      c lam^k / k!, so a product of m weights whose degrees sum to n is
      within gamma_(4n + m).  Each convolution or dot product adds one
      multiplication and at most n additions to every product of
      non-negative terms, in any order, and at most
      K = floor(log2 m) + popcount(m) - 1 of them lie on any path.  So N(t)
      and N(n) are within relative gamma_c, c = 4n + m + K(n + 1), and
      Pr[max <= t] within rel = gamma_(2c + 1).  Underflow adds at most
      2^-1074 per operation, under 1e-280 in all for m, n < 2^31.
    - The omitted tail.  Every load is Bin(n, 1/m), so by the union bound
      Pr[max > s] <= m Pr[X > s].  For j > t the ratio Pr[X = j + 1] /
      Pr[X = j] = (n - j) / ((j + 1)(m - 1)) is at most
      rho = (n - t - 1) / ((t + 2)(m - 1)), so the terms s >= t sum to at most
      m Pr[X = t + 1] / (1 - rho)^2, with Pr[X = t + 1] rounded once from
      integers.  The sum stops at the first t where that is at most rel.
      It does not stop on 1 - Pr[max <= t], which bounds only one of the
      terms left out and cannot be trusted below its rounding error.
    - The T terms 1 - Pr[max <= t] and their sum add at most
      gamma_(T + 2) * mean.
    The total, rel * sum Pr[max <= t] / (1 - rel) + gamma_(T + 2) * mean +
    tail, is scaled by 1 + rel, which covers its own few roundings and the
    underflow.  `scaling` adds the rounding of the mean it writes.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if balls < 1:
        raise ValueError(f"balls must be >= 1, got {balls}")
    n = balls
    if m == 1:
        return float(n), 0.0
    lam, mode = n / m, n // m
    up = np.cumprod(lam / np.arange(mode + 1, n + 1))
    down = np.cumprod(np.arange(mode, 0, -1) / lam)[::-1]
    w = np.trim_zeros(np.concatenate((down, [1.0], up)), "b")
    w /= w.sum()
    depth = m.bit_length() - 1 + bin(m).count("1") - 1
    rel = _gamma(2 * (4 * n + m + depth * (n + 1)) + 1)
    total = _power_coefficient(w, m, n)
    first = t = -(-n // m)
    mean, at_most = float(first), 0.0
    m_to_n = m**n
    while True:
        # The union bound on every term from t on, once it decays geometrically.
        rho = (n - t - 1) / ((t + 2) * (m - 1))
        if rho < 1:
            tail = m * (math.comb(n, t + 1) * (m - 1) ** (n - t - 1) / m_to_n) / (1 - rho) ** 2
            if tail <= rel:
                break
        cdf = _power_coefficient(w[: t + 1], m, n) / total
        at_most += cdf
        mean += 1 - cdf
        t += 1
    bound = rel * at_most / (1 - rel) + _gamma(t - first + 2) * mean + tail
    return mean, bound * (1 + rel)


@dataclass(frozen=True)
class ScalingRow:
    """One bin count in the scaling study: linear-hash estimate vs fully random (mean, bound)."""

    m: int
    p: int
    linear: McEstimate
    random: tuple[float, float]


def scaling_study(
    m_values: list[int], samples: int, seed: int, workers: int = 1
) -> list[ScalingRow]:
    """Compare E[max load] of the linear family on [m] against uniform throws.

    For each m the prime is the next prime at or above m^2, and the linear
    estimator of the k-th m samples with seed + 2k, wrapped modulo 2^64.  The
    fully random column is computed, not sampled: fully_random_mean(m, m).
    """
    validate_seed(seed)
    if not m_values:
        raise ValueError("scaling study needs at least one m value, got an empty list")
    # Every m is validated, and its modulus built, before any m samples.  The
    # report reads the last m as the largest, so each m must exceed the one before.
    mods = []
    for m in m_values:
        if m < 2:
            raise ValueError(f"scaling study needs m >= 2, got {m}")
        if mods and m <= mods[-1].m:
            raise ValueError(f"scaling study needs increasing m values, got {m} after {mods[-1].m}")
        mods.append(Modulus(next_prime_at_least(m * m), m))
    rows = []
    for k, mod in enumerate(mods):
        m = mod.m
        linear = mc_linear_maxload(mod, Interval(m), samples, (seed + 2 * k) % SEED_SPACE, workers)
        rows.append(ScalingRow(m=m, p=mod.p, linear=linear, random=fully_random_mean(m, m)))
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
