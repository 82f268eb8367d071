"""Monte Carlo estimation of maximum bin loads, and the fully random mean computed.

Samples come in blocks of SAMPLES_PER_BLOCK = 64: sample i is row i % 64 of
one draw from the counter-based substream keyed by (seed, i // 64), so one
generator serves 64 samples.  Bounded draws below 2^32 take values one after
another from the stream, so the first k rows of a 64-row draw equal a k-row
draw: sample i depends only on (seed, i), whatever the sample count.  They
are also the same values in int32 as in int64, so the samplers draw in
field.int_type's choice for the range and hash in int32 where a*x + b fits.
Each range of blocks re-keys one generator per block, to the stream a fresh
one would draw, and the linear family hashes and bins the whole range's
(a, b) in one loads.bin_counts pass.  Workers split the blocks, never a
block, and any worker count reproduces the sequential result bit for bit.

The linear mean is post-stratified on the multiplier.  A few structured
multipliers are taken exactly (linear_stratum): a = 0, under which every b
puts all keys in one bin, and on an interval or affine image every a whose
longest lattice run R(a) (oracles.multiplier_runs) reaches r0, listed by
oracles.long_run_multipliers.  Their max loads over every b come from
oracles.maxload_total, their pair counts in closed form.  The
samples outside that stratum give a control variate on two covariates with
exact means over the other multipliers.  One is R(a), which tracks the max
load given a; its total over [p] comes from oracles.multiplier_runs_total.
On an affine image {alpha*x + beta} it is taken at alpha*a mod p, since
h_{a,b}(alpha*x + beta) = h_{alpha*a, a*beta + b}(x) and a -> alpha*a
permutes [p]; the stratum is tested there too, and its totals are those of
the interval.  The other is the colliding-pair count S2 = sum over bins of
C(L, 2) of each sample, read from the same bin counts as its max; for any n
distinct keys its total over [p]^2 is C(n, 2) * pair_collisions(mod).
Their slopes on the even-numbered blocks are fitted jointly on the
odd-numbered ones and the reverse, so the mean stays unbiased and does not
depend on the worker count.  Over every (a, b) on [m] R alone cuts the
variance of the plain mean 9.5, 14 and 18 times at m = 16, 32 and 64, and R
with S2 29, 44 and 54 times.  At 10,000 samples the stratum holds 53, 59
and 71 multipliers there (r0 = 3, 5 and 9), and at the same sample count
cuts the SE^2 of R with S2 another 1.69, 1.49 and 1.45 times: at m = 16 the
residual variance 0.0892 of the fit over every (a, b) is 0.0666 over the
multipliers outside the stratum, whose weight is 204/257.  The tail is that
of the raw maxima.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import loads
from .field import Modulus, int_type, next_prime_at_least
from .loads import AffineImage, Interval, KeySet, bin_counts, hashed_bins, materialize, max_loads
from .oracles import (
    long_run_counts,
    long_run_multipliers,
    map_chunks,
    maxload_total,
    multiplier_runs,
    multiplier_runs_total,
)

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
class Stratum:
    """The multipliers the linear estimator takes exactly, and their exact totals.

    They are a = 0 and, on an Interval or AffineImage, every a with R(a) >=
    r0, R taken at alpha*a on an AffineImage; on other key sets a = 0 alone,
    and r0 is None.  size counts them.  max_total and pairs_total sum the max
    load and S2 over them and every b, runs_total sums R over them.
    """

    r0: int | None
    size: int
    max_total: int
    runs_total: int
    pairs_total: int


@dataclass(frozen=True)
class McEstimate:
    """Mean, normal-approximation standard error, and tail of sampled max loads.

    tail maps each threshold l in [1, max observed] to the empirical
    Pr[max_load >= l]; the raw sample mean equals the sum of the tail values.
    mean and std_error are those of the raw maxima for uniform throws.  For
    the linear family they are the stratified estimate of mc_linear_maxload:
    runs_total is the sum of R over every multiplier, pairs_total the sum of
    S2 over every (a, b), and stratum the part taken exactly.
    """

    mean: float
    std_error: float
    tail: dict[int, float]
    samples: int
    seed: int
    runs_total: int | None = None
    pairs_total: int | None = None
    stratum: Stratum | None = None


def _mean_se(values) -> tuple[float, float]:
    """The mean of the values and its standard error, 0 for fewer than two."""
    n = len(values)
    std_error = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), std_error


def _summarize(maxima: np.ndarray, seed: int, estimate=None, *totals) -> McEstimate:
    """The (mean, std_error) estimate (the maxima's if None), the tail of the maxima."""
    n = len(maxima)
    counts = np.bincount(maxima)
    above = counts[::-1].cumsum()[::-1]
    tail = {l: float(above[l]) / n for l in range(1, len(counts))}
    return McEstimate(*(estimate or _mean_se(maxima)), tail, n, seed, *totals)


def _block_maxima(seed, samples, high, width, m, keys, lo_block, hi_block):
    """Per-sample max loads, pair counts and multipliers in blocks [lo_block, hi_block).

    Block j draws one (rows, width) array from [0, high) out of the Philox
    stream keyed by (seed, j), a row per sample.  With keys None a row holds
    the bins of uniform throws, binned in passes of as many whole blocks as
    fit in loads.BLOCK_CELLS cells; only their maxima are returned.  Else a
    row is (a, b): the whole range is drawn first, 8 bytes a sample in int32,
    and one loads.bin_counts pass places the keys x at ((a*x + b) mod high)
    mod m by loads.hashed_bins.  A sample's max load and its pair count S2 =
    sum over bins of C(L, 2) = (sum of L^2 - n) / 2 come from the same
    counts, and its multiplier is its draw a.
    """
    dtype = int_type(high - 1)
    # One generator, set before each block to the state a fresh one keyed
    # (seed, j) starts in.  The key is explicit uint64: a list would go through
    # float64 for seeds >= 2^63 and merge neighbouring seeds into one stream.
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    fresh = bitgen.state
    gen = np.random.Generator(bitgen)

    def draw(first, last):
        parts = []
        for j in range(first, last):
            fresh["state"]["key"][1] = j
            bitgen.state = fresh
            rows = min(SAMPLES_PER_BLOCK, samples - j * SAMPLES_PER_BLOCK)
            parts.append(gen.integers(0, high, size=(rows, width), dtype=dtype))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    if keys is None:
        step = max(1, loads.BLOCK_CELLS // (SAMPLES_PER_BLOCK * max(width, m)))
        passes = (draw(j, min(j + step, hi_block)) for j in range(lo_block, hi_block, step))
        maxima = [max_loads(len(d), width, m, lambda lo, hi: d[lo:hi]) for d in passes]
        return (np.concatenate(maxima),)
    draws, n = draw(lo_block, hi_block), len(keys)
    top, squares = np.empty((2, len(draws)), dtype=np.int64)
    for lo, hi, counts in bin_counts(len(draws), n, m, hashed_bins(keys, high, m, *draws.T)):
        top[lo:hi] = counts.max(axis=1)
        squares[lo:hi] = np.einsum("ij,ij->i", counts, counts)
    return top, (squares - n) // 2, draws[:, 0]


def _sample_maxima(seed, samples, high, width, m, keys, workers):
    """Check samples and seed, then take the _block_maxima columns of samples 0..samples-1."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    validate_seed(seed)
    blocks = -(-samples // SAMPLES_PER_BLOCK)
    n = width if keys is None else len(keys)
    parts = map_chunks(
        _block_maxima, blocks, workers, samples * max(n, m), (seed, samples, high, width, m, keys)
    )
    return tuple(np.concatenate(column) for column in zip(*parts))


def _gram(columns: list[np.ndarray]) -> list[list[int]]:
    """Every dot product of the columns with one another, exactly, as Python ints.

    In int64 where no partial sum can reach 2^63, else in Python ints: nine
    pair counts of C(46340, 2) ~ 1.07e9, squared and summed, already would.
    """
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    top = max(int(np.abs(c).max(initial=0)) for c in columns)
    if len(columns[0]) * top * top < 2**63:
        # Dot product by dot product: a stacked (4, n) copy passes glibc's
        # 128 KiB mmap threshold from n = 4096 and faults in fresh pages.
        return [[int(u @ v) for v in columns] for u in columns]
    lists = [c.tolist() for c in columns]
    return [[sum(map(operator.mul, u, v)) for v in lists] for u in lists]


def _control_variate(maxima, runs, pairs, runs_mean, pairs_mean, index) -> np.ndarray:
    """Terms max_i - beta_R*(R_i - runs_mean) - beta_S*(S2_i - pairs_mean), cross-fitted.

    index holds each row's sample number.  The samples of even-numbered
    blocks take the least-squares slopes of max on (R, S2) over the
    odd-numbered blocks, and the reverse: the slopes are independent of the
    samples they correct, so the mean of the terms is unbiased.  They solve
    the normal equations of the fitting half by Cramer's rule in Python
    ints, each one correctly rounded division of exact integer sums, so they
    are the same on every platform.  Where that 2x2 system is singular the
    half fits R alone if R varies there, else S2 alone if it varies, else
    nothing.
    """
    terms = maxima.astype(float)
    odd = (index & SAMPLES_PER_BLOCK) != 0
    for own, other in ((~odd, odd), (odd, ~odd)):
        n = int(np.count_nonzero(other))
        g = _gram([np.ones(n, dtype=np.int64), runs[other], pairs[other], maxima[other]])
        # n times the centred sums of products; index 1 is R, 2 is S2, 3 the max.
        c = [[n * g[i][j] - g[0][i] * g[0][j] for j in range(4)] for i in range(4)]
        det = c[1][1] * c[2][2] - c[1][2] ** 2
        beta_r = beta_s = 0.0
        if det:
            beta_r = (c[1][3] * c[2][2] - c[2][3] * c[1][2]) / det
            beta_s = (c[1][1] * c[2][3] - c[1][2] * c[1][3]) / det
        elif c[1][1]:
            beta_r = c[1][3] / c[1][1]
        elif c[2][2]:
            beta_s = c[2][3] / c[2][2]
        terms[own] -= beta_r * (runs[own] - runs_mean) + beta_s * (pairs[own] - pairs_mean)
    return terms


def pair_collisions(mod: Modulus) -> int:
    """The (a, b) out of p^2 under which two distinct keys share a bin: (Q + 1)*p - Q*(m - q).

    Q = floor(p/m) and q = p mod m.  For keys x != y, as a runs over [p] so
    does d = a*(y - x), and each a*x + b runs over [p] with b; u and u + d
    share a bin for every u when d = 0, for the p - d values of u below the
    wrap when d = k*m, and for the d values above it when d = p - k*m,
    k = 1..Q.  So the count is the same for every pair, and sums to
    p + 2*Q*p - m*Q*(Q + 1).  It is oracles.count_interval_collision(mod, 2)
    in O(1), and E[S2] = C(n, 2) * pair_collisions(mod) / p^2 on n keys.
    """
    p, m = mod.p, mod.m
    whole, q = divmod(p, m)
    return (whole + 1) * p - whole * (m - q)


def _interval_pair_totals(mod: Modulus, n: int, a: np.ndarray) -> int:
    """The sum of S2 over every b and each multiplier a != 0 given, on the keys [n].

    The n - d pairs of keys d apart differ by s = a*d mod p in [p], and share
    a bin for p - s values of b when m divides s and for s values when m
    divides p - s, as in pair_collisions: O(n) per multiplier.
    """
    p, m = mod.p, mod.m
    d = np.arange(1, n, dtype=np.int64)
    # A multiplier's total is at most p*C(n, 2); past int64 it is taken in Python ints.
    weights = n - d if p * math.comb(n, 2) < 2**63 else (n - d).astype(object)
    total = 0
    # Blocks of multipliers of at most loads.BLOCK_CELLS cells.
    for rows in np.array_split(a, -(-len(a) * n // loads.BLOCK_CELLS) or 1):
        s = rows[:, None] * d % p
        per_pair = np.where(s % m == 0, p - s, 0) + np.where((p - s) % m == 0, s, 0)
        total += sum((per_pair @ weights).tolist())
    return total


def linear_stratum(
    mod: Modulus, key_set: KeySet, samples: int, n: int, counts: np.ndarray
) -> Stratum:
    """The exact stratum of mc_linear_maxload for this many samples, with its totals.

    key_set holds n keys, and counts = oracles.long_run_counts(mod).  a = 0
    puts every key in one bin for every b, so it adds p*n to the max total,
    p*C(n, 2) to the pair total and m to the run total.  On an Interval or
    AffineImage the stratum also holds every a with R(a) >= r0, where r0 is
    the smallest s >= 3 whose stratum, a = 0 included, has at most
    max(1, samples/128) members.  Their totals are those of [n] at the
    members, the h_{a,b} of an affine image being those of [n] at alpha*a.  oracles.maxload_total gives the max total of the
    members with k > 0 and _interval_pair_totals their pair total; each
    mirror p - a has the same totals, since [n] = (n - 1) - [n].
    """
    p, m = mod.p, mod.m
    zero = Stratum(None, 1, p * n, m, p * math.comb(n, 2))
    if not isinstance(key_set, (Interval, AffineImage)):
        return zero
    r0 = next(s for s in range(3, len(counts)) if 128 * (1 + 2 * counts[s]) <= max(128, samples))
    a, runs = long_run_multipliers(mod, r0)
    return Stratum(
        r0,
        1 + 2 * len(a),
        zero.max_total + 2 * maxload_total(p, m, range(n), a),
        m + 2 * int(runs.sum()),
        zero.pairs_total + 2 * _interval_pair_totals(mod, n, a),
    )


def mc_linear_maxload(
    mod: Modulus, key_set: KeySet, samples: int, seed: int, workers: int = 1
) -> McEstimate:
    """Estimate the expected max load under (a, b) drawn uniformly from [p]^2.

    Post-stratified on the multiplier: the multipliers of linear_stratum
    enter by their exact totals, and the samples outside it estimate the
    mean over the other p - |S| multipliers by the control-variate terms
    max_i - beta_R*(R(a_i) - E'[R]) - beta_S*(S2_i - E'[S2]) (see
    _control_variate).  R = oracles.multiplier_runs, taken at alpha*a mod p
    on an AffineImage, and S2 the sample's colliding-pair count.  Their
    means over the other multipliers are exact: E'[R] = (runs_total -
    sum_S R)/(p - |S|) and E'[S2] = (pairs_total - sum_S S2)/(p*(p - |S|)),
    with runs_total and pairs_total as in McEstimate.  The mean is
    sum_S max/p^2 + w*(mean of the terms), w = (p - |S|)/p, and the standard
    error w*sd/sqrt(number of terms).  w > 0, since |S| <= 1 + 2*C(3) < 1 + p/3
    (oracles.long_run_counts).  Where no sample lies outside the stratum the
    mean and standard error are those of the raw maxima.  The tail is that
    of the raw maxima.
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
    maxima, pairs, multipliers = _sample_maxima(seed, samples, p, 2, m, s, workers)
    if isinstance(key_set, AffineImage):
        multipliers = multipliers.astype(np.int64) * (key_set.alpha % p) % p
    counts = long_run_counts(mod)
    runs_total = multiplier_runs_total(mod, counts)
    pairs_total = math.comb(len(keys), 2) * pair_collisions(mod)
    runs = multiplier_runs(mod, multipliers)
    stratum = linear_stratum(mod, key_set, samples, len(keys), counts)
    exact = multipliers == 0
    if stratum.r0 is not None:
        exact |= runs >= stratum.r0
    rest = p - stratum.size
    index = np.flatnonzero(~exact)
    estimate = None
    if index.size:
        terms = _control_variate(
            maxima[index], runs[index], pairs[index],
            (runs_total - stratum.runs_total) / rest,
            (pairs_total - stratum.pairs_total) / (p * rest),
            index,
        )
        mean, std_error = _mean_se(terms)
        estimate = (stratum.max_total / p + rest * mean) / p, rest / p * std_error
    return _summarize(maxima, seed, estimate, runs_total, pairs_total, stratum)


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


# Coefficients below TAU at either end of a factor of fully_random_mean are dropped.
TAU = 2.0**-120
_ZERO = (0, np.zeros(1))


def _window(lo: int, c: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """z^lo c(z) cut at degree n, as (lowest degree, coefficients) with the
    leading and trailing coefficients below TAU dropped; _ZERO if none is left."""
    keep = np.flatnonzero(c[: max(0, n + 1 - lo)] >= TAU)
    return (lo + int(keep[0]), c[keep[0] : keep[-1] + 1]) if keep.size else _ZERO


def _product(x: tuple[int, np.ndarray], y: tuple[int, np.ndarray], n: int):
    """The window of the product of the windows x and y."""
    return _window(x[0] + y[0], np.convolve(x[1], y[1]), n)


def _power_coefficient(w: np.ndarray, m: int, n: int) -> float:
    """[z^n] w(z)^m for m >= 2, by repeated squaring of windows (_window).

    The last product gives only its degree-n coefficient, as a dot product.
    """
    result, square = None, _window(0, w, n)
    while m > 1:
        if m & 1:
            result = square if result is None else _product(result, square, n)
        m >>= 1
        if m == 1 and result is None:
            result = square
            break
        square = _product(square, square, n)
    return _coefficient_n(result[1], square[1], n - result[0] - square[0])


def fully_random_mean(m: int, balls: int) -> tuple[float, float]:
    """Expected max load of `balls` uniform throws into m bins, computed: (mean, bound).

    |mean - E[max load]| <= bound.  With n = balls and Y_1..Y_m iid
    Poisson(lam), the Y_i conditioned on Y_1 + ... + Y_m = n are the bin
    loads, so Pr[max <= t] = N(t) / N(n), where N(t) = [z^n] w_t(z)^m and w_t
    holds the weights w_k ~ lam^k / k! for k <= t.  A common factor of the
    weights and the value of lam cancel in that ratio, so w is built outward
    from its mode floor(n/m) by ratios of the float lam = n/m and then divided
    by its float sum.  N is taken by repeated squaring with np.convolve on
    windows: each factor keeps its degrees up to n, less the leading and
    trailing coefficients below TAU = 2^-120.  Its mass lies within
    O(sqrt(degree)) of its mean, so at m = n = 8192 no factor keeps more than
    1,132 of the n + 1 coefficients.  The mean is ceil(n/m) + sum over
    t >= ceil(n/m) of 1 - Pr[max <= t].

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
    - The dropped coefficients.  Cutting at degree n is exact, and dropping
      only removes non-negative mass.  S_j = w^(2^j) enters w^m
      floor(m/2^j) times and each partial product once, and every other
      factor sums to at most 1, so has coefficients at most 1: a coefficient
      dropped from S_j lowers [z^n] of the last product by at most m/2^j
      times itself.  With at most n + 1 coefficients below TAU dropped per
      window, N(t) and N(n) lose at most (2m + K)(n + 1) TAU <= D =
      4m(n + 1) TAU, the 4 over 2m + K <= 3m covering the rounding of what
      is compared with TAU, of the sum of w and of N(n).  So with
      delta = D / N(n) each Pr[max <= t] moves by at most
      delta / (1 - delta), and the sum by T delta / (1 - delta).
    The total, rel * sum Pr[max <= t] / (1 - rel) + gamma_(T + 2) * mean +
    tail + T delta / (1 - delta), is scaled by 1 + rel, which covers its own
    few roundings and the underflow.  `scaling` adds the rounding of the mean
    it writes.
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
    w = np.concatenate((down, [1.0], up))
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
    drop = 4 * m * (n + 1) * TAU / total
    bound = rel * at_most / (1 - rel) + _gamma(t - first + 2) * mean + tail
    bound += (t - first) * drop / (1 - drop)
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
