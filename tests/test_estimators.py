"""Monte Carlo estimators and exact fully-random baselines."""

import functools
import itertools
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from linbins import estimators, loads, oracles
from linbins.estimators import (
    _control_variate,
    _summarize,
    fully_random_mean,
    mc_fully_random_maxload,
    mc_linear_maxload,
    pair_collisions,
    scaling_study,
    tail_log_slope,
)
from linbins.field import MAX_MODULUS, Modulus, next_prime_at_least
from linbins.loads import AffineImage, Explicit, Interval, materialize
from linbins.oracles import (
    count_interval_collision,
    exact_maxload_histogram,
    multiplier_runs_total,
)
from reference import (
    _sample_rng,
    fully_random_exact_mean,
    literal_maxloads,
    literal_multiplier_runs,
    literal_pair_counts,
    max_load_distribution,
)

EXACT_MEANS = Path(__file__).resolve().parent.parent / "perfbench" / "refs" / "exact_means.json"


# The stream layout these tests pin: sample i is row i % 64 of a 64-row draw
# from the substream of block i // 64, also when the last block is partial.
BLOCK = 64


def sample_draw(seed, i, high, width):
    return _sample_rng(seed, i // BLOCK).integers(0, high, size=(BLOCK, width))[i % BLOCK]


def literal_linear_maxima(mod, key_set, samples, seed):
    """Per sample: take its (a, b) row from its block's draw, bin the keys, take the max.

    Returns the maxima and the (samples, 2) draws (a, b).
    """
    p, m = mod.p, mod.m
    s = np.asarray(materialize(key_set, mod), dtype=np.int64)
    maxima = np.empty(samples, dtype=np.int64)
    draws = np.empty((samples, 2), dtype=np.int64)
    for i in range(samples):
        a, b = draws[i] = sample_draw(seed, i, p, 2)
        maxima[i] = np.bincount((int(a) * s + int(b)) % p % m, minlength=m).max()
    return maxima, draws


def cross_fit(maxima, runs, pairs, runs_mean, pairs_mean, index=None):
    """Mean and SE of max_i - beta_R*(R_i - runs_mean) - beta_S*(S2_i - pairs_mean), in Fractions.

    index holds each row's sample number (0, 1, 2, ... if None).  Samples of
    even-numbered 64-sample blocks take the least-squares slopes of max on
    (R, S2) over the odd-numbered blocks, and the reverse.  Where R and S2
    are collinear on the fitting half the slopes are those of R alone if R
    varies there, of S2 alone if S2 varies, else 0.
    """
    n = len(maxima)
    index = range(n) if index is None else index
    y, r, s = ([int(v) for v in column] for column in (maxima, runs, pairs))
    halves = [[i for i in range(n) if index[i] // BLOCK % 2 == h] for h in (0, 1)]
    terms = [Fraction(v) for v in y]
    for own, other in ((halves[0], halves[1]), (halves[1], halves[0])):

        def cov(u, v):
            if not other:
                return Fraction(0)
            u_bar = Fraction(sum(u[i] for i in other), len(other))
            v_bar = Fraction(sum(v[i] for i in other), len(other))
            return sum((u[i] - u_bar) * (v[i] - v_bar) for i in other)

        rr, ss, rs, ry, sy = cov(r, r), cov(s, s), cov(r, s), cov(r, y), cov(s, y)
        det = rr * ss - rs**2
        beta_r = beta_s = Fraction(0)
        if det:
            beta_r, beta_s = (ry * ss - sy * rs) / det, (rr * sy - rs * ry) / det
        elif rr:
            beta_r = ry / rr
        elif ss:
            beta_s = sy / ss
        for i in own:
            terms[i] -= beta_r * (r[i] - runs_mean) + beta_s * (s[i] - pairs_mean)
    return plain_mean_se(terms)


def plain_mean_se(values):
    """The mean of the values in Fractions, and its standard error, 0 for fewer than two."""
    n = len(values)
    mean = sum(map(Fraction, values), Fraction(0)) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else Fraction(0)
    return mean, math.sqrt(var / n)


def literal_stratum(mod, ks, samples):
    """estimators.linear_stratum by the literal scans, and which multipliers it holds.

    Returns the Stratum and a test of membership at alpha*a.  On an
    Interval or AffineImage r0 is the smallest s >= 3 with 128*(1 + #{a != 0 :
    R(a) >= s}) <= max(128, samples), R by literal_multiplier_runs.  Where
    that leaves room for a = 0 alone, r0 is one past the longest run of any
    a != 0, which a = m has: min(m, floor(p/m)) by its pair (1, 1), and no
    scan of [p] is needed.  The members' totals come from literal_maxloads,
    literal_pair_counts and literal_multiplier_runs on [n], a = 0's from its
    one bin: p*n, p*C(n, 2) and m.
    """
    p, m = mod.p, mod.m
    n = len(materialize(ks, mod))
    if not isinstance(ks, (Interval, AffineImage)):
        return estimators.Stratum(None, 1, p * n, m, p * math.comb(n, 2)), lambda a, r: a == 0
    if 128 * 3 > max(128, samples):
        r0, members = max(3, 1 + int(literal_multiplier_runs(p, m, [m])[0])), []
    else:
        runs = literal_multiplier_runs(p, m)[1:]
        r0 = next(s for s in itertools.count(3)
                  if 128 * (1 + np.count_nonzero(runs >= s)) <= samples)
        members = (np.flatnonzero(runs >= r0) + 1).tolist()

    def total(reduction, *args):
        return int(reduction(p, m, *args, members).sum()) if members else 0

    stratum = estimators.Stratum(
        r0,
        1 + len(members),
        p * n + total(literal_maxloads, range(n)),
        m + total(literal_multiplier_runs),
        p * math.comb(n, 2) + total(literal_pair_counts, range(n)),
    )
    return stratum, lambda a, r: a == 0 or r >= r0


def check_linear_estimate(est, mod, ks, seed, maxima, draws):
    """est against a recomputation from its maxima and draws (a, b).

    The tail is that of the maxima, exactly; the stratum is literal_stratum,
    and the mean and standard error are those of the stratified estimate:
    sum_S max/p^2 + w*(mean of the cross-fitted terms of the samples outside
    S), with the literal R, at alpha*a on an affine image, the literal S2 and
    their exact means over the multipliers outside S; SE w*sd/sqrt(count).
    With no sample outside S they are the plain mean and SE of the maxima.
    All in Fractions, to within 1e-12 for float64 sums of at most a few
    thousand terms of order 1.  The covariates' totals are exact;
    test_pair_collisions_* check pair_collisions itself.
    """
    p, m = mod.p, mod.m
    keys = materialize(ks, mod)
    multipliers = [int(a) for a, _ in draws]
    if isinstance(ks, AffineImage):
        multipliers = [a * ks.alpha % p for a in multipliers]
    runs = literal_multiplier_runs(p, m, multipliers)
    a, b = np.asarray(draws, dtype=np.int64).T
    pairs = literal_pair_counts(p, m, keys, a, b)
    runs_total = multiplier_runs_total(mod, oracles.long_run_counts(mod))
    pairs_total = math.comb(len(keys), 2) * pair_collisions(mod)
    stratum, member = literal_stratum(mod, ks, len(maxima))
    index = [i for i, (a, r) in enumerate(zip(multipliers, runs)) if not member(a, r)]
    rest = p - stratum.size
    if index:
        mean, std_error = cross_fit(
            maxima[index], runs[index], pairs[index],
            Fraction(runs_total - stratum.runs_total, rest),
            Fraction(pairs_total - stratum.pairs_total, p * rest),
            index,
        )
        mean = Fraction(stratum.max_total, p * p) + Fraction(rest, p) * mean
        std_error *= rest / p
    else:
        mean, std_error = plain_mean_se(maxima.tolist())
    assert (est.samples, est.seed) == (len(maxima), seed)
    assert (est.runs_total, est.pairs_total, est.stratum) == (runs_total, pairs_total, stratum)
    assert est.tail == _summarize(maxima, seed).tail
    assert abs(est.mean - float(mean)) <= 1e-12
    assert abs(est.std_error - std_error) <= 1e-12


def literal_random_maxima(m, balls, samples, seed):
    """Per sample: take its row of throws from its block's draw, take the max."""
    maxima = np.empty(samples, dtype=np.int64)
    for i in range(samples):
        maxima[i] = np.bincount(sample_draw(seed, i, m, balls), minlength=m).max()
    return maxima


def test_estimators_check_inputs_before_any_block(monkeypatch):
    # Both estimators refuse a bad sample count or seed with one message, and
    # mc_linear_maxload a key set that does not fit [p], before any draw.
    blocks = []
    monkeypatch.setattr(estimators, "_block_maxima", lambda *a: blocks.append(a))
    mod = Modulus(257, 16)
    for estimate in (
        lambda samples, seed: mc_linear_maxload(mod, Interval(16), samples, seed),
        lambda samples, seed: mc_fully_random_maxload(16, 16, samples, seed),
    ):
        with pytest.raises(ValueError, match=r"^samples must be >= 1, got 0$"):
            estimate(0, 1)
        for seed in (-1, 2**64):
            message = f"^seed must be a 64-bit unsigned integer, got {seed}$"
            with pytest.raises(ValueError, match=message):
                estimate(10, seed)
    with pytest.raises(ValueError, match=r"^interval length 258 exceeds p=257$"):
        mc_linear_maxload(mod, Interval(258), 10, 1)
    with pytest.raises(ValueError, match=r"^samples must be >= 1, got 0$"):
        scaling_study([16, 64], samples=0, seed=0)
    assert blocks == []


def test_single_bin_is_deterministic():
    est = mc_linear_maxload(Modulus(13, 1), Interval(5), 50, 3)
    assert est.mean == 5.0
    assert est.std_error == 0.0
    assert est.tail == {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0}


def test_mc_linear_reproducible():
    args = (Modulus(257, 16), Interval(16), 2000, 42)
    assert mc_linear_maxload(*args) == mc_linear_maxload(*args)


def test_mc_linear_seed_independence():
    mod = Modulus(257, 16)
    first = mc_linear_maxload(mod, Interval(16), 4000, 10)
    second = mc_linear_maxload(mod, Interval(16), 4000, 11)
    combined = math.hypot(first.std_error, second.std_error)
    assert abs(first.mean - second.mean) <= 6 * combined


def test_mc_tail_properties(maxima_seen):
    est = mc_linear_maxload(Modulus(257, 16), Interval(16), 3000, 5)
    values = [est.tail[l] for l in sorted(est.tail)]
    assert sorted(est.tail) == list(range(1, max(est.tail) + 1))
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert est.tail[1] <= 1.0
    # The raw mean of an integer-valued max load is the sum of its tail; the
    # control-variate mean is not.
    assert abs(np.mean(maxima_seen[0]) - sum(values)) < 1e-9


def test_mc_linear_warns_below_m_squared():
    with pytest.warns(UserWarning):
        mc_linear_maxload(Modulus(13, 5), Interval(5), 5, 1)


def test_mc_linear_no_warning_at_m_squared():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mc_linear_maxload(Modulus(257, 16), Interval(16), 5, 1)


def test_fully_random_two_balls():
    est = mc_fully_random_maxload(2, 2, 4000, 9)
    assert abs(est.mean - 1.5) <= 3 * est.std_error
    est = mc_fully_random_maxload(2, 3, 4000, 9)
    assert abs(est.mean - 2.25) <= 3 * est.std_error


def test_fully_random_single_bin():
    est = mc_fully_random_maxload(1, 7, 100, 0)
    assert est.mean == 7.0
    assert est.std_error == 0.0


def test_fully_random_validation():
    with pytest.raises(ValueError):
        mc_fully_random_maxload(0, 3, 10, 0)
    with pytest.raises(ValueError):
        mc_fully_random_maxload(3, 0, 10, 0)
    with pytest.raises(ValueError):
        mc_fully_random_maxload(3, 3, 0, 0)
    with pytest.raises(ValueError):
        mc_fully_random_maxload(3, 3, 10, -1)
    with pytest.raises(ValueError):
        mc_fully_random_maxload(3, 3, 10, 2**64)


def test_sample_streams_distinct_above_2_63():
    # A list key went through float64 here, so these two seeds collided.
    high = _sample_rng(2**63, 0).integers(0, 2**62, size=4)
    next_up = _sample_rng(2**63 + 1, 0).integers(0, 2**62, size=4)
    assert not np.array_equal(high, next_up)
    top = _sample_rng(2**64 - 1, 5).integers(0, 2**62, size=4)
    assert not np.array_equal(top, _sample_rng(2**64 - 2, 5).integers(0, 2**62, size=4))


def test_sample_stream_unchanged_below_2_63():
    for seed, index in ((0, 0), (42, 7), (2**63 - 1, 123456)):
        legacy = np.random.Generator(np.random.Philox(key=[seed, index]))
        assert np.array_equal(
            _sample_rng(seed, index).integers(0, 2**62, size=4),
            legacy.integers(0, 2**62, size=4),
        )


def test_mc_linear_rejects_moduli_that_overflow_int64():
    # a*x wraps in int64 once p*max(key) >= 2^63; this run used to report
    # a mean of 2.793 where the exact arithmetic on the same draws gives 2.543.
    p = 4294967311
    with pytest.raises(ValueError, match="exceeds"):
        mc_linear_maxload(Modulus(p, 32), AffineImage(32, 3000000001, 5), 300, 1)
    # Modulus itself refuses the first prime past MAX_MODULUS.
    with pytest.raises(ValueError, match="exceeds"):
        mc_linear_maxload(Modulus(next_prime_at_least(MAX_MODULUS), 2), Interval(2), 1, 0)


def test_mc_linear_exact_at_largest_modulus(maxima_seen):
    p = 2147483647  # the largest prime below MAX_MODULUS
    mod, ks, samples, seed = Modulus(p, 32), AffineImage(32, p - 2, p - 1), 200, 1
    elements = materialize(ks, mod)
    maxima, draws = [], []
    for i in range(samples):
        a, b = (int(v) for v in sample_draw(seed, i, p, 2))
        bins = [(a * x + b) % p % 32 for x in elements]
        maxima.append(max(bins.count(j) for j in range(32)))
        draws.append((a, b))
    est = mc_linear_maxload(mod, ks, samples, seed)
    assert maxima_seen == [maxima]
    check_linear_estimate(est, mod, ks, seed, np.array(maxima), draws)


@pytest.mark.parametrize("ks,dtype", [(Interval(1), np.int32), (Interval(2), np.int64)])
def test_mc_linear_hash_type_at_largest_modulus(monkeypatch, ks, dtype):
    # a*x + b reaches (p - 1)*(max key + 1): 2^31 - 2 on [1], which int32
    # holds, and 2^32 - 4 on [2], which it does not.
    p, m, samples, seed = 2147483647, 32, 100, 4
    mod = Modulus(p, m)
    placed = []
    real = estimators.bin_counts

    def recording(rows, n, m, bins_of):
        placed.append(bins_of(0, rows))
        return real(rows, n, m, bins_of)

    monkeypatch.setattr(estimators, "bin_counts", recording)
    mc_linear_maxload(mod, ks, samples, seed)
    bins = np.concatenate(placed)
    assert bins.dtype == dtype
    draws = (map(int, sample_draw(seed, i, p, 2)) for i in range(samples))
    elements = materialize(ks, mod)
    assert bins.tolist() == [[(a * x + b) % p % m for x in elements] for a, b in draws]


def test_generator_name_records_block_layout():
    assert estimators.GENERATOR_NAME == f"philox4x64/block{BLOCK}"
    assert estimators.SAMPLES_PER_BLOCK == BLOCK


# Rows per max-load block: None keeps the default block size.
STREAM_BLOCKS = (None, 7)


@pytest.fixture
def maxima_seen(monkeypatch):
    """Per-sample maxima, in sample order, that each estimate summarises."""
    seen = []

    def recording(maxima, seed, *rest):
        seen.append(maxima.tolist())
        return _summarize(maxima, seed, *rest)

    monkeypatch.setattr(estimators, "_summarize", recording)
    return seen


@pytest.mark.parametrize("block_rows", STREAM_BLOCKS)
@pytest.mark.parametrize(
    "mod,ks,samples",
    [
        (Modulus(257, 16), Interval(16), 2500),
        (Modulus(13, 1), Interval(5), 40),
        (Modulus(577, 24), AffineImage(24, 77, 5), 1100),
        (Modulus(1031, 32), Explicit((0, 3, 4, 10, 515, 1030)), 300),
        (Modulus(257, 16), Interval(16), 1),
        (Modulus(577, 24), AffineImage(24, 77, 5), 63),
        (Modulus(1031, 32), Explicit((0, 3, 4, 10, 515, 1030)), 64),
        (Modulus(257, 16), Interval(16), 65),
        (Modulus(1048583, 1024), Interval(1024), 130),
    ],
)
def test_mc_linear_stream_locked(monkeypatch, maxima_seen, block_rows, mod, ks, samples):
    seed = 2**63 + 5
    if block_rows is not None:
        width = max(len(materialize(ks, mod)), mod.m)
        monkeypatch.setattr(loads, "BLOCK_CELLS", block_rows * width)
    expected, draws = literal_linear_maxima(mod, ks, samples, seed)
    est = mc_linear_maxload(mod, ks, samples, seed)
    assert maxima_seen == [expected.tolist()]
    check_linear_estimate(est, mod, ks, seed, expected, draws)


@pytest.mark.parametrize("block_rows", STREAM_BLOCKS)
@pytest.mark.parametrize(
    "m,balls,samples",
    [
        (16, 16, 2500),
        (1, 7, 40),
        (5, 12, 300),
        (40, 9, 300),
        (16, 16, 1),
        (5, 12, 63),
        (40, 9, 64),
        (16, 16, 65),
        (1024, 1024, 130),
        # Power-of-two m, where Lemire's method never rejects; an odd last
        # block leaves half of its last 64-bit word in the generator's
        # buffer, which re-keying for the next block must drop.
        (16, 9, 65),
        (2, 3, 65),
        (2, 2, 130),
    ],
)
def test_mc_fully_random_stream_locked(monkeypatch, maxima_seen, block_rows, m, balls, samples):
    if block_rows is not None:
        monkeypatch.setattr(loads, "BLOCK_CELLS", block_rows * max(balls, m))
    expected = literal_random_maxima(m, balls, samples, 3)
    assert mc_fully_random_maxload(m, balls, samples, 3) == _summarize(expected, 3)
    assert maxima_seen == [expected.tolist()]


def block_by_block_columns(seed, samples, p, m, keys):
    """The linear sampler's maxima, pair counts and multipliers, one 64-sample block at a time.

    Each block is drawn from a fresh generator keyed (seed, j), hashed with %
    and counted by one bincount; S2 is summed as C(L, 2) over the bins.
    """
    columns = []
    for j in range(-(-samples // BLOCK)):
        rows = min(BLOCK, samples - j * BLOCK)
        a, b = _sample_rng(seed, j).integers(0, p, size=(rows, 2)).T
        codes = (a[:, None] * keys + b[:, None]) % p % m + m * np.arange(rows)[:, None]
        counts = np.bincount(codes.ravel(), minlength=rows * m).reshape(rows, m)
        columns.append((counts.max(axis=1), (counts * (counts - 1) // 2).sum(axis=1), a))
    return [np.concatenate(column) for column in zip(*columns)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("samples", [10001, 64 * 157 + 1])
@pytest.mark.parametrize("m", [16, 24, 1000])
def test_one_pass_sampler_matches_block_by_block(monkeypatch, workers, samples, m):
    # Each range of sample blocks is drawn whole and binned in one bin_counts
    # pass; both sample counts end on a partial block, and at two workers a
    # forced pool splits the blocks between two ranges.
    monkeypatch.setattr(oracles, "_MIN_PARALLEL_WORK", 0)
    monkeypatch.setattr(oracles, "_available_cores", lambda: 2)
    passes = []
    real = estimators.bin_counts

    def recording(rows, n, m, bins_of):
        passes.append(rows)
        return real(rows, n, m, bins_of)

    monkeypatch.setattr(estimators, "bin_counts", recording)
    p, seed = next_prime_at_least(m * m), 2**63 + 7
    keys = np.arange(m, dtype=np.int32)
    columns = estimators._sample_maxima(seed, samples, p, 2, m, keys, workers)
    expected = block_by_block_columns(seed, samples, p, m, keys.astype(np.int64))
    assert [c.tolist() for c in columns] == [c.tolist() for c in expected]
    # A pool's workers bin in their own processes.
    assert passes == ([samples] if workers == 1 else [])


def test_mc_samples_are_prefix_stable(maxima_seen):
    mod, ks = Modulus(577, 24), AffineImage(24, 77, 5)
    mc_linear_maxload(mod, ks, 100, 8)
    mc_linear_maxload(mod, ks, 130, 8)
    mc_fully_random_maxload(40, 9, 100, 8)
    mc_fully_random_maxload(40, 9, 130, 8)
    linear_short, linear_long, random_short, random_long = maxima_seen
    assert linear_long[:100] == linear_short
    assert random_long[:100] == random_short


def test_mc_independent_of_workers(monkeypatch, maxima_seen):
    # Zero threshold: every worker count above one forks a pool.  200 samples
    # are four blocks, the last partial, so three workers get unequal shares.
    # Four notional cores keep the pool cap from merging the three shares.
    monkeypatch.setattr(oracles, "_MIN_PARALLEL_WORK", 0)
    monkeypatch.setattr(oracles, "_available_cores", lambda: 4)
    pools = []

    class CountingPool(oracles.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(oracles, "ProcessPoolExecutor", CountingPool)
    args = (Modulus(577, 24), Interval(24), 200, 2**64 - 1)
    linear = [mc_linear_maxload(*args, workers=w) for w in (1, 2, 3)]
    random = [mc_fully_random_maxload(24, 30, 200, 5, workers=w) for w in (1, 2, 3)]
    assert linear[0] == linear[1] == linear[2]
    assert random[0] == random[1] == random[2]
    assert pools == [2, 3, 2, 3]
    assert maxima_seen[0] == maxima_seen[1] == maxima_seen[2]
    assert maxima_seen[3] == maxima_seen[4] == maxima_seen[5]
    assert maxima_seen[0] == literal_linear_maxima(*args)[0].tolist()


def test_max_load_distribution_small_cases():
    assert max_load_distribution(2, 2) == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert max_load_distribution(2, 3) == {2: Fraction(3, 4), 3: Fraction(1, 4)}
    assert max_load_distribution(3, 3) == {
        1: Fraction(2, 9),
        2: Fraction(2, 3),
        3: Fraction(1, 9),
    }
    assert sum(max_load_distribution(5, 7).values()) == 1


def test_max_load_distribution_guards():
    with pytest.raises(ValueError):
        max_load_distribution(0, 3)
    with pytest.raises(ValueError):
        max_load_distribution(65, 3)
    with pytest.raises(ValueError):
        max_load_distribution(3, 0)


def test_fully_random_exact_mean_values():
    assert fully_random_exact_mean(2, 2) == Fraction(3, 2)
    assert fully_random_exact_mean(2, 3) == Fraction(9, 4)
    sixteen = fully_random_exact_mean(16, 16)
    assert sixteen == Fraction(221811058069429981, 72057594037927936)
    assert abs(float(fully_random_exact_mean(32, 32)) - 3.532940993) < 1e-8


@pytest.mark.parametrize(
    "m, balls",
    [(m, m) for m in range(1, 33)] + [(2, 3), (3, 7), (5, 2), (7, 20), (32, 5), (4, 40)],
)
def test_fully_random_mean_within_its_bound(m, balls):
    mean, bound = fully_random_mean(m, balls)
    assert abs(Fraction(mean) - fully_random_exact_mean(m, balls)) <= Fraction(bound)
    assert bound < 1e-9


def test_fully_random_mean_at_64_within_its_bound():
    # The Fraction of the dynamic program at m = 64, which takes seconds.
    exact = Fraction(json.loads(EXACT_MEANS.read_text())["fully_random"]["64"])
    mean, bound = fully_random_mean(64, 64)
    assert abs(Fraction(mean) - exact) <= Fraction(bound) < 1e-9


def test_fully_random_mean_stops_on_the_union_bound(monkeypatch):
    # The sum stops once the union bound on the terms left out is below one
    # threshold's rounding error: 15 thresholds and N(n).  A rule that never
    # fires early would evaluate every t up to n - 1 = 2047.
    thresholds = []
    power = estimators._power_coefficient

    def record(w, m, n):
        thresholds.append(len(w) - 1)
        return power(w, m, n)

    monkeypatch.setattr(estimators, "_power_coefficient", record)
    mean, bound = fully_random_mean(2048, 2048)
    assert len(thresholds) <= 25, thresholds
    assert abs(mean - 5.883531507) < 1e-9 and bound < 1e-9


def recorded_mean(monkeypatch, m, balls):
    """fully_random_mean(m, balls) with N(n) and each evaluated (t, N(t))."""
    calls = []
    power = estimators._power_coefficient

    def record(w, m, n):
        calls.append((len(w) - 1, power(w, m, n)))
        return calls[-1][1]

    monkeypatch.setattr(estimators, "_power_coefficient", record)
    mean, bound = fully_random_mean(m, balls)
    (_, total), *thresholds = calls
    return mean, bound, total, thresholds


def threshold_error(m, n):
    """rel = gamma_(2c + 1) of fully_random_mean's docstring, exactly."""
    c = 4 * n + m + (m.bit_length() - 1 + bin(m).count("1") - 1) * (n + 1)
    k = 2 * c + 1
    return Fraction(k, 2**53 - k)


def union_tail(m, n, t):
    """m Pr[X = t + 1] / (1 - rho)^2, X ~ Bin(n, 1/m): the docstring's bound on
    sum over s >= t of Pr[max > s], or None where rho >= 1."""
    rho = Fraction(n - t - 1, (t + 2) * (m - 1))
    if rho >= 1:
        return None
    return m * math.comb(n, t + 1) * Fraction(m - 1) ** (n - t - 1) / m**n / (1 - rho) ** 2


def union_stop(m, n):
    """The first t >= ceil(n/m) whose union tail is at most rel."""
    t, rel = -(-n // m), threshold_error(m, n)
    while (tail := union_tail(m, n, t)) is None or tail > rel:
        t += 1
    return t


@functools.lru_cache(maxsize=None)
def exact_cdf(m, balls):
    """Pr[max <= t] for t = 0..balls, Fractions of the dynamic program."""
    dist = max_load_distribution(m, balls)
    return list(itertools.accumulate(dist.get(t, Fraction(0)) for t in range(balls + 1)))


# (m, balls) where each term of the bound is checked on its own.
TERM_CASES = [(m, m) for m in (2, 3, 5, 8, 12, 16, 24, 32)] + [(3, 7), (7, 20), (4, 40)]


@pytest.mark.parametrize(
    "m, balls", TERM_CASES + [(64, 64), (100, 100), (1024, 1024), (32, 5)]
)
def test_fully_random_mean_stops_at_the_union_bound_rule(monkeypatch, m, balls):
    # Thresholds ceil(n/m), ..., stop - 1 are evaluated, stop by the rule in exact arithmetic.
    *_, thresholds = recorded_mean(monkeypatch, m, balls)
    assert [t for t, _ in thresholds] == list(range(-(-balls // m), union_stop(m, balls)))


@pytest.mark.parametrize("m, balls", TERM_CASES)
def test_fully_random_mean_tail_term_covers_the_omitted_tail(monkeypatch, m, balls):
    # The sum stops at t; the terms Pr[max > s], s >= t, it leaves out are
    # covered by the union tail, and the bound holds both that tail and
    # rel * sum Pr[max <= s] over the evaluated thresholds s.
    _, bound, _, thresholds = recorded_mean(monkeypatch, m, balls)
    cdf = exact_cdf(m, balls)
    stop = thresholds[-1][0] + 1 if thresholds else -(-balls // m)
    omitted = sum(1 - cdf[s] for s in range(stop, balls))
    tail = union_tail(m, balls, stop)
    assert omitted <= tail
    rel = threshold_error(m, balls)
    assert rel * sum(cdf[s] for s, _ in thresholds) + tail <= Fraction(bound)


@pytest.mark.parametrize("m, balls", [c for c in TERM_CASES if c[0] <= 16])
def test_fully_random_mean_float_term_covers_each_threshold(monkeypatch, m, balls):
    # Each N(t)/N(n) is within relative rel of the exact Pr[max <= t].
    _, _, total, thresholds = recorded_mean(monkeypatch, m, balls)
    cdf = exact_cdf(m, balls)
    rel = threshold_error(m, balls)
    for t, n_t in thresholds:
        assert abs(Fraction(n_t / total) - cdf[t]) <= rel * cdf[t], t


# repr of fully_random_mean(m, m)[0] before the squaring kept windows, when
# every product kept all n + 1 coefficients (Python 3.11.7, numpy 2.4.6).
UNTRIMMED_MEANS = {
    1024: 5.52617631703278,
    2048: 5.883531507450263,
    4096: 6.24788088086923,
    8192: 6.577319925026824,
    16384: 6.9191665080589,
}


@pytest.mark.parametrize("m", sorted(UNTRIMMED_MEANS))
def test_fully_random_mean_windows_agree_with_the_untrimmed_squaring(m):
    mean, bound = fully_random_mean(m, m)
    assert abs(mean - UNTRIMMED_MEANS[m]) <= bound + 1e-11


def dropped_coefficients(monkeypatch):
    """A list that counts, in its one entry, the coefficients _window drops below TAU."""
    dropped = [0]
    window = estimators._window

    def record(lo, c, n):
        out = window(lo, c, n)
        kept = 0 if out is estimators._ZERO else len(out[1])
        dropped[0] += len(c[: max(0, n + 1 - lo)]) - kept
        return out

    monkeypatch.setattr(estimators, "_window", record)
    return dropped


@pytest.mark.parametrize("m, balls, drops", [(16, 64, True), (36, 34, True), (64, 16, False)])
def test_fully_random_mean_within_its_bound_where_windows_drop(monkeypatch, m, balls, drops):
    # Against the Fraction dynamic program where n != m.  At (16, 64) and
    # (36, 34) the windows drop coefficients below TAU; at (64, 16) the
    # smallest weight, (1/4)^16/16! relative to the mode, is far above it.
    dropped = dropped_coefficients(monkeypatch)
    mean, bound = fully_random_mean(m, balls)
    assert abs(Fraction(mean) - fully_random_exact_mean(m, balls)) <= Fraction(bound) < 1e-9
    assert (dropped[0] > 0) == drops


def test_fully_random_mean_convolves_windows(monkeypatch):
    # At m = 8192 every factor is a window around its mean, not a product of
    # all n + 1 coefficients: the longest convolution input is 1,132.
    lengths = []
    convolve = np.convolve

    def record(a, b):
        lengths.extend((len(a), len(b)))
        return convolve(a, b)

    monkeypatch.setattr(estimators.np, "convolve", record)
    fully_random_mean(8192, 8192)
    assert lengths and max(lengths) < (8192 + 1) / 2


def test_fully_random_mean_validates():
    assert fully_random_mean(1, 7) == (7.0, 0.0)
    with pytest.raises(ValueError):
        fully_random_mean(0, 3)
    with pytest.raises(ValueError):
        fully_random_mean(3, 0)


def test_fully_random_calibrated_against_exact():
    for m in (4, 16):
        exact = float(fully_random_exact_mean(m, m))
        est = mc_fully_random_maxload(m, m, 20000, 17)
        assert abs(est.mean - exact) <= 4 * est.std_error, m


def test_linear_calibrated_against_exact_histogram():
    mod = Modulus(257, 16)
    hist = exact_maxload_histogram(mod, Interval(16), b_mode="all_b")
    total = sum(hist.values())
    exact = sum(load * count for load, count in hist.items()) / total
    est = mc_linear_maxload(mod, Interval(16), 20000, 7)
    assert abs(est.mean - exact) <= 4 * est.std_error


# ROADMAP item 1's exact totals of the max load over every (a, b) on [m],
# p = nextprime(m^2).
EXACT_LINEAR_TOTALS = [(16, 257, 167982), (32, 1031, 2797652), (64, 4099, 45349020),
                       (128, 16411, 736658620)]


@pytest.mark.parametrize("m,p,total", EXACT_LINEAR_TOTALS)
def test_mc_linear_control_variate_within_4se_of_exact(maxima_seen, m, p, total):
    # Unbiased: within 4 SE of the exact mean.  Effective: at most a quarter
    # of the plain SE of the same samples (a fifth to an eighth with R and
    # S2; R alone gives a third at m = 16).
    est = mc_linear_maxload(Modulus(p, m), Interval(m), 10_000, 12345)
    assert abs(est.mean - total / p**2) <= 4 * est.std_error
    plain = np.std(maxima_seen[0], ddof=1) / math.sqrt(10_000)
    assert est.std_error <= plain / 4


def test_mc_linear_calibrated_over_seeds():
    # The stratified SE is calibrated: over 50 seeds of 2,000 samples the
    # z-scores against the exact mean spread like a standard normal's.
    mod = Modulus(257, 16)
    exact = 167982 / 257**2
    z = [(est.mean - exact) / est.std_error
         for est in (mc_linear_maxload(mod, Interval(16), 2000, seed) for seed in range(50))]
    assert 0.8 <= np.std(z, ddof=1) <= 1.2
    assert max(map(abs, z)) <= 4.5


def test_mc_linear_control_variate_on_an_affine_image(maxima_seen):
    # R taken at alpha*a: the image of [24] has the max loads of [24] under
    # (alpha*a, a*beta + b), so the control variate is as effective as on
    # the interval (R at a gives 0.00323 against the interval's 0.00289), and
    # its mean within 4 SE of the interval's exact mean.
    mod = Modulus(577, 24)
    hist = exact_maxload_histogram(mod, Interval(24), b_mode="all_b")
    exact = Fraction(sum(load * count for load, count in hist.items()), mod.p**2)
    est = mc_linear_maxload(mod, AffineImage(24, 77, 5), 10_000, 12345)
    assert abs(est.mean - float(exact)) <= 4 * est.std_error
    plain = np.std(maxima_seen[0], ddof=1) / math.sqrt(10_000)
    assert est.std_error <= plain / 4
    assert est.std_error <= 1.05 * mc_linear_maxload(mod, Interval(24), 10_000, 12345).std_error


@pytest.mark.parametrize("p", [2, 3, 13, 31, 257])
def test_pair_collisions_match_the_interval_counter(p):
    for m in range(1, p + 1):
        mod = Modulus(p, m)
        assert pair_collisions(mod) == count_interval_collision(mod, 2), m


@pytest.mark.parametrize(
    "p,m,ks",
    [
        (13, 3, Interval(13)),
        (13, 1, Interval(5)),
        (13, 13, Interval(13)),
        (13, 4, Interval(1)),
        (31, 5, AffineImage(7, 12, 30)),
        (31, 31, AffineImage(4, 3, 1)),
        (31, 6, Explicit((0, 1, 5, 17, 29, 30))),
        (29, 1, Explicit((3, 28))),
        (257, 16, Interval(16)),
    ],
)
@pytest.mark.filterwarnings("ignore:p=.* is below m")
def test_pair_counts_sum_to_their_exact_mean(p, m, ks):
    # Summed over every (a, b), the colliding-pair count S2 of n distinct
    # keys is C(n, 2) times the count for one pair, whatever the keys.
    mod = Modulus(p, m)
    keys = materialize(ks, mod)
    total = int(literal_pair_counts(p, m, keys, range(p)).sum())
    assert total == math.comb(len(keys), 2) * pair_collisions(mod)
    assert mc_linear_maxload(mod, ks, 1, 0).pairs_total == total


@pytest.mark.parametrize(
    "mod,ks,samples,r0,size",
    [
        (Modulus(257, 16), Interval(16), 10_000, 3, 53),
        (Modulus(257, 16), Interval(16), 2000, 5, 15),
        (Modulus(577, 24), Interval(24), 10_000, 4, 59),
        (Modulus(577, 24), AffineImage(24, 77, 5), 10_000, 4, 59),
        (Modulus(577, 24), Interval(24), 383, 25, 1),
        (Modulus(331, 12), Interval(9), 5000, 4, 27),
        (Modulus(13, 1), Interval(5), 1000, 3, 1),
        (Modulus(1031, 32), Explicit((0, 3, 4, 10, 515, 1030)), 10_000, None, 1),
    ],
)
def test_linear_stratum_matches_the_literal_totals(mod, ks, samples, r0, size):
    # The r0 rule, the member count and the three totals against the literal
    # scans; an affine image's are its interval's.
    n = len(materialize(ks, mod))
    stratum = estimators.linear_stratum(mod, ks, samples, n, oracles.long_run_counts(mod))
    assert (stratum.r0, stratum.size) == (r0, size)
    assert stratum.size <= max(1, samples / 128)
    assert stratum == literal_stratum(mod, ks, samples)[0]
    if r0 is not None:
        # sum_S R is m plus twice multiplier_runs on the listed half.
        half, _ = oracles.long_run_multipliers(mod, r0)
        assert stratum.runs_total == mod.m + 2 * int(oracles.multiplier_runs(mod, half).sum())


def test_interval_pair_totals_past_int64():
    # At p = 2^31 - 1 the bound p*C(n, 2) on a multiplier's pair total on
    # [100000] passes 2^63, so the closed form is summed in Python ints.
    p, m, n = 2147483647, 32, 100_000
    assert p * math.comb(n, 2) >= 2**63
    a = [1, 32, p - 1, 12345]
    expected = 0
    for x in a:
        for d in range(1, n):
            s = x * d % p
            expected += (n - d) * ((p - s) * (s % m == 0) + s * ((p - s) % m == 0))
    assert expected >= 2**63
    assert estimators._interval_pair_totals(Modulus(p, m), n, np.array(a)) == expected


def test_mc_linear_with_every_sample_in_the_stratum(maxima_seen):
    # Seed 437 draws a = 0 first: the one sample lies in the stratum {0}, so
    # nothing estimates the other multipliers, and the mean and SE are those
    # of the raw maxima.
    mod = Modulus(257, 16)
    assert sample_draw(437, 0, 257, 2)[0] == 0
    est = mc_linear_maxload(mod, Interval(16), 1, 437)
    assert (est.mean, est.std_error, est.tail) == (16.0, 0.0, {l: 1.0 for l in range(1, 17)})
    assert est.stratum == estimators.Stratum(17, 1, 257 * 16, 16, 257 * 120)
    assert maxima_seen == [[16]]


@pytest.mark.parametrize("ks", [Interval(16), Explicit((0, 1, 5, 17, 100, 256))])
def test_mc_linear_takes_a_zero_exactly(maxima_seen, ks):
    # Seed 2 draws a = 0 at sample 55 of 100.  At 100 samples the stratum is
    # {0}: on [16] r0 = 17 lies past R(0) = 16, so only the test a = 0 drops
    # that sample from the cross-fit.
    mod = Modulus(257, 16)
    maxima, draws = literal_linear_maxima(mod, ks, 100, 2)
    assert np.flatnonzero(draws[:, 0] == 0).tolist() == [55]
    est = mc_linear_maxload(mod, ks, 100, 2)
    assert est.stratum.size == 1 and est.stratum.r0 in (17, None)
    check_linear_estimate(est, mod, ks, 2, maxima, draws)


def test_mc_linear_stratum_independent_of_workers(monkeypatch):
    # 1,000 samples leave a stratum of 7 multipliers, and the samples drawn
    # there drop out of the cross-fit; any pool split gives the same estimate.
    monkeypatch.setattr(oracles, "_MIN_PARALLEL_WORK", 0)
    monkeypatch.setattr(oracles, "_available_cores", lambda: 4)
    mod, ks = Modulus(577, 24), Interval(24)
    linear = [mc_linear_maxload(mod, ks, 1000, 9, workers=w) for w in (1, 2, 3)]
    assert linear[0] == linear[1] == linear[2]
    assert linear[0].stratum.size == 7
    maxima, draws = literal_linear_maxima(mod, ks, 1000, 9)
    runs = literal_multiplier_runs(mod.p, mod.m, draws[:, 0])
    assert np.count_nonzero((draws[:, 0] == 0) | (runs >= linear[0].stratum.r0)) > 0
    check_linear_estimate(linear[0], mod, ks, 9, maxima, draws)


@pytest.mark.parametrize("ks", [Interval(24), AffineImage(24, 77, 5), Explicit((0, 3, 4, 10))])
def test_mc_linear_counts_long_runs_and_keys_once(monkeypatch, ks):
    # One call takes long_run_counts once, for the run total and the stratum
    # alike, and builds the key set once.
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for module in (estimators, oracles):
        for name in ("long_run_counts", "materialize"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    mc_linear_maxload(Modulus(577, 24), ks, 1000, 9)
    assert sorted(calls) == ["long_run_counts", "materialize"]


def synthetic_fit(maxima, runs, pairs, runs_mean, pairs_mean):
    """_control_variate's terms against the Fraction recomputation cross_fit."""
    terms = _control_variate(
        np.asarray(maxima), np.asarray(runs), np.asarray(pairs),
        float(runs_mean), float(pairs_mean), np.arange(len(maxima)),
    )
    mean, std_error = cross_fit(maxima, runs, pairs, runs_mean, pairs_mean)
    assert abs(terms.mean() - float(mean)) <= 1e-12
    assert abs(terms.std(ddof=1) / math.sqrt(len(terms)) - std_error) <= 1e-12
    return terms


def test_control_variate_exact_where_int64_sums_would_wrap():
    # Pair counts up to C(46340, 2) ~ 1.07e9: their squares summed over a
    # half of 128 samples pass 2^63, so the normal equations are formed in
    # Python ints.
    rng = np.random.default_rng(5)
    top = math.comb(46340, 2)
    runs = rng.integers(1, 40, 256)
    pairs = np.where(rng.random(256) < 0.5, top - rng.integers(0, 1000, 256),
                     rng.integers(0, top, 256))
    maxima = 2 + runs // 8 + pairs // (top // 3) + rng.integers(0, 2, 256)
    assert 128 * int(pairs.max()) ** 2 >= 2**63
    terms = synthetic_fit(maxima, runs, pairs, Fraction(41, 3), Fraction(top, 2))
    # Both slopes are fitted: the terms vary less than the maxima.
    assert terms.std() < maxima.std() / 2


@pytest.mark.parametrize(
    "runs,pairs",
    [
        (lambda i: 3, lambda i: i % 7),  # R constant: S2 alone
        (lambda i: i % 5, lambda i: 6),  # S2 constant, as on one key: R alone
        (lambda i: i % 5, lambda i: 2 * (i % 5) + 1),  # collinear: R alone
        (lambda i: 1, lambda i: 0),  # neither varies: the plain maxima
    ],
    ids=["r-constant", "s2-constant", "collinear", "neither-varies"],
)
def test_control_variate_singular_fits(runs, pairs):
    n = 200
    maxima = [2 + (i * 7 % 11) // 4 for i in range(n)]
    r, s = [runs(i) for i in range(n)], [pairs(i) for i in range(n)]
    terms = synthetic_fit(maxima, r, s, Fraction(5, 2), Fraction(7, 4))
    if len(set(r)) == len(set(s)) == 1:
        assert terms.tolist() == maxima


def test_scaling_study_shape():
    rows = scaling_study([2, 4], samples=500, seed=99)
    assert [r.m for r in rows] == [2, 4]
    assert [r.p for r in rows] == [5, 17]
    for r in rows:
        assert 1.0 <= r.linear.mean <= r.m
        assert r.random == fully_random_mean(r.m, r.m)
        assert r.linear.samples == 500
    with pytest.raises(ValueError):
        scaling_study([1], samples=10, seed=0)


@pytest.mark.parametrize("m_values", [[16, 1], [16, 46341]])
def test_scaling_study_validates_every_m_before_sampling(monkeypatch, m_values):
    # nextprime(46341^2) is above MAX_MODULUS.
    calls = []
    monkeypatch.setattr(estimators, "mc_linear_maxload", lambda *a: calls.append(a))
    monkeypatch.setattr(estimators, "fully_random_mean", lambda *a: calls.append(a))
    with pytest.raises(ValueError):
        scaling_study(m_values, samples=20000, seed=0)
    assert calls == []


@pytest.mark.parametrize("m_values", [[64, 16], [16, 16]])
def test_scaling_study_refuses_m_values_not_increasing(monkeypatch, m_values):
    # The report reads the last m as the largest and compares neighbours.
    calls = []
    monkeypatch.setattr(estimators, "mc_linear_maxload", lambda *a: calls.append(a))
    monkeypatch.setattr(estimators, "fully_random_mean", lambda *a: calls.append(a))
    message = f"^scaling study needs increasing m values, got 16 after {m_values[0]}$"
    with pytest.raises(ValueError, match=message):
        scaling_study(m_values, samples=200, seed=0)
    assert calls == []


def test_scaling_study_wraps_derived_seeds():
    rows = scaling_study([2, 4], samples=20, seed=2**64 - 2)
    assert [r.linear.seed for r in rows] == [2**64 - 2, 0]
    with pytest.raises(ValueError):
        scaling_study([2], samples=20, seed=-1)
    with pytest.raises(ValueError):
        scaling_study([2], samples=20, seed=2**64)


def test_tail_log_slope_recovers_quadratic_decay():
    tail = {l: l**-2.0 for l in range(1, 11)}
    slope = tail_log_slope(tail, samples=10**6)
    assert abs(slope + 2.0) < 1e-9
    assert tail_log_slope({1: 1.0, 2: 0.5}, samples=100) is None
