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
    _summarize,
    fully_random_mean,
    mc_fully_random_maxload,
    mc_linear_maxload,
    scaling_study,
    tail_log_slope,
)
from linbins.field import MAX_MODULUS, Modulus, next_prime_at_least
from linbins.loads import AffineImage, Explicit, Interval, materialize
from linbins.oracles import exact_maxload_histogram, multiplier_runs_total
from reference import (
    _sample_rng,
    fully_random_exact_mean,
    literal_multiplier_runs,
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

    Returns the maxima and the multipliers a.
    """
    p, m = mod.p, mod.m
    s = np.asarray(materialize(key_set, mod), dtype=np.int64)
    maxima = np.empty(samples, dtype=np.int64)
    multipliers = np.empty(samples, dtype=np.int64)
    for i in range(samples):
        a, b = sample_draw(seed, i, p, 2)
        maxima[i] = np.bincount((int(a) * s + int(b)) % p % m, minlength=m).max()
        multipliers[i] = a
    return maxima, multipliers


def cross_fit(maxima, runs, runs_mean):
    """Mean and standard error of max_i - beta*(R_i - runs_mean), in Fractions.

    Samples of even-numbered 64-sample blocks take the least-squares slope of
    max on R over the odd-numbered blocks, and the reverse; the slope is 0
    where the fitting half holds no two distinct R.
    """
    n = len(maxima)
    y, r = [int(v) for v in maxima], [int(v) for v in runs]
    halves = [[i for i in range(n) if i // BLOCK % 2 == h] for h in (0, 1)]
    terms = [Fraction(v) for v in y]
    for own, other in ((halves[0], halves[1]), (halves[1], halves[0])):
        beta = Fraction(0)
        if len({r[i] for i in other}) > 1:
            r_bar = Fraction(sum(r[i] for i in other), len(other))
            beta = sum((r[i] - r_bar) * y[i] for i in other) / sum(
                (r[i] - r_bar) ** 2 for i in other
            )
        for i in own:
            terms[i] -= beta * (r[i] - runs_mean)
    mean = sum(terms) / n
    var = sum((t - mean) ** 2 for t in terms) / (n - 1) if n > 1 else Fraction(0)
    return mean, math.sqrt(var / n)


def check_linear_estimate(est, mod, seed, maxima, multipliers):
    """est against a recomputation from its maxima and multipliers.

    The tail is that of the maxima, exactly; the mean and standard error are
    those of the cross-fitted terms with the literal R, to within 1e-12 for
    float64 sums of at most a few thousand terms of order 1.
    """
    total = multiplier_runs_total(mod)
    runs = literal_multiplier_runs(mod.p, mod.m, multipliers)
    mean, std_error = cross_fit(maxima, runs, Fraction(total, mod.p))
    assert (est.samples, est.seed, est.runs_total) == (len(maxima), seed, total)
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
    maxima, multipliers = [], []
    for i in range(samples):
        a, b = (int(v) for v in sample_draw(seed, i, p, 2))
        bins = [(a * x + b) % p % 32 for x in elements]
        maxima.append(max(bins.count(j) for j in range(32)))
        multipliers.append(a)
    est = mc_linear_maxload(mod, ks, samples, seed)
    assert maxima_seen == [maxima]
    check_linear_estimate(est, mod, seed, np.array(maxima), multipliers)


@pytest.mark.parametrize("ks,dtype", [(Interval(1), np.int32), (Interval(2), np.int64)])
def test_mc_linear_hash_type_at_largest_modulus(monkeypatch, ks, dtype):
    # a*x + b reaches (p - 1)*(max key + 1): 2^31 - 2 on [1], which int32
    # holds, and 2^32 - 4 on [2], which it does not.
    p, m, samples, seed = 2147483647, 32, 100, 4
    mod = Modulus(p, m)
    placed = []
    real = estimators.max_loads

    def recording(rows, n, m, bins_of):
        placed.append(bins_of(0, rows))
        return real(rows, n, m, bins_of)

    monkeypatch.setattr(estimators, "max_loads", recording)
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
    expected, multipliers = literal_linear_maxima(mod, ks, samples, seed)
    est = mc_linear_maxload(mod, ks, samples, seed)
    assert maxima_seen == [expected.tolist()]
    check_linear_estimate(est, mod, seed, expected, multipliers)


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
    # Unbiased: within 4 SE of the exact mean.  Effective: at most half the
    # plain SE of the same samples (correlation 0.95-0.98 gives a third to a fifth).
    est = mc_linear_maxload(Modulus(p, m), Interval(m), 10_000, 12345)
    assert abs(est.mean - total / p**2) <= 4 * est.std_error
    plain = np.std(maxima_seen[0], ddof=1) / math.sqrt(10_000)
    assert est.std_error <= plain / 2


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
