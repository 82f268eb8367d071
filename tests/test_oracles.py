"""Exhaustive counting oracles, checked against literal double loops."""

import itertools
import math
import os
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest

from linbins import oracles
from linbins.field import HashParams, Modulus, is_prime, next_prime_at_least
from linbins.loads import AffineImage, Explicit, Interval, load_profile, materialize
from linbins.oracles import (
    WorkBudgetError,
    _chunk_bounds,
    _interval_chunk,
    _maxload_hist_all_b_chunk,
    _maxload_credits,
    _maxloads_b_zero_chunk,
    canonicalize_triple,
    count_interval_collision,
    count_interval_collisions,
    count_prescribed_triple,
    count_triple_collisions,
    exact_maxload_histogram,
    interval_lower_bound,
    maxloads_b_zero,
    maxloads_for_a,
    triple_bound_formula,
)


def naive_triple(p, m, x, y, z):
    return sum(
        (a * x + b) % p % m == (a * y + b) % p % m == (a * z + b) % p % m
        for a in range(p)
        for b in range(p)
    )


def naive_prescribed(p, m, x, y, z, ix, iy, iz):
    return sum(
        (a * x + b) % p % m == ix
        and (a * y + b) % p % m == iy
        and (a * z + b) % p % m == iz
        for a in range(p)
        for b in range(p)
    )


def literal_maxload_hist(p, m, elements):
    """Max-load histogram by binning the keys under every (a, b), b by b."""
    s = np.asarray(elements, dtype=np.int64)
    hist = np.zeros(len(s) + 1, dtype=np.int64)
    b = np.arange(p, dtype=np.int64)
    rows = np.arange(p)[:, None] * m
    for a in range(p):
        bins = (a * s[None, :] + b[:, None]) % p % m
        counts = np.bincount((rows + bins).ravel(), minlength=p * m).reshape(p, m)
        hist += np.bincount(counts.max(axis=1), minlength=len(s) + 1)
    return {load: int(cnt) for load, cnt in enumerate(hist) if cnt > 0}


def naive_interval(p, m, d):
    return sum(
        len({(a * t + b) % p % m for t in range(d)}) == 1
        for a in range(p)
        for b in range(p)
    )


def test_triple_counts_match_naive_enumeration():
    for p in (5, 7, 13):
        for m in sorted({1, 2, 3, p // 2 + 1, p}):
            mod = Modulus(p, m)
            # Every ordered triple of the first six elements, in one batch.
            triples = list(itertools.permutations(range(min(p, 6)), 3))
            fast = count_triple_collisions(mod, triples)
            assert len(fast) == len(triples)
            for (x, y, z), count in zip(triples, fast.tolist()):
                assert count == naive_triple(p, m, x, y, z), (p, m, x, y, z)
            assert fast.dtype == np.int64


def test_prescribed_counts_match_naive_enumeration():
    for p in (5, 7, 13):
        for m in sorted({1, 2, 3, p}):
            mod = Modulus(p, m)
            rows = [
                (*t, *targets)
                for t in ((0, 1, 2), (0, 2, 4), (1, 3, 4), (4, 0, 3))
                for targets in itertools.product(range(min(m, 3)), repeat=3)
            ]
            fast = count_prescribed_triple(mod, rows)
            assert len(fast) == len(rows)
            for row, count in zip(rows, fast.tolist()):
                assert count == naive_prescribed(p, m, *row), (p, m, row)


def test_batched_counts_at_partial_row_blocks(monkeypatch):
    mod = Modulus(13, 3)
    triples = list(itertools.permutations(range(5), 3))  # 60 rows
    queries = [(*t, i, (i + 1) % 3, i) for t in triples for i in range(3)]  # 180 rows
    whole = (count_triple_collisions(mod, triples), count_prescribed_triple(mod, queries))
    for rows in (1, 7, 59):
        # `rows` rows of 13 multipliers per block; 7 and 59 leave a partial last block.
        monkeypatch.setattr(oracles, "_ROW_BLOCK_CELLS", rows * 13)
        blocked = (count_triple_collisions(mod, triples), count_prescribed_triple(mod, queries))
        assert all(map(np.array_equal, blocked, whole)), rows
    assert whole[0].tolist() == [naive_triple(13, 3, *t) for t in triples]
    assert whole[1].tolist() == [naive_prescribed(13, 3, *q) for q in queries]


def test_counts_match_full_grid_on_general_rows():
    # A literal h = (a*x + b) % p % m over every (a, b), on random rows with
    # x != 0, so c_x = p - a*x mod p falls on both sides of c_y and c_z as a
    # varies; at these moduli q = p mod m and m - q differ.
    rng = np.random.default_rng(7)
    for p, m in ((257, 5), (257, 16), (1031, 32)):
        a = np.arange(p, dtype=np.int64)[:, None]
        b = np.arange(p, dtype=np.int64)[None, :]
        triples, queries, collide, prescribed = [], [], [], []
        for _ in range(32):
            x, y, z = (int(t) for t in rng.choice(np.arange(1, p), size=3, replace=False))
            hx, hy, hz = ((a * t + b) % p % m for t in (x, y, z))
            # Targets taken from one (a, b), so no prescribed count is trivially 0.
            a0, b0 = rng.integers(0, p, size=2)
            ix, iy, iz = int(hx[a0, b0]), int(hy[a0, b0]), int(hz[a0, b0])
            triples.append((x, y, z))
            queries.append((x, y, z, ix, iy, iz))
            collide.append(int(((hx == hy) & (hx == hz)).sum()))
            prescribed.append(int(((hx == ix) & (hy == iy) & (hz == iz)).sum()))
        mod = Modulus(p, m)
        assert count_triple_collisions(mod, triples).tolist() == collide
        # An int64 array of rows is accepted as it is.
        fast = count_prescribed_triple(mod, np.array(queries, dtype=np.int64))
        assert fast.tolist() == prescribed, (p, m)


def test_prescribed_counts_over_all_targets_sum_to_all_pairs():
    # Every (a, b) sends (x, y, z) to exactly one of the m^3 bin targets.
    for p, m in ((31, 4), (37, 5)):
        triples = [(0, 1, 2), (5, 3, p - 1), (p - 2, 7, 11)]
        queries = [(*t, *i) for t in triples for i in itertools.product(range(m), repeat=3)]
        counts = count_prescribed_triple(Modulus(p, m), queries)
        assert counts.reshape(len(triples), -1).sum(axis=1).tolist() == [p * p] * 3


def test_interval_counts_match_naive_enumeration():
    for p in (5, 7, 13):
        for m in sorted({1, 2, 3, p // 2 + 1, p}):
            mod = Modulus(p, m)
            for d in range(2, p + 1):
                fast = count_interval_collision(mod, d)
                assert type(fast) is int
                assert fast == naive_interval(p, m, d), (p, m, d)


def test_interval_sweep_matches_naive_enumeration():
    for p in (5, 7, 13):
        for m in sorted({1, 2, 3, p // 2 + 1, p}):
            sweep = count_interval_collisions(Modulus(p, m), p)
            expected = [naive_interval(p, m, d) for d in range(2, p + 1)]
            assert sweep.tolist() == expected, (p, m)
            assert sweep.dtype == np.int64


def test_interval_sweep_chunks_sum_to_unchunked():
    for p, m in ((13, 3), (257, 16)):
        whole = _interval_chunk(p, m, p, 0, p)
        for k in (2, 3, 7):
            parts = [_interval_chunk(p, m, p, lo, hi) for lo, hi in _chunk_bounds(p, k)]
            assert np.array_equal(sum(parts), whole), (p, m, k)


def test_interval_sweep_budget_charged_once():
    mod = Modulus(13, 3)
    work = 6 * 13 * 13
    with pytest.raises(WorkBudgetError):
        count_interval_collisions(mod, 6, budget=work - 1)
    with pytest.raises(WorkBudgetError):
        count_interval_collision(mod, 6, budget=work - 1)
    sweep = count_interval_collisions(mod, 6, budget=work)
    assert sweep[-1] == count_interval_collision(mod, 6, budget=work)
    assert len(sweep) == 5


def test_triple_count_regressions():
    assert count_triple_collisions(Modulus(13, 3), [(0, 1, 2)])[0] == 29
    assert count_triple_collisions(Modulus(13, 13), [(0, 1, 2)])[0] == 13
    assert count_triple_collisions(Modulus(13, 3), [(2, 5, 11)])[0] == 21
    assert count_interval_collision(Modulus(13, 3), 4) == 21


def test_single_bin_collides_everything():
    mod = Modulus(13, 1)
    assert count_triple_collisions(mod, [(0, 1, 2)])[0] == 169
    assert count_prescribed_triple(mod, [(0, 1, 2, 0, 0, 0)])[0] == 169
    assert count_interval_collision(mod, 2) == 169


def test_count_probability_is_exact_fraction():
    # Counts are out of p^2; a probability is a Fraction of Python ints.
    [count] = count_triple_collisions(Modulus(13, 3), [(0, 1, 2)]).tolist()
    assert type(count) is int
    assert Fraction(count, 13 * 13) == Fraction(29, 169)


def test_triple_distinctness_required():
    mod = Modulus(13, 3)
    with pytest.raises(ValueError):
        count_triple_collisions(mod, [(0, 0, 2)])
    with pytest.raises(ValueError):
        count_prescribed_triple(mod, [(0, 1, 1, 0, 0, 0)])
    with pytest.raises(ValueError, match=r"bin targets must lie in \[0, 3\)"):
        count_prescribed_triple(mod, [(0, 1, 2, 0, 0, 3)])
    # Each row is checked, not just the first, with the same messages.
    with pytest.raises(ValueError, match=r"elements must be distinct and in \[0, 13\)"):
        count_triple_collisions(mod, [(0, 1, 2), (3, 4, 13)])
    with pytest.raises(ValueError, match=r"bin targets"):
        count_prescribed_triple(mod, [(0, 1, 2, 0, 0, 0), (0, 1, 2, 0, -1, 0)])
    with pytest.raises(ValueError):
        count_triple_collisions(mod, [(0, 1, 2, 0, 0, 0)])
    with pytest.raises(ValueError):
        count_prescribed_triple(mod, [(0, 1, 2)])
    with pytest.raises(ValueError, match=r"each row needs 3 entries, got \(3, 4\)"):
        count_triple_collisions(mod, [(0, 1, 2), (3, 4)])
    # Python ints past int64 are out of range, not an OverflowError.
    with pytest.raises(ValueError, match=r"elements must be distinct"):
        count_triple_collisions(mod, [(0, 1, 2**64)])
    with pytest.raises(ValueError, match=r"bin targets"):
        count_prescribed_triple(mod, [(0, 1, 2, 0, 0, -(2**63) - 1)])


def test_canonicalize_examples():
    canon = canonicalize_triple(13, 0, 1, 7)
    assert (canon.d, canon.alpha, canon.beta) == (7, 1, 0)
    canon = canonicalize_triple(13, 2, 5, 11)
    assert (canon.d, canon.alpha, canon.beta) == (3, 3, 2)
    canon = canonicalize_triple(13, 5, 2, 11)
    assert (canon.d, canon.alpha, canon.beta) == (11, 10, 5)
    with pytest.raises(ValueError):
        canonicalize_triple(13, 5, 5, 11)


def test_canonicalize_never_degenerate():
    for x, y, z in itertools.permutations(range(3), 3):
        assert canonicalize_triple(13, x, y, z).d not in (0, 1)


def test_canonical_triples_collide_equally():
    mod = Modulus(13, 3)
    direct, reduced = count_triple_collisions(mod, [(2, 5, 11), (0, 1, 3)])
    assert direct == reduced


def test_prescribed_decomposition():
    mod = Modulus(13, 3)
    triples = [(0, 1, 2), (2, 5, 11), (1, 7, 4)]
    collisions = count_triple_collisions(mod, triples)
    for t, count in zip(triples, collisions):
        per_bin = count_prescribed_triple(mod, [(*t, i, i, i) for i in range(3)])
        assert per_bin.sum() == count


def test_triple_bound_formula_values():
    mod = Modulus(257, 16)
    bounds = triple_bound_formula(mod, 2)
    # statement form at d=2 with p >= 2m: (1 + (p/2m)(1 + 2/m))/p
    assert bounds.statement == (1 + Fraction(257, 32) * (1 + Fraction(2, 16))) / 257
    assert bounds.proof == (1 + (1 + Fraction(257, 2)) / 16) * (1 + Fraction(2, 16)) / 257
    assert ceiling_bound(mod, 2) == Fraction((1 + 9) * (1 + 1), 257)
    with pytest.raises(ValueError):
        triple_bound_formula(mod, 1)
    with pytest.raises(ValueError):
        triple_bound_formula(mod, 257)


def ceiling_bound(mod, d):
    """(1 + ceil(ceil(p/d)/m)) * (1 + ceil(d/m)) / p: the interval-counting
    integers of the triple bound's proof, not smoothed."""
    p, m = mod.p, mod.m
    return Fraction((1 + math.ceil(math.ceil(p / d) / m)) * (1 + math.ceil(d / m)), p)


def test_triple_bounds_hold_exhaustively_small():
    for p, m in ((13, 3), (31, 8)):
        mod = Modulus(p, m)
        counts = count_triple_collisions(mod, [(0, 1, d) for d in range(2, p)])
        for d, count in zip(range(2, p), counts.tolist()):
            prob = Fraction(count, p * p)
            bounds = triple_bound_formula(mod, d)
            assert prob <= bounds.proof, (p, m, d)
            assert prob <= bounds.statement, (p, m, d)
            assert prob <= ceiling_bound(mod, d), (p, m, d)


def test_interval_lower_bound_values():
    mod = Modulus(197, 8)
    assert interval_lower_bound(mod, 2) == Fraction(1, 96)
    assert interval_lower_bound(mod, 8) == Fraction(1, 384)
    with pytest.raises(ValueError):
        interval_lower_bound(mod, 9)
    with pytest.raises(ValueError):
        interval_lower_bound(Modulus(191, 8), 2)  # 191 <= 3 * 64


def test_interval_lower_bound_holds():
    mod = Modulus(197, 8)
    for d in (2, 8):
        prob = Fraction(count_interval_collision(mod, d), 197 * 197)
        assert prob >= interval_lower_bound(mod, d)


def test_interval_containment_and_monotonicity():
    mod = Modulus(13, 3)
    previous = None
    for d in range(2, 14):
        count = count_interval_collision(mod, d)
        if previous is not None:
            assert count <= previous
        previous = count
        if d >= 3:
            triple = count_triple_collisions(mod, [(0, 1, d - 1)])[0]
            assert count <= triple


def test_interval_domain():
    mod = Modulus(13, 3)
    with pytest.raises(ValueError):
        count_interval_collision(mod, 1)
    with pytest.raises(ValueError):
        count_interval_collision(mod, 14)
    with pytest.raises(ValueError):
        count_interval_collisions(mod, 1)
    with pytest.raises(ValueError):
        count_interval_collisions(mod, 14)


def test_maxloads_for_a_matches_load_profile():
    mod = Modulus(13, 3)
    ks = Interval(3)
    for a in range(13):
        row = maxloads_for_a(mod, ks, a)
        for b in range(13):
            assert row[b] == load_profile(HashParams(a, b), mod, ks).max_load
    with pytest.raises(ValueError):
        maxloads_for_a(mod, ks, 13)


def test_maxloads_b_zero_matches_load_profile():
    mod = Modulus(13, 3)
    ks = Interval(3)
    loads = maxloads_b_zero(mod, ks)
    for a in range(13):
        assert loads[a] == load_profile(HashParams(a, 0), mod, ks).max_load


def _block_edge_cases():
    for m in (16, 24):
        mod = Modulus(next_prime_at_least(m * m), m)
        yield mod, AffineImage(m, 77, 5)
        yield mod, Explicit((0, 3, 4, 10, mod.p // 2, mod.p - 1))


BLOCK_EDGE_CASES = list(_block_edge_cases())
BLOCK_EDGE_IDS = [f"p{mod.p}-m{mod.m}-{type(ks).__name__}" for mod, ks in BLOCK_EDGE_CASES]


def _split_blocks(monkeypatch, mod, ks, rows):
    """Shrink max-load blocks to `rows` rows; p = 257 and 577 leave a partial last block."""
    width = max(len(materialize(ks, mod)), mod.m)
    monkeypatch.setattr("linbins.loads._BLOCK_CELLS", rows * width)


@pytest.mark.parametrize("rows", (7, 50))
@pytest.mark.parametrize("mod,ks", BLOCK_EDGE_CASES, ids=BLOCK_EDGE_IDS)
def test_maxloads_b_zero_at_block_edges(monkeypatch, rows, mod, ks):
    _split_blocks(monkeypatch, mod, ks, rows)
    expected = [load_profile(HashParams(a, 0), mod, ks).max_load for a in range(mod.p)]
    assert maxloads_b_zero(mod, ks).tolist() == expected
    # Worker chunks count their blocks from their own first a.
    elements = materialize(ks, mod)
    chunks = [
        _maxloads_b_zero_chunk(mod.p, mod.m, elements, lo, hi)
        for lo, hi in _chunk_bounds(mod.p, 3)
    ]
    assert np.concatenate(chunks).tolist() == expected


@pytest.mark.parametrize("rows", (7, 50))
@pytest.mark.parametrize("mod,ks", BLOCK_EDGE_CASES, ids=BLOCK_EDGE_IDS)
def test_maxloads_for_a_at_block_edges(monkeypatch, rows, mod, ks):
    _split_blocks(monkeypatch, mod, ks, rows)
    for a in (0, 1, 77, mod.p - 1):
        expected = [load_profile(HashParams(a, b), mod, ks).max_load for b in range(mod.p)]
        assert maxloads_for_a(mod, ks, a).tolist() == expected, a


def test_exact_histogram_single_bin():
    hist = exact_maxload_histogram(Modulus(13, 1), Interval(4), b_mode="all_b")
    assert hist == {4: 169}


def test_exact_histogram_partitions_parameter_space():
    mod = Modulus(257, 16)
    b_zero = exact_maxload_histogram(mod, Interval(16), b_mode="b_zero")
    assert sum(b_zero.values()) == 257
    all_b = exact_maxload_histogram(mod, Interval(16), b_mode="all_b")
    assert sum(all_b.values()) == 257 * 257


def test_exact_histogram_matches_naive():
    mod = Modulus(13, 3)
    ks = Interval(3)
    naive = {}
    for a in range(13):
        for b in range(13):
            top = load_profile(HashParams(a, b), mod, ks).max_load
            naive[top] = naive.get(top, 0) + 1
    assert exact_maxload_histogram(mod, ks, b_mode="all_b") == naive


def _all_b_cases():
    yield Modulus(13, 1), Interval(4)
    yield Modulus(13, 13), Explicit((0, 2, 5, 9))
    yield Modulus(13, 3), Explicit((0, 4, 7, 12))
    for m in (16, 24, 32):
        mod = Modulus(next_prime_at_least(m * m), m)
        yield mod, Interval(m)
        yield mod, AffineImage(m, 77, 5)
        yield mod, Explicit((0, 3, 4, 10, mod.p // 2, mod.p - 1))


ALL_B_CASES = list(_all_b_cases())


@pytest.mark.parametrize(
    "mod,ks",
    ALL_B_CASES,
    ids=[f"p{mod.p}-m{mod.m}-{type(ks).__name__}" for mod, ks in ALL_B_CASES],
)
def test_all_b_histogram_matches_literal_scan(mod, ks):
    expected = literal_maxload_hist(mod.p, mod.m, materialize(ks, mod))
    assert exact_maxload_histogram(mod, ks, b_mode="all_b") == expected


CREDIT_CASES = [
    (Modulus(257, 16), Interval(16), None),
    (Modulus(577, 24), AffineImage(24, 77, 5), None),
    (Modulus(577, 24), AffineImage(24, 77, 5), 7),
    (Modulus(13, 3), Interval(3), 5),
    (Modulus(13, 13), Explicit((0, 2, 5, 9)), None),
    (Modulus(13, 1), Interval(4), 3),
]


@pytest.mark.parametrize(
    "mod,ks,block_rows",
    CREDIT_CASES,
    ids=[f"p{mod.p}-m{mod.m}-{type(ks).__name__}-{rows}" for mod, ks, rows in CREDIT_CASES],
)
def test_maxload_credits_match_per_a_scan(monkeypatch, mod, ks, block_rows):
    elements = materialize(ks, mod)
    n = len(elements)
    if block_rows is not None:
        # Blocks of a few rows; p = 577, 13 leave a partial last block.
        monkeypatch.setattr(oracles, "_EVENT_BLOCK_CELLS", block_rows * (n + mod.m + 1))
    covered = 0
    for lo, hi, credit in _maxload_credits(mod.p, mod.m, elements, 0, mod.p):
        assert lo == covered and credit.shape == (hi - lo, n + 1)
        for a in range(lo, hi):
            expected = np.bincount(maxloads_for_a(mod, ks, a), minlength=n + 1)
            assert credit[a - lo].tolist() == expected.tolist(), a
        covered = hi
    assert covered == mod.p


def test_all_b_chunks_sum_to_unchunked():
    mod = Modulus(577, 24)
    elements = materialize(AffineImage(24, 77, 5), mod)
    whole = _maxload_hist_all_b_chunk(mod.p, mod.m, elements, 0, mod.p)
    assert whole.sum() == mod.p * mod.p
    for k in (2, 3, 7):
        parts = [
            _maxload_hist_all_b_chunk(mod.p, mod.m, elements, lo, hi)
            for lo, hi in _chunk_bounds(mod.p, k)
        ]
        assert np.array_equal(sum(parts), whole), k


def test_all_b_histogram_independent_of_block_size(monkeypatch):
    mod = Modulus(257, 16)
    ks = Explicit((0, 1, 5, 17, 100, 256))
    whole = exact_maxload_histogram(mod, ks, b_mode="all_b")
    # Blocks of 7 rows: many blocks, the last one partial.
    monkeypatch.setattr(oracles, "_EVENT_BLOCK_CELLS", 7 * (6 + 16 + 1))
    assert exact_maxload_histogram(mod, ks, b_mode="all_b") == whole


def test_all_b_histogram_regression_m64():
    p = next_prime_at_least(64 * 64)
    assert p == 4099
    hist = exact_maxload_histogram(Modulus(p, 64), Interval(64), b_mode="all_b")
    assert sum(hist.values()) == p * p
    total_load = sum(load * cnt for load, cnt in hist.items())
    assert total_load == 45349020
    assert round(total_load / (p * p), 6) == 2.699057


def test_all_b_budget_charges_kernel_work():
    mod = Modulus(next_prime_at_least(128 * 128), 128)
    assert mod.p == 16411
    work = mod.p * 128
    with pytest.raises(WorkBudgetError):
        exact_maxload_histogram(mod, Interval(128), b_mode="all_b", budget=work - 1)
    hist = exact_maxload_histogram(mod, Interval(128), b_mode="all_b")
    assert sum(hist.values()) == mod.p * mod.p


def test_exact_histogram_worker_determinism():
    mod = Modulus(257, 16)
    one = exact_maxload_histogram(mod, Interval(16), b_mode="all_b", workers=1)
    two = exact_maxload_histogram(mod, Interval(16), b_mode="all_b", workers=2)
    assert one == two


def test_exact_histogram_rejects_bad_mode():
    with pytest.raises(ValueError):
        exact_maxload_histogram(Modulus(13, 3), Interval(3), b_mode="sometimes")


def test_work_budget_refusal():
    p = next_prime_at_least(100_000)
    mod = Modulus(p, 16)
    with pytest.raises(WorkBudgetError):
        count_triple_collisions(mod, [(0, 1, 2)])  # 3p^2 over the default budget
    with pytest.raises(WorkBudgetError):
        count_triple_collisions(Modulus(13, 3), [(0, 1, 2)], budget=10)
    # An explicit budget at or above the notional cost lets the call run.
    [count] = count_triple_collisions(Modulus(13, 3), [(0, 1, 2)], budget=3 * 13 * 13)
    assert count == 29


def test_batch_budget_charged_once_per_query():
    # Every row costs one query, 3p^2; a batch of many rows is charged that once.
    mod = Modulus(31, 5)
    work = 3 * 31 * 31
    triples = [(0, 1, d) for d in range(2, 31)]
    queries = [(*t, 1, 2, 3) for t in triples]
    with pytest.raises(WorkBudgetError):
        count_triple_collisions(mod, triples, budget=work - 1)
    with pytest.raises(WorkBudgetError):
        count_prescribed_triple(mod, queries, budget=work - 1)
    assert np.array_equal(
        count_triple_collisions(mod, triples, budget=work), count_triple_collisions(mod, triples)
    )
    assert np.array_equal(
        count_prescribed_triple(mod, queries, budget=work), count_prescribed_triple(mod, queries)
    )
    assert len(count_triple_collisions(mod, triples, budget=work)) == 29


def test_enumeration_range_guard():
    p = 2147483659  # first prime above 2^31
    assert is_prime(p)
    with pytest.raises(ValueError):
        count_triple_collisions(Modulus(p, 4), [(0, 1, 2)])


def test_pool_capped_at_available_cores(monkeypatch):
    sizes = []

    class StandInPool:
        """Records its size and runs each task in this process; starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(oracles, "ProcessPoolExecutor", StandInPool)
    p = 21787
    # Figure scale: the triple kernel's 3p cells stay under the pool threshold.
    count_triple_collisions(Modulus(p, 512), [(0, 1, 5)], workers=100_000)
    assert sizes == []

    monkeypatch.setattr(oracles, "_MIN_PARALLEL_WORK", 0)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = oracles._map_chunks(lambda lo, hi: (lo, hi), p, 100_000, 1, ())
    assert parts == _chunk_bounds(p, cores)
    assert sizes == ([cores] if cores > 1 else [])

    monkeypatch.setattr(oracles, "_available_cores", lambda: 4)
    parts = oracles._map_chunks(lambda lo, hi: (lo, hi), p, 100_000, 1, ())
    assert parts == _chunk_bounds(p, 4)
    assert sizes[-1] == 4


def test_pooled_counts_match_serial(monkeypatch):
    # Zero threshold and four notional cores: workers 2 and 3 fork pools of
    # that size for every count, so the pooled path stays tested.
    monkeypatch.setattr(oracles, "_MIN_PARALLEL_WORK", 0)
    monkeypatch.setattr(oracles, "_available_cores", lambda: 4)
    pools = []

    class CountingPool(oracles.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(oracles, "ProcessPoolExecutor", CountingPool)
    mod = Modulus(31, 5)
    triples = [(0, 1, 7), (2, 9, 30), (30, 0, 15)] + [(0, 1, d) for d in range(2, 31)]
    queries = [(*t, 1, 4, 1) for t in triples] + [(*t, 3, 3, 3) for t in triples]
    results = [
        (
            count_triple_collisions(mod, triples, workers=w),
            count_prescribed_triple(mod, queries, workers=w),
            count_interval_collisions(mod, 31, workers=w),
        )
        for w in (1, 2, 3)
    ]
    assert all(map(np.array_equal, results[0], results[1]))
    assert all(map(np.array_equal, results[0], results[2]))
    assert len(results[0][0]) == 32 and len(results[0][1]) == 64
    assert results[0][0][0] == naive_triple(31, 5, 0, 1, 7)
    assert results[0][1][1] == naive_prescribed(31, 5, 2, 9, 30, 1, 4, 1)
    assert pools == [2, 2, 2, 3, 3, 3]
