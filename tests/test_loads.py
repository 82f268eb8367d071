"""Key sets and per-bin load profiles."""

import numpy as np
import pytest

from linbins import loads
from linbins.field import Modulus, next_prime_at_least
from linbins.loads import (
    AffineImage,
    Explicit,
    Interval,
    bin_counts,
    load_profile,
    materialize,
    max_loads,
)
from reference import literal_bins


def test_materialize_interval():
    assert materialize(Interval(4), Modulus(13, 4)) == [0, 1, 2, 3]


def test_materialize_affine_image():
    assert materialize(AffineImage(3, 1, 0), Modulus(13, 3)) == [0, 1, 2]
    assert materialize(AffineImage(3, 5, 2), Modulus(13, 3)) == [2, 7, 12]


def test_materialize_explicit_sorted():
    ks = Explicit((5, 1, 3))
    assert materialize(ks, Modulus(13, 3)) == [1, 3, 5]


def test_explicit_rejects_duplicates():
    with pytest.raises(ValueError):
        Explicit((1, 2, 2))


def test_affine_image_rejects_zero_alpha():
    with pytest.raises(ValueError):
        AffineImage(3, 0, 2)
    # alpha = p passes AffineImage, whose p is not known yet, but not materialize.
    with pytest.raises(ValueError, match="alpha must be nonzero modulo p"):
        materialize(AffineImage(32, 1031, 5), Modulus(1031, 32))


def test_load_profile_identity():
    assert load_profile(1, 0, Modulus(13, 5), Interval(5)) == [1, 1, 1, 1, 1]


def test_load_profile_constant_function():
    assert load_profile(0, 0, Modulus(13, 5), Interval(5)) == [5, 0, 0, 0, 0]


def test_load_profile_recount_oracle():
    # The literal bins of [16] at (p, m, a, b) = (257, 16, 17, 0), counted.
    expected = np.bincount(literal_bins(257, 16, range(16), 17)[0], minlength=16)
    assert load_profile(17, 0, Modulus(257, 16), Interval(16)) == expected.tolist()


def test_load_profile_rejects_parameters_out_of_range():
    mod = Modulus(13, 5)
    load_profile(12, 12, mod, Interval(5))
    for a, b in ((-1, 0), (0, -2), (13, 0), (0, 13)):
        with pytest.raises(ValueError, match="out of range"):
            load_profile(a, b, mod, Interval(5))


def test_load_sums_exhaustive_small_p():
    # Every profile counts the literal bins, so it sums to the key-set size.
    mod = Modulus(13, 3)
    for ks in (Interval(3), AffineImage(3, 5, 2), Explicit((1, 2, 7, 11))):
        keys = materialize(ks, mod)
        for a in range(13):
            bins = literal_bins(13, 3, keys, a)
            for b in range(13):
                profile = load_profile(a, b, mod, ks)
                assert profile == np.bincount(bins[b], minlength=3).tolist(), (ks, a, b)


def literal_counts(p, m, keys, a, b=None):
    """Per-row bin loads of the literal bins of the keys under (a[r], b[r]), b = 0 if None."""
    bins = literal_bins(p, m, keys, a, np.zeros_like(a) if b is None else b)
    return [np.bincount(row, minlength=m).tolist() for row in bins]


def test_max_loads_matches_literal_bins_across_blocks(monkeypatch):
    monkeypatch.setattr(loads, "BLOCK_CELLS", 3 * 5)
    rng = np.random.default_rng(0)
    keys = rng.choice(31, size=4, replace=False)
    a, b = rng.integers(0, 31, size=(2, 11))
    for shift in (None, b):
        expected = [max(row) for row in literal_counts(31, 5, keys, a, shift)]
        assert max_loads(keys, 31, 5, a, shift).tolist() == expected


def test_max_loads_caps_blocks_by_bin_count(monkeypatch):
    # One key into many bins: the per-row counts, not the keys, set the block.
    monkeypatch.setattr(loads, "BLOCK_CELLS", 40)
    keys, a = np.array([7]), np.arange(5)
    assert max_loads(keys, 23, 20, a).tolist() == [1] * 5
    assert [hi - lo for lo, hi, _ in bin_counts(keys, 23, 20, a)] == [2, 2, 1]


def test_bin_counts_yields_per_bin_loads_block_by_block(monkeypatch):
    monkeypatch.setattr(loads, "BLOCK_CELLS", 3 * 5)
    rng = np.random.default_rng(1)
    keys = rng.choice(31, size=4, replace=False)
    a, b = rng.integers(0, 31, size=(2, 11))
    blocks = list(bin_counts(keys, 31, 5, a, b))
    assert [(lo, hi) for lo, hi, _ in blocks] == [(0, 3), (3, 6), (6, 9), (9, 11)]
    counts = np.concatenate([c for _, _, c in blocks])
    assert counts.tolist() == literal_counts(31, 5, keys, a, b)


@pytest.mark.parametrize(
    "rows,n,m,sizes",
    [
        # BLOCK_CELLS = 2^15: 2^15 // 100 = 327 rows per block, the last partial.
        (400, 50, 100, [327, 73]),
        (5, 1, 1 << 14, [2, 2, 1]),  # codes up to 2 * 2^14 - 1 in a block
        (4, 3, (1 << 14) + 3, [1] * 4),  # two rows would pass BLOCK_CELLS
        (5, 1, 1 << 15, [1] * 5),  # one row per block
        (4, 3, (1 << 15) + 3, [1] * 4),  # more bins than BLOCK_CELLS
    ],
)
def test_bin_counts_same_for_int32_and_int64_bins_and_never_writes_them(rows, n, m, sizes):
    # The bins take the dtype of the keys; multipliers below 2^31 / p keep
    # a*x + b within int32.
    p = next_prime_at_least(2 * m)
    rng = np.random.default_rng(2)
    keys = rng.choice(p, size=n, replace=False)
    a = rng.integers(0, (1 << 31) // p, size=rows)
    b = rng.integers(0, p, size=rows)
    expected = literal_counts(p, m, keys, a, b)
    for dtype in (np.int32, np.int64):
        typed_keys, typed_a, typed_b = (x.astype(dtype) for x in (keys, a, b))
        blocks = list(bin_counts(typed_keys, p, m, typed_a, typed_b))
        typed = (typed_keys, typed_a, typed_b)
        assert all(np.array_equal(x, y) for x, y in zip(typed, (keys, a, b))), dtype
        assert [hi - lo for lo, hi, _ in blocks] == sizes
        assert np.concatenate([c for _, _, c in blocks]).tolist() == expected, dtype


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("p,m,with_b", [(1031, 24, True), (1031, 32, True), (1031, 24, False)])
def test_bin_counts_reuse_keeps_counts_and_inputs(monkeypatch, dtype, p, m, with_b):
    # Seven-row blocks of 40 keys: bin_counts reuses its hash, quotient and
    # code buffers for every block, so every block's counts must survive the
    # blocks after it, and keys, a and b must come out unwritten.
    monkeypatch.setattr(loads, "BLOCK_CELLS", 7 * 40)
    rng = np.random.default_rng(3)
    keys = rng.choice(p, size=40, replace=False).astype(dtype)
    a, b = rng.integers(0, p, size=(2, 30)).astype(dtype)
    shift = b if with_b else None
    inputs = [keys.copy(), a.copy(), b.copy()]
    blocks = list(bin_counts(keys, p, m, a, shift))
    assert [(lo, hi) for lo, hi, _ in blocks] == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 30)]
    assert all(np.array_equal(x, y) for x, y in zip((keys, a, b), inputs))
    counts = np.concatenate([c for _, _, c in blocks])
    assert counts.tolist() == literal_counts(p, m, keys, a, shift)
