"""Key-set representations, per-bin load accounting, and the bin-count kernel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .field import Modulus, rem


@dataclass(frozen=True)
class Interval:
    """The key set [length] = {0, ..., length-1}."""

    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("interval length must be >= 1")


@dataclass(frozen=True)
class AffineImage:
    """The key set {(alpha*x + beta) mod p : x in [length]} with alpha != 0."""

    length: int
    alpha: int
    beta: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")


@dataclass(frozen=True)
class Explicit:
    """An explicit key set; elements must be distinct and are stored sorted."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(sorted(self.elements))
        if len(elems) < 1:
            raise ValueError("key set must be non-empty")
        if len(set(elems)) != len(elems):
            raise ValueError("explicit key set contains duplicate elements")
        object.__setattr__(self, "elements", elems)


KeySet = Union[Interval, AffineImage, Explicit]


def materialize(ks: KeySet, mod: Modulus) -> list[int]:
    """Explicit element list of a key set; all elements distinct and in [p]."""
    p = mod.p
    if isinstance(ks, Interval):
        if ks.length > p:
            raise ValueError(f"interval length {ks.length} exceeds p={p}")
        return list(range(ks.length))
    if isinstance(ks, AffineImage):
        if ks.length > p:
            raise ValueError(f"length {ks.length} exceeds p={p}")
        alpha, beta = ks.alpha % p, ks.beta % p
        if alpha == 0:
            raise ValueError("alpha must be nonzero modulo p")
        return [(alpha * x + beta) % p for x in range(ks.length)]
    if isinstance(ks, Explicit):
        if any(not 0 <= e < p for e in ks.elements):
            raise ValueError(f"elements out of range for p={p}")
        return list(ks.elements)
    raise TypeError(f"not a key set: {ks!r}")


def load_profile(a: int, b: int, mod: Modulus, ks: KeySet) -> list[int]:
    """Per-bin loads of h_{a,b} on the key set, counted one key at a time."""
    p, m = mod.p, mod.m
    if not (0 <= a < p and 0 <= b < p):
        raise ValueError(f"(a, b) = ({a}, {b}) out of range for p={p}")
    loads = [0] * m
    for x in materialize(ks, mod):
        loads[(a * x + b) % p % m] += 1
    return loads


# Cells per block of bin_counts: rows times max(n, m), which bounds both the
# placed keys and the per-row bin counts.
BLOCK_CELLS = 1 << 15


def hashed_bins(keys: np.ndarray, p: int, m: int, a: np.ndarray, b=None) -> Callable:
    """bins_of for bin_counts: row r holds ((a[r]*x + b[r]) mod p) mod m, b = 0 if None.

    Rows take the dtype of the keys x, which must hold a*x + b.  Each block
    is hashed in place, with its quotients, in buffers sized by the first
    call; a call overwrites the last call's rows, never keys, a, b.
    """
    buffers = None

    def bins_of(lo, hi):
        nonlocal buffers
        if buffers is None:  # bin_counts asks for its largest block first
            buffers = np.empty((2, hi - lo, len(keys)), dtype=keys.dtype)
        out, q = buffers[:, : hi - lo]
        np.multiply(a[lo:hi, None], keys, out=out)
        if b is not None:
            out += b[lo:hi, None]
        return rem(rem(out, p, q), m, q)

    return bins_of


def bin_counts(
    rows: int, n: int, m: int, bins_of: Callable[[int, int], np.ndarray]
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Per-bin loads of `rows` hash functions placing n keys into m bins.

    bins_of(lo, hi) returns the (hi - lo, n) bin indices of rows lo..hi-1,
    once per block and in row order, so callers build blocks lazily.  Yields
    (lo, hi, counts), counts a new (hi - lo, m) array from one bincount per
    block.  Row r's bin i gets the code r*m + i < max(BLOCK_CELLS, m), so int32
    offsets never overflow, in one intp buffer per call that bincount reads
    without a copy; the bins themselves are never written.
    """
    step = max(1, BLOCK_CELLS // max(n, m))
    offsets = np.arange(min(step, rows), dtype=np.int32)[:, None] * m
    codes = np.empty(offsets.size * n, dtype=np.intp)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        bins = bins_of(lo, hi)
        np.add(bins, offsets[: hi - lo], out=codes[: bins.size].reshape(bins.shape))
        yield lo, hi, np.bincount(codes[: bins.size], minlength=(hi - lo) * m).reshape(hi - lo, m)


def max_loads(rows: int, n: int, m: int, bins_of: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Max load of each of `rows` hash functions: the row max of bin_counts."""
    out = np.empty(rows, dtype=np.int64)
    for lo, hi, counts in bin_counts(rows, n, m, bins_of):
        out[lo:hi] = counts.max(axis=1)
    return out
