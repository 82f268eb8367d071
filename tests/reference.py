"""Test-only references: literal enumeration of the hash, the sample stream,
the exact fully random baseline, the canonical triple reduction and report
helpers.  Nothing in the package calls these.

literal_bins is the one evaluation of h_{a,b}(x) = ((a*x + b) mod p) mod m,
over every b or at the b given, by int64 %.  Its reductions are the literal
counts each exact kernel is checked against: literal_row_counts for the
triple and prescribed counters, literal_interval_counts for the interval
counter, literal_maxloads for the max-load scans, histograms and
maxload_credits, literal_pair_counts for the colliding-pair counts of the
linear sampler and their exact mean.
literal_multiplier_runs scans every x0 for the lattice runs that
oracles.multiplier_runs and multiplier_runs_total compute.  _sample_rng builds
each block's substream literally, for the stream-lock tests of estimators.
The dynamic program is the oracle the Monte Carlo estimators are calibrated
against.  canonicalize_triple is the scalar reference for the (0, 1, d)
reduction of experiments.check_canonical_equality.  csv_body and report_row
read what the experiments wrote and returned.
"""

import math
from fractions import Fraction

import numpy as np


# Cells of literal_bins per block of multipliers in the reductions below.
BLOCK_CELLS = 1 << 17


def literal_bins(p: int, m: int, keys, a, b=None) -> np.ndarray:
    """h_{a,b}(x) = ((a*x + b) mod p) mod m by int64 %, for every key.

    a is one multiplier or an array of them.  With b None the bins are those
    of every b in [p]: entry [..., b, i] is key i's bin, of shape
    np.shape(a) + (p, len(keys)).  Otherwise b has the shape of a, and entry
    [..., i] is key i's bin under (a, b), of shape np.shape(a) + (len(keys),).
    """
    a = np.asarray(a, dtype=np.int64)[..., None]
    if b is None:
        a, b = a[..., None], np.arange(p, dtype=np.int64)[:, None]
    else:
        b = np.asarray(b, dtype=np.int64)[..., None]
    h = a * np.asarray(keys, dtype=np.int64) + b
    h %= p
    h %= m
    return h


def _blocks(p: int, n: int, a) -> list[np.ndarray]:
    """The multipliers a, flattened, in blocks whose literal_bins hold about BLOCK_CELLS cells."""
    a = np.asarray(a, dtype=np.int64).ravel()
    step = max(1, BLOCK_CELLS // (p * n))
    return [a[lo : lo + step] for lo in range(0, len(a), step)]


def literal_row_counts(p: int, m: int, rows) -> list[int]:
    """Per (x, y, z) row, the (a, b) out of p^2 putting x, y and z in one bin;
    per (x, y, z, ix, iy, iz) row, those putting them in bins ix, iy and iz.
    A call may mix both forms; it evaluates each distinct key once."""
    rows = [tuple(map(int, row)) for row in rows]
    keys = sorted({t for row in rows for t in row[:3]})
    x, y, z = np.searchsorted(keys, [row[:3] for row in rows]).T
    # Rows without targets get -1, which no bin equals; they count one-bin (a, b) instead.
    ix, iy, iz = np.array([row[3:] or (-1, -1, -1) for row in rows]).T
    counts = np.zeros(len(rows), dtype=np.int64)
    for a in _blocks(p, len(keys), range(p)):
        h = literal_bins(p, m, keys, a).reshape(-1, len(keys))
        hx, hy, hz = h[:, x], h[:, y], h[:, z]
        hit = np.where(ix < 0, (hx == hy) & (hy == hz), (hx == ix) & (hy == iy) & (hz == iz))
        counts += hit.sum(axis=0)
    return counts.tolist()


def literal_interval_counts(p: int, m: int, d_max: int) -> list[int]:
    """Entry d - 2: the (a, b) out of p^2 putting all of [d] in one bin, for d = 2..d_max."""
    counts = np.zeros(d_max - 1, dtype=np.int64)
    for a in _blocks(p, d_max, range(p)):
        h = literal_bins(p, m, range(d_max), a)
        prefix = np.logical_and.accumulate(h == h[..., :1], axis=-1)
        counts += prefix[..., 1:].sum(axis=(0, 1))
    return counts.tolist()


def _row_runs(p: int, m: int, keys, a, b=None):
    """Per block of (a, b): runs of equal bins, row after row, and where each row's runs start.

    The rows are (a, b) for every b in [p] with b None, else the pairs given.
    Each row's bins are sorted, so no count per bin is held: p*m cells would
    not fit at m = 2^15.
    """
    n = len(keys)
    blocks = [(block, None) for block in _blocks(p, n, a)] if b is None else [(a, b)]
    for block_a, block_b in blocks:
        h = literal_bins(p, m, keys, block_a, block_b).reshape(-1, n)
        h.sort(axis=1)
        new = np.ones(h.shape, dtype=bool)
        np.not_equal(h[:, 1:], h[:, :-1], out=new[:, 1:])
        # Runs in row order: each row's first run starts at its first cell.
        runs = np.diff(np.flatnonzero(new), append=h.size)
        per_row = new.sum(axis=1)
        yield runs, np.cumsum(per_row) - per_row


def literal_maxloads(p: int, m: int, keys, a) -> np.ndarray:
    """Max load of h_{a,b} on the keys for every b in [p], of shape np.shape(a) + (p,).

    The max load of each (a, b) is its longest run of equal sorted bins.
    """
    parts = [np.maximum.reduceat(runs, starts) for runs, starts in _row_runs(p, m, keys, a)]
    return np.concatenate(parts).reshape(np.shape(a) + (p,))


def literal_pair_counts(p: int, m: int, keys, a, b=None) -> np.ndarray:
    """S2 = sum over bins of C(L, 2), the pairs of keys sharing a bin under h_{a,b}.

    For every b in [p] with b None, of shape np.shape(a) + (p,); else for the
    pairs (a, b) given, of shape np.shape(a).
    """
    parts = [
        np.add.reduceat(runs * (runs - 1) // 2, starts)
        for runs, starts in _row_runs(p, m, keys, a, b)
    ]
    return np.concatenate(parts).reshape(np.shape(a) + ((p,) if b is None else ()))


def literal_multiplier_runs(p: int, m: int, a=None) -> np.ndarray:
    """R(a) for every a in [p], or for the multipliers a, by the literal scan over x0.

    R(0) = m.  For a != 0, R(a) is the largest min(ceil(m/x0), floor(q/|k|)),
    q = floor(p/m), over every x0 in [1, m/2) whose a*x0 mods p (the residue
    in (-p/2, p/2]) is k*m with 1 <= |k| <= q/3, or 1 when no x0 has one.
    """
    a = np.arange(p, dtype=np.int64) if a is None else np.asarray(a, dtype=np.int64).ravel()
    q = p // m
    x0 = np.arange(1, (m + 1) // 2, dtype=np.int64)
    runs = np.where(a == 0, m, 1)
    step = max(1, BLOCK_CELLS // max(1, len(x0)))
    for lo in range(0, len(a), step):
        v = a[lo : lo + step, None] * x0 % p
        v[v > p // 2] -= p
        k = np.abs(v) // m
        pair = (v % m == 0) & (k >= 1) & (3 * k <= q)
        run = np.where(pair, np.minimum(-(-m // x0), q // np.maximum(k, 1)), 1)
        runs[lo : lo + step] = np.maximum(runs[lo : lo + step], run.max(axis=1, initial=1))
    return runs


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
    return pow(y - x, -1, p) * (z - x) % p


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
