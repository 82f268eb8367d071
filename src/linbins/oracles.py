"""Exact collision counting and max-load histograms over all (a, b) pairs.

Every count here is an exact enumeration result over the p^2 parameter pairs.
The enumeration is a-major: for a fixed multiplier a, the full value of
element x is (v_x + b) mod p with v_x = a*x mod p, which wraps exactly once
as b sweeps [0, p), at b = p - v_x.  So the inner loop over b has a closed
form: for a triple (x, y, z), the b on which h(t) agrees with h(x) (up to
prescribed bins) are all of [0, p), nothing, one interval ending at x's wrap
point, or its complement.  One pass, _agreement_sets, finds them for a block
of rows times multipliers with three reductions mod p and two mod m per
cell, and keeps only the cells where both sets are non-empty; both triple
counters intersect the two sets there, counting every b or only those in the
residue class h(x) = ix fixes, one call per batch of rows.
The b values on which h(t) = h(0) form one interval per t, so the interval
counter intersects them for t = 1, 2, ... and reads off the count for every
length of [d] along the way.
The all-(a, b) max-load histogram uses the same wrap points: between wraps
the bins are the classes v_x mod m rotated by b, so the max load is
constant, and each wrap moves one key between classes.  Sorting the n wrap
points and replaying them costs O(n log n) per a instead of the O(p*n) of
scanning every b.  The resulting counts are identical to the literal double
loop, which the test suite keeps as an independent reference.  The replay
yields each a's own histogram over b, which the b-shift check also reads.
Every array reduction in these kernels is field.rem, x - n*(x // n) in place
at about half the cost of numpy's %; maxloads_for_a keeps % as a reference.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import MAX_MODULUS, Modulus, mod_inverse, rem
from .loads import KeySet, materialize, max_loads

# Refuse exhaustive calls whose cost exceeds this, unless the caller raises
# the budget.  Collision counts are charged the hash evaluations of the
# literal (a, b) enumeration; max-load histograms the p*n key placements
# their kernels make.
DEFAULT_WORK_BUDGET = 2**33

# Below this much kernel work (array cells touched, not the notional cost
# charged to the budget) a worker pool costs more than it saves.
_MIN_PARALLEL_WORK = 2**26


class WorkBudgetError(Exception):
    """Raised when an exhaustive call would exceed its work budget."""


def _check_budget(notional: int, budget: int | None, what: str) -> None:
    limit = DEFAULT_WORK_BUDGET if budget is None else budget
    if notional > limit:
        raise WorkBudgetError(
            f"{what} needs {notional} notional hash evaluations, over the "
            f"budget of {limit}; reduce p or raise the budget"
        )


def _chunk_bounds(p: int, workers: int) -> list[tuple[int, int]]:
    w = max(1, min(workers, p))
    bounds = [p * i // w for i in range(w + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(func, p: int, workers: int, work: int, args: tuple) -> list:
    """Apply func(*args, lo, hi) over a partition of [0, p).

    The range holds multipliers a for the exhaustive counters and sample
    blocks for the Monte Carlo estimators.  `work` is what the kernel does
    over the whole range; a pool starts only once it reaches
    _MIN_PARALLEL_WORK, and never with more processes than available cores.
    """
    if work < _MIN_PARALLEL_WORK:
        workers = 1
    else:
        workers = min(workers, _available_cores())
    chunks = _chunk_bounds(p, workers)
    if len(chunks) == 1:
        return [func(*args, *chunks[0])]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(func, *args, lo, hi) for lo, hi in chunks]
        return [f.result() for f in futures]


@dataclass(frozen=True)
class CanonicalTriple:
    """Reduction of a distinct triple (x, y, z) to (0, 1, d).

    The affine map t -> (alpha*t + beta) mod p with alpha = y - x, beta = x
    sends (0, 1, d) to (x, y, z); composing it with the hash family permutes
    the parameter pairs, so every joint-mapping count for (x, y, z) equals
    the count for (0, 1, d).
    """

    d: int
    alpha: int
    beta: int


def canonicalize_triple(p: int, x: int, y: int, z: int) -> CanonicalTriple:
    """Canonical (0, 1, d) form of a distinct triple; d is never 0 or 1."""
    if len({x % p, y % p, z % p}) != 3:
        raise ValueError(f"triple ({x}, {y}, {z}) is not distinct mod {p}")
    alpha = (y - x) % p
    beta = x % p
    d = mod_inverse(alpha, p) * (z - beta) % p
    return CanonicalTriple(d=d, alpha=alpha, beta=beta)


def _require_enumerable(p: int) -> None:
    if p > MAX_MODULUS:
        raise ValueError(f"p={p} exceeds the enumerable range ({MAX_MODULUS})")


# Cap on rows times multipliers per block of the agreement pass.  The lemma
# triple checks at (257, 16) (canonical, bounds, decomposition) peak at
# 0.56 / 0.87 / 1.35 MiB of traced numpy memory and take 0.082 / 0.062 /
# 0.055 s with 2^12 / 2^13 / 2^14 cells (2-vCPU Xeon, numpy 2.4, median of
# 5); past 2^13 memory grows faster than time falls.  At (21787, 512) every
# block is one row whatever the cap (figure1's 163 rows: 1.53 MiB, 0.086 s).
_ROW_BLOCK_CELLS = 1 << 13


def _agreement_sets(p, m, rows, lo_a, hi_a):
    """Closed-form sets of b on which y and z agree with x, for a in [lo_a, hi_a).

    Rows are (x, y, z) or (x, y, z, ix, iy, iz) (targets i_t = 0 in the first
    form), taken in blocks of at most _ROW_BLOCK_CELLS rows times multipliers
    (one row at least).  For fixed a, t wraps at c_t = p - v_t, v_t = a*t mod p,
    so with u_t = v_t - i_t, h(t) - i_t = h(x) - i_x (mod m) holds on
    S_t = {b : u_t - u_x = p*([b >= c_t] - [b >= c_x]) (mod m)}.  The right
    side is 0 outside I_t, the interval between c_t and c_x on which exactly
    one of t, x has wrapped, and q = p mod m (t has) or -q (x has) on it, so
    1[S_t] = f_t + k_t*1[I_t] with e_t = (u_t - u_x) mod m, f_t = [e_t = 0]
    and k_t = [e_t = +-q] - f_t.  S_t is empty unless e_t is 0, q or -q, so
    per block it yields (r, v_x, y, z) only for the cells (row r, a) where
    both e_y and e_z are; y and z are (d_t, f_t, k_t), with d_t = v_t - v_x
    = c_x - c_t, so I_t lies below c_x when d_t > 0.  All are 1-D arrays.
    """
    a = np.arange(lo_a, hi_a, dtype=np.int64)
    step = max(1, _ROW_BLOCK_CELLS // max(1, len(a)))
    q, mq = p % m, -p % m
    for start in range(0, len(rows), step):
        x, y, z, *targets = rows[start : start + step].T[:, :, None]
        ix, iy, iz = targets or (0, 0, 0)
        vx = rem(a * x, p)
        dy, dz = rem(a * y, p) - vx, rem(a * z, p) - vx
        ey, ez = rem(dy - (iy - ix), m), rem(dz - (iz - ix), m)
        live = (ey == 0) | (ey == q) | (ey == mq)
        live &= (ez == 0) | (ez == q) | (ez == mq)
        cell = np.flatnonzero(live)
        sets = []
        for d, e in ((dy, ey), (dz, ez)):
            d, e = d.ravel()[cell], e.ravel()[cell]
            f = e == 0
            sets.append((d, f, (e == np.where(d > 0, q, mq)) - f.astype(np.int64)))
        yield start + cell // len(a), vx.ravel()[cell], *sets


def _overlap(full, y, n_y, z, n_z):
    """Measure of S_y & S_z per cell, given that of [0, p) and n_t of I_t.

    I_y and I_z share the endpoint c_x, so they meet only when on the same
    side of it, on the shorter one.
    """
    (d_y, f_y, k_y), (d_z, f_z, k_z) = y, z
    both = np.minimum(n_y, n_z) * ((d_y > 0) == (d_z > 0))
    return f_y * (f_z * full + k_z * n_z) + k_y * (f_z * n_y + k_z * both)


def _triple_chunk(p, m, rows, lo_a, hi_a):
    """Per-row collision counts of (x, y, z) rows over a in [lo_a, hi_a)."""
    out = np.zeros(len(rows), dtype=np.int64)
    for r, _, y, z in _agreement_sets(p, m, rows, lo_a, hi_a):
        # Every b counts, so the measure of I_t is its length.
        np.add.at(out, r, _overlap(p, y, abs(y[0]), z, abs(z[0])))
    return out


def _prescribed_chunk(p, m, rows, lo_a, hi_a):
    """Per-row counts of (x, y, z, ix, iy, iz) rows over a in [lo_a, hi_a)."""
    out = np.zeros(len(rows), dtype=np.int64)
    q = p % m

    def upto(c, rho):
        """How many b < c lie in residue class rho mod m."""
        return (c - rho + m - 1) // m

    for r, vx, y, z in _agreement_sets(p, m, rows, lo_a, hi_a):
        # h(x) = ix pins b to one residue class mod m: rho0 below x's wrap
        # point c_x, rho1 = rho0 + q from there on.  Every I_t ends at c_x.
        cx = p - vx
        rho0 = rem(rows[r, 3] - vx, m)
        rho1 = rem(rho0 + q, m)
        below_x, above_x = upto(cx, rho0), upto(cx, rho1)
        full = below_x + upto(p, rho1) - above_x
        n_y, n_z = (
            abs(upto(cx - d, np.where(d > 0, rho0, rho1)) - np.where(d > 0, below_x, above_x))
            for d, _, _ in (y, z)
        )
        np.add.at(out, r, _overlap(full, y, n_y, z, n_z))
    return out


def _count_rows(chunk, width, mod, queries, workers, budget, what):
    """Validate (x, y, z[, ix, iy, iz]) rows, then count them all in one pass over a."""
    p, m = mod.p, mod.m
    _require_enumerable(p)
    if len(queries) == 0:
        return np.zeros(0, dtype=np.int64)
    try:
        rows = np.asarray(queries, dtype=np.int64)
    except (OverflowError, ValueError):
        # Ragged rows, or entries past int64: as Python objects they fail the
        # width or range checks below, with the same messages.
        rows = np.asarray(queries, dtype=object)
    if rows.shape[1:] != (width,):
        bad = next((q for q in queries if len(q) != width), queries[0])
        raise ValueError(f"each row needs {width} entries, got {bad}")
    elements, targets = rows[:, :3], rows[:, 3:]
    x, y, z = elements.T
    if not ((elements >= 0) & (elements < p)).all() or ((x == y) | (y == z) | (x == z)).any():
        raise ValueError(f"elements must be distinct and in [0, {p})")
    if not ((targets >= 0) & (targets < m)).all():
        raise ValueError(f"bin targets must lie in [0, {m})")
    # Every row costs one literal query, 3p^2, so a batch is charged that
    # once; the pool decision sees the kernel work of the whole batch.
    _check_budget(3 * p * p, budget, what)
    return sum(_map_chunks(chunk, p, workers, 3 * p * len(rows), (p, m, rows)))


def count_triple_collisions(
    mod: Modulus, triples, workers: int = 1, budget: int | None = None
) -> np.ndarray:
    """Exact number of (a, b) pairs mapping x, y, z all to one bin, per row.

    triples is a sequence of (x, y, z) rows, answered in one pass; entry r
    of the int64 result counts row r's pairs out of p^2.  The budget is
    charged 3p^2, the literal cost of one row, once per batch.
    """
    return _count_rows(
        _triple_chunk, 3, mod, triples, workers, budget, "triple collision count"
    )


def count_prescribed_triple(
    mod: Modulus, queries, workers: int = 1, budget: int | None = None
) -> np.ndarray:
    """Exact number of (a, b) pairs with h(x) = ix, h(y) = iy, h(z) = iz, per row.

    queries is a sequence of (x, y, z, ix, iy, iz) rows; entry r of the
    int64 result counts row r's pairs out of p^2.  The budget is charged
    3p^2 once per batch.
    """
    return _count_rows(
        _prescribed_chunk, 6, mod, queries, workers, budget, "prescribed triple count"
    )


def _interval_chunk(p, m, d_max, lo_a, hi_a):
    """Counts of pairs colliding all of [d], for d = 2..d_max, over a in [lo_a, hi_a)."""
    a = np.arange(lo_a, hi_a, dtype=np.int64)
    # Valid b values for "h(t) = h(0)" form one interval per element t (for
    # 1 < m < p the prefix and suffix cases exclude each other since m does
    # not divide p; at m = p they coincide); the interval [t + 1] collides on
    # the intersection over 1..t, so one pass over t yields every length.
    lo = np.zeros_like(a)
    hi = np.full_like(a, p)
    counts = np.empty(d_max - 1, dtype=np.int64)
    q = p % m
    for t in range(1, d_max):
        vt = rem(a * t, p)
        ct = p - vt
        # Below t's wrap point h(t) = h(0) iff v_t = 0, above it iff v_t = q (mod m).
        r = rem(vt, m)
        pre, suf = r == 0, r == q
        # A t in neither case empties the set for good: hi = 0 <= lo from then on.
        hi = np.where(pre, np.minimum(hi, ct), np.where(suf, hi, 0))
        lo = np.where(~pre & suf, np.maximum(lo, ct), lo)
        counts[t - 1] = np.maximum(0, hi - lo).sum()
    return counts


def count_interval_collisions(
    mod: Modulus, d_max: int, workers: int = 1, budget: int | None = None
) -> np.ndarray:
    """Exact interval collision counts for every length d = 2..d_max, in one pass.

    Entry d - 2 of the int64 result counts the (a, b) pairs, out of p^2,
    mapping all of {0, ..., d-1} to one bin.  The pass costs O(d_max * p);
    the budget is charged d_max * p^2, the most that one literal count among
    them would cost.
    """
    p, m = mod.p, mod.m
    _require_enumerable(p)
    if not 2 <= d_max <= p:
        raise ValueError(f"d must satisfy 2 <= d <= p, got {d_max}")
    if m == 1:
        # One bin: prefix and suffix cases coincide and every (a, b) collides.
        return np.full(d_max - 1, p * p, dtype=np.int64)
    _check_budget(d_max * p * p, budget, "interval collision count")
    return sum(_map_chunks(_interval_chunk, p, workers, d_max * p, (p, m, d_max)))


def count_interval_collision(
    mod: Modulus, d: int, workers: int = 1, budget: int | None = None
) -> int:
    """Exact number of (a, b) pairs, out of p^2, mapping all of {0, ..., d-1} to one bin."""
    return int(count_interval_collisions(mod, d, workers, budget)[-1])


@dataclass(frozen=True)
class TripleCollisionBounds:
    """Candidate upper bounds on the collision probability of {0, 1, d}.

    statement: (1 + max(1, p/(d*m)) * (1 + d/m)) / p
    proof:     (1 + (1 + p/d)/m) * (1 + d/m) / p

    The two forms differ and neither is proved tight here; experiments
    compare each against the exhaustive count and report which ones hold.
    """

    statement: Fraction
    proof: Fraction


def triple_bound_formula(mod: Modulus, d: int) -> TripleCollisionBounds:
    """All candidate bound values for the collision probability of {0, 1, d}."""
    p, m = mod.p, mod.m
    if not 2 <= d < p:
        raise ValueError(f"d must satisfy 2 <= d < p, got {d}")
    statement = (1 + max(Fraction(1), Fraction(p, d * m)) * (1 + Fraction(d, m))) / p
    proof = (1 + (1 + Fraction(p, d)) / m) * (1 + Fraction(d, m)) / Fraction(p)
    return TripleCollisionBounds(statement=statement, proof=proof)


def interval_lower_bound(mod: Modulus, d: int) -> Fraction:
    """Guaranteed lower bound 1/(6*d*m) on the interval collision probability.

    Only claimed for d <= m under p > 3*m^2.
    """
    p, m = mod.p, mod.m
    if not 2 <= d <= m:
        raise ValueError(f"the bound requires 2 <= d <= m, got d={d}, m={m}")
    if p <= 3 * m * m:
        raise ValueError(f"the bound requires p > 3*m^2, got p={p}, m={m}")
    return Fraction(1, 6 * d * m)


def _maxloads_b_zero_chunk(p, m, elements, lo_a, hi_a):
    s = np.asarray(elements, dtype=np.int64)
    a = np.arange(lo_a, hi_a, dtype=np.int64)
    return max_loads(len(a), len(s), m, lambda lo, hi: rem(rem(a[lo:hi, None] * s, p), m))


def maxloads_b_zero(mod: Modulus, ks: KeySet, workers: int = 1) -> np.ndarray:
    """Max load of h_{a,0} on the key set, for every a in [p]."""
    p, m = mod.p, mod.m
    _require_enumerable(p)
    elements = materialize(ks, mod)
    parts = _map_chunks(
        _maxloads_b_zero_chunk, p, workers, p * len(elements), (p, m, elements)
    )
    return np.concatenate(parts)


def maxloads_for_a(mod: Modulus, ks: KeySet, a: int) -> np.ndarray:
    """Max load of h_{a,b} on the key set, for every b in [p] at fixed a."""
    p, m = mod.p, mod.m
    _require_enumerable(p)
    if not 0 <= a < p:
        raise ValueError(f"a={a} out of range for p={p}")
    v = a * np.asarray(materialize(ks, mod), dtype=np.int64) % p
    b = np.arange(p, dtype=np.int64)
    return max_loads(p, len(v), m, lambda lo, hi: (v + b[lo:hi, None]) % p % m)


# Cap on cells per array in the wrap-event kernel; smaller blocks stay in
# cache, larger ones pay less per-event interpreter overhead.
_EVENT_BLOCK_CELLS = 1 << 19


def _maxload_credits(p, m, elements, lo_a, hi_a):
    """Per-a histograms of the max load over every b, by wrap events.

    Yields (lo, hi, credit) per block of multipliers a in [lo_a, hi_a);
    credit[r, L] is the number of b with max load L at a = lo + r.
    For fixed a, key x sits in class r_x = v_x mod m of the b-rotated bins
    until b reaches its wrap point c_x = p - v_x (p when v_x = 0, i.e. never),
    where it moves to class (r_x - p) mod m.  Rows of a block are replayed in
    lockstep, one event per step; per-class counts plus a count of classes
    at each load keep the running max exact in O(1) per event, and each
    segment [c_{k-1}, c_k) credits its length to the max in force on it.
    """
    s = np.asarray(elements, dtype=np.int64)
    n = len(s)
    step = max(1, _EVENT_BLOCK_CELLS // (n + m + 1))
    for blk in range(lo_a, hi_a, step):
        a = np.arange(blk, min(blk + step, hi_a), dtype=np.int64)
        rows = np.arange(len(a), dtype=np.int64)
        v = rem(a[:, None] * s[None, :], p)
        events = (p - v) * m
        r = rem(v, m)  # v itself is not read past here
        # One sort orders each row by wrap point and carries the class along.
        events = np.sort(events + r, axis=1)
        wrap, cls = np.divmod(np.ascontiguousarray(events.T), m)
        cls_base = rows * m
        load_base = rows * (n + 1)
        cnt = np.bincount((cls_base[:, None] + r).ravel(), minlength=len(a) * m)
        n_at = np.bincount(
            (load_base[:, None] + cnt.reshape(-1, m)).ravel(), minlength=len(a) * (n + 1)
        )
        top = cnt.reshape(-1, m).max(axis=1)
        credit = np.zeros(len(a) * (n + 1), dtype=np.int64)
        prev = 0
        for k in range(n):
            credit[load_base + top] += wrap[k] - prev
            prev = wrap[k]
            i = cls_base + cls[k]
            old = cnt[i]
            n_at[load_base + old] -= 1
            n_at[load_base + old - 1] += 1
            cnt[i] = old - 1
            top -= n_at[load_base + top] == 0
            j = cls_base + rem(cls[k] - p, m)
            new = cnt[j] + 1
            n_at[load_base + new - 1] -= 1
            n_at[load_base + new] += 1
            cnt[j] = new
            np.maximum(top, new, out=top)
        credit[load_base + top] += p - prev
        yield blk, blk + len(a), credit.reshape(-1, n + 1)


def _maxload_hist_all_b_chunk(p, m, elements, lo_a, hi_a):
    """Max-load histogram over a in [lo_a, hi_a) and every b."""
    hist = np.zeros(len(elements) + 1, dtype=np.int64)
    for _, _, credit in _maxload_credits(p, m, elements, lo_a, hi_a):
        hist += credit.sum(axis=0)
    return hist


def exact_maxload_histogram(
    mod: Modulus,
    ks: KeySet,
    b_mode: str = "all_b",
    workers: int = 1,
    budget: int | None = None,
) -> dict[int, int]:
    """Histogram of the max load over every a (b_zero) or every (a, b) (all_b).

    Keys are max-load values, values are the number of parameter tuples
    attaining them; tail probabilities follow by suffix sums.  b_zero bins
    every key once per a.  all_b never scans b: per a it sorts the n wrap
    points of the keys and replays them as class moves (see
    _maxload_hist_all_b_chunk).  Both modes make p*n key placements, which
    is what the budget and the pool decision charge.
    """
    p, m = mod.p, mod.m
    _require_enumerable(p)
    elements = materialize(ks, mod)
    n = len(elements)
    if b_mode == "b_zero":
        _check_budget(p * n, budget, "b=0 max-load histogram")
        maxima = maxloads_b_zero(mod, ks, workers=workers)
        hist = np.bincount(maxima, minlength=n + 1)
    elif b_mode == "all_b":
        _check_budget(p * n, budget, "all-(a,b) max-load histogram")
        parts = _map_chunks(_maxload_hist_all_b_chunk, p, workers, p * n, (p, m, elements))
        hist = sum(parts)
    else:
        raise ValueError(f"b_mode must be 'all_b' or 'b_zero', got {b_mode!r}")
    return {int(load): int(cnt) for load, cnt in enumerate(hist) if cnt > 0}
