"""Exact collision counting and max-load histograms over all (a, b) pairs.

Every count here is an exact enumeration result over the p^2 parameter pairs.
The enumeration is a-major: for a fixed multiplier a, the full value of
element x is (v_x + b) mod p with v_x = a*x mod p, which wraps exactly once
as b sweeps [0, p), at b = p - v_x.  So the inner loop over b has a closed
form: for a triple (x, y, z), the b on which h(t) agrees with h(x) (up to
prescribed bins) are all of [0, p), nothing, one interval ending at x's wrap
point, or its complement.  One pass, _agreement_sets, finds them in two
stages: y's set once per distinct (x, y, (iy - ix) mod m), only at the at
most 4*ceil(p/m) multipliers where a*(y - x) mod p lies in a residue class
mod m that can leave it non-empty, then z's set, row by row, only where
y's is non-empty (about 3/m of the multipliers).  Both triple counters
intersect the two sets where both are non-empty, counting every b or only
those in the residue class h(x) = ix fixes, one call per batch of rows.
The b values on which h(t) = h(0) form one interval per t, so the interval
counter intersects them for t = 1, 2, ... and reads off the count for every
length of [d] along the way.
The all-(a, b) max-load histogram uses the same wrap points: between wraps
the bins are the classes v_x mod m rotated by b, so the max load is
constant, and each wrap moves one key between classes.  Sorting the n wrap
points and replaying them costs O(n log n) per a instead of the O(p*n) of
scanning every b.  The resulting counts are identical to the literal
enumeration that the test suite keeps as its one reference.  The replay,
maxload_credits, yields each a's histogram over b, read by the b-shift check.
maxload_total sums the max load over every b from the same wrap points by
two sorts instead of a step per event, for a few multipliers at large n.
multiplier_runs gives the longest lattice run of [m] under a multiplier, the
covariate of the Monte Carlo linear estimator, by a lockstep Euclid pass
over the sampled multipliers; multiplier_runs_total sums it over every a by
Mobius inversion, with no length-p array.  long_run_counts counts, and
long_run_multipliers lists, the multipliers with R(a) >= s that the
estimator takes exactly.
Both max-load histograms place the keys only for a < (p+1)/2 and take each
p - a from its mirror a.  With b = 0, (p-a)*x = p - a*x (mod p) for x != 0,
so h_{p-a,0} puts x in class (q - r) mod m when h_{a,0} puts it in class r,
q = p mod m, and key 0 stays in class 0.  Over every b, on a key set with
S = c - S (mod p) for some centre c, h_{a,b}(c - x) = h_{p-a,b+ac}(x), so a
and p - a have equal histograms; on other key sets every a runs.
Every array reduction in these kernels is field.rem, in place and cheaper
than numpy's %.  The b = 0 scans and maxloads_for_a hash and count the keys
in the one kernel loads.bin_counts.
The max-load placements run in field.int_type's choice for the largest value
each call forms: a*x + b below max(a)*max(S) + max(b), and the all-b wrap
points p - v at most p.  That is int32 at every m up to 1024 on [m],
at about half the cost of int64; the triple and interval counters stay in
int64.
"""

from __future__ import annotations

import os

import numpy as np

from .field import Modulus, int_type, rem
from .loads import KeySet, bin_counts, materialize, max_loads

# Refuse exhaustive calls whose cost exceeds this, unless the caller raises
# the budget.  Collision counts are charged the hash evaluations of the
# literal (a, b) enumeration; max-load histograms the p*n key placements of
# every multiplier, even where their kernels place the keys for half of them.
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


def __getattr__(name: str):
    # The pool class loads on first use, sparing runs with no pool 20 ms.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return globals().setdefault(name, ProcessPoolExecutor)


def _pool_chunks(p: int, workers: int) -> int:
    """How many parts map_chunks makes of [0, p) once its work reaches the pool threshold."""
    return max(1, min(workers, _available_cores(), p))


def map_chunks(func, p: int, workers: int, work: int, args: tuple) -> list:
    """Apply func(*args, lo, hi) over a partition of [0, p).

    The range holds multipliers a for the exhaustive counters and sample
    blocks for the Monte Carlo estimators.  `work` is what the kernel does
    over the whole range; a pool starts only once it reaches
    _MIN_PARALLEL_WORK, and never with more processes than available cores.
    """
    chunks = _chunk_bounds(p, 1 if work < _MIN_PARALLEL_WORK else _pool_chunks(p, workers))
    if len(chunks) == 1:
        return [func(*args, *chunks[0])]
    with __getattr__("ProcessPoolExecutor")(max_workers=len(chunks)) as pool:
        futures = [pool.submit(func, *args, lo, hi) for lo, hi in chunks]
        return [f.result() for f in futures]


def check_partition_determinism(mod: Modulus, counts: np.ndarray, whole: dict) -> tuple[int, int]:
    """Counts must not depend on how the a-range is chunked across workers.

    counts[d - 2] is the count of (0, 1, d) and whole the all-(a, b) max-load
    histogram of [m], both as a run took them; the triple and event kernels
    are summed here over several splits of the a-range and compared with them.
    """
    p, m = mod.p, mod.m
    d = (p - 1) // 2 if p > 5 else 2
    base = counts[d - 2]
    rows = np.array([(0, 1, d)], dtype=np.int64)
    args = p, m, rows, _row_groups(m, rows)
    checked = violations = 0
    for chunks in (2, 3, 7):
        split = sum(_triple_chunk(*args, lo, hi) for lo, hi in _chunk_bounds(p, chunks))
        violations += int(split[0] != base)
        checked += 1
    # The event kernel's chunk, summed over two sub-ranges of a, as a pool would split it.
    split = sum(_maxload_hist_all_b_chunk(p, m, range(m), lo, hi) for lo, hi in _chunk_bounds(p, 2))
    violations += whole != {load: c for load, c in enumerate(split.tolist()) if c}
    checked += 1
    return checked, violations


# Cap on the cells of each block of the agreement pass: groups times
# candidate multipliers in its first stage, expanded (row, live multiplier)
# cells in its second.  The lemma triple checks at (257, 16) (canonical,
# bounds, decomposition) peak at 0.61 / 0.95 / 1.61 MiB of traced memory
# and take 0.030 / 0.025 / 0.023 s with 2^12 / 2^13 / 2^14 cells (2-vCPU
# Xeon, numpy 2.4, median of 15); past 2^13 memory grows by two thirds for
# a tenth off the time.  figure1's rows at (21787, 512) form one group: its
# 163 rows take about 1 ms at 0.48 MiB, and all 21,785 of --full-sweep
# 0.12 / 0.09 / 0.08 s.
_ROW_BLOCK_CELLS = 1 << 13


def _row_groups(m, rows):
    """Sort order of the rows by (x, y, (iy - ix) mod m), and where each group starts.

    Rows are (x, y, z) or (x, y, z, ix, iy, iz), targets i_t = 0 in the first
    form.  Also returns the sorted columns x, y, z, (iy - ix) mod m and
    iz - ix; the rows of one group share v_x, d_y and e_y at every a.
    """
    x, y, z, *targets = rows.T
    ix, iy, iz = targets or (np.zeros_like(x),) * 3
    wy = rem(iy - ix, m)
    order = np.lexsort((wy, y, x))
    cols = np.stack((x, y, z, wy, iz - ix))[:, order]
    key = cols[[0, 1, 3]]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (key[:, 1:] != key[:, :-1]).any(axis=0)
    return order, np.flatnonzero(new), cols


def _candidate_classes(p, m):
    """Residues of u = a*(y - x) mod p, less (iy - ix) mod m, at which e_y can be live.

    d_y = v_y - v_x is u or u - p, so e_y in {0, q, -q} needs u in one of
    these classes mod m: {-q, 0, q} for d_y = u, {0, q, 2q} for d_y = u - p.
    """
    q = p % m
    return sorted({-q % m, 0, q, 2 * q % m})


def _agreement_sets(p, m, groups, lo_a, hi_a):
    """Closed-form sets of b on which y and z agree with x, for a in [lo_a, hi_a).

    groups is _row_groups of (x, y, z) or (x, y, z, ix, iy, iz) rows (targets
    i_t = 0 in the first form).  For fixed a, t wraps at c_t = p - v_t,
    v_t = a*t mod p, so with u_t = v_t - i_t, h(t) - i_t = h(x) - i_x (mod m) holds on
    S_t = {b : u_t - u_x = p*([b >= c_t] - [b >= c_x]) (mod m)}.  The right
    side is 0 outside I_t, the interval between c_t and c_x on which exactly
    one of t, x has wrapped, and q = p mod m (t has) or -q (x has) on it, so
    1[S_t] = f_t + k_t*1[I_t] with e_t = (u_t - u_x) mod m, f_t = [e_t = 0]
    and k_t = [e_t = +-q] - f_t.  S_t is empty unless e_t is 0, q or -q.

    Two stages.  Rows with equal (x, y, wy), wy = (iy - ix) mod m, share
    v_x, d_y and e_y, so the first stage works once per such group, and it
    does not scan every a.  With u = a*(y - x) mod p, d_y is u or u - p, so
    e_y can be live only where u mod m is wy plus one of the
    _candidate_classes: at most 4*ceil(p/m) values of u.  The stage
    enumerates them, class by class in runs of m, and maps each to
    a = u/(y - x) mod p, with one inverse per distinct y - x.  It keeps the
    a in [lo_a, hi_a), so that any partition of the a-range counts each a
    once, and of those the ones where e_y is live (about 3/m of all
    multipliers).  The second stage expands each row over its group's live
    multipliers only and finds e_z there.  Each stage works in blocks of at
    most _ROW_BLOCK_CELLS cells (groups times candidates, then expanded
    cells; one group or row at least).  Yields (r, v_x, y, z) for the cells
    (row r, a) where both e_y and e_z are live; y and z are (d_t, f_t, k_t),
    with d_t = v_t - v_x = c_x - c_t, so I_t lies below c_x when d_t > 0.
    All are 1-D arrays.
    """
    q, mq = p % m, -p % m
    classes = np.array(_candidate_classes(p, m), dtype=np.int64)
    runs = np.arange(0, p, m, dtype=np.int64)
    per_group = len(classes) * len(runs)

    def live(e):
        return (e == 0) | (e == q) | (e == mq)

    def agree(d, e):
        f = e == 0
        return d, f, (e == np.where(d > 0, q, mq)) - f.astype(np.int64)

    order, starts, (x, y, z, wy, wz) = groups
    bounds = np.append(starts, len(order))
    diff = (y[starts] - x[starts]).tolist()
    inverse_of = {d: pow(d, -1, p) for d in set(diff)}
    inverse = np.array([inverse_of[d] for d in diff], dtype=np.int64)

    def first_stage(first, inv):
        """Live cells of a block of groups: their count per group, a, v_x and y's (d, f, k)."""
        # Candidate u, class by class in runs of m; the last run may pass p.
        u = (rem(wy[first] + classes, m)[:, :, None] + runs).reshape(len(first), -1)
        a = rem(u * inv, p)
        vx = rem(a * x[first], p)
        # v_y = (v_x + u) mod p, so d_y is u, less p where v_x + u passes p.
        dy = u - p * (vx + u >= p)
        ey = rem(dy - wy[first], m)
        cell = np.flatnonzero((u < p) & (a >= lo_a) & (a < hi_a) & live(ey))
        a, vx, dy, ey = (t.ravel()[cell] for t in (a, vx, dy, ey))
        return np.bincount(cell // per_group, minlength=len(first)), a, vx, agree(dy, ey)

    step = max(1, _ROW_BLOCK_CELLS // per_group)
    for g in range(0, len(starts), step):
        first = starts[g : g + step, None]
        # Only the live cells outlive the first stage.
        n_live, a_live, vx, ys = first_stage(first, inverse[g : g + step, None])
        # Live cells come grouped by group, and every row of a group reads
        # its group's run of them: expanded cell e of row i is live cell
        # e + shift[i].
        size = np.diff(bounds[g : g + len(first) + 1])
        per_row = np.repeat(n_live, size)
        end = np.cumsum(per_row)
        shift = np.repeat(np.cumsum(n_live) - n_live, size) - (end - per_row)
        lo = 0
        while lo < len(per_row):
            base = end[lo] - per_row[lo]
            hi = max(lo + 1, int(np.searchsorted(end, base + _ROW_BLOCK_CELLS, "right")))
            n = per_row[lo:hi]
            j = np.repeat(np.arange(starts[g] + lo, starts[g] + hi), n)
            c = np.arange(base, end[hi - 1]) + np.repeat(shift[lo:hi], n)
            dz = rem(a_live[c] * z[j], p) - vx[c]
            ez = rem(dz - wz[j], m)
            keep = np.flatnonzero(live(ez))
            c = c[keep]
            yield order[j[keep]], vx[c], tuple(s[c] for s in ys), agree(dz[keep], ez[keep])
            lo = hi
        # Free this block's cells before the next block's first stage, which
        # would otherwise run beside them and raise the peak memory.
        del a_live, vx, ys, j, c, dz, ez, keep


def _overlap(full, y, n_y, z, n_z):
    """Measure of S_y & S_z per cell, given that of [0, p) and n_t of I_t.

    I_y and I_z share the endpoint c_x, so they meet only when on the same
    side of it, on the shorter one.
    """
    (d_y, f_y, k_y), (d_z, f_z, k_z) = y, z
    both = np.minimum(n_y, n_z) * ((d_y > 0) == (d_z > 0))
    return f_y * (f_z * full + k_z * n_z) + k_y * (f_z * n_y + k_z * both)


def _triple_chunk(p, m, rows, groups, lo_a, hi_a):
    """Per-row collision counts of (x, y, z) rows, in their _row_groups, over a in [lo_a, hi_a)."""
    out = np.zeros(len(rows), dtype=np.int64)
    for r, _, y, z in _agreement_sets(p, m, groups, lo_a, hi_a):
        # Every b counts, so the measure of I_t is its length.
        np.add.at(out, r, _overlap(p, y, abs(y[0]), z, abs(z[0])))
    return out


def _prescribed_chunk(p, m, rows, groups, lo_a, hi_a):
    """Per-row counts of (x, y, z, ix, iy, iz) rows, in their _row_groups, over [lo_a, hi_a)."""
    out = np.zeros(len(rows), dtype=np.int64)
    q = p % m

    def upto(c, rho):
        """How many b < c lie in residue class rho mod m."""
        return (c - rho + m - 1) // m

    for r, vx, y, z in _agreement_sets(p, m, groups, lo_a, hi_a):
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
    # once.  The rows are grouped once, here, and every a-chunk reads that
    # grouping.  The pool decision sees the kernel's cells: each group's
    # candidate multipliers, which every a-chunk enumerates in full, then
    # each row's live multipliers, on average p*|{0, q, -q}|/m of them.
    _check_budget(3 * p * p, budget, what)
    groups = _row_groups(m, rows)
    live = len(rows) * p * len({0, p % m, -p % m}) // m
    candidates = _pool_chunks(p, workers) * len(_candidate_classes(p, m)) * -(-p // m)
    work = candidates * len(groups[1]) + live
    return sum(map_chunks(chunk, p, workers, work, (p, m, rows, groups)))


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
    if not 2 <= d_max <= p:
        raise ValueError(f"d must satisfy 2 <= d <= p, got {d_max}")
    _check_budget(d_max * p * p, budget, "interval collision count")
    if m == 1:
        # One bin: prefix and suffix cases coincide and every (a, b) collides.
        return np.full(d_max - 1, p * p, dtype=np.int64)
    return sum(map_chunks(_interval_chunk, p, workers, d_max * p, (p, m, d_max)))


def count_interval_collision(
    mod: Modulus, d: int, workers: int = 1, budget: int | None = None
) -> int:
    """Exact number of (a, b) pairs, out of p^2, mapping all of {0, ..., d-1} to one bin."""
    return int(count_interval_collisions(mod, d, workers, budget)[-1])


def triple_bound_terms(mod: Modulus, d: int) -> tuple[int, int, int]:
    """Integer numerators (statement, proof) and common denominator p*d*m^2 of the triple bounds.

    statement: (1 + max(1, p/(d*m)) * (1 + d/m)) / p
    proof:     (1 + (1 + p/d)/m) * (1 + d/m) / p

    The two forms differ and neither is proved tight here; experiments compare
    each against the exhaustive count and report which ones hold.
    """
    p, m = mod.p, mod.m
    if not 2 <= d < p:
        raise ValueError(f"d must satisfy 2 <= d < p, got {d}")
    statement = d * m * m + max(d * m, p) * (m + d)
    proof = (d * m + d + p) * (m + d)
    return statement, proof, p * d * m * m


def _b_zero_placement(p, m, elements, lo_a, hi_a):
    """loads.bin_counts arguments placing the keys under h_{a,0}, a in [lo_a, hi_a)."""
    dtype = int_type((hi_a - 1) * max(elements))
    return np.asarray(elements, dtype=dtype), p, m, np.arange(lo_a, hi_a, dtype=dtype)


def _maxloads_b_zero_chunk(p, m, elements, lo_a, hi_a):
    return max_loads(*_b_zero_placement(p, m, elements, lo_a, hi_a))


def _maxload_hist_b_zero_chunk(p, m, elements, lo_a, hi_a):
    """Max-load histogram of h_{a,0} and h_{p-a,0} over a in [lo_a, hi_a).

    p - a is counted where it is another multiplier, 0 < a < p/2.  Its bins
    are a's reflected, class r to (q - r) mod m with q = p mod m, except that
    key 0 stays in class 0: the reflection of a's counts with key 0 moved
    from class 0 to class q.
    """
    n = len(elements)
    q = p % m
    has_zero = 0 in elements
    hist = np.zeros(n + 1, dtype=np.int64)
    for lo, hi, counts in bin_counts(*_b_zero_placement(p, m, elements, lo_a, hi_a)):
        hist += np.bincount(counts.max(axis=1), minlength=n + 1)
        a = np.arange(lo_a + lo, lo_a + hi)
        if has_zero:
            counts[:, 0] -= 1
            counts[:, q] += 1
        mirrored = counts.max(axis=1)[(a > 0) & (2 * a < p)]
        hist += np.bincount(mirrored, minlength=n + 1)
    return hist


def maxloads_b_zero(mod: Modulus, ks: KeySet, workers: int = 1) -> np.ndarray:
    """Max load of h_{a,0} on the key set, for every a in [p]."""
    p, m = mod.p, mod.m
    elements = materialize(ks, mod)
    parts = map_chunks(
        _maxloads_b_zero_chunk, p, workers, p * len(elements), (p, m, elements)
    )
    return np.concatenate(parts)


def maxloads_for_a(mod: Modulus, ks: KeySet, a: int) -> np.ndarray:
    """Max load of h_{a,b} on the key set, for every b in [p] at fixed a."""
    p, m = mod.p, mod.m
    if not 0 <= a < p:
        raise ValueError(f"a={a} out of range for p={p}")
    elements = materialize(ks, mod)
    dtype = int_type(a * max(elements) + p - 1)
    keys = np.asarray(elements, dtype=dtype)
    return max_loads(keys, p, m, np.full(p, a, dtype=dtype), np.arange(p, dtype=dtype))


# Cap on cells per array in the wrap-event kernel; smaller blocks stay in
# cache, larger ones pay less per-event interpreter overhead.
_EVENT_BLOCK_CELLS = 1 << 19


def maxload_credits(p, m, elements, multipliers):
    """Per-a histograms of the max load over every b, by wrap events.

    Yields (lo, hi, credit) per block of the multipliers, an array of a in
    [p]; credit[r, L] is the number of b with max load L at a =
    multipliers[lo + r].  Callers over a range of a pass np.arange(lo_a, hi_a).
    For fixed a, key x sits in class r_x = v_x mod m of the b-rotated bins
    until b reaches its wrap point c_x = p - v_x (p when v_x = 0, i.e. never),
    where it moves to class (r_x - p) mod m.  Rows of a block are replayed in
    lockstep, one event per step.  Per-class counts plus, for each load L,
    the number of classes holding at least L keys keep the running max exact
    in O(1) per event: a key moving out of a class at load L lowers the
    count at L, one moving into a class now at L raises it.  Each segment
    [c_{k-1}, c_k) credits its length to the max in force on it.  Every
    class count and the running max are held as their row's index into
    these counts and credit, load_base + load, so a step does no index
    arithmetic.
    """
    multipliers = np.asarray(multipliers)
    if not multipliers.size:
        return
    dtype = int_type(int(multipliers.max()) * max(elements))
    s = np.asarray(elements, dtype=dtype)
    n, q = len(s), p % m
    step = max(1, _EVENT_BLOCK_CELLS // (n + m + 1))
    for blk in range(0, len(multipliers), step):
        a = multipliers[blk : blk + step].astype(dtype)
        rows = np.arange(len(a), dtype=np.int64)
        # Key x sits in class v_x mod m = (p - c_x) mod m, so sorting the
        # wrap points alone orders the events and gives each one's class.
        wrap = np.subtract(p, rem(a[:, None] * s, p), dtype=int_type(p))
        wrap.sort(axis=1)
        wrap = np.ascontiguousarray(wrap.T)
        # Segment k ends at wrap k; the last one runs from the last wrap to p.
        seg = np.diff(wrap, axis=0, prepend=0, append=p)
        cls = rem(np.subtract(p, wrap, out=wrap), m)
        cls_base = rows * m
        leave = cls + cls_base
        cls -= q
        join = rem(cls, m) + cls_base
        del cls
        load_base = rows * (n + 1)
        # Every key starts in the class it leaves at its wrap.
        cnt = np.bincount(leave.ravel(), minlength=len(a) * m).reshape(-1, m)
        cnt += load_base[:, None]
        top = cnt.max(axis=1)
        cnt = cnt.ravel()
        at_least = np.bincount(cnt, minlength=len(a) * (n + 1)).reshape(-1, n + 1)
        np.cumsum(at_least[:, ::-1], axis=1, out=at_least[:, ::-1])
        at_least = at_least.ravel()
        credit = np.zeros(len(a) * (n + 1), dtype=np.int64)
        for k in range(n):
            credit[top] += seg[k]
            i = leave[k]
            old = cnt[i]
            at_least[old] -= 1
            cnt[i] = old - 1
            top -= at_least[top] == 0
            j = join[k]
            new = cnt[j] + 1
            at_least[new] += 1
            cnt[j] = new
            np.maximum(top, new, out=top)
        credit[top] += seg[n]
        yield blk, blk + len(a), credit.reshape(-1, n + 1)


# Cap on the sort keys plus class counts per block of maxload_total: 64 KiB
# arrays, under glibc's mmap threshold, for a traced peak of 0.4 MiB on
# 1024 keys at m = 1024.
_LEVEL_BLOCK_CELLS = 1 << 13


def _exclusive_cumsum(x: np.ndarray) -> np.ndarray:
    """The sums of x before each entry."""
    total = np.cumsum(x)
    total -= x
    return total


def maxload_total(p, m, elements, multipliers) -> int:
    """The sum of the max load over every b and each of the multipliers, by level sets.

    The same totals as sum(credit @ range(n + 1)) over maxload_credits, with
    no step per event: the max load at b is the number of levels l >= 1 at
    which some class holds at least l keys, so the total is the sum over
    (a, l) of the measure of those b.  A class's count changes only at the
    wrap points c_x of its keys (see maxload_credits): one sort of the 2n
    leave and join events by (a, class, c_x) and a running sum give the
    count each event leaves behind, so each event ends the level it drops
    from or starts the level it reaches.  A second sort by (a, level, c_x)
    and a running sum of starts less ends give N_l, the classes at or above
    l.  Each (a, l) is covered from the start (N_l > 0 at b = 0) or from
    its starts that leave N_l = 1, until its ends that leave N_l = 0 or p.
    The linear estimator's stratum at m = 1024, 35 multipliers of 1024
    keys, takes 4 ms here and 8 ms in the replay, whose steps are paid per
    block of rows, at a quarter of its traced memory (2-vCPU Xeon).
    """
    s = np.asarray(elements, dtype=np.int64)
    n, q = len(s), p % m
    pb, cb = p.bit_length(), (m - 1).bit_length()
    multipliers = np.asarray(multipliers, dtype=np.int64)
    # A key packs (a, class) or (a, level) above pb bits of c_x and one of
    # kind (1 = join, a start); p < 2^31 and n < p keep it below 2^63.
    step = min(
        max(1, _LEVEL_BLOCK_CELLS // (2 * n + (1 << cb))), (1 << 62 - pb) // max(1 << cb, n + 1)
    )
    total = 0
    for blk in range(0, len(multipliers), step):
        a = multipliers[blk : blk + step]
        rows = len(a)
        v = rem(a[:, None] * s, p)
        wrap = p - v
        row = np.arange(rows, dtype=np.int64)[:, None] << cb
        leave = rem(v, m) + row
        join = rem(leave - row - q, m) + row
        # Every key starts in the class it leaves; base is a class's count
        # before its first event less the running sum at that point.
        init = np.bincount(leave.ravel(), minlength=rows << cb)
        base = init - _exclusive_cumsum(np.bincount(join.ravel(), minlength=rows << cb) - init)
        key = np.concatenate([(leave << pb | wrap).ravel() << 1, (join << pb | wrap).ravel() << 1 | 1])
        key.sort()
        start = key & 1
        group = key >> pb + 1
        # The count an event leaves is the level it starts; one above, the level it ends.
        level = np.cumsum(2 * start - 1) + base[group] + 1 - start
        levels = int(max(level.max(), init.max())) + 1
        key = ((group >> cb) * levels + level << pb | key >> 1 & (1 << pb) - 1) << 1 | start
        key.sort()
        # held[a, l]: the classes holding at least l >= 1 keys at b = 0.
        held = np.bincount(init + np.repeat(np.arange(rows) * levels, 1 << cb), minlength=rows * levels)
        held = held.reshape(rows, levels)[:, ::-1].cumsum(axis=1)[:, ::-1].ravel()
        held[::levels] = 0
        start = key & 1
        group = key >> pb + 1
        delta = 2 * start - 1
        net = np.bincount(group, weights=delta, minlength=rows * levels).astype(np.int64)
        above = np.cumsum(delta) + (held - _exclusive_cumsum(net))[group]
        wrap = key >> 1 & (1 << pb) - 1
        # An end leaving N_l = 0 closes a covered stretch at its c_x, a start
        # leaving N_l = 1 opens one; what is still open closes at p.
        edge = above == start
        total += int(wrap[edge].sum()) - 2 * int(wrap[edge & (start == 1)].sum())
        total += p * int(np.count_nonzero(held + net))
    return total


def _maxload_hist_all_b_chunk(p, m, elements, lo_a, hi_a):
    """Max-load histogram over a in [lo_a, hi_a) and every b."""
    hist = np.zeros(len(elements) + 1, dtype=np.int64)
    for _, _, credit in maxload_credits(p, m, elements, np.arange(lo_a, hi_a)):
        hist += credit.sum(axis=0)
    return hist


def _mirror_centre(p: int, elements) -> int | None:
    """A centre c with S = c - S (mod p), or None when S is not its own mirror."""
    n = len(elements)
    if n == p:
        return 0  # the whole field is its own mirror about every c
    # Summing c - s over S gives n*c = 2*sum(S) (mod p), so c is the one candidate.
    c = 2 * sum(elements) * pow(n, -1, p) % p
    return c if {(c - x) % p for x in elements} == set(elements) else None


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
    maxload_credits).

    Both modes place the keys only for a < (p+1)/2 and take p - a from a.
    b_zero: (p-a)*x = p - a*x (mod p) for x != 0, so h_{p-a,0} moves a's
    class r to (q - r) mod m, q = p mod m, and leaves key 0 in class 0.
    all_b, on a key set with S = c - S (mod p): h_{a,b}(c - x) =
    h_{p-a,b+ac}(x), so a and p - a have equal histograms over b; other key
    sets run every a.  The budget charges p*n key placements, the pool
    decision the placements made.
    """
    p, m = mod.p, mod.m
    elements = materialize(ks, mod)
    n = len(elements)
    half = p // 2 + 1
    args = (p, m, elements)
    if b_mode == "b_zero":
        _check_budget(p * n, budget, "b=0 max-load histogram")
        hist = sum(map_chunks(_maxload_hist_b_zero_chunk, half, workers, half * n, args))
    elif b_mode == "all_b":
        _check_budget(p * n, budget, "all-(a,b) max-load histogram")
        if half < p and _mirror_centre(p, elements) is not None:
            hist = 2 * sum(map_chunks(_maxload_hist_all_b_chunk, half, workers, half * n, args))
            hist[n] -= p  # a = 0 is its own mirror: every b puts all n keys in one bin
        else:
            hist = sum(map_chunks(_maxload_hist_all_b_chunk, p, workers, p * n, args))
    else:
        raise ValueError(f"b_mode must be 'all_b' or 'b_zero', got {b_mode!r}")
    return {int(load): int(cnt) for load, cnt in enumerate(hist) if cnt > 0}


def multiplier_runs(mod: Modulus, a) -> np.ndarray:
    """R(a), the longest lattice run of the keys [m] under multiplier a, for each a given.

    R(0) = m.  For a != 0, R(a) is the largest min(ceil(m/x0), floor(q/|k|)),
    q = floor(p/m), over the pairs with a*x0 = k*m (mod p), 1 <= x0 < m/2 and
    1 <= |k| <= q/3, or 1 when there is none: keys x0 apart then lie k*m
    apart in [p], so a run of at least 3 of them shares a bin class.  With
    c = a/m mod p the pairs solve c*x0 = k (mod p).  A multiplier has at most
    one primitive pair, since the cross products of two differ by less than
    p/3 and so are equal, and every multiple of it runs shorter.  As
    |k|*x0 < p/6, Legendre's theorem makes it a convergent of c/p: a step of
    Euclid's algorithm on (p, c), whose remainder is |k| and the absolute
    value of whose Bezout coefficient is x0.  The multipliers run that
    algorithm in lockstep until the coefficient reaches m/2, each step
    recording the pair of a step that qualifies.  Every value is an integer
    below 2^53 in float64, and each quotient the floor of a correctly
    rounded ratio of integers below 2^31, so the arithmetic is exact.
    """
    p, m = mod.p, mod.m
    q = p // m
    a = np.asarray(a, dtype=np.int64)
    runs = np.where(a == 0, m, 1)
    if m < 3 or q < 3:
        return runs  # no x0 in [1, m/2) or no k with 1 <= |k| <= q/3
    at = np.flatnonzero(a)
    # r0 and r1 are consecutive remainders, u0 and u1 the absolute values of
    # their coefficients, which alternate in sign: r1 = +-u1*c (mod p).
    r0, r1 = np.full(at.size, float(p)), (a.ravel()[at] * pow(m, -1, p) % p).astype(float)
    u0, u1 = np.zeros(at.size), np.ones(at.size)
    while (live := u1 < m / 2).any():
        # Drop the finished multipliers once half are.
        if 2 * np.count_nonzero(live) < live.size:
            keep = np.flatnonzero(live)
            at, r0, r1, u0, u1, live = (v[keep] for v in (at, r0, r1, u0, u1, live))
        hit = np.flatnonzero(live & (r1 <= q // 3))
        runs.flat[at[hit]] = np.minimum(np.ceil(m / u1[hit]), np.floor(q / r1[hit]))
        quo = np.floor(r0 / np.maximum(r1, 1.0))
        r0, r1 = r1, r0 - quo * r1
        u0, u1 = u1, u0 + quo * u1
    return runs


def _mobius(n: int) -> np.ndarray:
    """The Mobius function mu(t) for t in [0, n], mu(0) unused."""
    mu = np.ones(n + 1, dtype=np.int64)
    composite = np.zeros(n + 1, dtype=bool)
    for t in range(2, n + 1):
        if not composite[t]:
            composite[t::t] = True
            mu[t::t] *= -1
            mu[t * t :: t * t] = 0
    return mu


def long_run_counts(mod: Modulus) -> np.ndarray:
    """C(s), the multipliers with R(a) >= s and k > 0 in their primitive pair, s = 0..max(m, 2) + 1.

    A multiplier with a primitive pair (x0, k) has R(a) >= s, for s >= 3,
    exactly when x0 <= X_s = ceil(m/(s-1)) - 1 and |k| <= Y_s =
    floor(floor(p/m)/s).  So C(s) counts the coprime pairs in [1, X_s] x
    [1, Y_s]: the sum over t of mu(t) * floor(X_s/t) * floor(Y_s/t), O(m log m)
    terms over every s.  Entries below s = 3 are 0, and so is the last, where
    X_s = 0.
    """
    p, m = mod.p, mod.m
    counts = np.zeros(max(m, 2) + 2, dtype=np.int64)
    s = np.arange(3, len(counts))
    x, y = -(-m // (s - 1)) - 1, p // m // s
    terms = np.minimum(x, y)
    s, x, y, terms = s[terms > 0], x[terms > 0], y[terms > 0], terms[terms > 0]
    if s.size:
        # One row per (s, t), t = 1..terms[s].
        starts = np.cumsum(terms) - terms
        row = np.repeat(np.arange(s.size), terms)
        t = np.arange(row.size) - starts[row] + 1
        pairs = _mobius(int(terms.max()))[t] * (x[row] // t) * (y[row] // t)
        counts[s] = np.add.reduceat(pairs, starts)
    return counts


def long_run_multipliers(mod: Modulus, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The multipliers with R(a) >= s and k > 0 in their primitive pair, and their R.

    They are the a = k*m*x0^-1 mod p over the C(s) coprime pairs (x0, k) of
    long_run_counts, for s >= 3, each with R(a) = min(ceil(m/x0),
    floor(floor(p/m)/k)).  Their mirrors p - a, of pair (x0, -k) and the same
    R, are the other C(s) multipliers with R >= s; a = 0, with R(0) = m, is
    neither.
    """
    p, m = mod.p, mod.m
    if s < 3:
        raise ValueError(f"long runs start at s = 3, got {s}")
    x_max, y_max = -(-m // (s - 1)) - 1, p // m // s
    x0, k = np.meshgrid(np.arange(1, x_max + 1), np.arange(1, y_max + 1), indexing="ij")
    coprime = np.gcd(x0, k) == 1
    x0, k = x0[coprime], k[coprime]
    # Any pair has k <= Y_s, so p >= 3m > x0 and x0 is invertible.
    inverse = {x: pow(x, -1, p) for x in set(x0.tolist())}
    a = k * m % p * np.array([inverse[x] for x in x0.tolist()], dtype=np.int64) % p
    return a, np.minimum(-(-m // x0), p // m // k)


def multiplier_runs_total(mod: Modulus, counts: np.ndarray) -> int:
    """The sum of multiplier_runs over every a in [p], from counts = long_run_counts(mod).

    Each primitive pair (x0, k) with k > 0 names one a and -k names p - a, and
    an a without one has R(a) = 1.  A pair's R - 1 is 2 + the number of
    s in [4, m] with R >= s.  So the sum is m + (p - 1) + 2*(2*C(3) + C(4) +
    ... + C(m)), exactly and with no length-p array.
    """
    return mod.m + mod.p - 1 + 2 * int(counts[3] + counts[3:].sum())
