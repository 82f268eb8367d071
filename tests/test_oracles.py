"""Exhaustive counting oracles, checked against the literal enumeration of reference."""

import functools
import itertools
import math
import os
import subprocess
import sys
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest

from linbins import oracles
from linbins.experiments import check_interval_lower_bound
from linbins.field import Modulus, int_type, is_prime, next_prime_at_least
from linbins.loads import AffineImage, Explicit, Interval, materialize
from linbins.oracles import (
    WorkBudgetError,
    _chunk_bounds,
    _interval_chunk,
    _maxload_hist_all_b_chunk,
    _maxload_hist_b_zero_chunk,
    _maxloads_b_zero_chunk,
    _mirror_centre,
    _prescribed_chunk,
    _triple_chunk,
    count_interval_collision,
    count_interval_collisions,
    count_prescribed_triple,
    count_triple_collisions,
    exact_maxload_histogram,
    long_run_counts,
    long_run_multipliers,
    maxload_credits,
    maxload_total,
    maxloads_b_zero,
    maxloads_for_a,
    multiplier_runs,
    multiplier_runs_total,
    triple_bound_terms,
)
from reference import (
    canonicalize_triple,
    literal_bins,
    literal_interval_counts,
    literal_maxloads,
    literal_multiplier_runs,
    literal_row_counts,
)


def chunk_args(p, m, rows):
    """The leading arguments of a triple chunk kernel: rows grouped once, as _count_rows does."""
    return p, m, rows, oracles._row_groups(m, rows)


def hist_of(maxima):
    """Histogram of an array of max loads, as exact_maxload_histogram gives it."""
    return {load: int(cnt) for load, cnt in enumerate(np.bincount(np.ravel(maxima))) if cnt > 0}


@functools.cache
def maxload_grid(mod, ks):
    """The literal max load of h_{a,b} on the key set, row a and column b; shared, so read-only."""
    grid = literal_maxloads(mod.p, mod.m, materialize(ks, mod), range(mod.p))
    grid.flags.writeable = False
    return grid


def test_triple_counts_match_naive_enumeration():
    for p in (5, 7, 13):
        for m in sorted({1, 2, 3, p // 2 + 1, p}):
            mod = Modulus(p, m)
            # Every ordered triple of the first six elements, in one batch.
            triples = list(itertools.permutations(range(min(p, 6)), 3))
            fast = count_triple_collisions(mod, triples)
            assert fast.tolist() == literal_row_counts(p, m, triples), (p, m)
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
            assert fast.tolist() == literal_row_counts(p, m, rows), (p, m)


def test_batched_counts_at_partial_row_blocks(monkeypatch):
    mod = Modulus(13, 3)
    triples = list(itertools.permutations(range(5), 3))  # 60 rows
    queries = [(*t, i, (i + 1) % 3, i) for t in triples for i in range(3)]  # 180 rows
    whole = (count_triple_collisions(mod, triples), count_prescribed_triple(mod, queries))
    # At m = 3 every multiplier is live, so a row expands to 13 cells: 1, 7
    # and 59 rows per second-stage block, 7 and 59 leaving a partial last
    # block.  Each batch has 20 groups of 15 first-stage candidates (3
    # classes, runs of 5), so 45 cells hold 3 groups, the last block 2.
    assert len(oracles._candidate_classes(13, 3)) * -(-13 // 3) == 15
    for cells in (1 * 13, 7 * 13, 59 * 13, 3 * 15):
        monkeypatch.setattr(oracles, "_ROW_BLOCK_CELLS", cells)
        blocked = (count_triple_collisions(mod, triples), count_prescribed_triple(mod, queries))
        assert all(map(np.array_equal, blocked, whole)), cells
    assert [*whole[0].tolist(), *whole[1].tolist()] == literal_row_counts(13, 3, triples + queries)


@pytest.mark.parametrize("p, m", ((11, 3), (11, 11), (11, 1), (13, 5)))
def test_many_group_batches_match_naive_over_chunks(p, m):
    # The first stage of the agreement pass maps each group's candidate
    # u = a*(y - x) mod p back to a and keeps those in the chunk.  At (11, 3)
    # 3q = 0 (mod m), so the classes -q and 2q coincide; at m = p the one
    # class is u = (iy - ix) mod m; at m = 1 every u is a candidate.  At
    # (11, 3) and (13, 5) m does not divide p, so some class's last run of
    # candidates passes p.
    classes = {(11, 3): 3, (11, 11): 1, (11, 1): 1, (13, 5): 4}[p, m]
    assert len(oracles._candidate_classes(p, m)) == classes
    rng = np.random.default_rng(p * m)
    # 42 groups of 5 triples; the queries take each triple with random
    # targets and with the targets of one (a, b), so that few counts are 0,
    # and split the groups further by (iy - ix) mod m.
    triples = np.array(list(itertools.permutations(range(7), 3)), dtype=np.int64)
    a, b = rng.integers(0, p, size=(2, len(triples), 1))
    hit = (a * triples + b) % p % m
    queries = np.vstack(
        [np.hstack([triples, rng.integers(0, m, size=triples.shape)]), np.hstack([triples, hit])]
    )
    chunks = _chunk_bounds(p, 3)
    assert len(chunks) == 3
    triple = sum(_triple_chunk(*chunk_args(p, m, triples), lo, hi) for lo, hi in chunks)
    prescribed = sum(_prescribed_chunk(*chunk_args(p, m, queries), lo, hi) for lo, hi in chunks)
    assert [*triple, *prescribed] == literal_row_counts(p, m, [*triples, *queries])


def test_counts_match_full_grid_on_general_rows():
    # Random rows with x != 0, so c_x = p - a*x mod p falls on both sides of
    # c_y and c_z as a varies; at these moduli q = p mod m and m - q differ.
    rng = np.random.default_rng(7)
    for p, m in ((257, 5), (257, 16), (1031, 32)):
        triples, queries = [], []
        for _ in range(32):
            x, y, z = (int(t) for t in rng.choice(np.arange(1, p), size=3, replace=False))
            # Targets taken from one (a, b), so no prescribed count is trivially 0.
            a0, b0 = rng.integers(0, p, size=2)
            triples.append((x, y, z))
            queries.append((x, y, z, *literal_bins(p, m, (x, y, z), a0)[b0].tolist()))
        mod = Modulus(p, m)
        expected = literal_row_counts(p, m, triples + queries)
        assert count_triple_collisions(mod, triples).tolist() == expected[:32]
        # An int64 array of rows is accepted as it is.
        fast = count_prescribed_triple(mod, np.array(queries, dtype=np.int64))
        assert fast.tolist() == expected[32:], (p, m)


@pytest.mark.parametrize("m", (1, 2, 5, 31))
def test_grouped_rows_match_full_grid(monkeypatch, m):
    # The agreement pass shares the y test among rows with equal
    # (x, y, (iy - ix) mod m).  Rows here share (x, y) but differ in z; share
    # (x, y) but differ in iy - ix; and share (x, y, iy - ix mod m) with
    # different ix, some with iy wrapping past m.
    p = 31
    x, y = 5, 12
    zs = (0, 1, 2, 20, p - 1)
    triples = [(x, y, z) for z in zs] + [(y, x, 3), (0, y, 3), (x + 1, y, 7)]
    shifts = range(min(m, 3))
    queries = [
        (x, y, z, ix, (ix + s) % m, (ix + s + z) % m)
        for z in zs
        for s in shifts
        for ix in range(m - min(m, 3), m)
    ] + [(y, x, 3, 0, 0, 0), (0, y, 3, m - 1, 0, m // 2)]
    triples = np.array(triples, dtype=np.int64)
    queries = np.array(queries, dtype=np.int64)
    expected = literal_row_counts(p, m, triples), literal_row_counts(p, m, queries)
    mod = Modulus(p, m)

    def counts():
        return (
            count_triple_collisions(mod, triples).tolist(),
            count_prescribed_triple(mod, queries).tolist(),
        )

    assert counts() == expected
    # Chunks of the a-range sum to the whole, as pool workers return them.
    chunks = _chunk_bounds(p, 3)
    triple = sum(_triple_chunk(*chunk_args(p, m, triples), lo, hi) for lo, hi in chunks)
    prescribed = sum(_prescribed_chunk(*chunk_args(p, m, queries), lo, hi) for lo, hi in chunks)
    assert (triple.tolist(), prescribed.tolist()) == expected
    # One group and one row per block, then 7 rows' worth of cells, which
    # splits the largest groups (up to 15 rows) across second-stage blocks.
    for cells in (1, 7 * p):
        monkeypatch.setattr(oracles, "_ROW_BLOCK_CELLS", cells)
        assert counts() == expected, cells


def test_full_sweep_sum_rule():
    # Summing count(0, 1, d) over d = 2..p-1 counts, for every (a, b) with
    # h(0) = h(1), the other elements of [p] in their bin.
    p, m = 257, 16
    counts = count_triple_collisions(Modulus(p, m), [(0, 1, d) for d in range(2, p)])
    expected = 0
    for a in range(p):
        h = literal_bins(p, m, range(p), a)
        pair = h[h[:, 0] == h[:, 1]]  # the b with h(0) = h(1)
        expected += int((pair == pair[:, :1]).sum()) - 2 * len(pair)
    assert int(counts.sum()) == expected


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
            fast = [count_interval_collision(Modulus(p, m), d) for d in range(2, p + 1)]
            assert {type(count) for count in fast} == {int}
            assert fast == literal_interval_counts(p, m, p), (p, m)


def test_interval_sweep_matches_naive_enumeration():
    for p in (5, 7, 13):
        for m in sorted({1, 2, 3, p // 2 + 1, p}):
            sweep = count_interval_collisions(Modulus(p, m), p)
            assert sweep.tolist() == literal_interval_counts(p, m, p), (p, m)
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


def test_interval_sweep_charges_one_bin_too():
    # m = 1 answers without counting, but is charged d*p^2 like any other m.
    mod = Modulus(13, 1)
    work = 13 * 13 * 13
    with pytest.raises(WorkBudgetError, match="interval collision count"):
        count_interval_collisions(mod, 13, budget=work - 1)
    assert count_interval_collisions(mod, 13, budget=work).tolist() == [13 * 13] * 12


@pytest.mark.parametrize(
    "p,m,d_max",
    # Every d <= p at the last three: m = 1 is the sweep's one-bin branch,
    # and Interval(p) the whole field that _mirror_centre takes as its own mirror.
    [(257, 16, 40), (331, 12, 40), (1031, 32, 40), (197, 8, 40), (13, 1, 13), (13, 3, 13),
     (7, 7, 7)],
)
def test_interval_sweep_agrees_with_event_replay(p, m, d_max):
    # Two independent kernels: [d] collides exactly on the (a, b) whose max
    # load on [d] is d, which the wrap-event replay counts.
    mod = Modulus(p, m)
    sweep = count_interval_collisions(mod, d_max).tolist()
    replay = [exact_maxload_histogram(mod, Interval(d)).get(d, 0) for d in range(2, d_max + 1)]
    assert sweep == replay


def test_triple_count_regressions():
    assert count_triple_collisions(Modulus(13, 3), [(0, 1, 2)])[0] == 29
    assert count_triple_collisions(Modulus(13, 13), [(0, 1, 2)])[0] == 13
    assert count_triple_collisions(Modulus(13, 3), [(2, 5, 11)])[0] == 21
    assert count_interval_collision(Modulus(13, 3), 4) == 21
    assert count_interval_collision(Modulus(197, 8), 4) == 1621


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
    assert canonicalize_triple(13, 0, 1, 7) == 7
    assert canonicalize_triple(13, 2, 5, 11) == 3
    assert canonicalize_triple(13, 5, 2, 11) == 11
    # t -> (y - x)*t + x sends (0, 1, d) to (x, y, z).
    for x, y, z in itertools.permutations(range(13), 3):
        assert (x + (y - x) * canonicalize_triple(13, x, y, z)) % 13 == z, (x, y, z)
    with pytest.raises(ValueError):
        canonicalize_triple(13, 5, 5, 11)


def test_canonicalize_never_degenerate():
    for x, y, z in itertools.permutations(range(3), 3):
        assert canonicalize_triple(13, x, y, z) not in (0, 1)


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


def paper_bounds(p, m, d):
    """Both triple bound forms as the paper writes them, one Fraction step at a time."""
    statement = (1 + max(Fraction(1), Fraction(p, d * m)) * (1 + Fraction(d, m))) / p
    proof = (1 + (1 + Fraction(p, d)) / m) * (1 + Fraction(d, m)) / Fraction(p)
    return statement, proof


BOUND_CASES = [(p, m, range(2, p)) for p, m in ((13, 3), (31, 8), (257, 16), (1031, 32))]
BOUND_CASES += [
    (p, m, (2, 3, p // m, p // 2, p - 2)) for p, m in ((21787, 512), (2**31 - 1, 46340))
]


@pytest.mark.parametrize("p,m,ds", BOUND_CASES, ids=[f"{p}-{m}" for p, m, _ in BOUND_CASES])
def test_triple_bound_formula_matches_paper_form(p, m, ds):
    mod = Modulus(p, m)
    for d in ds:
        statement, proof, den = triple_bound_terms(mod, d)
        assert (Fraction(statement, den), Fraction(proof, den)) == paper_bounds(p, m, d), d


TERM_CASES = [(1031, 32, range(2, 1031))]
TERM_CASES += [(2**31 - 1, 65536, (2, 3, (2**31 - 1) // 65536, (2**31 - 1) // 2, 2**31 - 3))]


@pytest.mark.parametrize("p,m,ds", TERM_CASES, ids=[f"{p}-{m}" for p, m, _ in TERM_CASES])
def test_triple_bound_terms_give_the_formula(p, m, ds):
    # At p = 2^31 - 1 the denominator p*d*m^2 nears 2^94, far past float precision.
    mod = Modulus(p, m)
    for d in ds:
        statement, proof, den = triple_bound_terms(mod, d)
        exact = Fraction(statement, den), Fraction(proof, den)
        assert (statement / den, proof / den) == tuple(map(float, exact)), d


def test_triple_bound_formula_values():
    mod = Modulus(257, 16)
    statement, proof, den = triple_bound_terms(mod, 2)
    # statement form at d=2 with p >= 2m: (1 + (p/2m)(1 + 2/m))/p
    assert Fraction(statement, den) == (1 + Fraction(257, 32) * (1 + Fraction(2, 16))) / 257
    assert Fraction(proof, den) == (1 + (1 + Fraction(257, 2)) / 16) * (1 + Fraction(2, 16)) / 257
    assert ceiling_bound(mod, 2) == Fraction((1 + 9) * (1 + 1), 257)
    with pytest.raises(ValueError, match="^d must satisfy 2 <= d < p, got 1$"):
        triple_bound_terms(mod, 1)
    with pytest.raises(ValueError, match="^d must satisfy 2 <= d < p, got 257$"):
        triple_bound_terms(mod, 257)


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
            statement, proof, den = triple_bound_terms(mod, d)
            assert prob <= Fraction(proof, den), (p, m, d)
            assert prob <= Fraction(statement, den), (p, m, d)
            assert prob <= ceiling_bound(mod, d), (p, m, d)


def test_interval_lower_bound_values():
    # At (197, 8) the bound 1/(6dm) is 1/96, 1/192 and 1/384 at d = 2, 4, 8: the
    # least count meeting it is ceil(p^2 / (6dm)), and one less misses it.
    mod = Modulus(197, 8)
    for d, bound in ((2, Fraction(1, 96)), (4, Fraction(1, 192)), (8, Fraction(1, 384))):
        least = math.ceil(197 * 197 * bound)
        sweep = np.full(7, 197 * 197)
        sweep[d - 2] = least
        assert check_interval_lower_bound(mod, sweep) == (7, 0), d
        sweep[d - 2] = least - 1
        assert check_interval_lower_bound(mod, sweep) == (7, 1), d


def test_interval_lower_bound_holds():
    mod = Modulus(197, 8)
    for d in (2, 4, 8):
        prob = Fraction(count_interval_collision(mod, d), 197 * 197)
        assert prob >= Fraction(1, 6 * d * 8), d
    assert check_interval_lower_bound(mod, count_interval_collisions(mod, 8)) == (7, 0)


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
    assert np.array_equal([maxloads_for_a(mod, ks, a) for a in range(13)], maxload_grid(mod, ks))
    with pytest.raises(ValueError):
        maxloads_for_a(mod, ks, 13)


def test_maxloads_b_zero_matches_load_profile():
    mod = Modulus(13, 3)
    ks = Interval(3)
    assert maxloads_b_zero(mod, ks).tolist() == maxload_grid(mod, ks)[:, 0].tolist()


def _maxload_cases():
    # Key sets that are their own mirror (S = c - S mod p) and key sets that
    # are not, with and without key 0, at odd and even n; q = p mod m is 0 at
    # m = 1 and m = p.  At p = 2, a = 1 is its own mirror.
    yield Modulus(2, 1), Interval(2)
    yield Modulus(2, 2), Explicit((1,))
    yield Modulus(3, 3), Interval(2)
    yield Modulus(3, 2), Explicit((1, 2))
    yield Modulus(11, 3), Explicit((0, 1, 10))  # symmetric about 0, not min + max
    yield Modulus(11, 4), Explicit((0, 1, 3))
    yield Modulus(13, 1), Interval(4)
    yield Modulus(13, 13), Explicit((0, 2, 5, 9))
    yield Modulus(13, 3), Explicit((0, 4, 7, 12))
    yield Modulus(13, 5), Explicit((2, 3, 4, 5))
    yield Modulus(13, 7), Interval(13)
    yield Modulus(17, 1), Explicit((1, 2, 6))
    yield Modulus(19, 19), Explicit((1, 2, 6, 9))
    for m in (16, 24, 32):
        mod = Modulus(next_prime_at_least(m * m), m)
        yield mod, Interval(m)
        yield mod, AffineImage(m, 77, 5)
        yield mod, Explicit((0, 3, 4, 10, mod.p // 2, mod.p - 1))


def case_ids(cases):
    return [f"p{mod.p}-m{mod.m}-{type(ks).__name__}" for mod, ks in cases]


MAXLOAD_CASES = list(_maxload_cases())
BLOCK_EDGE_CASES = [c for c in MAXLOAD_CASES if c[0].m in (16, 24) and type(c[1]) is not Interval]


def _split_blocks(monkeypatch, mod, ks, rows):
    """Shrink max-load blocks to `rows` rows; p = 257 and 577 leave a partial last block."""
    width = max(len(materialize(ks, mod)), mod.m)
    monkeypatch.setattr("linbins.loads.BLOCK_CELLS", rows * width)


@pytest.mark.parametrize("rows", (7, 50))
@pytest.mark.parametrize("mod,ks", BLOCK_EDGE_CASES, ids=case_ids(BLOCK_EDGE_CASES))
def test_maxloads_b_zero_at_block_edges(monkeypatch, rows, mod, ks):
    _split_blocks(monkeypatch, mod, ks, rows)
    expected = maxload_grid(mod, ks)[:, 0].tolist()
    assert maxloads_b_zero(mod, ks).tolist() == expected
    # Worker chunks count their blocks from their own first a.
    elements = materialize(ks, mod)
    chunks = [
        _maxloads_b_zero_chunk(mod.p, mod.m, elements, lo, hi)
        for lo, hi in _chunk_bounds(mod.p, 3)
    ]
    assert np.concatenate(chunks).tolist() == expected
    # The b = 0 histogram places keys for a < (p+1)/2 only, and its chunks
    # must count each mirror p - a once, whichever chunk holds a.
    assert exact_maxload_histogram(mod, ks, b_mode="b_zero") == hist_of(expected)
    half = (mod.p + 1) // 2
    mirrored = sum(
        _maxload_hist_b_zero_chunk(mod.p, mod.m, elements, lo, hi)
        for lo, hi in _chunk_bounds(half, 3)
    )
    assert np.array_equal(mirrored, np.bincount(expected, minlength=len(elements) + 1))


@pytest.mark.parametrize("rows", (7, 50))
@pytest.mark.parametrize("mod,ks", BLOCK_EDGE_CASES, ids=case_ids(BLOCK_EDGE_CASES))
def test_maxloads_for_a_at_block_edges(monkeypatch, rows, mod, ks):
    _split_blocks(monkeypatch, mod, ks, rows)
    for a in (0, 1, 77, mod.p - 1):
        assert maxloads_for_a(mod, ks, a).tolist() == maxload_grid(mod, ks)[a].tolist(), a


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
    assert exact_maxload_histogram(mod, ks, b_mode="all_b") == hist_of(maxload_grid(mod, ks))


@pytest.mark.parametrize("mod,ks", MAXLOAD_CASES, ids=case_ids(MAXLOAD_CASES))
def test_all_b_histogram_matches_literal_scan(mod, ks):
    assert exact_maxload_histogram(mod, ks, b_mode="all_b") == hist_of(maxload_grid(mod, ks))


@pytest.mark.parametrize("mod,ks", MAXLOAD_CASES, ids=case_ids(MAXLOAD_CASES))
def test_b_zero_histogram_matches_per_a_scan(mod, ks):
    expected = hist_of(maxload_grid(mod, ks)[:, 0])
    assert exact_maxload_histogram(mod, ks, b_mode="b_zero") == expected


def test_mirror_centre():
    mod = Modulus(257, 16)
    assert _mirror_centre(257, materialize(Interval(16), mod)) == 15
    n, alpha, beta = 16, 77, 5
    affine = materialize(AffineImage(n, alpha, beta), mod)
    assert _mirror_centre(257, affine) == (2 * beta + alpha * (n - 1)) % 257
    assert _mirror_centre(11, [0, 1, 10]) == 0
    assert _mirror_centre(257, [0, 3, 4, 10, 257 // 2, 256]) is None
    # The whole field is its own mirror about any centre.
    assert _mirror_centre(13, list(range(13))) is not None


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
    for lo, hi, credit in maxload_credits(mod.p, mod.m, elements, np.arange(mod.p)):
        assert lo == covered and credit.shape == (hi - lo, n + 1)
        for a in range(lo, hi):
            expected = np.bincount(maxload_grid(mod, ks)[a], minlength=n + 1)
            assert credit[a - lo].tolist() == expected.tolist(), a
        covered = hi
    assert covered == mod.p


TOTAL_CASES = CREDIT_CASES + [
    (Modulus(11, 2), Interval(1), None),
    (Modulus(17, 3), Interval(17), 2),
    (Modulus(331, 12), Interval(9), 1),
]


@pytest.mark.parametrize(
    "mod,ks,block_rows",
    TOTAL_CASES,
    ids=[f"p{mod.p}-m{mod.m}-{type(ks).__name__}-{rows}" for mod, ks, rows in TOTAL_CASES],
)
def test_maxload_total_matches_per_a_scan(monkeypatch, mod, ks, block_rows):
    # The sum of the max load over every b, for each a alone and for every a
    # at once, in blocks of block_rows multipliers where it is set.
    elements = materialize(ks, mod)
    if block_rows is not None:
        cells = block_rows * (2 * len(elements) + (1 << (mod.m - 1).bit_length()))
        monkeypatch.setattr(oracles, "_LEVEL_BLOCK_CELLS", cells)
    grid = maxload_grid(mod, ks)
    for a in range(mod.p):
        assert maxload_total(mod.p, mod.m, elements, [a]) == int(grid[a].sum()), a
    assert maxload_total(mod.p, mod.m, elements, np.arange(mod.p)) == int(grid.sum())
    assert maxload_total(mod.p, mod.m, elements, []) == 0


def test_maxload_total_at_largest_modulus():
    # At p = 2^31 - 1 a sort key holds 31 bits of wrap point under 15 bits of
    # class or level: the totals equal the replay's.
    p, m = 2**31 - 1, 1 << 15
    elements = [0, 1, 2, 5, 1000, 1 << 30, p - 1]
    assert maxload_total(p, m, elements, []) == 0
    load = np.arange(len(elements) + 1)
    for a in [1, 2, 3, 12345, 1 << 30, p - 1]:
        [(_, _, credit)] = maxload_credits(p, m, elements, [a])
        assert maxload_total(p, m, elements, [a]) == int(credit[0] @ load), a


@pytest.mark.parametrize("m", [32767, 32768])
def test_maxload_credits_either_side_of_int32_products(m):
    # The kernel forms v = a*x in int_type(max multiplier * max key): with key
    # 65536 and one multiplier per call, int32 up to a = 32767, int64 from
    # a = 32768.
    p = 65537
    assert int_type(32767 * 65536) is np.int32
    assert int_type(32768 * 65536) is np.int64
    elements = [0, 1, 2, 3, 4, 5, 6, 65536]
    for a in (1, 2, 3, 4096, 32767, 32768, 65535, 65536):
        [(lo, hi, credit)] = maxload_credits(p, m, elements, [a])
        expected = np.bincount(literal_maxloads(p, m, elements, a), minlength=len(elements) + 1)
        assert (lo, hi) == (0, 1)
        assert credit[0].tolist() == expected.tolist(), a


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


# Rows of the exact scaling table: m, p = nextprime(m^2), sum of L * count, mean.
SCALING_ROWS = [
    (16, 257, 167982, 2.543294),
    (32, 1031, 2797652, 2.631942),
    (64, 4099, 45349020, 2.699057),
    (128, 16411, 736658620, 2.735245),
]


@pytest.mark.parametrize("m,p,total,mean", SCALING_ROWS, ids=[f"m{r[0]}" for r in SCALING_ROWS])
def test_all_b_histogram_regression(m, p, total, mean):
    assert next_prime_at_least(m * m) == p
    hist = exact_maxload_histogram(Modulus(p, m), Interval(m), b_mode="all_b")
    assert sum(hist.values()) == p * p
    total_load = sum(load * cnt for load, cnt in hist.items())
    assert total_load == total
    assert round(total_load / (p * p), 6) == mean


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
    with pytest.raises(ValueError, match="exceeds"):
        count_triple_collisions(Modulus(p, 4), [(0, 1, 2)])


def stand_in_pool(sizes):
    """A pool class that records each size in sizes and runs every task in this process."""

    class StandInPool:
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

    return StandInPool


def test_pool_class_loads_on_first_use():
    # Runs below the pool threshold never start a pool, so importing the
    # program must not load concurrent.futures (multiprocessing, socket).
    code = (
        "import sys\n"
        "import linbins.cli, linbins.experiments, linbins.estimators, linbins.oracles\n"
        "assert 'concurrent.futures' not in sys.modules, 'loaded at import'\n"
        "pool = linbins.oracles.ProcessPoolExecutor\n"
        "assert pool is sys.modules['concurrent.futures'].ProcessPoolExecutor\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_lemmas_never_load_numpy_ma(tmp_path):
    # np.unique loads numpy.ma on its first call, which costs a fresh
    # process more than the agreement pass's first stage saves.  numpy 1.x
    # imports numpy.ma with numpy itself, so there the check has nothing
    # to see and only the run's exit status is asserted.
    out = str(tmp_path / "r.csv")
    code = (
        "import sys\n"
        "import numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from linbins.cli import main\n"
        f"assert main(['lemmas', '--p', '13', '--m', '3', '--out', {out!r}]) == 0\n"
        "assert before or 'numpy.ma' not in sys.modules, 'numpy.ma loaded'\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_pool_capped_at_available_cores(monkeypatch):
    sizes = []
    monkeypatch.setattr(oracles, "ProcessPoolExecutor", stand_in_pool(sizes))
    p = 21787
    # Figure scale: one row is one group, 4*43 candidates in each chunk and
    # then about 3p/m live cells, far under the pool threshold.
    count_triple_collisions(Modulus(p, 512), [(0, 1, 5)], workers=100_000)
    assert sizes == []

    monkeypatch.setattr(oracles, "_MIN_PARALLEL_WORK", 0)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = oracles.map_chunks(lambda lo, hi: (lo, hi), p, 100_000, 1, ())
    assert parts == _chunk_bounds(p, cores)
    assert sizes == ([cores] if cores > 1 else [])

    monkeypatch.setattr(oracles, "_available_cores", lambda: 4)
    parts = oracles.map_chunks(lambda lo, hi: (lo, hi), p, 100_000, 1, ())
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
    assert [*results[0][0], *results[0][1]] == literal_row_counts(31, 5, triples + queries)
    assert pools == [2, 2, 2, 3, 3, 3]

    # The max-load kernels, on a key set that is its own mirror (half the
    # multipliers in both modes) and on one that is not (every a in all_b).
    key_sets = (Interval(7), Explicit((0, 3, 4, 10, 15, 30)))
    maxload = [
        [
            (
                exact_maxload_histogram(mod, ks, b_mode="all_b", workers=w),
                exact_maxload_histogram(mod, ks, b_mode="b_zero", workers=w),
                maxloads_b_zero(mod, ks, workers=w).tolist(),
            )
            for ks in key_sets
        ]
        for w in (1, 2, 3)
    ]
    assert maxload[0] == maxload[1] == maxload[2]
    for ks, (all_b, b_zero, at_zero) in zip(key_sets, maxload[0]):
        assert all_b == hist_of(maxload_grid(mod, ks))
        assert b_zero == hist_of(at_zero) and len(at_zero) == 31
    assert pools[6:] == [2] * 6 + [3] * 6


def test_pooled_maxloads_mix_int32_and_int64_chunks(monkeypatch):
    # Key 65536 at p = 65537: a*x stays below (hi_a - 1)*65536, which fits
    # int32 in the first of two chunks and not in the second.  Pooled and
    # serial runs must equal a run with every kernel in int64.
    monkeypatch.setattr(oracles, "_MIN_PARALLEL_WORK", 0)
    monkeypatch.setattr(oracles, "_available_cores", lambda: 2)
    mod = Modulus(65537, 16)
    ks = Explicit((0, 1, 2, 65534, 65535, 65536))  # its own mirror about 65536
    # Both modes place the keys for the first half of the multipliers,
    # maxloads_b_zero for all of them.
    for n_a in (mod.p // 2 + 1, mod.p):
        types = [int_type((hi - 1) * 65536) for _, hi in _chunk_bounds(n_a, 2)]
        assert types == [np.int32, np.int64]

    def run(workers):
        return (
            exact_maxload_histogram(mod, ks, b_mode="all_b", workers=workers),
            exact_maxload_histogram(mod, ks, b_mode="b_zero", workers=workers),
            maxloads_b_zero(mod, ks, workers=workers).tolist(),
        )

    pooled, serial = run(2), run(1)
    with monkeypatch.context() as wide:
        wide.setattr(oracles, "int_type", lambda bound: np.int64)
        assert run(1) == serial == pooled
    bins = np.arange(mod.p)[:, None] * np.asarray(ks.elements) % mod.p % mod.m
    at_zero = [np.bincount(row, minlength=mod.m).max() for row in bins]
    assert serial[2] == at_zero and serial[1] == hist_of(at_zero)
    assert sum(serial[0].values()) == mod.p * mod.p


def test_rows_grouped_once_per_batch(monkeypatch):
    calls = []
    real = oracles._row_groups

    def counting(m, rows):
        calls.append(len(rows))
        return real(m, rows)

    sizes = []
    monkeypatch.setattr(oracles, "_row_groups", counting)
    monkeypatch.setattr(oracles, "ProcessPoolExecutor", stand_in_pool(sizes))
    monkeypatch.setattr(oracles, "_available_cores", lambda: 2)
    mod = Modulus(31, 5)
    # One group of 28 candidates (4 classes, runs of 7), enumerated by each
    # of 2 chunks: 29 rows bound the work at 29*28*2 + 29*31*3 // 5 = 2163
    # cells; grouped, it is 56 + 539 = 595.  The batch is grouped once, and
    # every chunk reads that grouping; the pool starts only where the
    # grouped work reaches the threshold, and where the ungrouped bound
    # stays under it the grouped work does too.
    triples = [(0, 1, d) for d in range(2, 31)]
    expected = count_triple_collisions(mod, triples)
    for threshold, workers, pool in (
        (2**26, 2, []),  # the bound stays under the threshold
        (1000, 1, []),  # one worker never starts a pool
        (1000, 2, []),  # the bound reaches it, the grouped work does not
        (500, 2, [2]),  # both reach it
    ):
        calls.clear()
        sizes.clear()
        monkeypatch.setattr(oracles, "_MIN_PARALLEL_WORK", threshold)
        assert np.array_equal(count_triple_collisions(mod, triples, workers=workers), expected)
        assert sizes == pool
        assert calls == [29]


# (p, m) for the lattice runs: p below m^2, m = p, m = p - 1, m = 1 and 2,
# and moduli where no multiplier has a run.
RUN_CASES = [
    (257, 16), (331, 12), (1031, 32), (5417, 16), (7919, 17), (101, 10),
    (101, 100), (13, 3), (11, 2), (5, 5), (13, 1),
]


@pytest.mark.parametrize("p,m", RUN_CASES)
def test_multiplier_runs_match_the_literal_scan(p, m):
    mod = Modulus(p, m)
    literal = literal_multiplier_runs(p, m)
    assert multiplier_runs(mod, np.arange(p)).tolist() == literal.tolist()
    assert multiplier_runs_total(mod, long_run_counts(mod)) == int(literal.sum())


@pytest.mark.parametrize("m", [2, 17, 1024, 46340])
def test_multiplier_runs_at_largest_modulus(m):
    # Random multipliers, about a fifth of which have a run, and ones built
    # from a pair (x0, k): a = k*m/x0 mod p.
    p = 2147483647
    mod = Modulus(p, m)
    pairs = [(1, 1), (1, -1), (3, 7), (m // 2 - 1, 1), ((m - 1) // 2, p // m // 3)]
    built = [k * m * pow(x0, -1, p) % p for x0, k in pairs if x0 >= 1]
    a = np.concatenate(([0, 1, p - 1], built, np.random.default_rng(m).integers(0, p, 300)))
    runs = multiplier_runs(mod, a)
    assert runs.tolist() == [int(literal_multiplier_runs(p, m, [x])[0]) for x in a]
    assert int(multiplier_runs(mod, int(a[3]))) == runs[3]


@pytest.mark.parametrize("p,m", [(257, 16), (577, 24), (331, 12), (13, 3), (11, 2), (13, 1)])
def test_long_run_multipliers_match_the_literal_scan(p, m):
    # For every s >= 3: the C(s) multipliers with k > 0 and their mirrors p - a
    # are exactly the a != 0 with R(a) >= s, and R is multiplier_runs on the list.
    mod = Modulus(p, m)
    literal = literal_multiplier_runs(p, m)
    counts = long_run_counts(mod)
    assert counts[:3].tolist() == [0, 0, 0] and counts[-1] == 0
    assert len(counts) == max(m, 2) + 2
    for s in range(3, len(counts)):
        a, runs = long_run_multipliers(mod, s)
        assert len(set(a.tolist())) == len(a) == counts[s], s
        members = sorted(a.tolist() + (p - a).tolist())
        assert members == (np.flatnonzero(literal[1:] >= s) + 1).tolist(), s
        assert runs.tolist() == multiplier_runs(mod, a).tolist() == literal[a].tolist()
    assert counts[3] > 0 or m < 3 or p // m < 3
    with pytest.raises(ValueError, match="s = 3"):
        long_run_multipliers(mod, 2)
