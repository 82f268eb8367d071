"""Named experiments: exhaustive property checks and CSV-producing studies.

Every experiment writes '#'-commented metadata plus a plain CSV body, and
returns its report, a tuple of CheckRow that carry the property checked, the
observed value, and the required bound.  Tolerances that arithmetic does not
force (the 25% symmetry band, the -1.5 tail slope, the 1.0 mean spread and
separation margins) are artifact choices and the claim text marks them as
such.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import GENERATOR_NAME, scaling_study, tail_log_slope, validate_seed
from .field import Modulus, int_type, rem
from .loads import AffineImage, Explicit, Interval, bin_counts, materialize
from .oracles import (
    check_partition_determinism,
    count_interval_collisions,
    count_prescribed_triple,
    count_triple_collisions,
    exact_maxload_histogram,
    maxload_credits,
    maxloads_b_zero,
    triple_bound_terms,
)

TOOL_NAME = "linbins"


# Figure-style default scale: the largest configuration the exhaustive
# counters sweep in seconds rather than hours.
FIGURE1_DEFAULT_P = 21787
FIGURE1_DEFAULT_M = 512


@dataclass(frozen=True)
class CheckRow:
    """One checked property: what was claimed, what was seen, and the verdict."""

    name: str
    claim: str
    observed: str
    bound: str
    passed: bool


def write_csv(path, columns, rows, meta) -> None:
    """Write '#'-commented metadata followed by a header row and data rows.

    A row holds ints and floats, written as %d and %.12g, or only strs, which
    go to the csv writer as they are; any other row raises TypeError before
    the file is written.
    """
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    templates = {}  # row type signature -> one '%' template, or '' for a row of strs
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        if kinds not in templates:
            # Ints and floats never need CSV quoting.
            formats = [{int: "%d", float: "%.12g"}.get(kind) for kind in kinds]
            if None not in formats:
                templates[kinds] = ",".join(formats) + "\n"
            elif set(kinds) == {str}:
                templates[kinds] = ""
            else:
                raise TypeError(f"a CSV row holds ints and floats or only strs, got {row!r}")
        if template := templates[kinds]:
            buf.write(template % row)
        else:
            writer.writerow(row)
    Path(path).write_text(buf.getvalue())


def base_meta(experiment: str, **params) -> dict:
    """The '#' metadata of an experiment CSV: tool, version, parameters, time."""
    meta = {"tool": TOOL_NAME, "version": __version__, "experiment": experiment}
    meta.update(params)
    meta["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return meta


def report_csv_path(out) -> Path:
    """Companion report path for a data CSV (foo.csv -> foo.report.csv)."""
    return Path(out).with_suffix(".report.csv")


def write_report_csv(path, report: tuple[CheckRow, ...], meta) -> None:
    rows = [
        (c.name, c.claim, c.observed, c.bound, "pass" if c.passed else "fail") for c in report
    ]
    write_csv(path, ("check", "claim", "observed", "bound", "result"), rows, meta)


def format_report(report: tuple[CheckRow, ...]) -> str:
    """Human-readable table: one verdict line plus the claim per check; overall passes if all do."""
    lines = []
    for c in report:
        flag = "PASS" if c.passed else "FAIL"
        lines.append(f"[{flag}] {c.name}: {c.observed} (required: {c.bound})")
        lines.append(f"       {c.claim}")
    lines.append(f"overall: {'PASS' if all(c.passed for c in report) else 'FAIL'}")
    return "\n".join(lines)


def default_figure1_sweep(p: int, points: int = 64) -> list[int]:
    """Mirror-symmetric log sweep of d values in [2, p-1].

    The lower half is log-spaced with a minimum gap of 2 and the upper half
    consists of the exact mirror images p+1-d, so the collision probability
    at every sweep point has its mirror partner present in the sweep.
    """
    half = (p + 1) // 2
    targets = np.geomspace(2, half, max(2, points // 2))
    lows: list[int] = []
    for cand in sorted({int(round(t)) for t in targets}):
        if 2 <= cand <= half and (not lows or cand - lows[-1] >= 2):
            lows.append(cand)
    return sorted({*lows, *(p + 1 - s for s in lows)})


def run_figure1(
    out,
    p: int = FIGURE1_DEFAULT_P,
    m: int = FIGURE1_DEFAULT_M,
    points: int = 64,
    full_sweep: bool = False,
    workers: int = 1,
    budget: int | None = None,
) -> tuple[CheckRow, ...]:
    """Sweep the exact collision probability of {0, 1, d} and both bound forms.

    Writes columns d, exact_probability, statement_bound, proof_bound, and
    checks that the curve is non-increasing while d <= p/m and near-symmetric
    about the midpoint.
    """
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    mod = Modulus(p, m)
    ds = list(range(2, p)) if full_sweep else default_figure1_sweep(p, points)
    if not ds:
        raise ValueError(f"d values must lie in [2, {p - 1}]")

    counts = count_triple_collisions(
        mod, [(0, 1, d) for d in ds], workers=workers, budget=budget
    )
    # Python ints: int/int true division is correctly rounded at any size.
    count = dict(zip(ds, counts.tolist()))
    rows = []
    for d in ds:
        statement, proof, den = triple_bound_terms(mod, d)
        rows.append((d, count[d] / (p * p), statement / den, proof / den))
    meta = base_meta(
        "figure1", p=p, m=m, points=len(ds), full_sweep=full_sweep, workers=workers
    )
    write_csv(out, ("d", "exact_probability", "statement_bound", "proof_bound"), rows, meta)

    low = [d for d in ds if d <= p / m]
    drops = [(a, b) for a, b in zip(low, low[1:]) if count[a] < count[b]]
    # Both sweeps hold the mirror p+1-d of each of their points.
    worst = max(abs(count[d] - count[p + 1 - d]) / count[p + 1 - d] for d in ds)
    report = (
        CheckRow(
            name="probability-nonincreasing-low-d",
            claim="exact collision probability of {0,1,d} is non-increasing "
            f"across sweep points with d <= p/m = {p / m:.6g}",
            observed=f"{len(drops)} increases / {max(len(low) - 1, 0)} adjacent pairs",
            bound="0 increases",
            passed=not drops,
        ),
        CheckRow(
            name="probability-near-symmetric",
            claim="probability at d agrees with the sweep point nearest its "
            "mirror p+1-d (25% tolerance is an artifact choice)",
            observed=f"max relative deviation {worst:.6g}",
            bound="<= 0.25",
            passed=worst <= 0.25,
        ),
    )
    write_report_csv(report_csv_path(out), report, meta)
    return report


def _zero_free(mod: Modulus) -> Explicit:
    """The keys 1, ..., min(m, p - 1): [m] without 0, within the field."""
    return Explicit(tuple(range(1, min(mod.m, mod.p - 1) + 1)))


def check_load_sums(mod: Modulus, alpha: int, beta: int) -> tuple[int, int]:
    """Per-bin loads must sum to |S|; exhaustive over (a, b) at small p.

    The loads come from loads.bin_counts, the kernel behind the b = 0 scans
    and the Monte Carlo maxima; the all-(a, b) histograms replay
    maxload_credits.  Above p^2 = 90000 only b in {0, 1, p//2, p-1} is checked.
    """
    p, m = mod.p, mod.m
    bs = range(p) if p * p <= 90_000 else (0, 1, p // 2, p - 1)
    rows = p * len(bs)  # row r is the pair (r div |bs|, bs[r mod |bs|])
    checked = violations = 0
    for ks in (Interval(m), AffineImage(m, alpha, beta), _zero_free(mod)):
        elements = materialize(ks, mod)
        # int32 where the row indices and a*x + b fit, as in the placements checked.
        dtype = int_type(max(rows - 1, (p - 1) * (max(elements) + 1)))
        s, b = np.asarray(elements, dtype=dtype), np.asarray(bs, dtype=dtype)

        def bins_of(lo, hi):
            a, j = np.divmod(np.arange(lo, hi, dtype=dtype), len(b))
            v = a[:, None] * s
            v += b[j, None]
            return rem(rem(v, p), m)

        for _, _, counts in bin_counts(rows, len(s), m, bins_of):
            violations += int(np.count_nonzero(counts.sum(axis=1) != len(s)))
        checked += rows
    return checked, violations


def check_sign_symmetry(mod: Modulus, workers: int = 1) -> tuple[int, int]:
    """max_load(h_{a,0}) = max_load(h_{p-a,0}) on a 0-free key set, all a."""
    loads = maxloads_b_zero(mod, _zero_free(mod), workers=workers)
    violations = int(np.count_nonzero(loads[1:] != loads[:0:-1]))
    return mod.p - 1, violations


def check_zero_slack(at_zero: np.ndarray) -> tuple[int, int]:
    """max_load(h_{a,0}) and max_load(h_{p-a,0}) differ by at most 1 on [m] (at_zero)."""
    violations = int(np.count_nonzero(np.abs(at_zero[1:] - at_zero[:0:-1]) > 1))
    return len(at_zero) - 1, violations


def check_b_shift_containment(mod: Modulus, at_zero: np.ndarray) -> tuple[int, int]:
    """floor(L_{a,b}/2) <= L_{a,0} <= 2 L_{a,b} for every (a, b) on [m].

    at_zero is maxloads_b_zero on [m].  The wrap-event kernel gives, per a,
    how many b have each max load L, so the violating pairs are counted per
    (a, L), not per b.
    """
    p, m = mod.p, mod.m
    load = np.arange(m + 1)
    violations = 0
    for lo, hi, credit in maxload_credits(p, m, range(m), 0, p):
        l0 = at_zero[lo:hi, None]
        violations += int(credit[(load // 2 > l0) | (l0 > 2 * load)].sum())
    return p * p, violations


def check_affine_histogram(
    mod: Modulus, whole: dict, alpha: int, beta: int, workers: int = 1, budget: int | None = None
) -> bool:
    """whole, the all-(a,b) max-load histogram of [m], must equal its image's under alpha*x+beta."""
    return whole == exact_maxload_histogram(
        mod, AffineImage(mod.m, alpha, beta), "all_b", workers, budget
    )


# Above p = 31 the canonical check samples this many triples; every triple
# gets this many random bin targets.
_CANONICAL_SAMPLES = 300
_TARGETS_PER_TRIPLE = 5


def check_canonical_equality(
    mod: Modulus, seed: int = 0, budget: int | None = None
) -> tuple[int, int]:
    """Prescribed-bin counts must be invariant under reduction to (0, 1, d).

    Every ordered triple is checked for p <= 31, a random sample above.
    Triples come from the stdlib's random.Random(seed), then each bin target
    is (w * m) >> 32 for one 32-bit word w of a single randbytes (w * m < 2^63).
    """
    # random.Random(-s) is the stream of random.Random(s), so the range is checked here.
    validate_seed(seed)
    p, m = mod.p, mod.m
    rng = random.Random(seed)
    if p <= 31:
        # Every ordered triple of distinct elements, in lexicographic order.
        triples = np.indices((p, p, p), dtype=np.int64).reshape(3, -1).T
        x, y, z = triples.T
        triples = triples[(x != y) & (y != z) & (x != z)]
    else:
        triples = np.array([rng.sample(range(p), 3) for _ in range(_CANONICAL_SAMPLES)], np.int64)
    words = np.frombuffer(rng.randbytes(4 * 3 * _TARGETS_PER_TRIPLE * len(triples)), "<u4")
    targets = ((words.astype(np.int64) * m) >> 32).reshape(-1, 3)
    # Each triple's d of its (0, 1, d) form: t -> (y - x)*t + x sends (0, 1, d)
    # to (x, y, z), so d = (z - x) / (y - x) mod p, one inverse per distinct y - x.
    x, y, z = triples.T
    steps, which = np.unique((y - x) % p, return_inverse=True)
    inverse = np.array([pow(s, -1, p) for s in steps.tolist()], dtype=np.int64)
    d = inverse[which] * ((z - x) % p) % p
    direct = np.hstack([triples.repeat(_TARGETS_PER_TRIPLE, axis=0), targets])
    reduced = direct.copy()
    reduced[:, 0], reduced[:, 1], reduced[:, 2] = 0, 1, d.repeat(_TARGETS_PER_TRIPLE)
    counts = count_prescribed_triple(mod, direct, budget=budget)
    violations = np.count_nonzero(counts != count_prescribed_triple(mod, reduced, budget=budget))
    return len(counts), int(violations)


def check_triple_bounds(mod: Modulus, counts: np.ndarray) -> tuple[int, int, int]:
    """Exhaustive P[{0,1,d} collide] against both bound forms; counts[d - 2] counts {0,1,d}."""
    p = mod.p
    statement_violations = proof_violations = 0
    # count / p^2 > num / den, compared in integers.
    for d, count in enumerate(counts.tolist(), start=2):
        statement, proof, den = triple_bound_terms(mod, d)
        statement_violations += count * den > statement * p * p
        proof_violations += count * den > proof * p * p
    return len(counts), statement_violations, proof_violations


def check_interval_lower_bound(mod: Modulus, sweep: np.ndarray) -> tuple[int, int]:
    """Exhaustive P[[d] collides] >= 1/(6dm) for every d in [2, m].

    sweep is count_interval_collisions up to a length of at least m.  The
    bound is claimed only for p > 3m^2, which run_lemma_checks tests.
    """
    p, m = mod.p, mod.m
    sweep = sweep[: m - 1]
    # count / p^2 < 1 / (6dm), compared in integers.
    violations = sum(count * 6 * d * m < p * p for d, count in enumerate(sweep.tolist(), start=2))
    return len(sweep), violations


def check_interval_containment(sweep: np.ndarray, counts: np.ndarray) -> tuple[int, int, int]:
    """Interval collision counts are within triple counts and non-increasing.

    All elements of [d] landing in one bin forces {0, 1, d-1} into one bin,
    and is at least as hard for longer intervals.  sweep[i] counts the
    interval of length i + 2 and counts[i] the triple {0, 1, i + 2}, so from
    length 3 on sweep[i] is held to counts[i - 1].  Every length in the sweep
    is checked.
    """
    monotone_violations = int(np.count_nonzero(sweep[1:] > sweep[:-1]))
    triples = counts[: len(sweep) - 1]
    containment_violations = int(np.count_nonzero(sweep[1:] > triples))
    return len(triples), containment_violations, monotone_violations


def check_decomposition(mod: Modulus, budget: int | None = None) -> tuple[int, int]:
    """Summing prescribed equal-bin counts over bins gives the collision count."""
    p, m = mod.p, mod.m
    if p <= 13:
        triples = list(itertools.permutations(range(p), 3))
    else:
        triples = [(0, 1, 2), (0, 2, p - 2), (1, p // 2, p - 3)]
    prescribed = count_prescribed_triple(
        mod, [(*t, i, i, i) for t in triples for i in range(m)], budget=budget
    )
    collisions = count_triple_collisions(mod, triples, budget=budget)
    violations = np.count_nonzero(prescribed.reshape(-1, m).sum(axis=1) != collisions)
    return len(triples), int(violations)


def run_lemma_checks(
    p: int,
    m: int,
    out,
    seed: int = 0,
    workers: int = 1,
    budget: int | None = None,
) -> tuple[CheckRow, ...]:
    """Run every exhaustive invariant at one (p, m) and write the report CSV.

    Each row of the table is a check name, its claim, the unit of what was
    checked and a thunk running the check.  A thunk returns (checked,
    violations), a bare count of the unit, or whether two results are equal.
    """
    mod = Modulus(p, m)
    if p < 3:
        raise ValueError(f"lemmas needs p >= 3 to form distinct triples, got p={p}")
    validate_seed(seed)
    rng = random.Random(seed + 1)
    alpha = 1 + rng.randrange(p - 1)
    beta = rng.randrange(p)
    # The 1/(6dm) guarantee is only claimed for p > 3m^2.
    lower_bound = p > 3 * m * m
    # Every charged count comes before the first check, so an over-budget run
    # is refused at once: the sweep charges at least 3p^2, the most of any count here.
    # Containment reads every interval length up to p for p <= 300, up to 128
    # above; the lower bound reads lengths up to m.
    d_max = p if p <= 300 else 128
    sweep_max = max(d_max, m) if lower_bound else d_max
    sweep = count_interval_collisions(mod, sweep_max, workers, budget)
    counts = count_triple_collisions(mod, [(0, 1, d) for d in range(2, p)], workers, budget)
    at_zero = maxloads_b_zero(mod, Interval(m), workers)
    whole = exact_maxload_histogram(mod, Interval(m), "all_b", workers, budget)
    # These two checks feed two rows each.
    triples = check_triple_bounds(mod, counts)
    intervals = check_interval_containment(sweep[: d_max - 1], counts)
    triple_claim = "exhaustive collision probability of {0,1,d} never exceeds "
    table = [
        ("load-sum", "per-bin loads sum to the key-set size for every hash function",
         "profiles", lambda: check_load_sums(mod, alpha, beta)),
        ("sign-symmetry", "negating the multiplier preserves the b=0 max load on 0-free key sets",
         "multipliers", lambda: check_sign_symmetry(mod, workers)),
        ("zero-slack", "negating the multiplier moves the b=0 max load on [m] by at most 1",
         "multipliers", lambda: check_zero_slack(at_zero)),
        ("b-shift-containment",
         "the b=0 max load lies in [floor(L/2), 2L] for the max load L at any b",
         "parameter pairs", lambda: check_b_shift_containment(mod, at_zero)),
        ("affine-image-histogram", f"[{m}] and its affine image (alpha={alpha}, beta={beta}) "
         "have identical all-(a,b) max-load histograms",
         "histograms", lambda: check_affine_histogram(mod, whole, alpha, beta, workers, budget)),
        ("canonical-equality",
         "prescribed-bin counts are invariant under affine reduction to (0,1,d)",
         "target triples", lambda: check_canonical_equality(mod, seed, budget)),
        ("triple-bound-proof-form", triple_claim + "(1 + (1 + p/d)/m)(1 + d/m)/p",
         "d values", lambda: (triples[0], triples[2])),
        ("triple-bound-statement-form", triple_claim + "(1 + max(1, p/(dm))(1 + d/m))/p",
         "d values", lambda: triples[:2]),
        ("interval-lower-bound", "exhaustive probability that [d] collides is at least "
         "1/(6dm) for d <= m (claimed only when p > 3m^2)",
         "d values", lambda: check_interval_lower_bound(mod, sweep)),
        ("interval-containment",
         "a collision of the whole interval [d] forces {0,1,d-1} to collide",
         "d values", lambda: intervals[:2]),
        ("interval-monotone", "the interval collision count is non-increasing in the length d",
         "increases", lambda: intervals[2]),
        ("prescribed-decomposition",
         "summing prescribed equal-bin counts over all bins reproduces the collision count",
         "triples", lambda: check_decomposition(mod, budget)),
        ("partition-determinism",
         "exhaustive counts are identical under any chunking of the a-range",
         "partitions", lambda: check_partition_determinism(mod, counts, whole)),
    ]
    if not lower_bound:
        table = [row for row in table if row[0] != "interval-lower-bound"]
    checks = []
    for name, claim, unit, run in table:
        value = run()
        if isinstance(value, bool):
            row = (f"{unit} {'equal' if value else 'differ'}", "equal", value)
        elif isinstance(value, int):
            row = (f"{value} {unit}", f"0 {unit}", value == 0)
        else:
            checked, bad = value
            row = (f"{bad} violations / {checked} {unit}", "0 violations", bad == 0)
        checks.append(CheckRow(name, claim, *row))

    report = tuple(checks)
    meta = base_meta(
        "lemmas",
        p=p,
        m=m,
        seed=seed,
        rng="python random.Random (MT19937); canonical sample from seed, affine map from seed + 1",
        workers=workers,
        interval_lower_bound="active" if lower_bound else "inactive (requires p > 3m^2)",
    )
    write_report_csv(out, report, meta)
    return report


def run_scaling(
    m_values: list[int],
    samples: int,
    seed: int,
    out,
    workers: int = 1,
) -> tuple[CheckRow, ...]:
    """Scaling study CSV plus spread/monotonicity/separation/tail checks."""
    rows = scaling_study(m_values, samples, seed, workers)
    tail_ls = list(range(2, 11))
    columns = ["m", "p", "linear_mean", "linear_se", "random_mean", "random_se"]
    columns += [f"linear_tail_{l}" for l in tail_ls]
    data = []
    for r in rows:
        mean, bound = r.random
        # The mean is written to 12 significant digits, which moves it by at
        # most 5e-12 * mean; as much again covers the rounding of random_se
        # itself, which is below the mean.
        record = [r.m, r.p, r.linear.mean, r.linear.std_error, mean, bound + 1e-11 * mean]
        record += [r.linear.tail.get(l, 0.0) for l in tail_ls]
        data.append(record)
    meta = base_meta(
        "scaling",
        m_values=" ".join(str(m) for m in m_values),
        samples=samples,
        seed=seed,
        generator=GENERATOR_NAME,
        includes_a_zero=True,
        random_column="computed by Poisson conditioning, not sampled; "
        "random_se bounds |random_mean - exact mean|",
        linear_estimator="control variate max - beta_R*(R(a) - E[R]) - beta_S*(S2 - E[S2]), "
        "R(a) the longest run of >= 3 keys of [m] sharing a bin class under multiplier a, "
        "R(0) = m, S2 the pairs of keys sharing a bin; (beta_R, beta_S) of the even 64-sample "
        "blocks fitted jointly on the odd ones and the reverse, on R alone or S2 alone where "
        "that system is singular, 0 where neither varies; linear_se from the same terms; "
        "E[R] = sum_a R(a) / p, E[S2] = sum_(a,b) S2 / p^2: "
        + "; ".join(
            f"m{r.m} E[R]={r.linear.runs_total}/{r.p} E[S2]={r.linear.pairs_total}/{r.p**2}"
            for r in rows
        ),
        workers=workers,
    )
    write_csv(out, columns, data, meta)

    linear = [r.linear.mean for r in rows]
    random = [r.random[0] for r in rows]
    spread = max(linear) - min(linear)
    increases_missing = sum(1 for a, b in zip(random, random[1:]) if not a < b)
    separation = random[-1] - linear[-1]
    slope = tail_log_slope(rows[-1].linear.tail, samples)
    report = (
        CheckRow(
            name="linear-mean-spread",
            claim="linear-hash mean max load stays in a constant band across m "
            "(band width 1.0 is an artifact choice)",
            observed=f"max - min = {spread:.6g}",
            bound="<= 1.0",
            passed=spread <= 1.0,
        ),
        CheckRow(
            name="random-mean-monotone",
            claim="fully random mean max load strictly grows with m",
            observed=f"{increases_missing} non-increasing steps / {len(random) - 1}",
            bound="0 non-increasing steps",
            passed=increases_missing == 0,
        ),
        CheckRow(
            name="random-linear-separation",
            claim="fully random mean exceeds the linear-hash mean at the "
            "largest m (margin 1.0 is an artifact choice)",
            observed=f"difference = {separation:.6g}",
            bound=">= 1.0",
            passed=separation >= 1.0,
        ),
        CheckRow(
            name="linear-tail-slope",
            claim="linear max-load tail decays at least like 1/l^1.5 on "
            "l in [3, 10] (slope -1.5 is an artifact choice; points below "
            "10/samples are excluded as noise)",
            observed="insufficient tail data" if slope is None else f"slope = {slope:.6g}",
            bound="<= -1.5",
            passed=slope is not None and slope <= -1.5,
        ),
    )
    write_report_csv(report_csv_path(out), report, meta)
    return report
