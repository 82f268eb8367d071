"""Experiment runners, check functions, and the CSV/report plumbing."""

import csv
import hashlib
import io
from fractions import Fraction

import pytest

import numpy as np

from linbins import experiments, loads, oracles
from linbins.experiments import (
    AcceptanceReport,
    CheckRow,
    _fmt,
    check_affine_histogram,
    check_b_shift_containment,
    check_canonical_equality,
    check_decomposition,
    check_interval_containment,
    check_interval_lower_bound,
    check_load_sums,
    check_partition_determinism,
    check_sign_symmetry,
    check_triple_bounds,
    check_zero_slack,
    default_figure1_sweep,
    format_report,
    interval_lower_bound_active,
    report_csv_path,
    run_figure1,
    run_lemma_checks,
    run_scaling,
    run_transform_demo,
    write_csv,
)
from linbins.cli import main
from linbins.field import Modulus
from linbins.loads import Interval
from linbins.oracles import count_triple_collisions, maxloads_for_a, triple_bound_formula
from reference import csv_body, report_row


def test_fmt_values():
    assert _fmt(7) == "7"
    assert _fmt(True) == "true"
    assert _fmt(0.5) == "0.5"
    assert _fmt(Fraction(1, 3)) == "0.333333333333"
    assert _fmt(1 / 7) == "0.142857142857"


def test_write_csv_and_body(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("x", "y"), [(1, 0.25), (2, Fraction(1, 3))], {"seed": 5})
    text = path.read_text()
    assert text.startswith("# seed=5\n")
    assert csv_body(text) == "x,y\n1,0.25\n2,0.333333333333\n"


def per_cell_body(columns, rows):
    """The CSV body as every row through _fmt and the csv writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


CSV_ROWS = [
    (2**63, -(2**70), -5, 0),
    (float("nan"), float("inf"), -float("inf"), -0.0),
    (1e-300, 1 / 7, 0.25, 1e22),
    (True, False, np.int64(-7), np.float64(1 / 3)),
    (Fraction(1, 3), Fraction(-7, 2), 3, 0.5),
    ("a,b", 'say "hi"', "plain", ""),
    (1, 2, 3, 4),
    (1.5, 2, 3, 4),  # the first column switches from int to float partway down
    (5, 2, 3, 4),
    [6, 0.125, -1, 2**64],  # a list row, as run_scaling writes
]


@pytest.mark.parametrize("as_generator", (False, True))
def test_write_csv_matches_per_cell_path(tmp_path, as_generator):
    columns = ("w", "x", "y", "z")
    path = tmp_path / "rows.csv"
    rows = (row for row in CSV_ROWS) if as_generator else CSV_ROWS
    write_csv(path, columns, rows, {"seed": 1})
    text = path.read_text()
    assert text.startswith("# seed=1\n")
    assert csv_body(text) == per_cell_body(columns, CSV_ROWS)


def test_report_csv_path():
    assert str(report_csv_path("fig.csv")).endswith("fig.report.csv")
    assert str(report_csv_path("/tmp/a/b.csv")) == "/tmp/a/b.report.csv"


def test_format_report():
    report = AcceptanceReport(
        (
            CheckRow("one", "claim text", "0 violations", "0 violations", True),
            CheckRow("two", "other claim", "3 violations", "0 violations", False),
        )
    )
    text = format_report(report)
    assert "[PASS] one" in text
    assert "[FAIL] two" in text
    assert text.endswith("overall: FAIL")
    assert not report.overall
    assert report_row(report, "one").passed


def test_default_figure1_sweep_shape():
    p = 21787
    sweep = default_figure1_sweep(p)
    assert sweep[0] == 2
    assert sweep == sorted(set(sweep))
    assert all(2 <= d <= p - 1 for d in sweep)
    assert 40 <= len(sweep) <= 64
    # Every sweep point has its mirror image present.
    assert all(p + 1 - d in sweep for d in sweep)
    half = (p + 1) // 2
    lows = [d for d in sweep if d <= half]
    assert all(b - a >= 2 for a, b in zip(lows, lows[1:]))


def test_run_figure1_small(tmp_path):
    out = tmp_path / "fig.csv"
    report = run_figure1(out, p=257, m=16, points=24)
    assert report.overall
    text = out.read_text()
    body = csv_body(text)
    header, *rows = body.splitlines()
    assert header == "d,exact_probability,statement_bound,proof_bound"
    assert all(len(row.split(",")) == 4 for row in rows)
    assert report_csv_path(out).exists()
    # Reruns reproduce the data bytes; only the timestamp comment may move.
    run_figure1(out, p=257, m=16, points=24)
    assert csv_body(out.read_text()) == body


def test_run_figure1_full_sweep(tmp_path):
    out = tmp_path / "fig_full.csv"
    report = run_figure1(out, p=257, m=16, full_sweep=True)
    assert report.overall
    body = csv_body(out.read_text())
    assert len(body.splitlines()) == 1 + 255
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert digest == "0dd555c4426b0bb8e1a06a0bced894e3ca0a0b1c96c186027bbe88e3f3b391c5"


def test_run_figure1_full_sweep_body_frozen(tmp_path):
    # Every d at (1031, 32), the one full-sweep body frozen anywhere.
    out = tmp_path / "fig.csv"
    run_figure1(out, p=1031, m=32, full_sweep=True)
    digest = hashlib.sha256(csv_body(out.read_text()).encode()).hexdigest()
    assert digest == "e3618af39f8f6447247382bdad691951564fb1c9cb0581088b7e565a2317cb3d"


def test_run_figure1_default_body_frozen(tmp_path):
    # The 64-point sweep at the default (21787, 512).
    out = tmp_path / "fig.csv"
    run_figure1(out)
    digest = hashlib.sha256(csv_body(out.read_text()).encode()).hexdigest()
    assert digest == "347bedd91a5fa6ec765fd91a93a2cae808a4dc199cadfba59bac029b8938d5ea"


def test_run_figure1_rejects_bad_d(tmp_path):
    # At p = 2 the sweep [2, p-1] is empty.
    with pytest.raises(ValueError, match=r"d values must lie in \[2, 1\]"):
        run_figure1(tmp_path / "x.csv", p=2, m=1)


def test_check_functions_small_config():
    mod = Modulus(13, 3)
    assert check_load_sums(mod, alpha=5, beta=2) == (507, 0)
    assert check_sign_symmetry(mod) == (12, 0)
    assert check_zero_slack(mod) == (12, 0)
    assert check_b_shift_containment(mod) == (169, 0)
    assert check_affine_histogram(mod, alpha=5, beta=2)
    checked, violations = check_canonical_equality(mod, seed=0)
    assert checked == 1716 * 5 and violations == 0
    assert check_triple_bounds(mod) == (11, 0, 0)
    assert check_interval_containment(mod) == (11, 0, 0)
    assert check_decomposition(mod) == (1716, 0)
    assert check_partition_determinism(mod) == (4, 0)


@pytest.mark.parametrize("p,m", ((541, 4), (1579, 8), (5417, 16)))
def test_check_triple_bounds_statement_form_fails_once(p, m):
    # The first primes at which the statement form fails: at exactly one d.
    # The integer comparison must agree with Fraction comparisons of the counts.
    mod = Modulus(p, m)
    assert check_triple_bounds(mod) == (p - 2, 1, 0)
    counts = count_triple_collisions(mod, [(0, 1, d) for d in range(2, p)]).tolist()
    violations = [0, 0]
    for d, count in zip(range(2, p), counts):
        for k, bound in enumerate(triple_bound_formula(mod, d)):
            violations[k] += Fraction(count, p * p) > bound
    assert violations == [1, 0]


def test_partition_determinism_splits_the_event_kernel(monkeypatch):
    # A kernel that miscounts only on a sub-range starting past a = 0 must
    # show as one violated partition, so the histogram really is split.
    real = experiments._maxload_credits

    def skewed(p, m, elements, lo_a, hi_a):
        for lo, hi, credit in real(p, m, elements, lo_a, hi_a):
            if lo_a > 0:
                credit[0, 0] += 1
            yield lo, hi, credit

    monkeypatch.setattr(experiments, "_maxload_credits", skewed)
    assert check_partition_determinism(Modulus(257, 16)) == (4, 1)


@pytest.mark.parametrize("skew", (lambda l0: 3 * l0 - 2, lambda l0: l0 // 3))
def test_b_shift_containment_counts_violating_pairs(monkeypatch, skew):
    # A skewed b = 0 max load breaks the containment for some (a, b); the count
    # from per-a histograms must equal a b-by-b scan of every pair.
    mod = Modulus(257, 16)
    real = experiments.maxloads_b_zero
    monkeypatch.setattr(experiments, "maxloads_b_zero", lambda *args: skew(real(*args)))
    expected = 0
    for a in range(mod.p):
        row = maxloads_for_a(mod, Interval(16), a)
        l0 = skew(row[0])
        expected += int(np.count_nonzero((row // 2 > l0) | (l0 > 2 * row)))
    assert expected > 0
    assert check_b_shift_containment(mod) == (mod.p * mod.p, expected)


def test_triple_checks_without_distinct_triples():
    # p = 2 has no distinct triple: every triple check checks nothing.
    mod = Modulus(2, 1)
    assert check_canonical_equality(mod) == (0, 0)
    assert check_decomposition(mod) == (0, 0)
    assert check_triple_bounds(mod) == (0, 0, 0)
    assert check_interval_containment(mod) == (0, 0, 0)


def test_check_canonical_equality_refuses_negative_seed():
    # random.Random(-1) would silently draw the stream of random.Random(1).
    with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer, got -1$"):
        check_canonical_equality(Modulus(13, 3), seed=-1)


def test_check_load_sums_counts_dropped_keys(monkeypatch):
    # Seven-row blocks; every row of each key set's first block loses a key.
    monkeypatch.setattr(loads, "_BLOCK_CELLS", 7 * 3)
    real = experiments.bin_counts

    def dropping(rows, n, m, bins_of):
        def first_block_short(lo, hi):
            bins = bins_of(lo, hi)
            return bins[:, 1:] if lo == 0 else bins

        return real(rows, n, m, first_block_short)

    monkeypatch.setattr(experiments, "bin_counts", dropping)
    assert check_load_sums(Modulus(13, 3), alpha=5, beta=2) == (507, 3 * 7)


def test_check_load_sums_sampled_b_and_range_guard():
    # Above p^2 = 90000 only four b values per multiplier are checked.
    assert check_load_sums(Modulus(331, 16), alpha=5, beta=2) == (3 * 4 * 331, 0)
    # The first prime above 2^31 is refused when its Modulus is built.
    with pytest.raises(ValueError, match="exceeds"):
        check_load_sums(Modulus(2147483659, 4), alpha=1, beta=0)


def test_interval_lower_bound_activation():
    assert interval_lower_bound_active(Modulus(197, 8))
    assert not interval_lower_bound_active(Modulus(191, 8))
    assert check_interval_lower_bound(Modulus(197, 8)) == (7, 0)


def test_run_lemma_checks_smoke(tmp_path):
    out = tmp_path / "lemmas.report.csv"
    report = run_lemma_checks(13, 3, out, seed=0)
    assert report.overall
    names = [c.name for c in report.checks]
    assert "interval-lower-bound" not in names  # 13 <= 3 * 3^2
    assert len(names) == 12
    text = out.read_text()
    assert "load-sum" in text and "pass" in text


def test_run_lemma_checks_passes_budget_to_every_check(tmp_path, monkeypatch):
    # With the default budget at 1, any counter left on the default refuses.
    monkeypatch.setattr(oracles, "DEFAULT_WORK_BUDGET", 1)
    report = run_lemma_checks(13, 3, tmp_path / "l.report.csv", budget=10**9)
    assert report.overall
    mod = Modulus(13, 3)
    for check in (check_canonical_equality, check_decomposition, check_partition_determinism):
        with pytest.raises(oracles.WorkBudgetError):
            check(mod, budget=1)


def test_run_lemma_checks_includes_lower_bound(tmp_path):
    report = run_lemma_checks(197, 8, tmp_path / "l.report.csv", seed=0)
    assert report.overall
    assert report_row(report, "interval-lower-bound").passed


@pytest.mark.parametrize(
    "p,m,digest",
    [
        (257, 16, "e17af7a2a62ef5ddc6f024e3830b8a1a7940b22e80a139b06b4d789d9974cfdd"),
        # p > 3m^2: the interval-lower-bound row is present.
        (197, 8, "4c592ecbc2325e3972913b4cc7439da9207008b4b07a1cc126b3471d901b4a9f"),
    ],
    # Named by configuration only, so that a re-frozen digest keeps the test's name.
    ids=["257-16", "197-8"],
)
def test_lemma_report_body_frozen(tmp_path, p, m, digest):
    # Every row, claims included, at seed 0.
    out = tmp_path / "lemmas.report.csv"
    run_lemma_checks(p, m, out, seed=0)
    assert hashlib.sha256(csv_body(out.read_text()).encode()).hexdigest() == digest


def test_run_scaling_small(tmp_path):
    out = tmp_path / "scaling.csv"
    report = run_scaling([16, 64], samples=2000, seed=123, out=out)
    assert report.overall
    body = csv_body(out.read_text())
    header, first, second = body.splitlines()
    columns = header.split(",")
    assert columns[:6] == ["m", "p", "linear_mean", "linear_se", "random_mean", "random_se"]
    assert columns[6:] == [f"linear_tail_{l}" for l in range(2, 11)]
    assert first.split(",")[0] == "16" and second.split(",")[0] == "64"
    assert first.split(",")[1] == "257" and second.split(",")[1] == "4099"
    # Rerun is byte-identical in the body.
    run_scaling([16, 64], samples=2000, seed=123, out=out)
    assert csv_body(out.read_text()) == body


def transform_rows(out, p):
    """The transform CSV's rows as integer triples, after checking its header and totals."""
    header, *lines = csv_body(out.read_text()).splitlines()
    assert header == "max_load,interval_count,affine_image_count"
    rows = [tuple(map(int, line.split(","))) for line in lines]
    assert sum(r[1] for r in rows) == sum(r[2] for r in rows) == p * p
    return rows


def test_run_transform_identity(tmp_path):
    out = tmp_path / "transform.csv"
    report = run_transform_demo(p=257, m=16, alpha=1, beta=0, out=out)
    assert [c.name for c in report.checks] == ["transform-exhaustive-histogram"]
    assert report.overall
    assert all(plain == moved for _, plain, moved in transform_rows(out, 257))


def test_run_transform_exhaustive(tmp_path):
    out = tmp_path / "transform.csv"
    report = run_transform_demo(p=257, m=16, alpha=77, beta=5, out=out)
    assert report_row(report, "transform-exhaustive-histogram").passed
    assert report.overall
    plain = oracles.exact_maxload_histogram(Modulus(257, 16), Interval(16))
    assert transform_rows(out, 257) == [(load, c, c) for load, c in sorted(plain.items())]


def test_run_transform_validates_both_key_sets_before_sampling(tmp_path, monkeypatch):
    # alpha = p passes AffineImage but not materialize; no histogram may run.
    def no_histogram(*args):
        raise AssertionError("a histogram started before the key sets were validated")

    monkeypatch.setattr(experiments, "exact_maxload_histogram", no_histogram)
    with pytest.raises(ValueError, match="alpha must be nonzero modulo p"):
        run_transform_demo(p=1031, m=32, alpha=1031, beta=5, out=tmp_path / "t.csv")


def test_run_transform_reports_unequal_histograms(tmp_path, monkeypatch):
    # Move one affine-image tuple from the lowest max load to the next one up.
    exact = oracles.exact_maxload_histogram

    def skewed(mod, ks, *args):
        hist = exact(mod, ks, *args)
        if isinstance(ks, loads.AffineImage):
            low = min(hist)
            hist[low] -= 1
            hist[low + 1] = hist.get(low + 1, 0) + 1
        return hist

    monkeypatch.setattr(experiments, "exact_maxload_histogram", skewed)
    out = tmp_path / "transform.csv"
    report = run_transform_demo(p=257, m=16, alpha=77, beta=5, out=out)
    row = report_row(report, "transform-exhaustive-histogram")
    assert not row.passed and row.observed == "histograms differ"
    assert not report.overall
    assert sum(plain != moved for _, plain, moved in transform_rows(out, 257)) == 2
    argv = ["transform", "--p", "257", "--m", "16", "--out", str(tmp_path / "cli.csv")]
    assert main(argv) == 1
