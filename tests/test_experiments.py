"""Experiment runners, check functions, and the CSV/report plumbing."""

from fractions import Fraction

import pytest

import numpy as np

from linbins import experiments, loads
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
    csv_body,
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
from linbins.field import Modulus
from linbins.loads import Interval
from linbins.oracles import maxloads_for_a


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
    assert report.row("one").passed


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
    assert len(csv_body(out.read_text()).splitlines()) == 1 + 255


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
    with pytest.raises(ValueError):
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


def test_run_lemma_checks_includes_lower_bound(tmp_path):
    report = run_lemma_checks(197, 8, tmp_path / "l.report.csv", seed=0)
    assert report.overall
    assert report.row("interval-lower-bound").passed


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


def test_run_transform_identity(tmp_path):
    out = tmp_path / "transform.csv"
    report = run_transform_demo(
        p=257, m=16, alpha=1, beta=0, samples=400, seed=5, out=out
    )
    assert report.row("transform-identity").passed
    assert report.row("transform-mean-agreement").observed.startswith("difference = 0")
    assert report.overall


def test_run_transform_exhaustive(tmp_path):
    out = tmp_path / "transform.csv"
    report = run_transform_demo(
        p=257, m=16, alpha=77, beta=5, samples=2000, seed=5, out=out, exhaustive=True
    )
    assert report.row("transform-exhaustive-histogram").passed
    assert report.row("transform-mean-agreement").passed
    body = csv_body(out.read_text())
    assert body.splitlines()[0] == "key_set,mean,std_error,samples,mean_diff_in_se"
    assert len(body.splitlines()) == 3
