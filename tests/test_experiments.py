"""Experiment runners, check functions, and the CSV/report plumbing."""

import ast
import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import numpy as np

from linbins import experiments, loads, oracles
from linbins.experiments import (
    CheckRow,
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
    report_csv_path,
    run_figure1,
    run_lemma_checks,
    run_scaling,
    write_csv,
)
from linbins.cli import main
from linbins.field import Modulus
from linbins.loads import Interval
from linbins.oracles import (
    count_interval_collisions,
    count_triple_collisions,
    exact_maxload_histogram,
    maxloads_b_zero,
    triple_bound_terms,
)
from reference import canonicalize_triple, csv_body, literal_maxloads, report_row

# Exact fully random means at m = 16 and 64, as Fractions of the dynamic program.
EXACT_MEANS = Path(__file__).resolve().parent.parent / "perfbench" / "refs" / "exact_means.json"


def test_write_csv_and_body(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("x", "y"), [(1, 0.25), (2, 1 / 3)], {"seed": 5})
    text = path.read_text()
    assert text.startswith("# seed=5\n")
    assert csv_body(text) == "x,y\n1,0.25\n2,0.333333333333\n"


def per_cell_body(columns, rows):
    """The CSV body with every cell rendered alone and every row through the csv writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([v if isinstance(v, (int, str)) else "%.12g" % v for v in row])
    return buf.getvalue()


CSV_ROWS = [
    (2**63, -(2**70), -5, 0),
    (float("nan"), float("inf"), -float("inf"), -0.0),
    (1e-300, 1 / 7, 0.25, 1e22),
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


def test_write_csv_refuses_other_rows_before_writing(tmp_path):
    for row in ((1, np.int64(2)), (np.float64(0.5), 1.5), (True, 1), (Fraction(1, 3), 2), ("a", 1)):
        with pytest.raises(TypeError, match="^a CSV row holds ints and floats or only strs"):
            write_csv(tmp_path / "out.csv", ("x", "y"), [(1, 0.5), row], {"seed": 5})
        assert not (tmp_path / "out.csv").exists(), row


def test_report_csv_path():
    assert str(report_csv_path("fig.csv")).endswith("fig.report.csv")
    assert str(report_csv_path("/tmp/a/b.csv")) == "/tmp/a/b.report.csv"


def test_format_report():
    report = (
        CheckRow("one", "claim text", "0 violations", "0 violations", True),
        CheckRow("two", "other claim", "3 violations", "0 violations", False),
    )
    text = format_report(report)
    assert "[PASS] one" in text
    assert "[FAIL] two" in text
    assert text.endswith("overall: FAIL")
    assert not all(c.passed for c in report)
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
    assert all(c.passed for c in report)
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
    assert all(c.passed for c in report)
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


@pytest.mark.parametrize("points", (0, -5))
def test_run_figure1_refuses_points_below_one(tmp_path, monkeypatch, capsys, points):
    # A sweep size below 1 is refused before any count, from Python and the CLI alike.
    calls = []
    monkeypatch.setattr(experiments, "count_triple_collisions", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=rf"^points must be >= 1, got {points}$"):
        run_figure1(tmp_path / "x.csv", p=1031, m=32, points=points)
    argv = ["figure1", "--p", "1031", "--m", "32", "--points", str(points)]
    assert main([*argv, "--out", str(tmp_path / "cli.csv")]) == 2
    assert capsys.readouterr().err == f"error: points must be >= 1, got {points}\n"
    assert calls == []
    assert not (tmp_path / "cli.csv").exists()


def zero_one_d(mod):
    """Collision counts of every (0, 1, d), d in [2, p), as run_lemma_checks takes them."""
    return count_triple_collisions(mod, [(0, 1, d) for d in range(2, mod.p)])


def test_check_functions_small_config():
    mod = Modulus(13, 3)
    at_zero = maxloads_b_zero(mod, Interval(3))
    whole = exact_maxload_histogram(mod, Interval(3), "all_b")
    counts = zero_one_d(mod)
    assert check_load_sums(mod, alpha=5, beta=2) == (507, 0)
    assert check_sign_symmetry(mod) == (12, 0)
    assert check_zero_slack(at_zero) == (12, 0)
    assert check_b_shift_containment(mod, at_zero) == (169, 0)
    assert check_affine_histogram(mod, whole, alpha=5, beta=2)
    checked, violations = check_canonical_equality(mod, seed=0)
    assert checked == 1716 * 5 and violations == 0
    assert check_triple_bounds(mod, counts) == (11, 0, 0)
    assert check_interval_containment(count_interval_collisions(mod, 13), counts) == (11, 0, 0)
    assert check_decomposition(mod) == (1716, 0)
    assert check_partition_determinism(mod, counts, whole) == (4, 0)


@pytest.mark.parametrize("p,m", ((541, 4), (1579, 8), (5417, 16)))
def test_check_triple_bounds_statement_form_fails_once(p, m):
    # The first primes at which the statement form fails: at exactly one d.
    # The integer comparison must agree with Fraction comparisons of the counts.
    mod = Modulus(p, m)
    counts = zero_one_d(mod)
    assert check_triple_bounds(mod, counts) == (p - 2, 1, 0)
    violations = [0, 0]
    for d, count in zip(range(2, p), counts.tolist()):
        statement, proof, den = triple_bound_terms(mod, d)
        for k, numerator in enumerate((statement, proof)):
            violations[k] += Fraction(count, p * p) > Fraction(numerator, den)
    assert violations == [1, 0]


def test_partition_determinism_splits_the_event_kernel(monkeypatch):
    # A kernel that miscounts only on a sub-range starting past a = 0 must
    # show as one violated partition, so the histogram really is split.
    mod = Modulus(257, 16)
    counts = zero_one_d(mod)
    whole = exact_maxload_histogram(mod, Interval(16), "all_b")
    # The base count is the run's counts[d - 2] at d = (p - 1)/2: every triple split disagrees.
    wrong = counts.copy()
    wrong[128 - 2] += 1
    assert check_partition_determinism(mod, wrong, whole) == (4, 3)
    real = oracles.maxload_credits

    def skewed(p, m, elements, multipliers):
        for lo, hi, credit in real(p, m, elements, multipliers):
            if multipliers[0] > 0:
                credit[0, 0] += 1
            yield lo, hi, credit

    monkeypatch.setattr(oracles, "maxload_credits", skewed)
    assert check_partition_determinism(mod, counts, whole) == (4, 1)


@pytest.mark.parametrize("skew", (lambda l0: 3 * l0 - 2, lambda l0: l0 // 3))
def test_b_shift_containment_counts_violating_pairs(skew):
    # A skewed b = 0 max load breaks the containment for some (a, b); the count
    # from per-a histograms must equal a b-by-b scan of every pair.
    mod = Modulus(257, 16)
    grid = literal_maxloads(mod.p, mod.m, range(16), range(mod.p))
    l0 = skew(grid[:, :1])
    expected = int(np.count_nonzero((grid // 2 > l0) | (l0 > 2 * grid)))
    assert expected > 0
    at_zero = skew(maxloads_b_zero(mod, Interval(16)))
    assert check_b_shift_containment(mod, at_zero) == (mod.p * mod.p, expected)


def test_triple_checks_without_distinct_triples():
    # p = 2 has no distinct triple: every triple check checks nothing.
    mod = Modulus(2, 1)
    assert check_canonical_equality(mod) == (0, 0)
    assert check_decomposition(mod) == (0, 0)
    counts = zero_one_d(mod)
    assert check_triple_bounds(mod, counts) == (0, 0, 0)
    assert check_interval_containment(count_interval_collisions(mod, 2), counts) == (0, 0, 0)


@pytest.mark.parametrize("p,m", ((13, 3), (257, 16)))
def test_check_canonical_equality_reduces_as_the_scalar_reference(monkeypatch, p, m):
    # Each checked triple (every one at p <= 31, a sample above) reduces to
    # the (0, 1, d) of canonicalize_triple and keeps its bin targets.
    queries = []
    real = experiments.count_prescribed_triple

    def record(mod, rows, budget=None):
        queries.append(rows.copy())
        return real(mod, rows, budget=budget)

    monkeypatch.setattr(experiments, "count_prescribed_triple", record)
    check_canonical_equality(Modulus(p, m), seed=4)
    direct, reduced = queries
    expected = [[0, 1, canonicalize_triple(p, x, y, z)] for x, y, z in direct[:, :3].tolist()]
    assert reduced[:, :3].tolist() == expected
    assert (reduced[:, 3:] == direct[:, 3:]).all()


def test_check_canonical_equality_refuses_negative_seed():
    # random.Random(-1) would silently draw the stream of random.Random(1).
    with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer, got -1$"):
        check_canonical_equality(Modulus(13, 3), seed=-1)


def test_check_load_sums_counts_dropped_keys(monkeypatch):
    # Seven-row blocks; every row of each key set's first block loses a key
    # from its fullest bin.
    monkeypatch.setattr(loads, "BLOCK_CELLS", 7 * 3)
    real = experiments.bin_counts

    def dropping(keys, p, m, a, b=None):
        for lo, hi, counts in real(keys, p, m, a, b):
            if lo == 0:
                counts[np.arange(hi), counts.argmax(axis=1)] -= 1
            yield lo, hi, counts

    monkeypatch.setattr(experiments, "bin_counts", dropping)
    assert check_load_sums(Modulus(13, 3), alpha=5, beta=2) == (507, 3 * 7)


def test_check_load_sums_sampled_b_and_range_guard():
    # Above p^2 = 90000 only four b values per multiplier are checked.
    assert check_load_sums(Modulus(331, 16), alpha=5, beta=2) == (3 * 4 * 331, 0)
    # The first prime above 2^31 is refused when its Modulus is built.
    with pytest.raises(ValueError, match="exceeds"):
        check_load_sums(Modulus(2147483659, 4), alpha=1, beta=0)


def test_interval_lower_bound_activation(tmp_path):
    # The row and the preamble follow p > 3m^2: (3, 1) sits on 3m^2 itself,
    # and (11, 2) and (191, 8) lie above 2m^2 but not above 3m^2.
    for p, m, active in ((3, 1, False), (11, 2, False), (13, 2, True), (191, 8, False)):
        out = tmp_path / f"{p}-{m}.report.csv"
        report = run_lemma_checks(p, m, out)
        assert ("interval-lower-bound" in [c.name for c in report]) == active, (p, m)
        state = "active" if active else "inactive (requires p > 3m^2)"
        assert f"# interval_lower_bound={state}\n" in out.read_text(), (p, m)


def test_interval_lower_bound_at_its_boundary():
    # A count of ceil(p^2/(6dm)) at each d meets the bound, one less misses it.
    # No prime p makes p^2 a multiple of 6dm, so a stand-in modulus (p = 12,
    # m = 2: 144 = 6*2*2*6) pins the equality case: 6 of 144 is exactly 1/24.
    mod = Modulus(197, 8)
    sweep = np.array([-(-197 * 197 // (6 * d * 8)) for d in range(2, 9)])
    assert check_interval_lower_bound(mod, sweep) == (7, 0)
    for i in range(7):
        short = sweep.copy()
        short[i] -= 1
        assert check_interval_lower_bound(mod, short) == (7, 1), i
    # Entries past length m are not read.
    assert check_interval_lower_bound(mod, np.append(sweep, 0)) == (7, 0)
    stand_in = SimpleNamespace(p=12, m=2)
    assert check_interval_lower_bound(stand_in, np.array([6])) == (1, 0)
    assert check_interval_lower_bound(stand_in, np.array([5])) == (1, 1)


def test_run_lemma_checks_smoke(tmp_path):
    out = tmp_path / "lemmas.report.csv"
    report = run_lemma_checks(13, 3, out, seed=0)
    assert all(c.passed for c in report)
    names = [c.name for c in report]
    assert "interval-lower-bound" not in names  # 13 <= 3 * 3^2
    assert len(names) == 12
    text = out.read_text()
    assert "load-sum" in text and "pass" in text


def test_run_lemma_checks_reports_unequal_affine_histograms(tmp_path, monkeypatch):
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
    report = run_lemma_checks(13, 3, tmp_path / "l.report.csv")
    row = report_row(report, "affine-image-histogram")
    assert not row.passed and row.observed == "histograms differ"
    assert not all(c.passed for c in report)
    assert main(["lemmas", "--p", "13", "--m", "3", "--out", str(tmp_path / "cli.csv")]) == 1


def test_run_lemma_checks_passes_budget_to_every_check(tmp_path, monkeypatch):
    # With the default budget at 1, any counter left on the default refuses.
    monkeypatch.setattr(oracles, "DEFAULT_WORK_BUDGET", 1)
    report = run_lemma_checks(13, 3, tmp_path / "l.report.csv", budget=10**9)
    assert all(c.passed for c in report)
    mod = Modulus(13, 3)
    for check in (check_canonical_equality, check_decomposition):
        with pytest.raises(oracles.WorkBudgetError):
            check(mod, budget=1)


def test_run_lemma_checks_refuses_over_budget_before_uncharged_checks(tmp_path, monkeypatch):
    # At p = 2^31 - 1 the load-sum check alone would work for hours; the
    # interval sweep's charge must refuse the run before it starts.  At
    # (49927, 129) the sweep runs to the lower bound's length m = 129, past
    # containment's 128, and 128*p^2 < budget < 129*p^2.
    def unreachable(*args):
        raise AssertionError("check_load_sums ran before the budget refusal")

    monkeypatch.setattr(experiments, "check_load_sums", unreachable)
    for p, m, budget in ((2147483647, 2, None), (49927, 129, 320_000_000_000)):
        with pytest.raises(oracles.WorkBudgetError, match="interval collision count"):
            run_lemma_checks(p, m, tmp_path / "l.report.csv", budget=budget)


def test_run_lemma_checks_takes_each_shared_count_once(tmp_path, monkeypatch):
    # At (197, 8) the lower bound is active: one sweep serves it and the
    # containment rows, one (0, 1, d) batch both triple-bound rows,
    # containment and partition determinism, one b = 0 scan of [m] the
    # zero-slack and b-shift rows, and one all-(a, b) histogram of [m] the
    # affine-image and partition rows.  Counters are recorded at both the
    # experiments and the oracles bindings.
    p, m = 197, 8
    calls = {"sweeps": [], "batches": 0, "one_row": 0, "b_zero": 0, "whole": 0}
    real_sweep = oracles.count_interval_collisions
    real_triples = oracles.count_triple_collisions
    real_b_zero = oracles.maxloads_b_zero
    real_hist = oracles.exact_maxload_histogram

    def sweep(mod, d_max, *args, **kwargs):
        calls["sweeps"].append(d_max)
        return real_sweep(mod, d_max, *args, **kwargs)

    def triples(mod, rows, *args, **kwargs):
        rows = [tuple(r) for r in rows]
        calls["batches"] += rows == [(0, 1, d) for d in range(2, p)]
        calls["one_row"] += rows == [(0, 1, (p - 1) // 2)]
        return real_triples(mod, rows, *args, **kwargs)

    def b_zero(mod, ks, *args, **kwargs):
        calls["b_zero"] += ks == Interval(m)
        return real_b_zero(mod, ks, *args, **kwargs)

    def hist(mod, ks, b_mode="all_b", *args, **kwargs):
        calls["whole"] += ks == Interval(m) and b_mode == "all_b"
        return real_hist(mod, ks, b_mode, *args, **kwargs)

    for module in (experiments, oracles):
        monkeypatch.setattr(module, "count_interval_collisions", sweep)
        monkeypatch.setattr(module, "count_triple_collisions", triples)
        monkeypatch.setattr(module, "maxloads_b_zero", b_zero)
        monkeypatch.setattr(module, "exact_maxload_histogram", hist)
    assert all(c.passed for c in run_lemma_checks(p, m, tmp_path / "l.report.csv"))
    assert calls == {"sweeps": [p], "batches": 1, "one_row": 0, "b_zero": 1, "whole": 1}


def private_sibling_names(source: str) -> list[str]:
    """`_`-prefixed names a module imports from, or reads off, a sibling module."""
    tree = ast.parse(source)
    siblings = set()
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                siblings.update(alias.asname or alias.name for alias in node.names)
            else:
                names += [f"{node.module}.{alias.name}" for alias in node.names]
    names += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings
    ]
    return [name for name in names if name.split(".")[1].startswith("_")]


def unread_imports(source: str) -> list[str]:
    """Names a module imports but never reads; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def names_taken(source: str) -> set[str]:
    """Names a module imports, under their own names, or reads as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    imports = [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))]
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    return {alias.name for node in imports for alias in node.names} | attrs


def test_experiments_imports_no_private_oracle_name():
    # Each module of the package uses only public names of its siblings; the
    # a-range partition and the chunk kernels stay behind oracles.  No module
    # of the package or of the tests keeps an import it never reads; the
    # tests may read private kernels.
    package = Path(experiments.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    tests = {path.name: path.read_text() for path in sorted(Path(__file__).parent.glob("*.py"))}
    for check, modules in ((private_sibling_names, sources), (unread_imports, sources | tests)):
        assert {name: found for name, src in modules.items() if (found := check(src))} == {}
    # The checks see both forms of a private read, and every form of import.
    probe = "from . import loads\nfrom .oracles import _x, y\nloads._Z + loads.w\n"
    assert sorted(private_sibling_names(probe)) == ["loads._Z", "oracles._x"]
    probe = (
        "from __future__ import annotations\nimport os, numpy.linalg\nimport re as regex\n"
        "from .field import Modulus, rem as r\nnumpy.linalg.norm\nr = Modulus\n"
    )
    assert unread_imports(probe) == ["os", "regex", "r"]
    # Only their own unit tests take load_profile and maxloads_for_a; the rest use reference.
    takers = {
        name: [file for file, src in tests.items() if name in names_taken(src)]
        for name in ("load_profile", "maxloads_for_a")
    }
    assert takers == {"load_profile": ["test_loads.py"], "maxloads_for_a": ["test_oracles.py"]}


def test_run_lemma_checks_includes_lower_bound(tmp_path):
    report = run_lemma_checks(197, 8, tmp_path / "l.report.csv", seed=0)
    assert all(c.passed for c in report)
    assert report_row(report, "interval-lower-bound").passed


@pytest.mark.parametrize(
    "p,m,digest",
    [
        (257, 16, "e17af7a2a62ef5ddc6f024e3830b8a1a7940b22e80a139b06b4d789d9974cfdd"),
        # p > 3m^2: the interval-lower-bound row is present.
        (197, 8, "4c592ecbc2325e3972913b4cc7439da9207008b4b07a1cc126b3471d901b4a9f"),
        # p > 300: containment reads lengths up to 128 only; the lower bound is active.
        (307, 8, "d9ed23d7dd14131a167782b7ce39f6805130164cc05739416dc4fd418adf367e"),
    ],
    # Named by configuration only, so that a re-frozen digest keeps the test's name.
    ids=["257-16", "197-8", "307-8"],
)
def test_lemma_report_body_frozen(tmp_path, p, m, digest):
    # Every row, claims included, at seed 0.
    out = tmp_path / "lemmas.report.csv"
    run_lemma_checks(p, m, out, seed=0)
    assert hashlib.sha256(csv_body(out.read_text()).encode()).hexdigest() == digest


def test_run_scaling_small(tmp_path):
    out = tmp_path / "scaling.csv"
    report = run_scaling([16, 64], samples=2000, seed=123, out=out)
    assert all(c.passed for c in report)
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
    # The preamble names the estimator, the exact totals of R and S2 per m,
    # sum_(a,b) S2 = C(m, 2) * pair_collisions = 120 * 4129 at m = 16, and the
    # stratum: at 2000 samples r0 = 5 and 17, the first s whose stratum has at
    # most 15 members (tests/test_estimators.py checks its totals).
    estimator = [l for l in out.read_text().splitlines() if l.startswith("# linear_estimator=")]
    assert len(estimator) == 1
    assert estimator[0].endswith(
        "w = (p - |S|) / p, sum_S max and sum_S S2 over every b: "
        "m16 sum_a R(a)=458 sum_(a,b) S2=495480 r0=5 |S|=15 sum_S max=29438 sum_S R=124 "
        "sum_S S2=175298; m64 sum_a R(a)=7348 sum_(a,b) S2=529262496 r0=17 |S|=15 "
        "sum_S max=1846090 sum_S R=492 sum_S S2=50300422"
    )


def test_run_scaling_random_column_within_written_bound(tmp_path):
    # random_se bounds the written random_mean, 12-digit rounding included.
    out = tmp_path / "scaling.csv"
    run_scaling([16, 64], samples=100, seed=0, out=out)
    rows = list(csv.DictReader(io.StringIO(csv_body(out.read_text()))))
    refs = json.loads(EXACT_MEANS.read_text())["fully_random"]
    for row in rows:
        exact = Fraction(refs[row["m"]])
        assert abs(Fraction(row["random_mean"]) - exact) <= Fraction(row["random_se"]), row
