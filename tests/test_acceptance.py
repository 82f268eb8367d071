"""Acceptance gate: the headline guarantees this artifact must demonstrate.

Each test prints one PASS/FAIL line (undiverted by pytest's capture) so a run
of the suite shows the verdict per criterion at a glance.
"""

import subprocess
import sys
import time

from linbins.estimators import (
    McConfig,
    fully_random_exact_mean,
    mc_fully_random_maxload,
    mc_linear_maxload,
)
from linbins.experiments import (
    check_b_shift_containment,
    check_canonical_equality,
    check_interval_lower_bound,
    check_sign_symmetry,
    check_triple_bounds,
    check_zero_slack,
    run_figure1,
    run_scaling,
)
from linbins.field import Modulus
from linbins.loads import Interval
from linbins.oracles import exact_maxload_histogram

SEED = 20260814


def announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        flag = "PASS" if ok else "FAIL"
        print(f"[{flag}] acceptance criterion {number} ({name}): {detail}")


def cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "linbins.cli", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def csv_data(path):
    return "".join(
        line for line in path.read_text().splitlines(keepends=True)
        if not line.startswith("#")
    )


def test_criterion_1_figure_sweep_shape(tmp_path, capsys):
    # At (p, m) = (21787, 512) the exact collision probability of {0, 1, d}
    # must fall monotonically while d <= p/m and be near-symmetric about the
    # midpoint of [2, p-1], within 25%, across a ~64-point log sweep.
    started = time.monotonic()
    report = run_figure1(tmp_path / "figure1.csv", p=21787, m=512, points=64)
    elapsed = time.monotonic() - started
    monotone = report.row("probability-nonincreasing-low-d")
    symmetric = report.row("probability-near-symmetric")
    ok = monotone.passed and symmetric.passed and elapsed <= 1800
    announce(
        capsys, 1, "figure sweep shape", ok,
        f"{monotone.observed}; {symmetric.observed}; {elapsed:.1f}s",
    )
    assert ok, (monotone, symmetric, elapsed)


def test_criterion_2_triple_upper_bound(capsys):
    # Exhaustive collision probability of {0, 1, d} never exceeds the
    # proof-form bound (1 + (1 + p/d)/m)(1 + d/m)/p, for every d in [2, p-1].
    details = []
    total_violations = 0
    for p, m in ((257, 16), (1031, 32), (2053, 32)):
        checked, _, proof_violations = check_triple_bounds(Modulus(p, m))
        total_violations += proof_violations
        details.append(f"(p={p}, m={m}): {proof_violations}/{checked}")
    ok = total_violations == 0
    announce(capsys, 2, "triple collision upper bound", ok, "; ".join(details))
    assert ok, details


def test_criterion_3_interval_lower_bound(capsys):
    # Exhaustive probability that [d] collides is at least 1/(6dm) for every
    # d in [2, m], at both configurations satisfying p > 3m^2.
    details = []
    total_violations = 0
    for p, m in ((197, 8), (797, 16)):
        checked, violations = check_interval_lower_bound(Modulus(p, m))
        total_violations += violations
        details.append(f"(p={p}, m={m}): {violations}/{checked}")
    ok = total_violations == 0
    announce(capsys, 3, "interval collision lower bound", ok, "; ".join(details))
    assert ok, details


def test_criterion_4_canonical_count_equality(capsys):
    # For every ordered distinct triple and 5 random bin targets each, the
    # prescribed count equals the count of its canonical (0, 1, d) form.
    details = []
    total_violations = 0
    for p, m in ((13, 3), (31, 8)):
        checked, violations = check_canonical_equality(Modulus(p, m), seed=SEED)
        total_violations += violations
        details.append(f"(p={p}, m={m}): {violations}/{checked}")
    ok = total_violations == 0
    announce(capsys, 4, "canonical triple equality", ok, "; ".join(details))
    assert ok, details


def test_criterion_5_b_shift_containment(capsys):
    # For every (a, b) at (257, 16) on S = [16]:
    # floor(max_load(h_ab)/2) <= max_load(h_a0) <= 2 max_load(h_ab).
    checked, violations = check_b_shift_containment(Modulus(257, 16))
    ok = violations == 0 and checked == 257 * 257
    announce(capsys, 5, "b-shift containment", ok, f"{violations}/{checked} pairs")
    assert ok, (checked, violations)


def test_criterion_6_sign_symmetry_and_zero_slack(capsys):
    # Exhaustive over a at (257, 16): negating a preserves the b=0 max load
    # exactly on the 0-free set {1..16} and moves it by at most 1 on [16].
    mod = Modulus(257, 16)
    eq_checked, eq_violations = check_sign_symmetry(mod)
    slack_checked, slack_violations = check_zero_slack(mod)
    ok = eq_violations == 0 and slack_violations == 0
    announce(
        capsys, 6, "sign symmetry and zero slack", ok,
        f"equality {eq_violations}/{eq_checked}; slack {slack_violations}/{slack_checked}",
    )
    assert ok, (eq_violations, slack_violations)


def test_criterion_7_constant_linear_max_load(tmp_path, capsys):
    # Scaling study over m in {16, 64, 256, 1024} at 10^5 samples: the
    # linear-hash mean stays in a band of 1.0, the fully random mean strictly
    # grows, the gap at m=1024 is at least 1.0, and the linear tail decays
    # with log-log slope at most -1.5 on l in [3, 10].
    report = run_scaling(
        [16, 64, 256, 1024], samples=100_000, seed=SEED, out=tmp_path / "scaling.csv"
    )
    detail = "; ".join(c.observed for c in report.checks)
    ok = report.overall
    announce(capsys, 7, "constant linear max load", ok, detail)
    assert ok, detail


def test_criterion_8_estimator_calibration(capsys):
    # The MC estimators agree with exact references within 4 standard errors:
    # the linear estimator against the all-(a,b) histogram mean at (257, 16),
    # the fully random estimator against the exact distribution at m = 16, 32.
    mod = Modulus(257, 16)
    hist = exact_maxload_histogram(mod, Interval(16), b_mode="all_b")
    total = sum(hist.values())
    exact_linear = sum(load * count for load, count in hist.items()) / total
    est = mc_linear_maxload(
        McConfig(samples=20_000, seed=SEED, mod=mod, key_set=Interval(16))
    )
    gaps = [abs(est.mean - exact_linear) / est.std_error]
    for m in (16, 32):
        exact = float(fully_random_exact_mean(m, m))
        random_est = mc_fully_random_maxload(m, m, 20_000, SEED + m)
        gaps.append(abs(random_est.mean - exact) / random_est.std_error)
    ok = all(gap <= 4 for gap in gaps)
    detail = "std-error gaps " + ", ".join(f"{g:.2f}" for g in gaps)
    announce(capsys, 8, "estimator calibration", ok, detail)
    assert ok, detail


def test_criterion_9_deterministic_outputs(tmp_path, capsys):
    # Rerunning any experiment with identical flags, at any worker count,
    # reproduces the CSV bodies byte for byte (metadata timestamp excluded).
    runs = {
        "figure1": ("figure1", "--points", "24"),
        "lemmas": ("lemmas", "--p", "13", "--m", "3"),
        "scaling": ("scaling", "--m-values", "8,16", "--samples", "400", "--seed", "3"),
        "transform": (
            "transform", "--p", "257", "--m", "16", "--samples", "400", "--seed", "2",
        ),
        "maxload-exact": ("maxload-exact", "--p", "257", "--m", "16"),
        "maxload-mc": ("maxload-mc", "--p", "257", "--m", "16", "--samples", "400"),
    }
    mismatches = []
    for name, args in runs.items():
        bodies = []
        for tag, extra in (("a", ()), ("b", ()), ("c", ("--workers", "2"))):
            out = f"{name}.{tag}.csv"
            proc = cli(*args, "--out", out, *extra, cwd=tmp_path)
            if proc.returncode not in (0, 1):
                mismatches.append(f"{name}: exit {proc.returncode}")
                break
            bodies.append(csv_data(tmp_path / out))
        if len(set(bodies)) != 1:
            mismatches.append(name)
    ok = not mismatches
    announce(
        capsys, 9, "deterministic outputs", ok,
        "all bodies identical" if ok else f"mismatches: {mismatches}",
    )
    assert ok, mismatches
