"""Command-line interface: exit codes, CSV structure, determinism."""

import subprocess
import sys

import pytest

from linbins.cli import build_parser


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "linbins.cli", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def body(path):
    return "".join(
        line for line in path.read_text().splitlines(keepends=True)
        if not line.startswith("#")
    )


def test_no_subcommand_is_usage_error(tmp_path):
    proc = run_cli(cwd=tmp_path)
    assert proc.returncode == 2


def test_lemmas_smoke_exit_zero(tmp_path):
    proc = run_cli("lemmas", "--p", "13", "--m", "3", "--out", "r.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout
    assert (tmp_path / "r.csv").exists()


def test_figure1_deterministic_across_runs_and_workers(tmp_path):
    args = ("figure1", "--p", "1031", "--m", "32", "--points", "16")
    first = run_cli(*args, "--out", "a.csv", cwd=tmp_path)
    second = run_cli(*args, "--out", "b.csv", cwd=tmp_path)
    third = run_cli(*args, "--workers", "3", "--out", "c.csv", cwd=tmp_path)
    assert first.returncode == second.returncode == third.returncode == 0
    assert body(tmp_path / "a.csv") == body(tmp_path / "b.csv") == body(tmp_path / "c.csv")
    reports = [body(tmp_path / f"{n}.report.csv") for n in "abc"]
    assert reports[0] == reports[1] == reports[2]


def test_budget_refusal_exits_two(tmp_path):
    proc = run_cli("figure1", "--budget", "1000", "--out", "x.csv", cwd=tmp_path)
    assert proc.returncode == 2
    assert "budget" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("maxload-exact", "--p", "12", "--m", "3"),
        ("scaling", "--m-values", "46341", "--samples", "1"),
        ("collide3", "--workers", "0"),
        ("lemmas", "--p", "2", "--m", "2"),
        ("scaling", "--m-values", ","),
    ],
)
def test_invalid_value_exits_two(tmp_path, args):
    proc = run_cli(*args, cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1


def test_budget_only_on_exhaustive_subcommands():
    parser = build_parser()
    exhaustive = ("figure1", "lemmas", "transform", "maxload-exact", "collide3", "interval-collide")
    for command in exhaustive:
        assert parser.parse_args([command, "--budget", "7"]).budget == 7, command
    # Sampling alone does no exhaustive work, so there is nothing to cap.
    for command in ("maxload-mc", "scaling"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--budget", "7"])
    assert parser.parse_args(["maxload-mc", "--workers", "2"]).workers == 2


def test_maxload_exact_b_zero_partitions(tmp_path):
    proc = run_cli(
        "maxload-exact", "--p", "257", "--m", "16", "--b-mode", "b_zero",
        "--out", "h.csv", cwd=tmp_path,
    )
    assert proc.returncode == 0
    rows = body(tmp_path / "h.csv").splitlines()
    assert rows[0] == "max_load,count,probability"
    counts = [int(r.split(",")[1]) for r in rows[1:]]
    assert sum(counts) == 257


def test_maxload_mc_reproducible(tmp_path):
    args = (
        "maxload-mc", "--p", "257", "--m", "16", "--samples", "500", "--seed", "9",
    )
    first = run_cli(*args, "--out", "a.csv", cwd=tmp_path)
    second = run_cli(*args, "--out", "b.csv", cwd=tmp_path)
    assert first.returncode == second.returncode == 0
    assert body(tmp_path / "a.csv") == body(tmp_path / "b.csv")
    assert "mean=" in first.stdout
    third = run_cli(*args, "--workers", "2", "--out", "c.csv", cwd=tmp_path)
    assert third.returncode == 0
    assert body(tmp_path / "a.csv") == body(tmp_path / "c.csv")
    assert "# workers=2\n" in (tmp_path / "c.csv").read_text()


def test_collide3_prints_counts(tmp_path):
    proc = run_cli(
        "collide3", "--p", "13", "--m", "3", "--x", "2", "--y", "5", "--z", "11",
        "--out", "c.csv", cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout == (
        "triple (2, 5, 11) canonical d=3: 21/169 pairs collide (probability 0.12426)\n"
        "statement bound 0.299145, proof bound 0.42735\n"
        "wrote c.csv\n"
    )
    assert body(tmp_path / "c.csv") == (
        "metric,value\n"
        "count,21\n"
        "total,169\n"
        "probability,0.12426035503\n"
        "canonical_d,3\n"
        "statement_bound,0.299145299145\n"
        "proof_bound,0.42735042735\n"
    )


def test_interval_collide_reports_lower_bound(tmp_path):
    proc = run_cli(
        "interval-collide", "--p", "197", "--m", "8", "--d", "4", "--out", "i.csv",
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout == (
        "interval [0, 4): 1621/38809 pairs collide (probability 0.0417687)\n"
        "guaranteed lower bound 1/(6dm) = 0.00520833\n"
        "wrote i.csv\n"
    )
    assert body(tmp_path / "i.csv") == (
        "metric,value\n"
        "count,1621\n"
        "total,38809\n"
        "probability,0.0417686619083\n"
        "lower_bound,0.00520833333333\n"
    )


def test_non_integer_m_values_exit_two(tmp_path):
    proc = run_cli("scaling", "--m-values", "8,x", "--samples", "10", cwd=tmp_path)
    assert proc.returncode == 2
    assert "invalid m_values value: '8,x'" in proc.stderr


def test_scaling_cli_rerun_identical(tmp_path):
    args = ("scaling", "--m-values", "8,16", "--samples", "400", "--seed", "3")
    first = run_cli(*args, "--out", "a.csv", cwd=tmp_path)
    second = run_cli(*args, "--out", "b.csv", cwd=tmp_path)
    assert first.returncode == second.returncode
    assert body(tmp_path / "a.csv") == body(tmp_path / "b.csv")


def test_transform_cli(tmp_path):
    proc = run_cli(
        "transform", "--p", "257", "--m", "16", "--alpha", "77", "--beta", "5",
        "--samples", "400", "--seed", "2", "--exhaustive", "--out", "t.csv",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "transform-exhaustive-histogram" in proc.stdout
