"""Command-line interface: exit codes, CSV structure, determinism."""

import subprocess
import sys

import pytest

import linbins
from linbins.cli import build_parser, main

SUBCOMMANDS = (
    "figure1", "lemmas", "scaling", "transform",
    "maxload-exact", "collide3", "interval-collide",
)


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
        ("scaling", "--m-values", "3037000500", "--samples", "1"),
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


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_lemmas_seed_outside_64_bits_exits_two(tmp_path, seed):
    proc = run_cli("lemmas", "--p", "13", "--m", "3", "--seed", seed, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: seed must be a 64-bit unsigned integer, got {seed}\n"


def test_lemmas_largest_seed_reproducible(tmp_path):
    # The affine map comes from random.Random(seed + 1) = random.Random(2^64).
    args = ("lemmas", "--p", "13", "--m", "3", "--seed", str(2**64 - 1))
    first = run_cli(*args, "--out", "a.csv", cwd=tmp_path)
    second = run_cli(*args, "--out", "b.csv", cwd=tmp_path)
    assert first.returncode == second.returncode == 0, first.stderr
    assert body(tmp_path / "a.csv") == body(tmp_path / "b.csv")


def test_only_scaling_loads_numpy_random(tmp_path):
    # numpy >= 2 imports numpy.random, and about 20 modules with it, on
    # first use; only the Monte Carlo sampler needs it.
    # numpy 1.x imports it with numpy itself, so there is nothing to see.
    code = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "if 'numpy.random' in sys.modules:\n"
        "    print('eager')\n"
        "    sys.exit(0)\n"
        "from linbins.cli import main\n"
        "commands = [\n"
        "    ['lemmas', '--p', '13', '--m', '3'],\n"
        "    ['figure1', '--p', '1031', '--m', '32', '--points', '16'],\n"
        "    ['maxload-exact'], ['transform'], ['collide3'], ['interval-collide'],\n"
        "]\n"
        "for argv in commands:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    assert 'numpy.random' not in sys.modules, argv[0]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['scaling', '--m-values', '8,16', '--samples', '400', '--seed', '3'])\n"
        "assert 'numpy.random' in sys.modules, 'scaling'\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    if run.stdout == "eager\n":
        pytest.skip("this numpy imports numpy.random with numpy itself")


def test_budget_only_on_exhaustive_subcommands():
    parser = build_parser()
    exhaustive = ("figure1", "lemmas", "transform", "maxload-exact", "collide3", "interval-collide")
    for command in exhaustive:
        assert parser.parse_args([command, "--budget", "7"]).budget == 7, command
    # Sampling alone does no exhaustive work, so there is nothing to cap.
    with pytest.raises(SystemExit):
        parser.parse_args(["scaling", "--budget", "7"])
    assert parser.parse_args(["scaling", "--workers", "2"]).workers == 2


def exit_output(parse, argv, capsys):
    """Exit status, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    return (stop.value.code, *capsys.readouterr())


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_one_subcommand_parser_keeps_every_text(command, capsys):
    # Only `command` gets its arguments; the texts must match the full parser's.
    full, one = build_parser(), build_parser(command)
    assert one.format_help() == full.format_help()
    assert one.format_usage() == full.format_usage()
    for argv in ([command, "-h"], [command, "--bogus"], ["-h"], []):
        assert exit_output(one.parse_args, argv, capsys) == exit_output(
            full.parse_args, argv, capsys
        ), argv
    other = "lemmas" if command == "figure1" else "figure1"
    with pytest.raises(SystemExit):
        one.parse_args([other, "--p", "13"])
    capsys.readouterr()


def test_main_error_texts_match_the_full_parser(capsys):
    assert "{" + ",".join(SUBCOMMANDS) + "}" in build_parser().format_usage()
    for argv in (["figure1", "--bogus"], [], ["bogus"], ["-h"]):
        assert exit_output(main, argv, capsys) == exit_output(
            build_parser().parse_args, argv, capsys
        ), argv
    # A name that is no subcommand gets every subcommand's arguments.
    assert build_parser("bogus").parse_args(["figure1", "--points", "3"]).points == 3


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


def test_preamble_version_is_package_version(tmp_path):
    proc = run_cli("collide3", "--p", "13", "--m", "3", "--out", "c.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    preamble = [line for line in (tmp_path / "c.csv").read_text().splitlines() if line[0] == "#"]
    assert f"# version={linbins.__version__}" in preamble


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
        "--out", "t.csv", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "transform-exhaustive-histogram" in proc.stdout
    # The comparison is exact, so there is nothing to sample or seed.
    sub = next(action for action in build_parser()._actions if action.dest == "command")
    flags = {flag for action in sub.choices["transform"]._actions for flag in action.option_strings}
    assert flags == {
        "-h", "--help", "--p", "--m", "--out", "--workers", "--budget", "--alpha", "--beta",
    }
