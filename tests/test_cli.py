"""Command-line interface: exit codes, CSV structure, determinism."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import linbins
from linbins import oracles
from linbins.cli import build_parser, main
from test_traced_names import load_rep

SUBCOMMANDS = ("figure1", "lemmas", "scaling", "maxload-exact")


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
        ("maxload-exact", "--p", "13", "--m", "3", "--workers", "0"),
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


@pytest.mark.parametrize("command", ["maxload-exact", "lemmas", "figure1"])
def test_unwritable_out_exits_two(tmp_path, command, capsys, monkeypatch):
    # Exit 1 means a failed check; an --out that cannot be written is an error,
    # found before any count: every exhaustive counter partitions its range
    # through oracles.map_chunks, and none is called.
    calls = []
    monkeypatch.setattr(oracles, "map_chunks", lambda *args: calls.append(args))
    out = tmp_path / "missing" / "x.csv"
    assert main([command, "--p", "13", "--m", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert calls == []


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
    # No subcommand loads fractions (and decimal and numbers with it): every
    # exact bound is compared in integers.
    code = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from linbins.cli import main\n"
        "commands = [\n"
        "    ['lemmas', '--p', '13', '--m', '3'],\n"
        "    ['figure1', '--p', '1031', '--m', '32', '--points', '16'],\n"
        "    ['maxload-exact'],\n"
        "    ['scaling', '--m-values', '8,16', '--samples', '400', '--seed', '3'],\n"
        "]\n"
        "for argv in commands:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0 or argv[0] == 'scaling', argv\n"
        "    assert 'fractions' not in sys.modules, argv[0]\n"
        "    assert eager or ('numpy.random' in sys.modules) == (argv[0] == 'scaling'), argv[0]\n"
        "print('eager' if eager else 'lazy')\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    if run.stdout == "eager\n":
        pytest.skip("this numpy imports numpy.random with numpy itself (fractions was checked)")


def unused_module_names(sources: dict[str, str]) -> set[str]:
    """module.name for each module-level function, class or constant no module reads.

    A read is a loaded Name, an attribute of that name, or a from-import of it.
    """
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((module, t.id) for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return {f"{module}.{name}" for module, name in defined if name not in read}


def test_every_module_level_name_is_read():
    # The program carries no dead code.  Four names stay only because the
    # benchmark's tracer wraps them by name, so each must be one it wraps.
    # Of the tests, only their own unit tests read load_profile and
    # maxloads_for_a, against tests/reference.py; count_interval_collision
    # is the one-length form of the interval sweep; criterion 8 calibrates
    # mc_fully_random_maxload against the exact distribution.
    package = Path(linbins.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    traced_only = {
        "loads.load_profile",
        "oracles.maxloads_for_a",
        "oracles.count_interval_collision",
        "estimators.mc_fully_random_maxload",
    }
    assert unused_module_names(sources) == traced_only
    assert traced_only <= set(load_rep().SPANS)
    # The check sees every form of read, and only reads.
    probe = {
        "a": "X = 1\nY: int = 2\nclass C: pass\ndef f(): return C\ndef g(): f()\n",
        "b": "from .a import X\nfrom . import a\na.Y\n",
    }
    assert unused_module_names(probe) == {"a.g"}


def test_budget_only_on_exhaustive_subcommands():
    parser = build_parser()
    exhaustive = ("figure1", "lemmas", "maxload-exact")
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
    removed = ("transform", "collide3", "interval-collide")
    for argv in (["figure1", "--bogus"], [], ["bogus"], *([name] for name in removed), ["-h"]):
        assert exit_output(main, argv, capsys) == exit_output(
            build_parser().parse_args, argv, capsys
        ), argv
    # The affine-image claim is the `lemmas` row affine-image-histogram; the
    # count of a triple (x, y, z) is the figure1 --full-sweep row
    # d = (z - x)/(y - x) mod p, and the interval bound the `lemmas` row
    # interval-lower-bound.
    for name in removed:
        code, _, err = exit_output(main, [name], capsys)
        assert code == 2 and f"invalid choice: '{name}'" in err, name
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


def test_preamble_version_is_package_version(tmp_path):
    proc = run_cli("maxload-exact", "--p", "13", "--m", "3", "--out", "h.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    preamble = [line for line in (tmp_path / "h.csv").read_text().splitlines() if line[0] == "#"]
    assert f"# version={linbins.__version__}" in preamble


def test_non_integer_m_values_exit_two(tmp_path):
    proc = run_cli("scaling", "--m-values", "8,x", "--samples", "10", cwd=tmp_path)
    assert proc.returncode == 2
    assert "invalid m_values value: '8,x'" in proc.stderr


def test_scaling_m_values_not_increasing_exit_two(tmp_path):
    for values in ("64,16", "16,16"):
        proc = run_cli("scaling", "--m-values", values, "--samples", "200", cwd=tmp_path)
        assert proc.returncode == 2
        message = f"scaling study needs increasing m values, got 16 after {values[:2]}"
        assert proc.stderr == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_scaling_cli_rerun_identical(tmp_path):
    args = ("scaling", "--m-values", "8,16", "--samples", "400", "--seed", "3")
    first = run_cli(*args, "--out", "a.csv", cwd=tmp_path)
    second = run_cli(*args, "--out", "b.csv", cwd=tmp_path)
    assert first.returncode == second.returncode
    assert body(tmp_path / "a.csv") == body(tmp_path / "b.csv")
