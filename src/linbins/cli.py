"""Command-line front end binding the named experiments to CSV outputs.

Every experiment prints its acceptance report and exits nonzero when a
required check fails; refused exhaustive runs (over the work budget) exit
with status 2 and a hint to lower p or raise --budget, and invalid values
(p not prime, m out of range, --workers below 1) and an --out that cannot be
written exit with status 2 and a one-line error, a missing --out directory
before any count.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .experiments import (
    FIGURE1_DEFAULT_M,
    FIGURE1_DEFAULT_P,
    base_meta,
    format_report,
    run_figure1,
    run_lemma_checks,
    run_scaling,
    write_csv,
)
from .field import Modulus
from .loads import Interval
from .oracles import WorkBudgetError, exact_maxload_histogram


def cmd_report(args) -> int:
    """Run the report experiment named by args.run with every parsed flag."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", "run")}
    report = args.run(**flags)
    print(f"wrote {args.out}")
    print(format_report(report))
    return 0 if all(c.passed for c in report) else 1


def m_values(text: str) -> list[int]:
    """Comma-separated bin counts, as --m-values takes them."""
    return [int(v) for v in text.split(",") if v]


def cmd_maxload_exact(args) -> int:
    mod = Modulus(args.p, args.m)
    hist = exact_maxload_histogram(
        mod, Interval(args.m), b_mode=args.b_mode, workers=args.workers, budget=args.budget
    )
    total = sum(hist.values())
    rows = [(load, count, count / total) for load, count in sorted(hist.items())]
    meta = base_meta(
        "maxload-exact",
        p=args.p,
        m=args.m,
        key_set=f"interval[{args.m}]",
        b_mode=args.b_mode,
        workers=args.workers,
    )
    write_csv(args.out, ("max_load", "count", "probability"), rows, meta)
    mean = sum(load * count for load, count in hist.items()) / total
    print(f"wrote {args.out}")
    print(f"tuples={total} mean_max_load={mean:.6f}")
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The linbins parser; only subcommand `command` (every one if None) gets its arguments.

    Every subcommand is registered either way, so usage, help and error texts do not change.
    """
    parser = argparse.ArgumentParser(
        prog="linbins",
        description="Max-load experiments for the hash family ((a*x+b) mod p) mod m",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        return sp if command in (None, name) else None

    def common(sp, p, m, out):
        sp.add_argument("--p", type=int, default=p, help="prime modulus")
        sp.add_argument("--m", type=int, default=m, help="number of bins")
        sp.add_argument("--out", default=out, help="output CSV path")
        sp.add_argument("--workers", type=int, default=1, help="parallel workers")
        sp.add_argument("--budget", type=int, help="cap on exhaustive work (see README)")

    if sp := add("figure1", "exact collision-probability sweep over d"):
        common(sp, FIGURE1_DEFAULT_P, FIGURE1_DEFAULT_M, "figure1.csv")
        sp.add_argument("--points", type=int, default=64, help="sweep size (mirrored log spacing)")
        sp.add_argument("--full-sweep", action="store_true", help="sweep every d in [2, p-1]")
        sp.set_defaults(func=cmd_report, run=run_figure1)

    if sp := add("lemmas", "exhaustive invariant checks at one (p, m)"):
        common(sp, 257, 16, "lemmas.report.csv")
        sp.add_argument("--seed", type=int, default=0, help="random seed")
        sp.set_defaults(func=cmd_report, run=run_lemma_checks)

    if sp := add("scaling", "linear vs fully random mean max load across m"):
        sp.add_argument(
            "--m-values", type=m_values, default="16,64,256,1024", help="comma-separated bin counts"
        )
        sp.add_argument(
            "--samples", type=int, default=100_000, help="linear-hash Monte Carlo samples"
        )
        sp.add_argument("--seed", type=int, default=0, help="random seed")
        sp.add_argument("--out", default="scaling.csv", help="output CSV path")
        sp.add_argument("--workers", type=int, default=1, help="parallel workers")
        sp.set_defaults(func=cmd_report, run=run_scaling)

    if sp := add("maxload-exact", "exact max-load histogram on [m]"):
        common(sp, 257, 16, "maxload_exact.csv")
        sp.add_argument("--b-mode", choices=("all_b", "b_zero"), default="all_b")
        sp.set_defaults(func=cmd_maxload_exact)

    # A name that is no subcommand gets the full parser, as if none were given.
    return parser if command is None or command in sub.choices else build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        # Every CSV of a run goes to the directory of --out.
        if not Path(args.out).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
        return args.func(args)
    except WorkBudgetError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
