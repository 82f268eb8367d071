"""Command-line front end binding the named experiments to CSV outputs.

Every experiment prints its acceptance report and exits nonzero when a
required check fails; refused exhaustive runs (over the work budget) exit
with status 2 and a hint to lower p or raise --budget, and invalid values
(p not prime, m out of range, --workers below 1) exit with status 2 and a
one-line error.
"""

from __future__ import annotations

import argparse
import sys

from .estimators import GENERATOR_NAME, McConfig, mc_linear_maxload
from .experiments import (
    FIGURE1_DEFAULT_M,
    FIGURE1_DEFAULT_P,
    _base_meta,
    format_report,
    interval_lower_bound_active,
    run_figure1,
    run_lemma_checks,
    run_scaling,
    run_transform_demo,
    write_csv,
)
from .field import Modulus
from .loads import Interval
from .oracles import (
    WorkBudgetError,
    canonicalize_triple,
    count_interval_collision,
    count_triple_collisions,
    exact_maxload_histogram,
    interval_lower_bound,
    triple_bound_formula,
)


def cmd_report(args) -> int:
    """Run the report experiment named by args.run with every parsed flag."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", "run")}
    report = args.run(**flags)
    print(f"wrote {args.out}")
    print(format_report(report))
    return 0 if report.overall else 1


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
    meta = _base_meta(
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


def cmd_maxload_mc(args) -> int:
    mod = Modulus(args.p, args.m)
    cfg = McConfig(samples=args.samples, seed=args.seed, mod=mod, key_set=Interval(args.m))
    est = mc_linear_maxload(cfg, args.workers)
    rows = [("mean", est.mean), ("std_error", est.std_error), ("samples", est.samples)]
    rows += [(f"tail_{l}", value) for l, value in sorted(est.tail.items())]
    meta = _base_meta(
        "maxload-mc",
        p=args.p,
        m=args.m,
        key_set=f"interval[{args.m}]",
        samples=args.samples,
        seed=args.seed,
        generator=GENERATOR_NAME,
        workers=args.workers,
    )
    write_csv(args.out, ("metric", "value"), rows, meta)
    print(f"wrote {args.out}")
    print(f"mean={est.mean:.6f} std_error={est.std_error:.6f}")
    return 0


def cmd_collide3(args) -> int:
    mod = Modulus(args.p, args.m)
    [count] = count_triple_collisions(
        mod, [(args.x, args.y, args.z)], workers=args.workers, budget=args.budget
    ).tolist()
    total = args.p * args.p
    canon = canonicalize_triple(args.p, args.x, args.y, args.z)
    bounds = triple_bound_formula(mod, canon.d)
    print(
        f"triple ({args.x}, {args.y}, {args.z}) canonical d={canon.d}: "
        f"{count}/{total} pairs collide (probability {count / total:.6g})"
    )
    print(
        f"statement bound {float(bounds.statement):.6g}, "
        f"proof bound {float(bounds.proof):.6g}"
    )
    if args.out:
        rows = [
            ("count", count),
            ("total", total),
            ("probability", count / total),
            ("canonical_d", canon.d),
            ("statement_bound", bounds.statement),
            ("proof_bound", bounds.proof),
        ]
        meta = _base_meta(
            "collide3", p=args.p, m=args.m, x=args.x, y=args.y, z=args.z, workers=args.workers
        )
        write_csv(args.out, ("metric", "value"), rows, meta)
        print(f"wrote {args.out}")
    return 0


def cmd_interval_collide(args) -> int:
    mod = Modulus(args.p, args.m)
    count = count_interval_collision(mod, args.d, workers=args.workers, budget=args.budget)
    total = args.p * args.p
    print(
        f"interval [0, {args.d}): {count}/{total} pairs collide "
        f"(probability {count / total:.6g})"
    )
    rows = [("count", count), ("total", total), ("probability", count / total)]
    if args.d <= args.m and interval_lower_bound_active(mod):
        bound = interval_lower_bound(mod, args.d)
        print(f"guaranteed lower bound 1/(6dm) = {float(bound):.6g}")
        rows.append(("lower_bound", bound))
    if args.out:
        meta = _base_meta(
            "interval-collide", p=args.p, m=args.m, d=args.d, workers=args.workers
        )
        write_csv(args.out, ("metric", "value"), rows, meta)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linbins",
        description="Max-load experiments for the hash family ((a*x+b) mod p) mod m",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, p, m, out, seed=None, samples=None, budget=True):
        sp.add_argument("--p", type=int, default=p, help="prime modulus")
        sp.add_argument("--m", type=int, default=m, help="number of bins")
        sp.add_argument("--out", default=out, help="output CSV path")
        sp.add_argument("--workers", type=int, default=1, help="parallel workers")
        if budget:
            sp.add_argument("--budget", type=int, help="cap on exhaustive work (see README)")
        if seed is not None:
            sp.add_argument("--seed", type=int, default=seed, help="random seed")
        if samples is not None:
            sp.add_argument("--samples", type=int, default=samples, help="Monte Carlo samples")

    sp = sub.add_parser("figure1", help="exact collision-probability sweep over d")
    common(sp, FIGURE1_DEFAULT_P, FIGURE1_DEFAULT_M, "figure1.csv")
    sp.add_argument("--points", type=int, default=64, help="sweep size (mirrored log spacing)")
    sp.add_argument("--full-sweep", action="store_true", help="sweep every d in [2, p-1]")
    sp.set_defaults(func=cmd_report, run=run_figure1)

    sp = sub.add_parser("lemmas", help="exhaustive invariant checks at one (p, m)")
    common(sp, 257, 16, "lemmas.report.csv", seed=0)
    sp.set_defaults(func=cmd_report, run=run_lemma_checks)

    sp = sub.add_parser("scaling", help="linear vs fully random mean max load across m")
    sp.add_argument(
        "--m-values", type=m_values, default="16,64,256,1024", help="comma-separated bin counts"
    )
    sp.add_argument("--samples", type=int, default=100_000, help="Monte Carlo samples")
    sp.add_argument("--seed", type=int, default=0, help="random seed")
    sp.add_argument("--out", default="scaling.csv", help="output CSV path")
    sp.add_argument("--workers", type=int, default=1, help="parallel workers")
    sp.set_defaults(func=cmd_report, run=run_scaling)

    sp = sub.add_parser("transform", help="interval vs affine-image max-load comparison")
    common(sp, 1031, 32, "transform.csv", seed=0, samples=20_000)
    sp.add_argument("--alpha", type=int, default=77, help="affine multiplier (nonzero)")
    sp.add_argument("--beta", type=int, default=5, help="affine offset")
    sp.add_argument("--exhaustive", action="store_true", help="also compare exact histograms")
    sp.set_defaults(func=cmd_report, run=run_transform_demo)

    sp = sub.add_parser("maxload-exact", help="exact max-load histogram on [m]")
    common(sp, 257, 16, "maxload_exact.csv")
    sp.add_argument("--b-mode", choices=("all_b", "b_zero"), default="all_b")
    sp.set_defaults(func=cmd_maxload_exact)

    sp = sub.add_parser("maxload-mc", help="Monte Carlo max-load estimate on [m]")
    common(sp, 1031, 32, "maxload_mc.csv", seed=0, samples=20_000, budget=False)
    sp.set_defaults(func=cmd_maxload_mc)

    sp = sub.add_parser("collide3", help="exact collision count of one triple")
    common(sp, 257, 16, None)
    sp.add_argument("--x", type=int, default=0)
    sp.add_argument("--y", type=int, default=1)
    sp.add_argument("--z", type=int, default=2)
    sp.set_defaults(func=cmd_collide3)

    sp = sub.add_parser("interval-collide", help="exact collision count of [0, d)")
    common(sp, 257, 16, None)
    sp.add_argument("--d", type=int, default=4, help="interval length")
    sp.set_defaults(func=cmd_interval_collide)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except WorkBudgetError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
