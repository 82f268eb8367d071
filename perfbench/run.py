"""linbins benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload (or `--workload all`), each in a fresh
interpreter (rep.py), until `--seconds` have passed and at least MIN_REPS
repetitions are done. With `--trace 0` it reports the end-to-end metrics of
BENCHMARK.json as medians over the repetitions; with `--trace 1` it reports
the per-layer metrics from traced repetitions. Every repetition's outputs are
checked against references frozen in perfbench/refs; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Stdlib only; the program under test is imported from this
checkout's `src/` by absolute path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Outputs go to an ignored directory of the checkout, never next to the sources.
OUT = ROOT / ".bench_out"

WORKLOADS = ("collide-sweep", "maxload-exact", "mc-scaling", "lemmas-small")
# Workloads that pass --workers 2 and get a single-worker traced pass for
# oracles.parallel_efficiency.
PARALLEL = ("collide-sweep", "maxload-exact")
MIN_REPS = 3
MIN_SETUPS = 7
REP_TIMEOUT_S = 150
# The speed of a shared host drifts by up to 40% within minutes, which no
# number of repetitions averages out. rep.py therefore times a fixed
# calibration unit right after set-up and right after the timed calls, and
# every time a repetition reports is scaled by CAL_REF_S / (its mean unit
# time): reported seconds are seconds of a host on which the unit takes
# CAL_REF_S. The unscaled times are printed and kept in the run record.
CAL_REF_S = 0.003
# The unit is interpreter-bound; so are set-up (imports) and these workloads.
# Scaling the fork-bound collide-sweep and the large-array maxload-exact by
# it widened their spread over ten seeds (4% to 10% and 5% to 16%), so their
# times are reported unscaled.
INTERPRETER_BOUND = ("mc-scaling", "lemmas-small")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, mode: str, workers: int | None = None,
          trace_file: Path | None = None) -> dict:
    """Run rep.py once in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--work-dir", str(OUT)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    # An absolute path, so that pool workers started from any cwd import the
    # checkout and no installed copy shadows it.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except BaseException as err:
        # Timeout, interrupt or SIGTERM: end the repetition and its pool workers.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(err, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} {mode} repetition timed out") from err
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} {mode} repetition exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def literal_histogram(p: int, m: int) -> dict[int, int]:
    """All-(a, b) max-load histogram of [m] by the literal double loop."""
    hist: dict[int, int] = {}
    for a in range(p):
        for b in range(p):
            loads = [0] * m
            for x in range(m):
                loads[(a * x + b) % p % m] += 1
            top = max(loads)
            hist[top] = hist.get(top, 0) + 1
    return hist


def reference_ops(workload: str) -> list:
    """Checks of the frozen references themselves, once per run."""
    if workload != "maxload-exact":
        return []
    text = (BENCH_DIR / "refs" / "maxload_exact_p257_m16.csv").read_text()
    frozen = {int(r.split(",")[0]): int(r.split(",")[1]) for r in text.splitlines()[1:]}
    return [("refs.literal_double_loop.m16", literal_histogram(257, 16) == frozen)]


def scaled(rep: dict, key: str) -> float:
    return rep[key] * CAL_REF_S / rep["cal_s"]


def timer(workload: str):
    """How the workload's call times are reported: scaled or as measured."""
    return scaled if workload in INTERPRETER_BOUND else (lambda rep, key: rep[key])


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    reps = []
    t0 = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - t0 < seconds:
        reps.append(spawn(workload, seed, "run"))
    setups = list(reps)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup"))
    t = timer(workload)
    metrics = {
        "wall_s": median([t(r, "wall_s") for r in reps]),
        "setup_s": median([scaled(r, "setup_s") for r in setups]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        # Exact workloads reach their accuracy when they finish; the Monte
        # Carlo one is extrapolated to a fixed standard error.
        "time_to_accuracy_s": median(
            [t(r, "mc_time_to_se_s" if "mc_time_to_se_s" in r else "wall_s") for r in reps]),
    }
    raw = {"wall_s": [r["wall_s"] for r in reps], "setup_s": [r["setup_s"] for r in setups],
           "cal_s": [r["cal_s"] for r in setups]}
    return metrics, [op for r in reps for op in r["ops"]], {"raw": raw, "reps": reps}


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    plain, traced = [], []
    t0 = time.monotonic()
    trace_file = OUT / f"trace-{workload}.json"
    while not traced or time.monotonic() - t0 < seconds:
        plain.append(spawn(workload, seed, "run"))
        traced.append(spawn(workload, seed, "trace", trace_file=trace_file))
    reps = plain + traced
    layers = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    t = timer(workload)
    traced_wall = median([t(r, "wall_s") for r in traced])
    layers["trace.overhead_frac"] = traced_wall / median([t(r, "wall_s") for r in plain]) - 1
    layers["trace.self_sum_frac"] = median([r["self_sum_s"] / r["wall_s"] for r in traced])
    top = max(traced[0]["self_by_name"], key=traced[0]["self_by_name"].get)
    layers["trace.top_self_frac"] = median(
        [r["self_by_name"].get(top, 0.0) / r["wall_s"] for r in traced])
    layers["oracles.parallel_efficiency"] = 0.0
    if workload in PARALLEL:
        single = spawn(workload, seed, "trace", workers=1)
        reps.append(single)
        busy2 = median([t(r, "queries_busy_s") for r in traced])
        layers["oracles.parallel_efficiency"] = t(single, "queries_busy_s") / (2 * busy2)
    layers.update(spawn(workload, seed, "micro"))
    info = {"top_self": top, "traced_wall_s": traced_wall, "reps": reps,
            "trace_file": str(trace_file)}
    return layers, [op for r in reps for op in r["ops"]], info


def host_facts(seed: int, reps: list) -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
        return int(out) if out.isdigit() else None

    commit = "unknown"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    versions = reps[0].get("versions", {}) if reps else {}
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine() or "unknown",
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy", "unknown"),
        "commit": commit or "unknown",
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    if trace:
        values, ops, info = run_traced(workload, seed, seconds)
        wanted = spec["per_layer"]
    else:
        values, ops, info = run_untraced(workload, seed, seconds)
        wanted = spec["end_to_end"]
    ops += reference_ops(workload)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = [name for name, ok in ops if not ok]
    host = host_facts(seed, info["reps"])

    print(f"workload={workload} seed={seed} trace={int(trace)} "
          f"repetitions={len(info['reps'])}")
    for name, v in metrics.items():
        print(f"  {name:<52} {v['value']:.6g} {v['unit']}")
    print(f"  {'fail_frac':<52} {len(failed) / len(ops):.6g} "
          f"({len(failed)} failed / {len(ops)} attempted)")
    for name in failed:
        print(f"  FAILED {name}")
    if trace:
        print(f"  largest self time: {info['top_self']} "
              f"({metrics['trace.top_self_frac']['value']:.1%} of the traced wall time)")
    else:
        raw = info["raw"]
        print(f"  unscaled medians: wall_s {median(raw['wall_s']):.6g} s, setup_s "
              f"{median(raw['setup_s']):.6g} s, calibration unit {median(raw['cal_s']):.4g} s")
    print("  host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    record = {"workload": workload, "trace": trace, "host": host, "metrics": metrics,
              "failed": failed, **{k: v for k, v in info.items() if k != "reps"}}
    (OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="linbins benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "linbins" / "__init__.py").is_file():
        print(f"no linbins sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, seconds, bool(args.trace), spec)
                   for w in names}
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
