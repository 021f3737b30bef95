"""Benchmark of gose: checked, timed solves per workload, or a traced run.

Run from the repository root:

    python3 benchmarks/run.py --workload det_chained --seed 0 --seconds 25 --trace 0

One solve is one gose.harness.run_one(config, seed) call, the work `gose run`
does per seed, ground-truth certification included.  A run draws the
workload's solve seeds from --seed and runs them one after another in this
process, repeating them until --seconds have passed (every seed runs at least
once).  Each solve is checked; a solve that raises or fails a check counts as
failed.  With --trace 0 the last line of output holds the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run (see tracer.py).  The
metric tables are in benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH_DIR / "out"

if not (SRC / "gose" / "__init__.py").is_file():
    sys.exit(f"benchmark: no gose sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import gose.harness  # noqa: E402  (imported from the checkout's src/)
from tracer import (LAYERS, ORACLE_METHODS, ReconciliationError,  # noqa: E402
                    Tracer)
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPS = 5      # fresh processes whose median set-up time is reported
TAIL_BEYOND = 10    # solves that must lie beyond the reported tail percentile
STATUS_OK = "second_order_stationary"

# On a 2-vCPU Xeon VM with shared, frequency-scaled host cores the CPU speed
# drifts by up to 40% over seconds to minutes.  In a 300 s probe that cycled
# through the workloads, the median solve time of 25 s windows spread 7-12%
# (quartile distance over median).  A fixed reference kernel therefore runs
# before each solve and after the last one, and solve times are reported at
# reference speed: seconds * REF_SECONDS / (mean kernel seconds around the
# solve).  A kernel mixing small matrix-vector steps with generator
# construction and draws, as the solves do, cut that spread to 4-5%; either
# part alone tracked the speed of some workload worse.  REF_SECONDS is about
# the kernel's time on that VM; raw seconds are in the details line.
REF_SECONDS = 0.010
REF_STEPS = 720
REF_MATRIX = np.random.default_rng(0).standard_normal((20, 20)) / 5


END_TO_END = [("setup_s", "s"), ("solve_s_p50", "s"), ("solve_s_tail", "s"),
              ("solves_per_s", "1/s"), ("work_units_per_solve", "count"),
              ("nc_calls_per_solve", "count"), ("certified_rate", "ratio"),
              ("peak_rss_mb", "MB")]

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from gose.harness import ExperimentConfig, build_problem
build_problem(ExperimentConfig.from_dict(json.loads(sys.argv[2])))
print(time.perf_counter() - t0)
"""


def solve_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(n)]


def measure_setup(config: dict) -> list[float]:
    """Import plus problem construction, each time in a fresh interpreter."""
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               json.dumps(config)],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small numpy calls, like a solve's."""
    t0 = time.perf_counter()
    x = np.ones(len(REF_MATRIX))
    for step in range(REF_STEPS):
        x = x - 1e-3 * (REF_MATRIX @ x)
        x = x / float(np.linalg.norm(x))
        if step % 6 == 0:
            rng = np.random.default_rng(step)
            z = rng.standard_normal((32, len(x))).mean(axis=0)
            x = (x + 1e-3 * z)[rng.permutation(len(x))]
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND solves beyond it."""
    s = sorted(times)
    k = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


class Outcome(NamedTuple):
    """What a solve of one seed must reproduce exactly when repeated."""

    status: str
    certified: object  # True, False, or None when certification was skipped
    nc_calls: int
    small_region_entries: int
    work_units: int


class Solves:
    """Runs, times and checks solves of one workload.

    A solve passes when it ends second_order_stationary, certify_second_order
    confirms it, it made exactly one NC call per small-region entry, it stays
    within the workload's NC bound, and a repeated seed reproduces the counts
    of its first solve exactly.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        self.cfg = gose.harness.ExperimentConfig.from_dict(wl.config)
        self.attempted = 0
        self.failures: list[str] = []
        self.times: list[float] = []   # seconds per solve
        self.kernel: list[float] = []  # reference kernel seconds before each solve
        self.first: dict[int, Outcome] = {}  # seed -> outcome of its first solve

    def run(self, seed: int):
        """One checked solve; returns (seconds, report or None if it raised)."""
        self.attempted += 1
        self.kernel.append(reference_kernel())
        t0 = time.perf_counter()
        try:
            report, row = gose.harness.run_one(self.cfg, seed)
        except Exception as exc:  # a raising solve is a failed operation
            report, error = None, exc
        dt = time.perf_counter() - t0
        self.times.append(dt)
        if report is None:
            self.first.setdefault(seed, None)
            self.fail(seed, f"raised {type(error).__name__}: {error}")
            return dt, None
        c = report.certificate.counters
        outcome = Outcome(row["status"], row["certified"], c.nc_calls,
                          c.small_region_entries, c.work_units())
        problems = []
        if row["status"] != STATUS_OK:
            problems.append(f"status {row['status']}")
        if row["certified"] is not True:
            problems.append(f"certify_second_order gave {row['certified']} "
                            f"(grad {row['true_grad_norm']}, lambda_min {row['lambda_min']})")
        if c.nc_calls != c.small_region_entries:
            problems.append(f"{c.nc_calls} NC calls for {c.small_region_entries} entries")
        if self.wl.nc_bound is not None and c.nc_calls > self.wl.nc_bound:
            problems.append(f"{c.nc_calls} NC calls exceed the bound {self.wl.nc_bound}")
        if self.first.setdefault(seed, outcome) != outcome:
            problems.append(f"outcome {outcome} differs from the first solve "
                            f"{self.first[seed]}")
        if problems:
            self.fail(seed, "; ".join(problems))
        return dt, report

    def scaled_times(self) -> list[float]:
        """Solve times at reference speed; runs the kernel after the last solve."""
        kernel = self.kernel + [reference_kernel()]
        return [dt * 2.0 * REF_SECONDS / (k0 + k1)
                for dt, k0, k1 in zip(self.times, kernel, kernel[1:])]

    def fail(self, seed: int, why: str) -> None:
        msg = f"solve seed={seed}: {why}"
        self.failures.append(msg)
        print(f"FAILED {self.wl.name} {msg}", file=sys.stderr)

    def count_metrics(self) -> dict:
        """Counts over each seed's first solve; they repeat exactly per seed."""
        done = [o for o in self.first.values() if o is not None]
        certified = sum(o.status == STATUS_OK and o.certified is True for o in done)
        return {
            "work_units_per_solve": statistics.fmean(o.work_units for o in done) if done else 0.0,
            "nc_calls_per_solve": statistics.fmean(o.nc_calls for o in done) if done else 0.0,
            "certified_rate": certified / len(self.first),
        }


def timed_run(wl: Workload, seed: int, seconds: float, max_solves=None) -> dict:
    setup = measure_setup(wl.config)
    solves = Solves(wl)
    seeds = solve_seeds(seed, wl.cycle)
    t0 = time.perf_counter()
    for i in itertools.count():
        if i == max_solves or (i >= len(seeds) and time.perf_counter() - t0 >= seconds):
            break
        solves.run(seeds[i % len(seeds)])
    wall = time.perf_counter() - t0
    scaled = solves.scaled_times()
    tail_s, tail_pct = tail(scaled)
    values = {
        "setup_s": statistics.median(setup),
        "solve_s_p50": statistics.median(scaled),
        "solve_s_tail": tail_s,
        "solves_per_s": solves.attempted / sum(scaled),
        **solves.count_metrics(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"setup_s_samples": setup, "solve_samples": len(solves.times),
               "distinct_seeds": len(solves.first), "tail_percentile": tail_pct,
               "raw_solve_s_p50": statistics.median(solves.times),
               "raw_solve_s_tail": tail(solves.times)[0],
               "raw_solves_per_s": solves.attempted / wall, "wall_s": wall}
    return result(solves, {k: (values[k], u) for k, u in END_TO_END}, details)


def traced_run(wl: Workload, seed: int, seconds: float, max_solves=None,
               spans_path=None) -> dict:
    """Untraced pass over the traced seeds, then traced passes until time is up."""
    solves = Solves(wl)
    seeds = solve_seeds(seed, wl.cycle)[:wl.trace_cycle]
    if max_solves is not None:
        seeds = seeds[:max_solves]
    t0 = time.perf_counter()
    untraced = {s: solves.run(s)[0] for s in seeds}
    rows, overheads = [], []
    with Tracer() as tracer:
        for i in itertools.count():
            if i >= len(seeds) and (max_solves is not None
                                    or time.perf_counter() - t0 >= seconds):
                break
            s = seeds[i % len(seeds)]
            dt, report = solves.run(s)
            if report is None:
                tracer.discard_solve()
                continue
            try:
                # keep the spans of each seed's first traced solve only
                row = tracer.end_solve(i, report.certificate.counters, dt,
                                       keep=i < len(seeds))
            except ReconciliationError as exc:
                solves.fail(s, str(exc))
                continue
            c = report.certificate.counters
            row.update(outer_s=dt, outer_iters=c.outer_iters,
                       small_region_entries=c.small_region_entries,
                       nc_calls=c.nc_calls)
            rows.append(row)
            overheads.append(dt - untraced[s])
    if spans_path is not None:
        tracer.save(spans_path)
    metrics = layer_metrics(rows, overheads) if rows else {}
    details = {"traced_solves": len(rows), "distinct_seeds": len(seeds),
               "spans": sum(r["trace.spans"] for r in rows),
               "spans_file": str(spans_path) if spans_path else None}
    return result(solves, metrics, details)


def layer_metrics(rows: list[dict], overheads: list[float]) -> dict:
    """Per-solve means over the traced solves, and ratios of their totals."""

    def tot(key):
        return sum(r[key] for r in rows)

    def mean(key):
        return tot(key) / len(rows)

    def ratio(a, b, scale=1.0):
        return scale * tot(a) / tot(b) if tot(b) else 0.0

    m = {f"{lay}.self_s": (mean(f"{lay}.self_s"), "s") for lay in LAYERS}
    m.update({
        "harness.build_problem_s": (mean("harness.build_problem_s"), "s"),
        "problems.certify_s": (mean("problems.certify_s"), "s"),
        "drivers.outer_iters": (mean("outer_iters"), "count"),
        "drivers.small_region_entries": (mean("small_region_entries"), "count"),
        "drivers.nc_per_entry": (ratio("nc_calls", "small_region_entries"), "ratio"),
        "drivers.work_units": (mean("drivers.work_units"), "count"),
        "drivers.fn_evals": (mean("drivers.fn_evals"), "count"),
        "solvers.calls": (mean("solvers.calls"), "count"),
        "solvers.work_units": (mean("solvers.work_units"), "count"),
        "solvers.oracle_calls": (mean("solvers.oracle_calls"), "count"),
        "escape.calls": (mean("escape.calls"), "count"),
        "escape.escape_rate": (ratio("escape.escaped", "escape.calls"), "ratio"),
        "escape.work_units": (mean("escape.work_units"), "count"),
        "ncfind.calls": (mean("ncfind.calls"), "count"),
        "ncfind.direction_rate": (ratio("ncfind.directions", "ncfind.calls"), "ratio"),
        "ncfind.work_units": (mean("ncfind.work_units"), "count"),
        "ncfind.hvp_per_call": (ratio("ncfind.hvp_calls", "ncfind.calls"), "count"),
        "ncfind.lanczos_calls": (mean("ncfind.lanczos_calls"), "count"),
        "ncfind.ritz_solves": (mean("ncfind.ritz_solves"), "count"),
        "ncfind.ritz_s": (mean("ncfind.ritz_s"), "s"),
        "core.calls": (mean("core.calls"), "count"),
        "core.us_per_call": (ratio("core.self_s", "core.calls", 1e6), "us"),
        "oracle.calls": (mean("oracle.calls"), "count"),
        "oracle.us_per_call": (ratio("oracle.self_s", "oracle.calls", 1e6), "us"),
        "oracle.share": (ratio("oracle.self_s", "outer_s"), "ratio"),
    })
    for meth in ORACLE_METHODS:
        m[f"oracle.{meth}.calls"] = (mean(f"oracle.{meth}.calls"), "count")
        m[f"oracle.{meth}.self_s"] = (mean(f"oracle.{meth}.self_s"), "s")
    m["trace.overhead_s"] = (statistics.fmean(overheads), "s")
    m["trace.unattributed_s"] = (mean("trace.unattributed_s"), "s")
    return m


def result(solves: Solves, metrics: dict, details: dict) -> dict:
    return {"correct": not solves.failures and bool(metrics),
            "attempted": solves.attempted, "failed": len(solves.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "details": {**details, "failures": solves.failures[:20]}}


def metadata() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_gose_lines": sum(len(p.read_text().splitlines())
                              for p in sorted((SRC / "gose").glob("*.py"))),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; solve seeds are drawn from it")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        res = traced_run(wl, args.seed, args.seconds,
                         spans_path=SPANS_DIR / f"spans_{wl.name}_seed{args.seed}.npz")
    else:
        res = timed_run(wl, args.seed, args.seconds)
    details = res.pop("details")
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {res['attempted']}  failed {res['failed']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"workload": wl.name, "why": wl.why, "seed": args.seed,
                      "seconds": args.seconds, "config": wl.config,
                      "details": details, "machine": metadata()}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
