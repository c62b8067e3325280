"""biotfem benchmark: one workload, one process, one result line.

    python3 perfbench/run.py --workload timestep --seed 1 --trace 0

Run from a checkout root; the package is imported from `src/`.  The run
warms up at toy size, builds the workload's mesh and `FormOperators` three
times (`setup_s` is their median), then repeats the workload's task in a
closed loop, one caller and no concurrency, until `--seconds` have passed.

`--trace 0` reports the end-to-end metrics.  `--trace 1` spends half the
time untraced and half traced, and reports the per-layer metrics, whose
`trace.overhead_ratio` compares the two halves; its spans go to
`perfbench/out/`.  Every metric is printed by name and unit; the last line
is one JSON object: correct, attempted, failed and metrics.  See README.md
for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
# Times are reported in seconds of a host on which `reference_kernel` takes
# this long (the 2-core Xeon the bounds were set on takes 0.09 to 0.11 s
# while it is quiet).
REFERENCE_S = 0.1
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# span name -> per-layer metrics taken from it
CALL_COUNTS = ("assembly.FormOperators", "elements.FESpace",
               "elements.tabulate_at", "solver.solve_direct",
               "elements.project_qh")
SELF_TIMES = ("assembly.FormOperators", "elements.FESpace",
              "analysis.error_norms", "analysis.best_approximation_errors",
              "analysis.convergence_study", "solver.solve_direct",
              "solver.build_preconditioner", "solver.minres_solve",
              "elements.project_qh", "assembly.block_system",
              "assembly.norm_blocks", "analysis.infsup_constant",
              "cli.timestep_drive", "analysis.conservation_audit")
# answer-quality readings; 0 where the workload produces none
QUALITY = ("analysis.conservation_max_rel", "analysis.beta0_min",
           "analysis.order_min", "analysis.quasi_ratio_max",
           "solver.minres.true_residual_max")


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "FULL"):
    """Run one workload; returns (result line, report for printing)."""
    from tracer import Clock, Tracer
    from workloads import WORKLOADS, Tally

    cls = WORKLOADS[workload]
    wl = cls(getattr(cls, size), seed)
    cls(cls.TOY, seed).task(Clock(), Tally(), 0)  # imports, caches

    setup = _scaled_loop(lambda i: _wall(wl.setup), count=SETUP_REPEATS)

    tally = Tally()
    clock = Clock()
    plain = _scaled_loop(lambda i: wl.task(clock, tally, i),
                         seconds=seconds / 2 if trace else seconds)
    verified = tally.verified
    layers = None
    if trace:
        tracer = Tracer(cls.op_marker)
        with tracer.installed():
            traced = _scaled_loop(lambda i: wl.task(tracer, tally, i),
                                  seconds=seconds / 2)
        layers = _layer_metrics(tracer, tally, plain, traced)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{workload}-seed{seed}-spans.jsonl")

    end_to_end = {
        "run_s": (statistics.median(plain), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "verified_per_s": (verified / len(plain) / statistics.median(plain),
                           "ops/s"),
        "verified_ratio": (tally.verified / tally.attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    metrics = layers if trace else end_to_end
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    report = {
        "record": run_record(workload, seed, seconds, trace,
                             getattr(cls, size)),
        "end_to_end": end_to_end,
        "per_layer": layers or {},
        "tasks": len(plain),
        "failures": dict(tally.reasons),
    }
    return result, report


def _scaled_loop(step, seconds=0.0, count=1):
    """Closed loop: call `step(i)` for i = 0, 1, ... (it returns the
    seconds it timed) at least `count` times and until `seconds` of wall
    time have passed.

    Each time is scaled by REFERENCE_S over the mean of the reference
    kernel's times just before and just after the step, so that a host
    that runs everything slower for a while does not read as a slower
    program.
    """
    times = []
    deadline = time.perf_counter() + seconds
    ref = reference_kernel()
    while len(times) < count or time.perf_counter() < deadline:
        seconds_taken = step(len(times))
        ref_next = reference_kernel()
        times.append(seconds_taken * 2.0 * REFERENCE_S / (ref + ref_next))
        ref = ref_next
    return times


def _wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def reference_kernel() -> float:
    """Wall time of a fixed mix of the work biotfem does, none of it from
    biotfem: an interpreter loop, small numpy array operations, two sparse
    LU factorizations and a dense generalized eigenproblem."""
    import numpy as np
    import scipy.linalg as sla
    import scipy.sparse as sps
    import scipy.sparse.linalg as spla

    t0 = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i
    x = np.linspace(0.0, 1.0, 3000)
    for _ in range(1000):
        x = np.sqrt(x * x + 1.0) - 0.5 * x
    n = 64
    lap = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    A = (sps.kron(lap, sps.identity(n))
         + sps.kron(sps.identity(n), lap)).tocsc()
    for shift in (0.0, 1.0):
        spla.splu(A + shift * sps.identity(n * n, format="csc")).solve(
            np.ones(n * n))
    m = 220
    B = np.add.outer(np.arange(m), np.arange(m)) % 7 + m * np.eye(m)
    sla.eigh(B + B.T, 2.0 * np.eye(m), eigvals_only=True)
    return time.perf_counter() - t0


def _layer_metrics(tracer, tally, plain, traced):
    import numpy as np
    from tracer import TASK

    per_task = 1.0 / tracer.tasks
    all_tasks = len(plain) + len(traced)
    totals = tracer.layer_totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0] * per_task

    def self_s(name):
        return totals.get(name, (0, 0.0))[1] * per_task

    m = {f"{name}.calls": (calls(name), "count") for name in CALL_COUNTS}
    m.update({f"{name}.self_s": (self_s(name), "s") for name in SELF_TIMES})
    m["meshing.self_s"] = (sum(self_s(k) for k in totals
                               if k.startswith("meshing.")), "s")
    lu = tracer.lu_factorizations
    m["solver.lu.factorizations"] = (lu * per_task, "count")
    m["solver.lu.distinct_ratio"] = (tracer.lu_distinct / lu if lu else 0.0,
                                     "1")
    iters = np.array(tally.minres_iters or [0])
    m["solver.minres.iters_p50"] = (np.median(iters), "count")
    m["solver.minres.iters_max"] = (iters.max(), "count")
    m["solver.minres.iters_total"] = (iters.sum() / all_tasks, "count")
    m["solver.minres.breakdowns"] = (
        tally.reasons["raised BreakdownDetected"] / all_tasks, "count")
    m["solver.minres.nonconverged"] = (
        tally.reasons["not converged"] / all_tasks, "count")
    ops = tracer.op_durations()
    m["op_s.p50"] = (np.percentile(ops, 50) if ops.size else 0.0, "s")
    m["op_s.p75"] = (np.percentile(ops, 75) if ops.size else 0.0, "s")
    m["trace.overhead_ratio"] = (statistics.median(traced)
                                 / statistics.median(plain) - 1.0, "1")
    m["trace.unattributed_s"] = (self_s(TASK), "s")
    m.update({name: (tally.quality.get(name, 0.0), "1") for name in QUALITY})
    return m


def run_record(workload, seed, seconds, trace, sizes) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout's own repository, or "unknown" outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("timestep", "convergence", "sweep", "infsup",
                                 "sweep_perturbed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "biotfem" / "__init__.py").is_file():
        print(f"error: no biotfem sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    for key in BLAS_ENV:  # before numpy loads BLAS
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    result, report = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))

    print("record " + json.dumps(report["record"], sort_keys=True))
    print(f"tasks {report['tasks']} (untraced), failures "
          f"{json.dumps(report['failures'], sort_keys=True)}")
    print(f"fail_ratio = {result['failed'] / result['attempted']!r} 1 "
          f"({result['failed']} of {result['attempted']} ops)")
    for section in ("end_to_end", "per_layer"):
        for name, (value, unit) in report[section].items():
            print(f"{section} {name} = {float(value)!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
