"""The benchmark's workloads, their inputs and their per-op checks.

Each workload is a class built from a size table and the seed.  `setup()`
builds the mesh and `FormOperators` once (the set-up a user pays before the
first solve); `task()` runs the workload's whole task once, timing it on the
clock it is given, and records one outcome per op in a `Tally`.  Checks run
after the timed call or inside `clock.paused()`, so they are never timed
or traced.

Every library call goes through a module attribute (`bf.minres_solve`,
`analysis.convergence_study`, ...), so the tracer's rebinding sees it.
Why each workload exists, and which metric it should move, is written down
in README.md next to this file.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import biotfem as bf
from biotfem import analysis, cli, meshing

# acceptance parameter grid (tests/conftest.py)
LAM_GRID = (1.0, 1e2, 1e4, 1e8)
RP_GRID = (1e-8, 1e-4, 1.0, 1e4, 1e8)
AP_GRID = (0.0, 1.0)
TOY_GRID = ((1.0,), (1e-8, 1e-4), (0.0,))

# README physical data for the time stepper
PHYSICAL = {"mu": 0.5, "lambda": 2.0, "alpha": 1.0, "K": 1e-2, "tau": 0.25,
            "c_pp": 0.05}

# thresholds of the acceptance gate
CONSERVATION_BUDGET = 1e-10     # criterion 1: |r_K| <= 1e-10 (|g| + 1)
ORDER_MIN = 0.9                 # criterion 5
QUASI_MAX = 20.0                # criterion 7
BETA0_MIN = 0.02                # criterion 2
MINRES_TOL = 1e-8
MINRES_MAX_ITER = 500
# MINRES stops on its recurrence residual; the recomputed residual may
# exceed tol by rounding, not by orders of magnitude.
RESIDUAL_FACTOR = 100.0
# Relative distance, in the paper norms, between a MINRES solution and the
# canonical interpolant of the manufactured solution.  Direct solves stay
# below 0.25 at n >= 8 on perturbed meshes; a solution assembled on the
# wrong cells is off by O(1).
ERROR_MAX = 0.5


@dataclass
class Tally:
    """Op outcomes and answer-quality readings of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    wrong: int = 0
    quality: dict = field(default_factory=dict)
    minres_iters: list = field(default_factory=list)

    @property
    def verified(self) -> int:
        return self.attempted - self.failed

    def op(self, reason: str | None = None, wrong: bool = False):
        """Count one op; `reason` marks it failed, `wrong` marks an answer
        the library reported as a success but that failed its check."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] += 1
            self.wrong += wrong

    def worst(self, name: str, value: float, higher_is_worse: bool):
        old = self.quality.get(name)
        if old is None or (value > old) == higher_is_worse:
            self.quality[name] = float(value)


def _grid(lams, rps, aps):
    return [bf.ReducedParams(*pt) for pt in itertools.product(lams, rps, aps)]


def _error_name(exc: Exception) -> str:
    return f"raised {type(exc).__name__}"


def _whole_task(clock, tally: Tally, n_ops: int, call):
    """Time `call()`, a whole task of `n_ops` ops, as one library call.
    Returns (seconds, result); if the call raised, the result is None and
    every op is counted as failed."""
    error = result = None
    with clock.task() as timing:
        try:
            result = call()
        except Exception as exc:  # counted, never fatal
            error = exc
    for _ in range(n_ops if error is not None else 0):
        tally.op(_error_name(error))
    return timing["seconds"], result


@contextmanager
def _capturing(module, name: str, sink: list):
    """Append every result of `module.name` to `sink` inside the block, so
    a check can look at what a library driver computed but does not
    return."""
    real = getattr(module, name)

    def capture(*args, **kwargs):
        out = real(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, name, capture)
    try:
        yield
    finally:
        setattr(module, name, real)


def _conservation_ratio(system, x) -> float:
    """Criterion-1 residual of a direct solve over its budget
    1e-10 (|g| + 1); at most 1 passes."""
    r = np.abs(bf.conservation_audit(system, x)).max()
    g_sup = np.abs(system.rhs_p / system.mesh.signed_areas()).max()
    return r / (CONSERVATION_BUDGET * (g_sup + 1.0))


def _count_missing(tally: Tally, expected: int, got: int):
    """Ops the library dropped from its result count as wrong answers."""
    for _ in range(expected - got):
        tally.op("result missing", wrong=True)


class TimeStep:
    """Backward Euler through `cli.timestep_drive`; an op is one step."""

    op_marker = "assembly.block_system"
    FULL = {"n": 16, "steps": 8}
    TOY = {"n": 4, "steps": 2}

    def __init__(self, size: dict, seed: int):
        self.size = size
        self.cfg = cli.RunConfig(command="timestep", mesh_n=size["n"],
                                 steps=size["steps"], physical=PHYSICAL,
                                 g_mode="cosine")

    def setup(self):
        return bf.FormOperators(bf.structured_mesh(self.size["n"]))

    def task(self, clock, tally: Tally, index: int) -> float:
        steps = self.size["steps"]
        seconds, out = _whole_task(clock, tally, steps,
                                   lambda: cli.timestep_drive(self.cfg))
        if out is None:
            return seconds
        records, _ = out
        # The composed step source stays inside timestep_drive, so the
        # budget takes |g| = 0, the strictest value criterion 1 allows.
        for rec in records:
            rel = rec["conservation_max"] / CONSERVATION_BUDGET
            tally.worst("analysis.conservation_max_rel", rel, True)
            finite = all(math.isfinite(rec[k]) for k in
                         ("multiplier", "u_norm", "p_norm"))
            if not finite:
                tally.op("non-finite step state", wrong=True)
            elif not rel <= 1.0:
                tally.op("conservation over budget", wrong=True)
            else:
                tally.op()
        _count_missing(tally, steps, len(records))
        return seconds


class Convergence:
    """`analysis.convergence_study` on structured meshes; an op is one
    mesh level."""

    op_marker = "meshing.structured_mesh"
    FULL = {"n_list": (4, 8, 16)}
    TOY = {"n_list": (2, 4)}
    PARAMS = (1.0, 1.0, 0.0)

    def __init__(self, size: dict, seed: int):
        self.size = size
        self.params = bf.ReducedParams(*self.PARAMS)

    def setup(self):
        return bf.FormOperators(bf.structured_mesh(self.size["n_list"][-1]))

    def task(self, clock, tally: Tally, index: int) -> float:
        levels = len(self.size["n_list"])
        solves = []
        with _capturing(analysis, "solve_manufactured", solves):
            seconds, table = _whole_task(
                clock, tally, levels, lambda: analysis.convergence_study(
                    self.params, self.size["n_list"], with_quasi=True))
        if table is None:
            return seconds
        with clock.paused():  # library calls, so keep them out of a trace
            conservation = [_conservation_ratio(system, x)
                            for system, x, _, _ in solves]
        for row, cons in zip(table.rows, conservation):
            errs = (row.err_U, row.err_V, row.err_P)
            orders = (row.order_U, row.order_V, row.order_P)
            tally.worst("analysis.conservation_max_rel", cons, True)
            tally.worst("analysis.quasi_ratio_max", row.quasi_ratio, True)
            if row.order_U is not None:
                tally.worst("analysis.order_min", min(orders), False)
            if not all(math.isfinite(e) and e > 0 for e in errs):
                tally.op("non-finite error", wrong=True)
            elif row.order_U is not None and not min(orders) >= ORDER_MIN:
                tally.op("order below 0.9", wrong=True)
            elif not row.quasi_ratio <= QUASI_MAX:
                tally.op("quasi ratio above 20", wrong=True)
            elif not cons <= 1.0:
                tally.op("conservation over budget", wrong=True)
            else:
                tally.op()
        _count_missing(tally, levels, min(len(table.rows),
                                          len(conservation)))
        return seconds


class Sweep:
    """Preconditioned MINRES over the acceptance grid through the library
    API on one structured mesh; an op is one grid point.  The points are
    visited lambda-major, as `analysis.minres_sweep` visits them."""

    op_marker = "assembly.block_system"
    FULL = {"n": 12, "grid": (LAM_GRID, RP_GRID, AP_GRID)}
    TOY = {"n": 4, "grid": TOY_GRID}

    def __init__(self, size: dict, seed: int):
        self.size = size
        self.seed = seed
        self.points = _grid(*size["grid"])

    def mesh_builder(self, index: int):
        """Zero-argument callable that builds the mesh of task `index`;
        generating its input is not part of the timed work."""
        return lambda: bf.structured_mesh(self.size["n"])

    def setup(self):
        return bf.FormOperators(self.mesh_builder(0)())

    def task(self, clock, tally: Tally, index: int) -> float:
        build_mesh = self.mesh_builder(index)
        error = None
        with clock.task() as timing:
            try:
                ops = bf.FormOperators(build_mesh())
            except Exception as exc:  # counted, never fatal
                error = exc
            else:
                for pr in self.points:
                    self._point(clock, tally, ops, pr)
        for _ in range(len(self.points) if error is not None else 0):
            tally.op(_error_name(error))
        return timing["seconds"]

    def _point(self, clock, tally, ops, pr):
        try:
            case = bf.manufactured_case(pr)
            system = ops.block_system(pr, f=case.f, g=case.g)
            norms = ops.norm_blocks(pr)
            precond = bf.build_preconditioner(norms, system)
            x, report = bf.minres_solve(system, precond, tol=MINRES_TOL,
                                        max_iter=MINRES_MAX_ITER)
            bf.conservation_audit(system, x)
        except Exception as exc:  # counted, never fatal
            with clock.paused():
                tally.op(_error_name(exc))
            return
        with clock.paused():
            tally.minres_iters.append(report.iterations)
            if not report.converged:
                tally.op("not converged")
                return
            try:
                residual = _true_residual(system, precond, x)
                distance = _interpolant_distance(ops, case, norms, x)
            except Exception as exc:  # counted, never fatal
                tally.op(f"check {_error_name(exc)}")
                return
            tally.worst("solver.minres.true_residual_max", residual, True)
            if not residual <= RESIDUAL_FACTOR * MINRES_TOL:
                tally.op("true residual above 100 tol", wrong=True)
            elif not distance <= ERROR_MAX:
                tally.op("far from manufactured solution", wrong=True)
            else:
                tally.op()


class SweepPerturbed(Sweep):
    """`Sweep` on seeded perturbed meshes: task i uses mesh (seed, i).

    Not listed in BENCHMARK.json: MINRES still fails on these meshes
    (ROADMAP item 2), so the workload can be neither correct nor steady.
    It stays runnable to report that defect as it is.
    """

    FULL = {"n": 8, "grid": (LAM_GRID, RP_GRID, AP_GRID)}
    TOY = {"n": 4, "grid": TOY_GRID}

    def mesh_builder(self, index: int):
        vertices, cells = perturbed_mesh_arrays(self.size["n"], self.seed,
                                                index)
        return lambda: meshing.from_arrays(vertices, cells)


class InfSup:
    """`analysis.infsup_sweep` with paper norms on one structured mesh; an
    op is one grid point."""

    op_marker = "assembly.block_system"
    FULL = {"n": 6, "grid": (LAM_GRID, RP_GRID, AP_GRID)}
    TOY = {"n": 4, "grid": TOY_GRID}

    def __init__(self, size: dict, seed: int):
        self.size = size

    def setup(self):
        return bf.FormOperators(bf.structured_mesh(self.size["n"]))

    def task(self, clock, tally: Tally, index: int) -> float:
        lams, rps, aps = self.size["grid"]
        points = len(lams) * len(rps) * len(aps)
        seconds, records = _whole_task(
            clock, tally, points, lambda: analysis.infsup_sweep(
                [self.size["n"]], lams, rps, aps, norms="paper"))
        if records is None:
            return seconds
        for rec in records:
            tally.worst("analysis.beta0_min", rec.beta0, False)
            if not rec.beta0 >= BETA0_MIN:
                tally.op("beta0 below 0.02", wrong=True)
            else:
                tally.op()
        _count_missing(tally, points, len(records))
        return seconds


WORKLOADS = {
    "timestep": TimeStep,
    "convergence": Convergence,
    "sweep": Sweep,
    "infsup": InfSup,
    "sweep_perturbed": SweepPerturbed,
}


def perturbed_mesh_arrays(n: int, seed: int, index: int):
    """Vertex and cell arrays of an n-by-n unit-square mesh whose interior
    vertices move by up to 0.2 h in a random direction and whose squares
    are split along a random diagonal, both drawn from (seed, index)."""
    rng = np.random.default_rng([seed, index])
    h = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack((xg.ravel(), yg.ravel()))
    inner = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    radius = rng.uniform(0.0, 0.2 * h, inner.sum())
    angle = rng.uniform(0.0, 2.0 * np.pi, inner.sum())
    vertices[inner] += radius[:, None] * np.column_stack((np.cos(angle),
                                                          np.sin(angle)))
    i, j = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n),
                                           indexing="xy"))
    v00 = j * (n + 1) + i
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    rising = rng.integers(0, 2, n * n).astype(bool)[:, None]
    first = np.where(rising, np.column_stack((v00, v10, v11)),
                     np.column_stack((v00, v10, v01)))
    second = np.where(rising, np.column_stack((v00, v11, v01)),
                      np.column_stack((v10, v11, v01)))
    return vertices, np.concatenate((first, second))


def _true_residual(system, precond, x) -> float:
    """||b - A x|| over ||b||, both in the norm MINRES measures (the
    inverse of the preconditioner), recomputed outside the solver."""
    b = system.rhs
    r = b - system.monolithic() @ x
    return float(np.sqrt(abs(r @ precond.apply(r)) / (b @ precond.apply(b))))


def _interpolant_distance(ops, case, norms, x) -> float:
    """Relative distance in the paper norms from x to the canonical
    interpolants of the manufactured solution."""
    xi = np.concatenate((
        ops.uspace.interpolate(case.u)[ops.uspace.free_dofs],
        ops.vspace.interpolate(case.v)[ops.vspace.free_dofs],
        bf.project_qh(case.p, ops.mesh, zero_mean=True)))
    N = norms.monolithic()
    d = x - xi
    return float(np.sqrt((d @ (N @ d)) / (xi @ (N @ xi))))
