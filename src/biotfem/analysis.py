"""Stability, conservation and convergence diagnostics.

The discrete inf-sup constant of the three-field form is measured as the
smallest generalized eigenvalue magnitude of the operator's blocks against
the norm blocks, each whitened on its own, with the pressure reduced to
its mean-zero subspace; the same machinery drives the negative experiment
that contrasts the reweighted norms against the plain ones.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, field

import numpy as np

from .assembly import (AffineLoad, BlockSystem, DGConfig, FormOperators,
                       NormBlocks)
from .elements import edge_rule, project_qh, triangle_rule
from .meshing import BOUNDARY, TriMesh, structured_mesh
from .params import ReducedParams
from .solver import (_block_factor, _dense_pencil, _mean_zero_pencil,
                     _whiten_lower, build_preconditioner, minres_solve,
                     solve_direct)


@dataclass
class InfSupResult:
    """Smallest |theta| of the pencil A x = theta N x."""

    beta0: float
    mesh_n: int
    params: ReducedParams
    triple: str
    norms: str


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution of the reduced static system.

    The displacement vanishes on the whole boundary, the flux satisfies the
    Darcy relation exactly and has zero normal boundary trace, the pressure
    has zero mean, and the divergence relation makes the source g mean-free.
    """

    params: ReducedParams
    u: callable
    grad_u: callable
    hess_u: callable
    div_u: callable
    p: callable
    v: callable
    div_v: callable
    f: callable
    g: callable

    def at(self, x, y, names) -> dict:
        """The fields `names` at the points (x, y), keyed by name.

        The `_TrigField`s of `manufactured_case` share one lazy sin/cos
        evaluation of the points; any other callable, such as a field set
        with `dataclasses.replace`, is called on (x, y) in turn."""
        waves = _Waves(x, y)
        out = {}
        for name in names:
            fn = getattr(self, name)
            out[name] = (fn.of_waves(waves) if isinstance(fn, _TrigField)
                         else fn(x, y))
        return out


@dataclass
class ConvergenceRow:
    n: int
    h_max: float
    err_U: float
    err_V: float
    err_P: float
    order_U: float | None = None
    order_V: float | None = None
    order_P: float | None = None
    quasi_ratio: float | None = None


@dataclass
class ConvergenceTable:
    params: ReducedParams
    triple: str
    rows: list[ConvergenceRow] = field(default_factory=list)

    def orders_at_finest(self):
        r = self.rows[-1]
        return (r.order_U, r.order_V, r.order_P)


def mesh_subdivisions(mesh: TriMesh) -> int:
    return int(round(np.sqrt(mesh.num_cells / 2)))


def infsup_constant(system: BlockSystem, norms: NormBlocks) -> InfSupResult:
    """Discrete inf-sup constant in the norms supplied.

    Assembles the dense pencil (A, N) on the mean-zero pressure subspace and
    returns min |theta|; by symmetry this equals the two-sided inf-sup
    constant of the block form in the given norms.
    """
    theta = _mean_zero_pencil(system, norms, f"{norms.kind} norm matrix")
    return InfSupResult(
        beta0=float(np.abs(theta).min()),
        mesh_n=mesh_subdivisions(system.mesh),
        params=system.params,
        triple="-".join(system.families),
        norms=norms.kind,
    )


def _f_parts(x, y):
    """Components (f_0, f_1) of the manufactured load f = f_0 + lam f_1."""
    pi = np.pi
    sx, cx = np.sin(pi * x), np.cos(pi * x)
    sy, cy = np.sin(pi * y), np.cos(pi * y)
    mixed = cx * cy - sx * sy
    base = pi * pi * sx * sy - 0.5 * pi * pi * mixed
    f_1 = -pi * pi * mixed
    return np.stack([np.stack([base - pi * sx * cy, base - pi * cx * sy],
                              axis=-1),
                     np.stack([f_1, f_1], axis=-1)])


def _g_parts(x, y):
    """Components (g_0, g_1, g_2) of the manufactured source
    g = g_0 + R_p g_1 + alpha_p g_2: -div u, -div v / R_p and -p."""
    pi = np.pi
    sx, cx = np.sin(pi * x), np.cos(pi * x)
    sy, cy = np.sin(pi * y), np.cos(pi * y)
    p = cx * cy
    return np.stack([-pi * (cx * sy + sx * cy), -2.0 * pi * pi * p, -p])


class _Waves(dict):
    """sin(pi x), cos(pi x), sin(pi y) and cos(pi y) of coordinate arrays
    under the keys "sx", "cx", "sy" and "cy", each evaluated on first use."""

    def __init__(self, x, y):
        super().__init__()
        self.x, self.y = x, y

    def __missing__(self, key):
        fn = np.sin if key[0] == "s" else np.cos
        value = self[key] = fn(np.pi * (self.x if key[1] == "x" else self.y))
        return value


class _TrigField:
    """A field of `manufactured_case`, written on the `_Waves` of its
    points: `of_waves(w)` reads shared waves, and a call on (x, y) makes
    its own."""

    def __init__(self, of_waves):
        self.of_waves = of_waves

    def __call__(self, x, y):
        return self.of_waves(_Waves(x, y))


def manufactured_case(params: ReducedParams) -> ManufacturedCase:
    """Trigonometric exact solution compatible with the homogeneous
    essential boundary conditions.

    Its loads are `AffineLoad`s in the parameters, so one `FormOperators`
    assembles their components once for a whole sweep.  Its fields are
    `_TrigField`s, which `ManufacturedCase.at` evaluates on one sin/cos
    evaluation of their points."""
    pi = np.pi
    lam, rp_inv, alpha_p = params.lam, params.rp_inv, params.alpha_p
    Rp = 1.0 / rp_inv

    def u(w):
        s = w["sx"] * w["sy"]
        return np.stack([s, s], axis=-1)

    def grad_u(w):
        gx = pi * w["cx"] * w["sy"]
        gy = pi * w["sx"] * w["cy"]
        row = np.stack([gx, gy], axis=-1)
        return np.stack([row, row], axis=-2)

    def hess_u(w):
        sxy = w["sx"] * w["sy"]
        cxy = w["cx"] * w["cy"]
        h = np.stack([
            np.stack([-pi * pi * sxy, pi * pi * cxy], axis=-1),
            np.stack([pi * pi * cxy, -pi * pi * sxy], axis=-1),
        ], axis=-2)
        return np.stack([h, h], axis=-3)

    def div_u(w):
        return pi * (w["cx"] * w["sy"] + w["sx"] * w["cy"])

    def p(w):
        return w["cx"] * w["cy"]

    def v(w):
        # Darcy relation: v = -R_p grad p
        return np.stack([Rp * pi * w["sx"] * w["cy"],
                         Rp * pi * w["cx"] * w["sy"]], axis=-1)

    def div_v(w):
        return 2.0 * pi * pi * Rp * w["cx"] * w["cy"]

    fields = map(_TrigField, (u, grad_u, hess_u, div_u, p, v, div_v))
    return ManufacturedCase(params, *fields,
                            AffineLoad((1.0, lam), _f_parts),
                            AffineLoad((1.0, Rp, alpha_p), _g_parts))


def expand_solution(system: BlockSystem, x: np.ndarray):
    """Scatter a stacked free-dof solution into full coefficient vectors
    (u, v) plus per-cell pressures."""
    xu, xv, xp = system.split(x)
    cu = np.zeros(system.uspace.ndof)
    cu[system.uspace.free_dofs] = xu
    cv = np.zeros(system.vspace.ndof)
    cv[system.vspace.free_dofs] = xv
    return cu, cv, xp


# The manufactured fields on the error rules of a displacement space, for
# the last case evaluated there, matched by identity (the table keeps the
# case alive): the error norms and the best-approximation errors of one
# mesh level read one evaluation.  Weakly keyed on the space, so a table
# dies with its space.
_EXACT: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _exact_table(space, case: ManufacturedCase) -> dict:
    """The case's fields at the degree-8 points of every cell with their
    weights wK; sum_K h_K^2 ||D^2 u||_K^2, which every displacement family
    leaves to the exact solution, since it is affine on each cell; and u
    with the basis traces at the edge-4 points (`_edge_exact`)."""
    table = _EXACT.get(space)
    if table is None or table["case"] is not case:
        mesh = space.mesh
        rule = triangle_rule(8)
        xy = mesh.cell_points(rule.points)
        wK = rule.weights[None, :] * space.detJ[:, None]
        table = case.at(xy[..., 0], xy[..., 1], ("grad_u", "div_u", "v",
                                                 "div_v", "p", "hess_u"))
        table.update(case=case, wK=wK, edge=_edge_exact(space, case.u),
                     e_hess=np.einsum("k,kq,kqabc->", mesh.h_cell**2, wK,
                                      table.pop("hess_u")**2, optimize=True))
        _EXACT[space] = table
    return table


def triple_error_norms(uspace, vspace, cu, cv, p_cells,
                       case: ManufacturedCase):
    """Errors of a coefficient triple in the three parameter-weighted norms.

    err_U collects the broken gradient, tangential jumps, the cell-scaled
    second derivatives of the error and the lambda-weighted divergence;
    every displacement family is affine on each cell, so the second
    derivatives are those of the exact solution alone.  err_V and err_P
    carry the rp_inv/gamma weights.  Volume terms use the degree-8 rule;
    the exact fields come from the table of `uspace` and `case`.
    """
    params = case.params
    exact = _exact_table(uspace, case)
    wK, points = exact["wK"], triangle_rule(8).points

    # the discrete derivatives are constant on each cell
    grad_h = uspace.cell_gradient(cu)[:, None]
    e_grad = np.einsum("kq,kqab->", wK, (exact["grad_u"] - grad_h)**2,
                       optimize=True)
    div_h = uspace.cell_divergence(cu)[:, None]
    e_div = np.einsum("kq,kq->", wK, (exact["div_u"] - div_h)**2,
                      optimize=True)
    e_jump = _error_jump_seminorm(uspace, cu, exact["edge"])
    err_U = np.sqrt(e_grad + e_jump + exact["e_hess"] + params.lam * e_div)

    vh = vspace.eval_field(cv, points)
    e_v = np.einsum("kq,kqa->", wK, (exact["v"] - vh)**2, optimize=True)
    div_h = vspace.cell_divergence(cv)[:, None]
    e_dv = np.einsum("kq,kq->", wK, (exact["div_v"] - div_h)**2,
                     optimize=True)
    err_V = np.sqrt(params.rp_inv * e_v + e_dv / params.gamma)

    ph = np.asarray(p_cells)[:, None] * np.ones_like(wK)
    e_p = np.einsum("kq,kq->", wK, (exact["p"] - ph)**2, optimize=True)
    err_P = np.sqrt(params.gamma * e_p)
    return err_U, err_V, err_P


def _edge_exact(space, u_exact):
    """The edge-4 rule's weights, u_exact at its points on every edge, and
    the basis traces there (`FESpace.edge_traces`)."""
    mesh = space.mesh
    snodes, sweights = edge_rule(4)
    pts = mesh.edge_points(snodes)
    return (sweights, u_exact(pts[..., 0], pts[..., 1]),
            space.edge_traces(np.arange(mesh.num_edges), pts))


def _error_jump_seminorm(space, coeffs, edge):
    """Sum of h_e^{-1} ||tangential jump of (u - u_h)||^2 over all edges,
    with `edge` from `_edge_exact`; the exact field is continuous, so
    interior jumps come from u_h alone."""
    mesh = space.mesh
    sweights, u_exact, (cells, val) = edge
    uh = np.einsum("sei,seiqa->seqa", coeffs[space.cell_dofs[cells]], val,
                   optimize=True)
    boundary = (mesh.edge_cells[:, 1] == BOUNDARY)[:, None, None]
    err = np.where(boundary, u_exact - uh[0], uh[1] - uh[0])
    err_t = np.einsum("eqa,ea->eq", err, mesh.edge_tangent, optimize=True)
    return 0.5 * np.einsum("q,eq->", sweights, err_t**2, optimize=True)


def error_norms(system: BlockSystem, x: np.ndarray,
                case: ManufacturedCase):
    cu, cv, p_cells = expand_solution(system, x)
    return triple_error_norms(system.uspace, system.vspace, cu, cv, p_cells,
                              case)


def best_approximation_errors(ops: FormOperators, case: ManufacturedCase):
    """Errors of the canonical interpolants / projection in the same norms."""
    cu = ops.uspace.interpolate(case.u)
    cv = ops.vspace.interpolate(case.v)
    pp = project_qh(case.p, ops.mesh, zero_mean=True)
    return triple_error_norms(ops.uspace, ops.vspace, cu, cv, pp, case)


def conservation_audit(system: BlockSystem, x: np.ndarray):
    """Per-cell residual of the divergence equation.

    r_K = -div u_h - div v_h - alpha_p p_h - Q_h g, with Q_h g taken from
    the assembled load (same quadrature as the system right-hand side) so
    the identity is algebraically exact up to solver roundoff.
    """
    cu, cv, p_cells = expand_solution(system, x)
    g_cells = system.rhs_p / system.mesh.signed_areas()
    div_u = system.uspace.cell_divergence(cu)
    div_v = system.vspace.cell_divergence(cv)
    return -div_u - div_v - system.params.alpha_p * p_cells - g_cells


def solve_manufactured(ops: FormOperators, params: ReducedParams,
                       case: ManufacturedCase | None = None):
    """Direct solve of the manufactured problem on the given operators."""
    case = case or manufactured_case(params)
    system = ops.block_system(params, f=case.f, g=case.g)
    x, mult = solve_direct(system)
    return system, x, mult, case


def convergence_study(params: ReducedParams, n_list,
                      families=("bdm1", "rt0", "p0"),
                      cfg: DGConfig | None = None,
                      with_quasi: bool = True) -> ConvergenceTable:
    """Manufactured-solution errors and observed orders on a mesh sequence.

    Orders are log2(err(n)/err(2n)) between consecutive rows; the quasi
    ratio compares the solved error with the canonical-interpolant error.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("mesh sizes must be strictly increasing")
    case = manufactured_case(params)
    table = ConvergenceTable(params=params, triple="-".join(families))
    prev = None
    for n in n_list:
        ops = FormOperators(structured_mesh(n), families, cfg)
        system, x, _, _ = solve_manufactured(ops, params, case)
        errs = error_norms(system, x, case)
        row = ConvergenceRow(n=n, h_max=ops.mesh.h_max,
                             err_U=errs[0], err_V=errs[1], err_P=errs[2])
        if with_quasi:
            best = best_approximation_errors(ops, case)
            row.quasi_ratio = float(sum(errs) / sum(best))
        if prev is not None:
            row.order_U = float(np.log2(prev.err_U / row.err_U))
            row.order_V = float(np.log2(prev.err_V / row.err_V))
            row.order_P = float(np.log2(prev.err_P / row.err_P))
        table.rows.append(row)
        prev = row
    return table


def _displacement_pencil(A, N, label: str) -> np.ndarray:
    """The extreme eigenvalues of the sparse displacement pencil
    A x = theta N x, N SPD, through the whitened L^-1 A L^-T."""
    L = _block_factor(N.toarray(), label, "displacement")
    return _dense_pencil(_whiten_lower(L, A.toarray()), extremes=True)


def korn_equivalence_bounds(ops: FormOperators):
    """Extreme generalized eigenvalues of the strain+jumps Gram against the
    gradient+jumps Gram, which is also the DG norm's for these affine
    families."""
    th = _displacement_pencil(ops.h_norm_gram(), ops.grad_norm_gram(),
                              "gradient+jumps Gram")
    return {"h_vs_1h": (float(th.min()), float(th.max()))}


def ah_constants(ops: FormOperators):
    """Measured continuity (vs the DG norm, the gradient+jumps norm) and
    coercivity (vs the strain-jump norm) constants of the interior-penalty
    form."""
    cont = np.abs(_displacement_pencil(ops.ah_matrix(), ops.grad_norm_gram(),
                                       "gradient+jumps Gram")).max()
    coer = _displacement_pencil(ops.ah_matrix(), ops.h_norm_gram(),
                                "strain+jumps Gram").min()
    return float(cont), float(coer)


# -- sweep drivers -------------------------------------------------------------


def _grid(lam_list, rp_list, ap_list):
    """The parameter grid, lambda-major: lambda outermost, alpha_p
    innermost."""
    return [ReducedParams(lam, rp, ap)
            for lam in lam_list for rp in rp_list for ap in ap_list]


def _infsup_points(ops: FormOperators, points, norms: str):
    """`infsup_constant` at each point, in order, on one set of operators."""
    records = []
    for pr in points:
        system = ops.block_system(pr)
        blocks = (ops.natural_norm_blocks(pr) if norms == "natural"
                  else ops.norm_blocks(pr))
        records.append(infsup_constant(system, blocks))
    return records


# What a forked worker of `infsup_sweep` runs on: set by the pool's
# initializer in the worker only, never in the calling process.
_WORKER = {}


def _worker_start(ops, points, norms):
    _WORKER.update(ops=ops, points=points, norms=norms)


def _worker_chunk(k: int, workers: int):
    """The k-th of `workers` contiguous chunks of the grid."""
    size = len(_WORKER["points"])
    chunk = _WORKER["points"][k * size // workers:(k + 1) * size // workers]
    return _infsup_points(_WORKER["ops"], chunk, _WORKER["norms"])


def _worker_count(points: int) -> int:
    """Processes for `points` independent pencils: one per CPU the process
    may run on, at most one per point. 1 (stay in this process) without
    the fork start method, in a daemonic process, which may not start
    children, or while other threads run, whose locks a fork would copy in
    whatever state they are in."""
    import multiprocessing
    import threading

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cpus, points)


def infsup_sweep(n_list, lam_list, rp_list, ap_list,
                 families=("bdm1", "rt0", "p0"), norms="paper",
                 cfg: DGConfig | None = None):
    """Inf-sup constants over a parameter/mesh grid, mesh-major and
    lambda-major within a mesh (deterministic order).

    The pencils of one mesh are independent. With more than one CPU they
    are split in contiguous chunks over forked worker processes, which
    inherit the operators and their per-mesh whitening factors of the
    displacement and flux blocks, built first (fork, so nothing is
    pickled but the records); a chunk of the lambda-major grid meets few
    lambdas, and each pays the per-lambda whitening of the displacement
    block once. Each point runs the same calls as in the calling
    process, so the records are bitwise those of a serial loop. The
    workers are joined before this returns or raises.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if norms not in ("paper", "natural"):
        raise ValueError(f"norms must be 'paper' or 'natural', got {norms!r}")
    points = _grid(lam_list, rp_list, ap_list)
    records = []
    for n in n_list:
        ops = FormOperators(structured_mesh(n), families, cfg)
        # built here, so that the forked workers share them
        ops._whitening, ops._flux_whitening
        workers = _worker_count(len(points))
        if workers <= 1:
            records += _infsup_points(ops, points, norms)
            continue
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_worker_start,
                initargs=(ops, points, norms)) as pool:
            chunks = [pool.submit(_worker_chunk, k, workers)
                      for k in range(workers)]
            for chunk in chunks:
                records += chunk.result()
    return records


def minres_sweep(n, lam_list, rp_list, ap_list,
                 families=("bdm1", "rt0", "p0"),
                 cfg: DGConfig | None = None, tol=1e-8, max_iter=500,
                 with_condition=False):
    """MINRES iteration counts (and optional condition estimates) over the
    parameter grid, driven by the matched manufactured right-hand side."""
    from .solver import estimate_condition

    ops = FormOperators(structured_mesh(n), families, cfg)
    records = []
    for pr in _grid(lam_list, rp_list, ap_list):
        case = manufactured_case(pr)
        system = ops.block_system(pr, f=case.f, g=case.g)
        precond = build_preconditioner(ops.norm_blocks(pr), system)
        x, report = minres_solve(system, precond, tol=tol, max_iter=max_iter)
        kappa = (estimate_condition(system, precond)
                 if with_condition else None)
        records.append({
            "n": n, "lambda": pr.lam, "rp_inv": pr.rp_inv,
            "alpha_p": pr.alpha_p, "iters": report.iterations,
            "converged": report.converged, "cond_estimate": kappa,
        })
    return records
