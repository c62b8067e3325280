"""Stability, conservation and convergence diagnostics.

The discrete inf-sup constant of the three-field form is measured as the
smallest generalized eigenvalue magnitude of the monolithic operator against
the block-diagonal norm Gram matrix, with the pressure reduced to its
mean-zero subspace; the same machinery drives the negative experiment that
contrasts the reweighted norms against the plain ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import BlockSystem, DGConfig, FormOperators, NormBlocks
from .elements import edge_rule, project_qh, triangle_rule
from .meshing import BOUNDARY, TriMesh, structured_mesh
from .params import ReducedParams
from .solver import (EigFailure, SingularNormMatrix, build_preconditioner,
                     minres_solve, reduce_pressure_pencil, solve_direct)


@dataclass
class InfSupResult:
    """Smallest |theta| of the pencil A x = theta N x."""

    beta0: float
    mesh_n: int
    params: ReducedParams
    triple: str
    norms: str
    theta_spectrum: np.ndarray | None = None


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


def infsup_constant(system: BlockSystem, norms: NormBlocks,
                    keep_spectrum: bool = False) -> InfSupResult:
    """Discrete inf-sup constant in the norms supplied.

    Assembles the dense pencil (A, N) on the mean-zero pressure subspace and
    returns min |theta|; by symmetry this equals the two-sided inf-sup
    constant of the block form in the given norms.
    """
    from scipy.linalg import LinAlgError, cholesky, eigh

    A = system.monolithic()
    N = norms.monolithic()
    Ar, Nr = reduce_pressure_pencil(system, A, N)
    try:
        cholesky(Nr)
    except LinAlgError as exc:
        raise SingularNormMatrix(
            f"norm matrix not SPD ({norms.kind} norms): {exc}") from exc
    try:
        theta = eigh(Ar, Nr, eigvals_only=True)
    except LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    return InfSupResult(
        beta0=float(np.abs(theta).min()),
        mesh_n=mesh_subdivisions(system.mesh),
        params=system.params,
        triple="-".join(system.families),
        norms=norms.kind,
        theta_spectrum=theta if keep_spectrum else None,
    )


def manufactured_case(params: ReducedParams) -> ManufacturedCase:
    """Trigonometric exact solution compatible with the homogeneous
    essential boundary conditions."""
    pi = np.pi
    lam, rp_inv, alpha_p = params.lam, params.rp_inv, params.alpha_p
    Rp = 1.0 / rp_inv

    def u(x, y):
        s = np.sin(pi * x) * np.sin(pi * y)
        return np.stack([s, s], axis=-1)

    def grad_u(x, y):
        gx = pi * np.cos(pi * x) * np.sin(pi * y)
        gy = pi * np.sin(pi * x) * np.cos(pi * y)
        row = np.stack([gx, gy], axis=-1)
        return np.stack([row, row], axis=-2)

    def hess_u(x, y):
        sxy = np.sin(pi * x) * np.sin(pi * y)
        cxy = np.cos(pi * x) * np.cos(pi * y)
        h = np.stack([
            np.stack([-pi * pi * sxy, pi * pi * cxy], axis=-1),
            np.stack([pi * pi * cxy, -pi * pi * sxy], axis=-1),
        ], axis=-2)
        return np.stack([h, h], axis=-3)

    def div_u(x, y):
        return pi * (np.cos(pi * x) * np.sin(pi * y)
                     + np.sin(pi * x) * np.cos(pi * y))

    def p(x, y):
        return np.cos(pi * x) * np.cos(pi * y)

    def v(x, y):
        # Darcy relation: v = -R_p grad p
        return np.stack([Rp * pi * np.sin(pi * x) * np.cos(pi * y),
                         Rp * pi * np.cos(pi * x) * np.sin(pi * y)], axis=-1)

    def div_v(x, y):
        return 2.0 * pi * pi * Rp * np.cos(pi * x) * np.cos(pi * y)

    def f(x, y):
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        base = (pi * pi * sx * sy
                - 0.5 * pi * pi * (cx * cy - sx * sy)
                - lam * pi * pi * (cx * cy - sx * sy))
        return np.stack([base - pi * sx * cy, base - pi * cx * sy], axis=-1)

    def g(x, y):
        return (-div_u(x, y) - div_v(x, y)
                - alpha_p * np.cos(pi * x) * np.cos(pi * y))

    return ManufacturedCase(params, u, grad_u, hess_u, div_u, p, v, div_v,
                            f, g)


def expand_solution(system: BlockSystem, x: np.ndarray):
    """Scatter a stacked free-dof solution into full coefficient vectors
    (u, v) plus per-cell pressures."""
    xu, xv, xp = system.split(x)
    cu = np.zeros(system.uspace.ndof)
    cu[system.uspace.free_dofs] = xu
    cv = np.zeros(system.vspace.ndof)
    cv[system.vspace.free_dofs] = xv
    return cu, cv, xp


def triple_error_norms(uspace, vspace, cu, cv, p_cells,
                       case: ManufacturedCase):
    """Errors of a coefficient triple in the three parameter-weighted norms.

    err_U collects the broken gradient, tangential jumps, the cell-scaled
    second derivatives of the error (the discrete part vanishes for linear
    families) and the lambda-weighted divergence; err_V and err_P carry the
    rp_inv/gamma weights.  Volume terms use the degree-8 rule.
    """
    params = case.params
    mesh = uspace.mesh
    rule = triangle_rule(8)
    xy = mesh.cell_points(rule.points)
    wK = rule.weights[None, :] * uspace.detJ[:, None]
    X, Y = xy[..., 0], xy[..., 1]

    uh = uspace.eval_field(cu, rule.points,
                           what=("grad", "div", "hess"))
    e_grad = np.einsum("kq,kqab->", wK, (case.grad_u(X, Y) - uh["grad"])**2)
    e_hess = np.einsum("k,kq,kqabc->", mesh.h_cell**2, wK,
                       (case.hess_u(X, Y) - uh["hess"])**2)
    e_div = np.einsum("kq,kq->", wK, (case.div_u(X, Y) - uh["div"])**2)
    e_jump = _error_jump_seminorm(uspace, cu, case.u)
    err_U = np.sqrt(e_grad + e_jump + e_hess + params.lam * e_div)

    vh = vspace.eval_field(cv, rule.points, what=("val", "div"))
    e_v = np.einsum("kq,kqa->", wK, (case.v(X, Y) - vh["val"])**2)
    e_dv = np.einsum("kq,kq->", wK, (case.div_v(X, Y) - vh["div"])**2)
    err_V = np.sqrt(params.rp_inv * e_v + e_dv / params.gamma)

    ph = np.asarray(p_cells)[:, None] * np.ones_like(wK)
    e_p = np.einsum("kq,kq->", wK, (case.p(X, Y) - ph)**2)
    err_P = np.sqrt(params.gamma * e_p)
    return err_U, err_V, err_P


def _error_jump_seminorm(space, coeffs, u_exact):
    """Sum of h_e^{-1} ||tangential jump of (u - u_h)||^2 over all edges;
    the exact field is continuous, so interior jumps come from u_h alone."""
    mesh = space.mesh
    snodes, sweights = edge_rule(4)
    pts = mesh.edge_points(snodes)
    cells, tab = space.edge_traces(np.arange(mesh.num_edges), pts)
    uh = np.einsum("sei,seiqa->seqa", coeffs[space.cell_dofs[cells]],
                   tab["val"])
    boundary = (mesh.edge_cells[:, 1] == BOUNDARY)[:, None, None]
    err = np.where(boundary, u_exact(pts[..., 0], pts[..., 1]) - uh[0],
                   uh[1] - uh[0])
    n = mesh.edge_normal[:, None, :]
    err_t = err - np.sum(err * n, axis=-1, keepdims=True) * n
    return 0.5 * np.einsum("q,eqa->", sweights, err_t**2)


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


def conservation_audit(system: BlockSystem, x: np.ndarray, g=None):
    """Per-cell residual of the divergence equation.

    r_K = -div u_h - div v_h - alpha_p p_h - Q_h g, with Q_h g taken from
    the assembled load (same quadrature as the system right-hand side) so
    the identity is algebraically exact up to solver roundoff.
    """
    cu, cv, p_cells = expand_solution(system, x)
    areas = system.mesh.signed_areas()
    if g is None:
        g_cells = system.rhs_p / areas
    else:
        g_cells = project_qh(g, system.mesh)
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


def korn_equivalence_bounds(ops: FormOperators):
    """Extreme generalized eigenvalues between the mesh-dependent norm
    Gram matrices (strain+jumps, gradient+jumps, full DG)."""
    from scipy.linalg import eigh

    H = ops.h_norm_gram().toarray()
    G = ops.grad_norm_gram().toarray()
    D = ops.dg_norm_gram().toarray()
    out = {}
    for name, (X, Y) in {"h_vs_1h": (H, G), "dg_vs_1h": (D, G),
                         "h_vs_dg": (H, D)}.items():
        th = eigh(X, Y, eigvals_only=True)
        out[name] = (float(th.min()), float(th.max()))
    return out


def ah_constants(ops: FormOperators):
    """Measured continuity (vs DG norm) and coercivity (vs the strain-jump
    norm) constants of the interior-penalty form."""
    from scipy.linalg import eigh

    A = ops.ah_matrix().toarray()
    cont = np.abs(eigh(A, ops.dg_norm_gram().toarray(),
                       eigvals_only=True)).max()
    coer = eigh(A, ops.h_norm_gram().toarray(), eigvals_only=True).min()
    return float(cont), float(coer)


# -- sweep drivers -------------------------------------------------------------


def infsup_sweep(n_list, lam_list, rp_list, ap_list,
                 families=("bdm1", "rt0", "p0"), norms="paper",
                 cfg: DGConfig | None = None):
    """Inf-sup constants over a parameter/mesh grid (deterministic order)."""
    records = []
    for n in n_list:
        ops = FormOperators(structured_mesh(n), families, cfg)
        for lam in lam_list:
            for rp in rp_list:
                for ap in ap_list:
                    pr = ReducedParams(lam, rp, ap)
                    system = ops.block_system(pr)
                    blocks = (ops.natural_norm_blocks(pr)
                              if norms == "natural"
                              else ops.norm_blocks(pr))
                    res = infsup_constant(system, blocks)
                    records.append(res)
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
    for lam in lam_list:
        for rp in rp_list:
            for ap in ap_list:
                pr = ReducedParams(lam, rp, ap)
                case = manufactured_case(pr)
                system = ops.block_system(pr, f=case.f, g=case.g)
                precond = build_preconditioner(ops.norm_blocks(pr), system)
                x, report = minres_solve(system, precond, tol=tol,
                                         max_iter=max_iter)
                kappa = (estimate_condition(system, precond)
                         if with_condition else None)
                records.append({
                    "n": n, "lambda": lam, "rp_inv": rp, "alpha_p": ap,
                    "iters": report.iterations,
                    "converged": report.converged,
                    "cond_estimate": kappa,
                })
    return records
