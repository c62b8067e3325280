"""Direct and preconditioned iterative solvers for the block system.

The iterative path is MINRES with the block-diagonal preconditioner built
from the displacement operator itself and the flux/pressure norm blocks; all
block inverses are applied exactly through sparse factorizations, so the
iteration counts isolate the norm-equivalence properties of the
preconditioner from any inner-solver effects.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import BlockSystem, NormBlocks


class FactorizationFailure(RuntimeError):
    """A preconditioner block could not be factorized (numerically
    singular)."""


class BreakdownDetected(RuntimeError):
    """The MINRES recurrence lost conjugacy (indefinite preconditioner or
    severe cancellation)."""


class EigFailure(RuntimeError):
    """Dense generalized eigensolver did not converge."""


class SingularNormMatrix(RuntimeError):
    """A norm matrix expected to be SPD is not."""


@dataclass
class SolveReport:
    """Iteration diagnostics of one solve."""

    iterations: int
    residual_history: list[float]
    converged: bool
    tol: float
    wall_time: float
    cond_estimate: float | None = None
    method: str = "minres"

    def to_json(self, **extra) -> str:
        rec = {
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
            "tol": self.tol,
            "wall_time": self.wall_time,
            "cond_estimate": self.cond_estimate,
            "residual_history": [float(r) for r in self.residual_history],
        }
        rec.update(extra)
        return json.dumps(rec, indent=2, sort_keys=True)

    def write_history_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iter,resnorm\n")
            for i, r in enumerate(self.residual_history):
                fh.write(f"{i},{format(float(r), '.17g')}\n")


def _factorize(mat: sps.spmatrix, name: str):
    try:
        solve = spla.factorized(mat.tocsc())
    except RuntimeError as exc:
        raise FactorizationFailure(f"{name} block: {exc}") from exc

    def wrapped(x):
        y = solve(x)
        if not np.all(np.isfinite(y)):
            raise FactorizationFailure(f"{name} block produced non-finite "
                                       "values (singular factorization)")
        return y

    return wrapped


class BlockPreconditioner:
    """Exact block-diagonal application of the preconditioner.

    The displacement block is the assembled elasticity operator
    (a_h + lambda div-div); flux and pressure blocks are the norm matrices.
    """

    def __init__(self, A_uu, N_V, N_P):
        self.blocks = (A_uu.tocsr(), N_V.tocsr(), N_P.tocsr())
        self.sizes = tuple(b.shape[0] for b in self.blocks)
        self.inv_U = _factorize(A_uu, "displacement")
        self.inv_V = _factorize(N_V, "flux")
        diag = N_P.diagonal()
        if (N_P - sps.diags(diag)).nnz or np.any(diag <= 0):
            # cellwise-constant mass is diagonal; anything else means the
            # pressure block was assembled inconsistently
            self.inv_P = _factorize(N_P, "pressure")
        else:
            inv = 1.0 / diag
            self.inv_P = lambda x: inv * x

    def matrix(self) -> sps.csr_matrix:
        """The SPD matrix whose inverse this preconditioner applies."""
        return sps.block_diag(self.blocks, format="csr")

    def apply(self, r: np.ndarray) -> np.ndarray:
        nu, nv, npp = self.sizes
        return np.concatenate([
            self.inv_U(r[:nu]),
            self.inv_V(r[nu:nu + nv]),
            self.inv_P(r[nu + nv:]),
        ])


def build_preconditioner(norms: NormBlocks,
                         system: BlockSystem) -> BlockPreconditioner:
    """Canonical block-diagonal preconditioner for the assembled system."""
    return BlockPreconditioner(system.A_uu, norms.N_V, norms.N_P)


def _mean_zero_projectors(system: BlockSystem):
    """In-place pressure projectors (dual, primal) for the mean-zero
    constraint areas . p = 0.

    Dual vectors (right-hand side, Lanczos vectors) lose their plain-sum
    component along the area vector; primal vectors (iterates, preconditioned
    vectors) lose their area-weighted mean.  The two are adjoint, so the
    projected preconditioner stays symmetric; they coincide only on meshes
    whose cells all have the same area.
    """
    nu, nv, _ = system.block_sizes
    areas = system.mesh.signed_areas()
    total = areas.sum()

    def dual(r):
        r[nu + nv:] -= areas * (r[nu + nv:].sum() / total)
        return r

    def primal(x):
        x[nu + nv:] -= (areas @ x[nu + nv:]) / total
        return x

    return dual, primal


def minres_solve(system: BlockSystem, precond: BlockPreconditioner,
                 tol: float = 1e-8, max_iter: int = 500,
                 project_mean: bool = True):
    """Preconditioned MINRES on the monolithic symmetric system.

    Convergence is measured by the preconditioner-norm of the preconditioned
    residual, relative to the right-hand side in the same norm.  The pressure
    mean-zero constraint is maintained by projecting the right-hand side
    onto the compatible loads and the preconditioned vectors onto mean-zero
    pressures.

    Returns (solution vector, SolveReport); on reaching max_iter the best
    iterate is returned with converged=False.
    """
    t0 = time.perf_counter()
    A = system.monolithic()
    b = system.rhs.copy()
    if project_mean:
        project_dual, project = _mean_zero_projectors(system)
    else:
        project_dual = project = (lambda x: x)
    b = project_dual(b)
    n = b.size
    x = np.zeros(n)

    v_prev = np.zeros(n)
    v = b.copy()
    z = project(precond.apply(v))
    gamma2 = z @ v
    if gamma2 < 0:
        raise BreakdownDetected("preconditioner is not positive definite")
    gamma = np.sqrt(gamma2)
    norm_b = gamma
    history = [1.0 if norm_b > 0 else 0.0]
    if norm_b == 0.0:
        return x, SolveReport(0, [0.0], True, tol,
                              time.perf_counter() - t0)

    eta = gamma
    s_prev = s = 0.0
    c_prev = c = 1.0
    w_prev = np.zeros(n)
    w = np.zeros(n)
    gamma_old = 1.0
    converged = False
    k = 0
    for k in range(1, max_iter + 1):
        z /= gamma
        Az = A @ z
        delta = Az @ z
        v_next = Az - (delta / gamma) * v - (gamma / gamma_old) * v_prev
        z_next = project(precond.apply(v_next))
        gamma2 = z_next @ v_next
        if gamma2 < -1e-13 * (np.abs(z_next) @ np.abs(v_next) + 1.0):
            raise BreakdownDetected(
                f"lost conjugacy at iteration {k}: z'v = {gamma2}")
        gamma_new = np.sqrt(max(gamma2, 0.0))

        a0 = c * delta - c_prev * s * gamma
        a1 = np.hypot(a0, gamma_new)
        a2 = s * delta + c_prev * c * gamma
        a3 = s_prev * gamma
        if a1 == 0.0:
            raise BreakdownDetected(f"zero residual rotation at iteration {k}")
        c_new = a0 / a1
        s_new = gamma_new / a1

        w_next = (z - a3 * w_prev - a2 * w) / a1
        x = x + (c_new * eta) * w_next
        eta = -s_new * eta

        history.append(abs(eta) / norm_b)
        if abs(eta) <= tol * norm_b:
            converged = True
            break
        if gamma_new == 0.0:
            # invariant subspace exhausted; residual cannot decrease further
            converged = abs(eta) <= tol * norm_b
            break

        v_prev, v = v, v_next
        z = z_next
        gamma_old, gamma = gamma, gamma_new
        w_prev, w = w, w_next
        s_prev, s = s, s_new
        c_prev, c = c, c_new

    report = SolveReport(k, history, converged, tol,
                         time.perf_counter() - t0)
    return x, report


def solve_direct(system: BlockSystem, refine_steps: int = 2):
    """Sparse direct solve with a scalar multiplier pinning the pressure
    mean to zero.

    The bordered matrix is symmetrically equilibrated before factorization
    and the solution polished with a few refinement steps; without this the
    backward error of the mass-balance rows grows with the extreme
    coefficient scales and spoils the cellwise conservation identity.

    Returns (x, multiplier); for a source with vanishing mean the multiplier
    is zero up to solver roundoff.
    """
    A = system.monolithic()
    nu, nv, npp = system.block_sizes
    areas = system.mesh.signed_areas()
    col = np.concatenate([np.zeros(nu + nv), areas])
    K = sps.bmat([[A, col[:, None]], [col[None, :], None]], format="csr")
    rhs = np.concatenate([system.rhs, [0.0]])

    rowmax = np.asarray(abs(K).max(axis=1).todense()).ravel()
    d = 1.0 / np.sqrt(rowmax)
    D = sps.diags(d)
    solve = spla.factorized((D @ K @ D).tocsc())

    x = d * solve(d * rhs)
    best = x
    best_res = np.inf
    for _ in range(refine_steps + 1):
        r = rhs - K @ x
        res = np.linalg.norm(r)
        if res < best_res:
            best, best_res = x, res
        if res == 0.0:
            break
        x = x + d * solve(d * r)
    return best[:-1], float(best[-1])


def estimate_condition(system: BlockSystem, precond: BlockPreconditioner,
                       max_dofs: int = 5000):
    """Spectral condition number of the preconditioned operator.

    Dense generalized eigenvalues of (A, N) with N the SPD matrix defining
    the preconditioner; the pressure block is reduced to the mean-zero
    subspace first.
    """
    from scipy.linalg import cholesky, eigh, LinAlgError

    A = system.monolithic()
    if A.shape[0] > max_dofs:
        raise ValueError(f"dense condition estimate limited to {max_dofs} "
                         f"dofs, got {A.shape[0]}")
    N = precond.matrix()
    Ar, Nr = reduce_pressure_pencil(system, A, N)
    try:
        cholesky(Nr)
    except LinAlgError as exc:
        raise SingularNormMatrix(
            f"preconditioner matrix is not SPD: {exc}") from exc
    try:
        theta = eigh(Ar, Nr, eigvals_only=True)
    except LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    theta = np.abs(theta)
    return float(theta.max() / theta.min())


def pressure_reduction_basis(areas: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the mean-zero pressure subspace."""
    from scipy.linalg import null_space

    return null_space(np.asarray(areas, dtype=float)[None, :])


def reduce_pressure_pencil(system: BlockSystem, A, N):
    """Congruently restrict monolithic (A, N) to mean-zero pressures."""
    nu, nv, npp = system.block_sizes
    Z_p = pressure_reduction_basis(system.mesh.signed_areas())
    Z = sps.block_diag((sps.identity(nu + nv), sps.csr_matrix(Z_p)),
                       format="csr")
    Ar = (Z.T @ sps.csr_matrix(A) @ Z).toarray()
    Nr = (Z.T @ sps.csr_matrix(N) @ Z).toarray()
    return Ar, Nr
