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
from scipy.linalg import LinAlgError, blas, cholesky, lapack, solve_triangular

from .assembly import (BlockSystem, NormBlocks, _pressure_reflector,
                       block_matrix)


class FactorizationFailure(RuntimeError):
    """A preconditioner block or the bordered system could not be
    factorized (numerically singular)."""


class SingularNormMatrix(FactorizationFailure):
    """A norm or preconditioner block expected to be SPD is not: its
    Cholesky or symmetric LU factorization met a non-positive pivot."""


class BreakdownDetected(RuntimeError):
    """The MINRES recurrence lost conjugacy (indefinite preconditioner or
    severe cancellation)."""


class EigFailure(RuntimeError):
    """Dense generalized eigensolver did not converge."""


@dataclass
class SolveReport:
    """Iteration diagnostics of one solve."""

    iterations: int
    residual_history: list[float]
    converged: bool
    tol: float | None
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


def _factor(mat, name: str, spd: bool):
    """SuperLU factor of `mat`, the one place the package calls sparse LU.

    Every matrix factored here is symmetric, so each is factored in
    symmetric mode: minimum degree on A + A^T and pivots taken from the
    diagonal.  Nothing then guards the pivots, so a certificate replaces
    partial pivoting: the row and column orders must agree.  An SPD block
    (`spd`) must also have positive pivots, which makes its factor a
    scaled Cholesky factor.  The clamped bordered saddle point is
    indefinite, and its certificate reads no pivot; the refinement of
    `DirectSolver` answers for its accuracy.
    """
    try:
        lu = spla.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationFailure(f"{name} block: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise (SingularNormMatrix if spd else FactorizationFailure)(
            f"{name} block: an off-diagonal pivot in its symmetric-mode "
            "factorization")
    if spd and not np.all(lu.U.diagonal() > 0):
        raise SingularNormMatrix(
            f"{name} block is not SPD: a non-positive pivot in its "
            "symmetric-mode factorization")
    return lu


class BlockPreconditioner:
    """Exact block-diagonal application of the preconditioner.

    The displacement block is the assembled elasticity operator
    (a_h + lambda div-div); flux and pressure blocks are the norm matrices,
    and the pressure block, a positive diagonal, is inverted entrywise.
    `blocks` holds the three as `NormBlocks` of kind "preconditioner".
    Given `source`, the `NormBlocks.source` of norms whose operators
    assembled A_uu at the same parameters, the factors of those operators
    are reused: A_uu's is kept under lambda and, as N_V = c (t M_v + DD_v)
    with t = rp_inv / c, the factor of t M_v + DD_v
    (`FormOperators._flux_shape`) under t, N_V^-1 applied as c^-1 times
    its inverse.  Without it both blocks are factored afresh.  `lu_fill`
    holds the fill of every factored block, SuperLU's count of the
    entries its L and U factors store.
    """

    def __init__(self, A_uu, N_V, N_P, source: tuple | None = None):
        self.blocks = blocks = NormBlocks(A_uu.tocsr(), N_V.tocsr(),
                                          N_P.tocsr(), "preconditioner")
        object.__setattr__(blocks, "source", source)
        self.sizes = tuple(b.shape[0] for b in blocks)
        self.lu_fill = {}
        memo, lam, t, scale = {}, None, None, 1.0
        if source is not None:
            ops, params, (g, gc) = source
            memo = ops._factors
            lam, t, scale = params.lam, g * params.rp_inv / gc, g / gc
        self.inv_U = self._inverse("displacement", memo, lam,
                                   lambda: blocks.N_U)
        self.inv_V = self._inverse(
            "flux", memo, t,
            lambda: blocks.N_V if t is None else ops._flux_shape(t), scale)
        inv = 1.0 / _pressure_diagonal(blocks.N_P, "preconditioner matrix")
        self.inv_P = lambda x, out: np.multiply(inv, x, out=out)

    def _inverse(self, name: str, memo: dict, key, build,
                 scale: float = 1.0):
        """x -> scale build()^-1 x, the factor of build() kept in `memo`
        under `key`."""
        last = memo.get(name)
        if last is not None and last[0] == key:
            lu = last[1]
        else:
            lu = _factor(build(), name, spd=True)
            memo[name] = (key, lu)
        self.lu_fill[name] = lu.nnz

        def solve(x, out):
            y = lu.solve(x)
            if not np.isfinite(y).all():
                raise FactorizationFailure(f"{name} block produced non-finite"
                                           " values (singular factorization)")
            np.multiply(scale, y, out=out)

        return solve

    def apply(self, r: np.ndarray) -> np.ndarray:
        nu, nv, npp = self.sizes
        out = np.empty(nu + nv + npp)
        self.inv_U(r[:nu], out[:nu])
        self.inv_V(r[nu:nu + nv], out[nu:nu + nv])
        self.inv_P(r[nu + nv:], out[nu + nv:])
        return out


def _own(system: BlockSystem, norms: NormBlocks) -> bool:
    """Whether the operators that assembled `system` built `norms` at its
    parameters (`BlockSystem.ops`, `NormBlocks.source`): then every block
    of both is theirs, and their per-mesh factors stand in for the
    blocks."""
    source = norms.source
    return (source is not None and source[0] is system.ops
            and source[1] == system.params)


def build_preconditioner(norms: NormBlocks,
                         system: BlockSystem) -> BlockPreconditioner:
    """Canonical block-diagonal preconditioner for the assembled system.

    For norms that the system's operators built at its parameters
    (`_own`) it reuses their factors, so a lambda-major sweep factors
    `A_uu` once per lambda and the flux block once per run of equal
    t = gamma rp_inv (the paper's norms; the natural norms share t = 1)
    instead of once per grid point.
    """
    return BlockPreconditioner(system.A_uu, norms.N_V, norms.N_P,
                               norms.source if _own(system, norms) else None)


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
                 tol: float = 1e-8, max_iter: int = 500):
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
    project_dual, project = _mean_zero_projectors(system)
    b = project_dual(system.rhs.copy())
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
    w_prev, w, w_next, tmp = np.zeros((4, n))
    gamma_old = 1.0
    converged = False
    k = 0
    # the vectors are updated in place, in the order of the textbook
    # expressions, so every iterate is bitwise theirs
    for k in range(1, max_iter + 1):
        z /= gamma
        # v_next = A z - (delta / gamma) v - (gamma / gamma_old) v_prev
        v_next = A @ z
        delta = v_next @ z
        np.multiply(delta / gamma, v, out=tmp)
        v_next -= tmp
        np.multiply(gamma / gamma_old, v_prev, out=tmp)
        v_next -= tmp
        z_next = project(precond.apply(v_next))
        gamma2 = z_next @ v_next
        if gamma2 < 0 and gamma2 < -1e-13 * (np.abs(z_next)
                                             @ np.abs(v_next) + 1.0):
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

        # w_next = (z - a3 w_prev - a2 w) / a1, x += (c_new eta) w_next
        np.multiply(a3, w_prev, out=tmp)
        np.subtract(z, tmp, out=w_next)
        np.multiply(a2, w, out=tmp)
        w_next -= tmp
        w_next /= a1
        np.multiply(c_new * eta, w_next, out=tmp)
        x += tmp
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
        w_prev, w, w_next = w, w_next, w_prev
        s_prev, s = s, s_new
        c_prev, c = c, c_new

    report = SolveReport(k, history, converged, tol,
                         time.perf_counter() - t0)
    return x, report


# The bordered matrix is scaled to unit norm-block diagonal, so these are
# dimensionless: the clamp of its pressure and multiplier pivots (each is
# factored as at most -_SHIFT), the bound on the scaled relative residual,
# the factor by which a classical refinement step must shrink that residual
# not to stall, and the GMRES restart length and cycles.
_SHIFT = 1e-6
_REFINE_TOL = 1e-12
_STALL = 0.5
_RESTART = 50
_CYCLES = 4


def _norm_scaling(system: BlockSystem) -> np.ndarray:
    """Inverse square roots of the diagonal of the paper's norm blocks on
    (u, v, p), then the multiplier's scale, which brings the largest
    entry of its scaled row to one.

    The displacement takes diag(A_uu).  The divergence of the flux space
    is cellwise constant, so the flux div-div Gram is
    B_vp M_p^-1 B_vp^T, and the flux takes diag(A_vv) plus its diagonal
    over gamma.  The pressure takes gamma times the cell areas.
    """
    areas = system.mesh.signed_areas()
    gamma = system.params.gamma
    divdiv = system.B_vp.multiply(system.B_vp) @ (1.0 / areas)
    diag = np.concatenate([system.A_uu.diagonal(),
                           system.A_vv.diagonal() + divdiv / gamma,
                           gamma * areas])
    if not np.all(np.isfinite(diag) & (diag > 0)):
        raise FactorizationFailure("bordered saddle-point block: its norm "
                                   "diagonal is not positive")
    d = 1.0 / np.sqrt(diag)
    return np.append(d, 1.0 / np.abs(areas * d[-areas.size:]).max())


class DirectSolver:
    """Sparse LU of the system matrix bordered by a scalar multiplier that
    pins the pressure mean to zero; factorized once, reusable for any
    number of right-hand sides.

    The bordered matrix K is scaled symmetrically by the diagonal of the
    paper's parameter-robust norm blocks (`_norm_scaling`).  Its pressure
    and multiplier pivots are clamped to at most -1e-6, min(K_ii, -1e-6),
    and the result factored with static diagonal pivoting (symmetric
    minimum degree, no row exchanges): static pivoting replaces only the
    tiny pivots (Li & Demmel, SC 1998).  Where alpha_p / gamma >= 1e-6
    that factors K but for its multiplier entry; at alpha_p = 0 it shifts
    every pressure pivot by -1e-6.  Each solve refines on the scaled K
    itself, so the clamp costs factor applications, not accuracy.
    Classical steps y += lu^-1 (b - K y) correct the solution while each
    at least halves the scaled residual; the first step that does not
    hands the rest of the solve over to GMRES with the factor as
    preconditioner (`_gmres`, GMRES-IR), started from the current
    iterate, after which classical steps polish again.  The solve stops
    as soon as the scaled relative residual ||D(b - Kx)|| / ||D b|| is at
    most 1e-12 and every mass-balance row meets
    |r_K| <= 1e-12 (|g_K| + 1) |K| in unscaled units, g_K the cell's mass
    source: a hundredth of criterion 1's budget.  A row whose own
    rounding, gamma_m (|b| + |K| |y|) for m stored entries, exceeds that
    budget, as only for loads far from a physical balance, is held to its
    rounding instead.  A zero load returns zero without touching the
    factor.  `refine_iterations` (GMRES iterations, 0 when classical steps
    suffice), `refine_solves` (factor applications) and `refine_residual`
    (the final scaled relative residual) report the last solve.
    """

    def __init__(self, system: BlockSystem):
        K = block_matrix(system, bordered=True)
        self.d = d = _norm_scaling(system)
        # d_i K_ij d_j, in an order that keeps K bitwise symmetric
        rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
        K.data = K.data * (d[rows] * d[K.indices])
        self.K = K
        self._mass = mass = slice(sum(system.block_sizes[:2]),
                                  K.shape[0] - 1)
        # the mass-row certificate's |K| term in scaled units, d_K |K|,
        # and the rounding bound gamma_m (|b| + |K| |y|) of computing a
        # row of b - K y with m stored entries (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2nd ed., section 3.5)
        self._areas = d[mass] * np.abs(system.mesh.signed_areas())
        self._mass_abs = abs(K[mass])
        m = np.diff(self._mass_abs.indptr) + 1.0
        eps = np.finfo(float).eps
        self._gamma = m * eps / (1.0 - m * eps)
        # K_ii - shift_i = min(K_ii, -_SHIFT), as K_ii = -alpha_p / gamma
        # <= 0 on the pressure and 0 on the multiplier
        shift = np.zeros(K.shape[0])
        shift[mass.start:] = np.maximum(_SHIFT + K.diagonal()[mass.start:],
                                        0.0)
        self.lu = _factor(K - sps.diags(shift), "bordered saddle-point",
                          spd=False)
        self.refine_iterations: int | None = None
        self.refine_solves: int | None = None
        self.refine_residual: float | None = None

    @property
    def lu_fill(self) -> int:
        """Stored entries of the L and U factors, as SuperLU counts them."""
        return self.lu.nnz

    def solve(self, rhs: np.ndarray):
        """Returns (x, multiplier) for the stacked free-dof load rhs; for a
        source with vanishing mean the multiplier is zero up to solver
        roundoff.  Raises FactorizationFailure when a classical step
        stalls after GMRES (at most `_CYCLES` restarts of `_RESTART`
        iterations) short of either certificate."""
        b = self.d * np.append(rhs, 0.0)
        K, lu, mass = self.K, self.lu, self._mass
        norm_b = np.linalg.norm(b)
        # the mass rows' certificate in scaled units: d_K r_K against
        # d_K 1e-12 (|g_K| + 1) |K|, or against the rounding of r_K
        # where that is larger
        budget = _REFINE_TOL * (np.abs(b[mass]) + self._areas)

        def shortfall(y, r):
            """The largest mass row's share of its bound."""
            rounding = self._gamma * (np.abs(b[mass])
                                      + self._mass_abs @ np.abs(y))
            return np.max(np.abs(r[mass]) / np.maximum(budget, rounding))

        def certified(y, r, norm_r):
            return norm_r <= _REFINE_TOL * norm_b and (
                np.all(np.abs(r[mass]) <= budget) or shortfall(y, r) <= 1.0)

        y, r, norm_r = np.zeros_like(b), b, norm_b
        iterations = solves = 0
        handed_over = False
        while not certified(y, r, norm_r):
            y_next = y + lu.solve(r)
            solves += 1
            r_next = b - K @ y_next
            norm_next = np.linalg.norm(r_next)
            stalled = not norm_next <= _STALL * norm_r
            if norm_next < norm_r:
                y, r, norm_r = y_next, r_next, norm_next
            if not stalled:
                continue
            if handed_over:
                raise FactorizationFailure(
                    f"bordered saddle-point block: scaled relative residual "
                    f"{norm_r / norm_b:.3g}, bound {_REFINE_TOL:g}, largest "
                    f"mass row {shortfall(y, r):.3g} of its bound, after "
                    f"{iterations} GMRES iterations")
            y, r, its, applied = _gmres(K, lu, b, norm_b, y, r)
            norm_r = np.linalg.norm(r)
            iterations += its
            solves += applied
            handed_over = True
        self.refine_iterations = iterations
        self.refine_solves = solves
        self.refine_residual = float(norm_r / norm_b) if norm_b else 0.0
        x = self.d * y
        return x[:-1], float(x[-1])


def _gmres(K, lu, b: np.ndarray, norm_b: float, y: np.ndarray, r: np.ndarray):
    """Restarted GMRES on the correction equation lu^-1 K e = lu^-1 r
    from the iterate y, r = b - K y, the GMRES-IR of Carson & Higham
    (SISC 2017): each cycle starts from lu.solve(r) and each iteration
    applies the factor once.  A cycle stops when its preconditioned
    residual has fallen by the factor the true residual still has to
    fall, or on breakdown; the true residual is then recomputed, and the
    restarts end once it meets the bound.

    Returns (y, b - K y, GMRES iterations, factor applications).
    """
    iterations = solves = 0
    V = np.empty((_RESTART + 1, b.size))
    for _ in range(_CYCLES):
        z = lu.solve(r)
        solves += 1
        beta = np.linalg.norm(z)
        target = beta * _REFINE_TOL * norm_b / np.linalg.norm(r)
        V[0] = z / beta
        H = np.zeros((_RESTART + 1, _RESTART))
        cs, sn = np.zeros(_RESTART), np.zeros(_RESTART)
        g = np.zeros(_RESTART + 1)
        g[0] = beta
        for j in range(_RESTART):
            w = lu.solve(K @ V[j])
            iterations += 1
            solves += 1
            size = np.linalg.norm(w)
            for i in range(j + 1):  # modified Gram-Schmidt
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            # read before the rotation below folds H[j+1, j] into H[j, j]
            breakdown = H[j + 1, j] <= np.finfo(float).eps * size
            if not breakdown:
                V[j + 1] = w / H[j + 1, j]
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            rho = np.hypot(H[j, j], H[j + 1, j])
            cs[j], sn[j] = H[j, j] / rho, H[j + 1, j] / rho
            H[j, j] = rho
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            if abs(g[j + 1]) <= target or breakdown:
                break
        y = y + solve_triangular(H[:j + 1, :j + 1], g[:j + 1]) @ V[:j + 1]
        r = b - K @ y
        if np.linalg.norm(r) <= _REFINE_TOL * norm_b:
            break
    return y, r, iterations, solves


def solve_direct(system: BlockSystem):
    """One-off direct solve of the assembled system (see DirectSolver).

    Returns (x, multiplier).
    """
    return DirectSolver(system).solve(system.rhs)


def estimate_condition(system: BlockSystem, precond: BlockPreconditioner,
                       max_dofs: int = 5000):
    """Spectral condition number of the preconditioned operator.

    Dense generalized eigenvalues of (A, N) with N the SPD matrix defining
    the preconditioner, on the mean-zero pressure subspace.
    """
    ndof = sum(system.block_sizes)
    if ndof > max_dofs:
        raise ValueError(f"dense condition estimate limited to {max_dofs} "
                         f"dofs, got {ndof}")
    theta = np.abs(_mean_zero_pencil(system, precond.blocks,
                                     "preconditioner matrix", extremes=True))
    return float(theta.max() / theta.min())


def _mean_zero_pencil(system: BlockSystem, norms: NormBlocks, label: str,
                      extremes: bool = False) -> np.ndarray:
    """Eigenvalues theta of A x = theta N x on the mean-zero pressure
    subspace, A the operator of `system` and N = diag(N_U, N_V, N_P) of
    `norms`: those either side of zero, which hold min |theta|, and with
    `extremes` the smallest and largest, which hold max |theta|.

    Neither A nor N is formed whole; the pencil is whitened block by
    block into W, whose eigenvalues are the theta and whose (u, v) block
    is zero, and `_dense_pencil` solves it.  The displacements are
    u = Z_U y with Z_U^T N_U Z_U = I (`_whitened_displacement`).  When
    the system's operators built `norms` at its parameters (`_own`), the
    flux and pressure blocks are whitened in closed form (`_closed_flux`),
    which leaves out the divergence-free fluxes; their theta = 1 is
    appended to the selected eigenvalues.  Any other blocks take
    v = L_V^-T w, L_V the Cholesky factor of N_V, and p = S H q,
    S = diag(N_P)^-1/2 and H the reflector whose last column is along
    S areas (`_pressure_reflector`); the mean-zero pressures are the q
    with last entry zero, on which the pressure norm is the identity.  A
    norm block that is not SPD, or an N_P that is not a positive
    diagonal, raises SingularNormMatrix naming it.
    """
    nu, nv, npp = system.block_sizes
    own = _own(system, norms)
    diag = _pressure_diagonal(norms.N_P, label)
    W_uu, coupling = _whitened_displacement(system, norms, label, own)
    if own:
        W = _closed_flux(system, W_uu, coupling, norms.source[2])
    else:
        scale = 1.0 / np.sqrt(diag)
        v = _pressure_reflector(scale * system.mesh.signed_areas())

        def reduced(M):
            """(S H M)[:-1], the rows of Z^T M for pressure rows M."""
            M = scale[:, None] * M
            M -= 2.0 * np.outer(v, v @ M)
            return M[:-1]

        L_V = _block_factor(norms.N_V.toarray(), label, "flux")
        W = np.zeros((nu + nv + npp - 1,) * 2, order="F")
        u, f, p = slice(0, nu), slice(nu, nu + nv), slice(nu + nv, None)
        W[u, u] = W_uu
        W[f, f] = _whiten_lower(L_V, system.A_vv.toarray())
        W[p, u] = reduced(coupling)
        W[p, f] = _whiten(None, reduced(system.B_vp.T.toarray()), L_V)
        W[p, p] = reduced(reduced(system.C_pp.toarray()).T)
    try:
        theta = _dense_pencil(W, extremes=extremes)
    except LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    return np.append(theta, 1.0) if len(W) < nu + nv + npp - 1 else theta


def _closed_flux(system: BlockSystem, W_uu: np.ndarray, coupling: np.ndarray,
                 weights: tuple) -> np.ndarray:
    """W of `_mean_zero_pencil` for the flux and pressure blocks of the
    system's operators, from their per-mesh factors
    (`FormOperators._flux_whitening`) and the norms' `weights` (g, g c).

    With N_V = L (rp_inv I + c Y Y^T) L^T, Y = U diag(sigma) V^T, and
    N_P = g M_p, the fluxes L^-T U diag(rp_inv + c sigma^2)^-1/2 and the
    pressures g^-1/2 M_p^-1/2 H_r V are orthonormal.  In them the flux
    block is diag(g rp_inv / w), w = g rp_inv + g c sigma^2, the
    flux-pressure block diag(sigma w^-1/2), the pressure block
    -(alpha_p / g) I and the displacement-pressure block
    g^-1/2 T B_up^T Z_U; the rotated coupling T B_up^T Z_U is kept per
    whitened displacement, so a lambda-major sweep forms it once per
    lambda.  The fluxes beyond U's first len(sigma) columns are
    divergence-free, have theta = 1 and are left out.
    """
    sigma, T = system.ops._flux_whitening
    params = system.params
    memo = system.ops._factors
    last = memo.get("rotated coupling")
    if last is None or last[0] is not coupling:
        last = memo["rotated coupling"] = (coupling, T @ coupling)
    g, gc = weights
    nu, k, m = len(W_uu), sigma.size, len(T)
    W = np.zeros((nu + k + m,) * 2, order="F")
    W[:nu, :nu] = W_uu
    W[nu + k:, :nu] = last[1] / np.sqrt(g)
    f, p = np.arange(nu, nu + k), np.arange(nu + k, nu + k + m)
    weight = g * params.rp_inv + gc * sigma**2
    W[f, f] = g * params.rp_inv / weight
    W[f + k, f] = sigma / np.sqrt(weight)
    W[p, p] = -params.alpha_p / g
    return W


def _pressure_diagonal(N_P, label: str) -> np.ndarray:
    """The diagonal of the pressure norm block, which must hold all of it
    and be positive, as the cellwise-constant mass gamma M_p does."""
    N_P = N_P.tocsr()
    diag = N_P.diagonal()
    rows = np.repeat(np.arange(N_P.shape[0]), np.diff(N_P.indptr))
    if np.any(N_P.data[rows != N_P.indices] != 0) or not np.all(diag > 0):
        raise SingularNormMatrix(
            f"{label}: pressure block is not the positive diagonal of a "
            "cellwise-constant mass: it was assembled inconsistently")
    return diag


def _whitened_displacement(system: BlockSystem, norms: NormBlocks,
                           label: str, own: bool):
    """(Z^T A_uu Z, B_up^T Z) for a Z with Z^T N_U Z = I.

    When the system's operators built `norms` at its parameters (`own`),
    Z comes in closed form (`_closed_form`) for their paper and natural
    N_U alike, and a preconditioner's N_U is A_uu, so Z^T A_uu Z = I.
    The operators then keep the pair under (whether N_U is A_uu, lambda),
    so a lambda-major sweep whitens once per lambda.  Any other blocks
    take Z = L_U^-T, L_U the Cholesky factor of N_U, and
    Z^T A_uu Z = I + L_U^-1 (A_uu - N_U) L_U^-T, which is I when A_uu is
    the object N_U, and keep nothing.
    """
    precond = norms.kind == "preconditioner"
    key = (precond, system.params.lam)
    if own:
        last = system.ops._factors.get("whitened displacement")
        if last is not None and last[0] == key:
            return last[1]
    if own and not precond:
        pair = _closed_form(system.ops, system.params.lam)
    else:
        L = _block_factor(norms.N_U.toarray(), label, "displacement")
        W = np.eye(len(L))
        if not (own or system.A_uu is norms.N_U):
            W += _whiten(L, (system.A_uu - norms.N_U).toarray(), L)
        pair = W, _whiten(None, system.B_up.T.toarray(), L)
    if own:
        system.ops._factors["whitened displacement"] = (key, pair)
    return pair


def _closed_form(ops, lam: float):
    """`_whitened_displacement` of N_U = GRAD + PEN + lam DD_u from the
    per-mesh factors of `ops` (`FormOperators._whitening`): with
    s = (1 + lam sigma^2)^-1/2 and P = I - U diag(1 - s) U^T, Z = L^-T P
    whitens N_U exactly, Z^T A_uu Z = I + P G P and
    B_up^T Z = M_p^1/2 V diag(sigma s) U^T."""
    U, sigma, V, G = ops._whitening
    s = 1.0 / np.sqrt(1.0 + lam * sigma**2)
    eye = np.eye(len(U))
    P = eye - (U * (1.0 - s)) @ U.T
    return eye + P @ G @ P, (V * (sigma * s)) @ U.T


def _block_factor(block: np.ndarray, label: str, name: str) -> np.ndarray:
    """Lower Cholesky factor of one diagonal block of a norm matrix."""
    try:
        return cholesky(block, lower=True)
    except LinAlgError as exc:
        raise SingularNormMatrix(
            f"{label}: {name} block is not SPD: {exc}") from exc


def _whiten(L: np.ndarray | None, M: np.ndarray,
            R: np.ndarray) -> np.ndarray:
    """L^-1 M R^-T for lower triangular L and R, or M R^-T without L (BLAS
    dtrsm from the left, then from the right)."""
    if L is not None:
        M = blas.dtrsm(1.0, L, M, lower=1)
    return blas.dtrsm(1.0, R, M, side=1, lower=1, trans_a=1, overwrite_b=1)


def _whiten_lower(L: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The lower triangle of L^-1 M L^-T for symmetric M read from its
    lower triangle, in half the flops of `_whiten` (LAPACK dsygst); the
    upper triangle is left as it was."""
    return lapack.dsygst(M, L, lower=1)[0]


# dsytrd's panel width, below the 32 that dsytrd_lwork reports: with one
# OpenBLAS 0.3.30 thread it reduces the 334- and 606-row inf-sup pencils
# of n = 6 and 8 14% and 10% faster, and no order from 30 to 2494 rows
# (the n = 16 pencil) more than 3% slower (BENCH_panel_width.json).  The
# width changes only the rounding of the reduction.
_PANEL = 14


def _dense_pencil(A: np.ndarray, extremes: bool = False) -> np.ndarray:
    """The eigenvalues of the dense symmetric matrix A that |theta|
    reads: the two either side of zero and, with `extremes`, the smallest
    and the largest.  A is read from its lower triangle and may be
    overwritten; a generalized pencil is whitened (`_whiten`,
    `_whiten_lower`) first.

    The blocked reduction dsytrd takes A to a tridiagonal T, a Sturm
    count (`_negative_pivots`) finds where zero falls in T's spectrum,
    and bisection (dstebz) computes the wanted eigenvalues alone, with
    the tightest tolerance it takes (2 * tiny).  Where bisection loses
    the eigenvalues of a tight cluster (dstebz's info 2, as at the top of
    the Korn pencil's spectrum, a cluster at 1), dsterf computes all of
    T's eigenvalues instead.  dsytrd reduces lwork / n columns per
    panel and the last 32 columns unblocked (dsytd2); it runs unblocked
    throughout only when lwork / n < 2.  It gets n * `_PANEL`.
    Raises ValueError on a non-finite entry and LinAlgError when a LAPACK
    call fails.
    """
    A = np.asarray_chkfinite(A)
    n = A.shape[0]
    _, d, e, _, info = lapack.dsytrd(A, lower=1, lwork=n * _PANEL,
                                     overwrite_a=1)
    if info != 0:
        raise LinAlgError(f"LAPACK dsytrd failed with info {info}")
    j = _negative_pivots(d, e)
    # 0-based index ranges, clipped to the spectrum below
    wanted = [(j - 1, j)] + ([(0, 0), (n - 1, n - 1)] if extremes else [])
    # scipy's wrapper wants one entry of e even when n = 1
    e = e if n > 1 else np.zeros(1)
    theta = []
    for low, high in wanted:
        low, high = max(low, 0), min(high, n - 1)
        count, w, _, _, info = lapack.dstebz(
            d, e, 2, 0.0, 0.0, low + 1, high + 1, 2 * np.finfo(float).tiny,
            "E")
        if info == 2:
            # bisection lost eigenvalues of a cluster at the range's
            # edge; LAPACK's cure is to compute them all and pick
            w, info = lapack.dsterf(d, e[:n - 1])
            w, count = w[low:], high + 1 - low
        if info != 0:
            raise LinAlgError(f"LAPACK tridiagonal eigensolver failed with "
                              f"info {info}")
        theta.append(w[:count])
    return np.concatenate(theta)


def _negative_pivots(d: np.ndarray, e: np.ndarray) -> int:
    """Negative pivots of the LDL^T factorization of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e: by Sylvester's
    law of inertia, its number of negative eigenvalues (a Sturm count at
    zero; Parlett, The Symmetric Eigenvalue Problem, SIAM 1998).

    As in LAPACK's dlaebz, a pivot smaller in magnitude than pivmin =
    tiny * max(1, max e^2) is replaced, so no quotient e^2 / pivot
    overflows; here the replacement keeps the pivot's sign (+-pivmin),
    and a zero pivot counts as positive.
    """
    e2 = (e * e).tolist()
    pivmin = np.finfo(float).tiny * max([1.0, *e2])
    count, pivot = 0, 1.0
    for dk, ek2 in zip(d.tolist(), [0.0, *e2]):
        pivot = dk - ek2 / pivot
        if pivot < 0.0:
            count += 1
            pivot = min(pivot, -pivmin)
        else:
            pivot = max(pivot, pivmin)
    return count
