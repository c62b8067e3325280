"""Accuracy of the inf-sup and condition pencils against a certified
long-double reference.

Each reduced pencil is formed again in long double from the float64
Gram data of `FormOperators` (lower-pattern data gathered through the
free-dof mirror, so lambda DD_u is added without rounding away the
lambda-free parts), or with DD_u = B_up M_p^-1 B_up^T formed from the
float64 coupling and cell areas (the factored reference), and reduced
with the library's reflector along the area vector.
The float64 spectrum of that pencil whitened in long double picks the
wanted eigenpair; inverse-iteration steps with long-double Rayleigh
quotients refine it, and the residual bound
||A x - theta N x||_{N^-1} / ||x||_N, which for a symmetric-definite
pencil encloses an eigenvalue, sharpened by Kato-Temple where the
spectrum shows a gap, certifies it (Parlett, The Symmetric Eigenvalue
Problem, SIAM 1998, on residual bounds).

The library's beta0 and kappa must lie within 1e-8 of the reference,
and, per mesh, norm kind and lambda <= 1e4 (and at lambda = 1e8 on n = 6
and 8), no further from it than the plain dsygvd of the float64 reduced
pencil (`_dsygvd_route`) or 5e-12.  At lambda = 1e8 on n = 6 and 8,
beta0 must also lie within 1e-10 of the factored reference, whose data
the library's whitening reads.
"""
import numpy as np
import pytest
from scipy.linalg import LinAlgError, lapack

from biotfem.analysis import infsup_constant
from biotfem.assembly import FormOperators, block_diagonal
from biotfem.meshing import structured_mesh
from biotfem.params import ReducedParams
from biotfem.solver import (_pressure_reflector, build_preconditioner,
                            estimate_condition)
from conftest import AP_GRID, LAM_GRID, RP_GRID

LD = np.longdouble
CERTIFIED = 1e-13  # largest relative certificate accepted
AGREE = 1e-8       # library against the reference
FLOOR = 5e-12      # the dsygvd route's error below which it is no bound
# Above this lambda the dsygvd route's error is rounding noise of 1e-10
# to 1e-8, whose order even the BLAS thread count changes (perturbed
# n = 4, paper norms: 6.2e-10 with two OpenBLAS threads and 1.9e-9 with
# one), and the library reads another rounding of DD_u than the grid's
# Gram-data reference (1.7e-11 off there; natural norms 7.8e-11 with one
# thread and 2.7e-10 with two), so the grid test asserts the 1e-8
# agreement there, and the finer meshes below, against the factored
# reference, the comparison.
ROUNDED = 1e4

pytestmark = pytest.mark.skipif(
    np.finfo(LD).eps >= 1e-18,
    reason="long double is no wider than float64 on this platform, so the "
           "reference would be no more accurate than the values it checks")


def _free(pattern, low):
    """Dense long-double matrix on the free dofs of lower-pattern data."""
    n = pattern.nfree
    rows = np.repeat(np.arange(n), np.diff(pattern.free_indptr))
    mat = np.zeros((n, n), dtype=LD)
    mat[rows, pattern.free_indices] = low[pattern.free_mirror]
    return mat


def _saddle(uu, up, vv, vp, pp):
    nu, nv = len(uu), len(vv)
    n = nu + nv + len(pp)
    mat = np.zeros((n, n), dtype=LD)
    mat[:nu, :nu], mat[nu:nu + nv, nu:nu + nv] = uu, vv
    mat[nu + nv:, nu + nv:] = pp
    mat[:nu, nu + nv:], mat[nu:nu + nv, nu + nv:] = up, vp
    mat[nu + nv:, :nu], mat[nu + nv:, nu:nu + nv] = up.T, vp.T
    return mat


def _block_diagonal(*blocks):
    return _saddle(blocks[0], np.zeros((len(blocks[0]), len(blocks[2])), LD),
                   blocks[1], np.zeros((len(blocks[1]), len(blocks[2])), LD),
                   blocks[2])


class _Pencils:
    """The long-double pencils of one mesh's operators at one point: the
    operator and the paper, natural and preconditioner norm matrices,
    each reduced to mean-zero pressures.  DD_u is the Gram data's, or
    with `factored` B_up M_p^-1 B_up^T formed in long double from the
    float64 B_up and cell areas, the data the library's closed-form
    whitening reads; the two differ by a rounding of DD_u, which at
    lambda = 1e8 moves beta0 by up to about 1e-8."""

    def __init__(self, ops: FormOperators, pr: ReducedParams,
                 factored: bool = False):
        up, vp = ops._upattern, ops._vpattern
        g = {name: getattr(ops, name).astype(LD) for name in (
            "_EPS", "_CONS", "_PEN", "_GRAD", "_DD_u", "_M_v", "_DD_v")}
        lam, rp, ap, gamma = (LD(x) for x in (pr.lam, pr.rp_inv, pr.alpha_p,
                                               pr.gamma))
        areas = np.diag(ops.areas.astype(LD))
        B_up = ops._B_up_free.toarray().astype(LD)
        divdiv = ((B_up / ops.areas.astype(LD)) @ B_up.T if factored
                  else _free(up, g["_DD_u"]))
        A_uu = _free(up, g["_EPS"] - g["_CONS"]
                     + LD(ops.cfg.eta) * g["_PEN"]) + lam * divdiv
        N_U = _free(up, g["_GRAD"] + g["_PEN"]) + lam * divdiv
        B_vp = ops._B_vp_free.toarray().astype(LD)
        self.p0 = len(A_uu) + vp.nfree
        self.Zp = self._reflector(ops.areas)
        N_V = _free(vp, rp * g["_M_v"] + g["_DD_v"] / gamma)
        self.A = self._reduce(_saddle(A_uu, B_up, _free(vp, rp * g["_M_v"]),
                                      B_vp, -ap * areas))
        self.N = {
            "paper": self._reduce(_block_diagonal(N_U, N_V, gamma * areas)),
            "natural": self._reduce(_block_diagonal(
                N_U, _free(vp, rp * (g["_M_v"] + g["_DD_v"])), areas)),
            "preconditioner": self._reduce(
                _block_diagonal(A_uu, N_V, gamma * areas)),
        }
        sizes = (len(A_uu), vp.nfree, len(areas) - 1)
        self.blocks = list(zip(np.cumsum((0,) + sizes), np.cumsum(sizes)))
        self._spectra = {}

    @staticmethod
    def _reflector(areas):
        v = _pressure_reflector(areas).astype(LD)
        return (np.eye(v.size, dtype=LD) - 2 * np.outer(v, v))[:, :-1]

    def _reduce(self, mat):
        p0, Zp = self.p0, self.Zp
        cols = np.concatenate([mat[:, :p0], mat[:, p0:] @ Zp], axis=1)
        return np.concatenate([cols[:p0], Zp.T @ cols[p0:]])

    def _whitened(self, kind: str):
        """Cholesky factors L of the `kind` norm matrix's diagonal blocks,
        W = L^-1 A L^-T, both in long double, and the float64 eigenpairs
        of W.  W's entries are of the size of its eigenvalues, so that
        spectrum is accurate to about 1e-16 of the largest |theta|,
        clusters included."""
        if kind not in self._spectra:
            N = self.N[kind]
            factors = [_cholesky(N[a:b, a:b]) for a, b in self.blocks]
            half = self._solve(factors, self.A, transpose=False)
            W = self._solve(factors, half.T.copy(), transpose=False)
            self._spectra[kind] = (factors, W,
                                   *np.linalg.eigh(W.astype(float)))
        return self._spectra[kind]

    def _solve(self, factors, rhs, transpose: bool):
        """L^-1 rhs (L^-T rhs with `transpose`), L the block-diagonal
        Cholesky factor."""
        out = rhs.copy()
        for L, (a, b) in zip(factors, self.blocks):
            out[a:b] = _triangular(L.T if transpose else L, rhs[a:b],
                                   upper=transpose)
        return out

    def certified(self, kind: str, which: str):
        """(theta, bound): the eigenvalue of smallest (`which` "min") or
        largest ("max") |theta| of the `kind` pencil in long double, and a
        bound on its distance from an eigenvalue of that pencil.

        The float64 spectrum of the whitened pencil (`_whitened`) picks
        the eigenvalue and its vector y.  Inverse iteration refines them:
        each step takes the long-double Rayleigh quotient rho and residual
        r = W y - rho y, and solves (W - rho) d = r through the float64
        eigenpairs, leaving out the eigenvalues within `trust` of the
        wanted one (1e-10 of the largest |theta|, which the float64
        spectrum resolves), so y - d gains about eps / gap per step.  The
        bound on x = L^-T y is the residual bound
        eps = ||A x - theta N x||_{N^-1} / ||x||_N in long double,
        sharpened to Kato-Temple's eps^2 / gap where the spectrum leaves a
        gap above eps to the neighbouring eigenvalues: at large lambda the
        rounding of lambda DD_u x in long double keeps eps near 1e-11."""
        A, N = self.A, self.N[kind]
        factors, W, spectrum, Y = self._whitened(kind)
        j = (np.argmin if which == "min" else np.argmax)(np.abs(spectrum))
        trust = 1e-10 * np.abs(spectrum).max()
        far = np.abs(spectrum - spectrum[j]) > trust
        y = Y[:, j].astype(LD)
        for _ in range(2):
            rho = (y @ (W @ y)) / (y @ y)
            r = (W @ y - rho * y).astype(float)
            y -= Y[:, far] @ ((Y[:, far].T @ r) / (spectrum[far] - rho))
        x = self._solve(factors, y, transpose=True)
        theta = _rayleigh(A, N, x)
        r = self._solve(factors, A @ x - theta * (N @ x), transpose=False)
        eps = float(np.sqrt((r @ r) / (x @ (N @ x))))
        gap = np.abs(spectrum[far] - float(theta)).min() - trust
        return theta, (min(eps, eps**2 / gap) if gap > eps else eps)


def _dsygvd_route(system, N):
    """|theta| of the float64 pencil (A, N), A the monolithic operator,
    reduced to mean-zero pressures and solved by LAPACK's dsygvd: the
    route the whitened pencil replaced, kept as the baseline its error
    is held to.  The reflector H along the area vector is applied to the
    dense pressure rows and columns as rank-1 updates, its last row and
    column dropped, and dsygvd gets 2n plus the workspace dsytrd_lwork
    reports, as that route called it."""
    p0 = sum(system.block_sizes[:2])
    v = _pressure_reflector(system.mesh.signed_areas())
    reduced = []
    for M in (system.monolithic(), N):
        M = M.toarray()
        cols = M[:, p0:]
        cols -= 2.0 * np.outer(cols @ v, v)
        rows = M[p0:]
        rows -= 2.0 * np.outer(v, v @ rows)
        reduced.append(M[:-1, :-1])
    n = len(reduced[0])
    theta, _, info = lapack.dsygvd(
        *reduced, jobz="N", uplo="L", overwrite_a=1, overwrite_b=1,
        lwork=2 * n + int(lapack.dsytrd_lwork(n, lower=1)[0]))
    if info != 0:
        raise LinAlgError(f"dsygvd failed with info {info}")
    return np.abs(theta)


def _rayleigh(A, N, x):
    return (x @ (A @ x)) / (x @ (N @ x))


def _cholesky(mat):
    """Lower Cholesky factor of an SPD matrix in its own precision."""
    L = np.zeros_like(mat)
    for k in range(len(mat)):
        L[k, k] = np.sqrt(mat[k, k] - L[k, :k] @ L[k, :k])
        L[k + 1:, k] = (mat[k + 1:, k] - L[k + 1:, :k] @ L[k, :k]) / L[k, k]
    return L


def _triangular(T, rhs, upper: bool):
    """T^-1 rhs by substitution, T lower (upper with `upper`)."""
    out = np.array(rhs, copy=True)
    rows = range(len(T) - 1, -1, -1) if upper else range(len(T))
    for k in rows:
        done = slice(k + 1, None) if upper else slice(0, k)
        out[k] = (rhs[k] - T[k, done] @ out[done]) / T[k, k]
    return out


def test_long_double_helpers_keep_long_double_accuracy():
    """The reference's Cholesky factor and substitutions keep long
    double's precision: a Hilbert system of order 8 (condition 1.5e10) is
    solved to the accuracy that precision allows, far below float64's."""
    n = 8
    hilbert = 1 / (np.arange(n, dtype=LD)[:, None] + np.arange(n) + 1)
    x = np.arange(1, n + 1, dtype=LD)
    L = _cholesky(hilbert)
    solved = _triangular(L.T, _triangular(L, hilbert @ x, upper=False),
                         upper=True)
    err = float(np.abs(solved - x).max())
    assert err <= 100 * 1.5e10 * float(np.finfo(LD).eps) * n
    assert err <= 1e-6


@pytest.fixture(scope="module")
def meshes(ops_bdm, perturbed_mesh):
    return {"structured-2": ops_bdm[2], "structured-4": ops_bdm[4],
            "perturbed-4": FormOperators(perturbed_mesh[4])}


def _errors(ops, lam):
    """Per norm kind, the relative errors of the library's and of the
    dsygvd route's values against the certified reference over the ten
    points of the grid at `lam`, and the worst certificate."""
    lib, gvd, certs = {}, {}, []
    for rp in RP_GRID:
        for ap in AP_GRID:
            pr = ReducedParams(lam, rp, ap)
            ref = _Pencils(ops, pr)
            bs = ops.block_system(pr)
            paper = ops.norm_blocks(pr)
            natural = ops.natural_norm_blocks(pr)
            pc = build_preconditioner(paper, bs)
            cases = (("paper", infsup_constant(bs, paper).beta0,
                      paper.monolithic()),
                     ("natural", infsup_constant(bs, natural).beta0,
                      natural.monolithic()),
                     ("preconditioner", estimate_condition(bs, pc),
                      block_diagonal(pc.blocks)))
            for kind, value, N in cases:
                low, low_cert = ref.certified(kind, "min")
                want, certs_here = abs(low), [low_cert / abs(low)]
                theta = _dsygvd_route(bs, N)
                route = theta.min()
                if kind == "preconditioner":
                    high, high_cert = ref.certified(kind, "max")
                    want = abs(high) / want
                    certs_here.append(high_cert / abs(high))
                    route = theta.max() / route
                certs += [(kind, pr, c) for c in certs_here]
                lib.setdefault(kind, []).append(
                    (float(abs(value / want - 1)), pr))
                gvd.setdefault(kind, []).append(float(abs(route / want - 1)))
    return lib, gvd, certs


@pytest.mark.parametrize("lam", LAM_GRID)
@pytest.mark.parametrize("mesh", ["structured-2", "structured-4",
                                  "perturbed-4"])
def test_pencils_against_certified_long_double_reference(meshes, mesh, lam):
    lib, gvd, certs = _errors(meshes[mesh], lam)
    loose = [(kind, pr, c) for kind, pr, c in certs if not c <= CERTIFIED]
    assert not loose, f"certificates above {CERTIFIED:g}: {loose}"
    for kind, errs in lib.items():
        far = [(err, pr) for err, pr in errs if not err <= AGREE]
        assert not far, f"{kind}: off the reference by more than {AGREE:g}: "\
            f"{far}"
        worst = max(err for err, _ in errs)
        if lam <= ROUNDED:
            bound = max(max(gvd[kind]), FLOOR)
            assert worst <= bound, (f"{kind}: worst error {worst:.3g} above "
                                    f"the dsygvd route's {max(gvd[kind]):.3g}")


@pytest.mark.parametrize("n,kind", [(6, "paper"), (6, "natural"),
                                    (8, "paper")])
def test_beta0_at_the_largest_lambda_on_finer_meshes(n, kind):
    """n = 6 is the mesh of the `infsup` benchmark.  At lambda = 1e8 a
    rounding of DD_u moves beta0 by up to about 1e-8 on these meshes,
    and every point of that row shares N_U, so one point shows it.  The
    library whitens N_U through the factored div-div, so it is held to
    the factored reference: within 1e-8 and 1e-10 of it, and no further
    than the dsygvd route's."""
    ops = FormOperators(structured_mesh(n))
    pr = ReducedParams(1e8, 1e-4, 0.0)
    bs = ops.block_system(pr)
    nb = ops.norm_blocks(pr) if kind == "paper" else \
        ops.natural_norm_blocks(pr)
    theta, bound = _Pencils(ops, pr, factored=True).certified(kind, "min")
    want = abs(float(theta))
    assert bound <= CERTIFIED * want
    route = _dsygvd_route(bs, nb.monolithic()).min()
    err = abs(infsup_constant(bs, nb).beta0 / want - 1)
    assert err <= AGREE
    assert err <= 1e-10
    assert err <= max(abs(route / want - 1), FLOOR)
