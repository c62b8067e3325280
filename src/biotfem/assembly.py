"""Assembly of the block operator, right-hand sides and norm matrices.

All parameter-independent Gram matrices (volume and face terms) are built
once per (mesh, families, penalty), those that only the norms read on first
use, and then combined with scalar weights for each parameter point, so
sweeps over the coefficient grid cost almost nothing beyond the first
assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sps

from .elements import FESpace, edge_rule, project_qh, triangle_rule
from .meshing import BOUNDARY, TriMesh
from .params import ReducedParams


class IncompatibleSpaces(ValueError):
    """The displacement/flux divergence image does not match the pressure
    space elementwise."""


@dataclass(frozen=True)
class DGConfig:
    """Interior-penalty configuration; eta weights the tangential-jump
    stabilization."""

    eta: float = 10.0

    def __post_init__(self):
        if not (self.eta > 0):
            raise ValueError(f"penalty eta must be positive, got {self.eta}")


@dataclass
class BlockSystem:
    """Assembled 3x3 symmetric indefinite system on the constrained dofs.

    Boundary normal-trace dofs are already eliminated; the pressure block
    keeps all cells, with the mean-zero condition handled by the solvers.
    """

    A_uu: sps.csr_matrix
    B_up: sps.csr_matrix
    A_vv: sps.csr_matrix
    B_vp: sps.csr_matrix
    C_pp: sps.csr_matrix
    rhs_u: np.ndarray
    rhs_v: np.ndarray
    rhs_p: np.ndarray
    uspace: FESpace
    vspace: FESpace
    params: ReducedParams
    cfg: DGConfig
    families: tuple[str, str, str]

    @property
    def mesh(self) -> TriMesh:
        return self.uspace.mesh

    @property
    def block_sizes(self) -> tuple[int, int, int]:
        return (self.A_uu.shape[0], self.A_vv.shape[0], self.C_pp.shape[0])

    @property
    def rhs(self) -> np.ndarray:
        return np.concatenate([self.rhs_u, self.rhs_v, self.rhs_p])

    def monolithic(self) -> sps.csr_matrix:
        return sps.bmat(
            [[self.A_uu, None, self.B_up],
             [None, self.A_vv, self.B_vp],
             [self.B_up.T, self.B_vp.T, self.C_pp]],
            format="csr")

    def split(self, x: np.ndarray):
        nu, nv, npp = self.block_sizes
        return x[:nu], x[nu:nu + nv], x[nu + nv:]


@dataclass
class NormBlocks:
    """Gram matrices of the parameter-dependent norms on the constrained
    spaces (pressure still on all cells; reduce separately for eigenvalue
    work)."""

    N_U: sps.csr_matrix
    N_V: sps.csr_matrix
    N_P: sps.csr_matrix
    kind: str = "paper"

    def monolithic(self) -> sps.csr_matrix:
        return sps.block_diag((self.N_U, self.N_V, self.N_P), format="csr")


def _scatter(space: FESpace, elem: np.ndarray,
             dofs: np.ndarray | None = None) -> sps.csr_matrix:
    """Sum local matrices elem (m, d, d) into a global one; row r of `dofs`
    (default: the cell dofs) maps local indices to global ones."""
    dofs = space.cell_dofs if dofs is None else dofs
    rows = np.repeat(dofs, dofs.shape[1], axis=1)
    cols = np.tile(dofs, (1, dofs.shape[1]))
    mat = sps.coo_matrix((elem.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(space.ndof, space.ndof))
    return _mirror_lower(mat.tocsr())


def _mirror_lower(mat: sps.csr_matrix) -> sps.csr_matrix:
    """Bitwise-symmetrize a matrix that is symmetric up to roundoff by
    mirroring its lower triangle; keeps A - A^T exactly zero downstream.
    `mat` is canonical CSR with a symmetric pattern, so its transpose
    lines up entry for entry; an exact zero drops out of the pattern."""
    t = mat.T.tocsr()
    if not (np.array_equal(mat.indptr, t.indptr)
            and np.array_equal(mat.indices, t.indices)):
        raise ValueError("cannot mirror a matrix whose sparsity pattern is "
                         "not symmetric")
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    mat.data = np.where(rows >= mat.indices, mat.data, t.data)
    mat.eliminate_zeros()
    return mat


# what the volume Grams read of each space's basis
_U_VOLUME = ("div", "grad")
_V_VOLUME = ("val", "div")


def _restrict(mat: sps.csr_matrix, rows, cols) -> sps.csr_matrix:
    return mat[rows][:, cols].tocsr()


class FormOperators:
    """Parameter-independent Gram matrices for one mesh/family choice.

    The displacement face terms (consistency and tangential-jump penalty) sum
    over all edges, boundary included, which enforces the zero tangential
    trace weakly; normal traces are eliminated strongly downstream.
    """

    def __init__(self, mesh: TriMesh, families=("bdm1", "rt0", "p0"),
                 cfg: DGConfig | None = None, check_compat: bool = True):
        ufam, vfam, pfam = families
        if pfam != "p0":
            raise IncompatibleSpaces(
                f"pressure family must be p0, got {pfam!r}")
        self.mesh = mesh
        self.families = tuple(families)
        self.cfg = cfg or DGConfig()
        self.uspace = FESpace(mesh, ufam)
        self.vspace = FESpace(mesh, vfam)
        self.areas = mesh.signed_areas()
        if check_compat:
            for space, name in ((self.uspace, ufam), (self.vspace, vfam)):
                _check_div_compatibility(space, name)
        self._build_volume()
        self._build_faces()

    # -- volume terms ---------------------------------------------------------

    def _volume(self, space: FESpace, what):
        """Degree-4 cell weights and `space`'s basis data at those points;
        the space caches each tabulation, so a repeat is a lookup."""
        rule = triangle_rule(4)
        return (rule.weights[None, :] * self.uspace.detJ[:, None],
                space.tabulate(rule.points, what=what))

    def _build_volume(self):
        wK, ut = self._volume(self.uspace, _U_VOLUME)
        grad = ut["grad"]
        eps = 0.5 * (grad + np.swapaxes(grad, -2, -1))
        self.EPS = _scatter(self.uspace,
                            np.einsum("kq,kiqab,kjqab->kij", wK, eps, eps,
                                      optimize=True))
        self.DD_u = _scatter(self.uspace,
                             np.einsum("kq,kiq,kjq->kij", wK, ut["div"],
                                       ut["div"], optimize=True))
        self.B_up = self._coupling(self.uspace, ut["div"], wK)

        _, vt = self._volume(self.vspace, _V_VOLUME)
        self.M_v = _scatter(self.vspace,
                            np.einsum("kq,kiqa,kjqa->kij", wK, vt["val"],
                                      vt["val"], optimize=True))
        self.B_vp = self._coupling(self.vspace, vt["div"], wK)
        self.M_p = sps.diags(self.areas).tocsr()

    # Grams that only the norms read, built on first use: a direct solve
    # never pays for them.

    @cached_property
    def GRAD(self) -> sps.csr_matrix:
        wK, ut = self._volume(self.uspace, _U_VOLUME)
        return _scatter(self.uspace,
                        np.einsum("kq,kiqab,kjqab->kij", wK, ut["grad"],
                                  ut["grad"], optimize=True))

    @cached_property
    def HESS(self) -> sps.csr_matrix:
        wK, ut = self._volume(self.uspace, ("hess",))
        h2 = self.mesh.h_cell ** 2
        return _scatter(self.uspace,
                        np.einsum("k,kq,kiqabc,kjqabc->kij", h2, wK,
                                  ut["hess"], ut["hess"], optimize=True))

    @cached_property
    def DD_v(self) -> sps.csr_matrix:
        wK, vt = self._volume(self.vspace, _V_VOLUME)
        return _scatter(self.vspace,
                        np.einsum("kq,kiq,kjq->kij", wK, vt["div"],
                                  vt["div"], optimize=True))

    def _coupling(self, space: FESpace, div_tab, wK) -> sps.csr_matrix:
        # -(p, div w) with cellwise-constant p: column k gets -int_K div w_i
        vals = -np.einsum("kq,kiq->ki", wK, div_tab, optimize=True)
        rows = space.cell_dofs.ravel()
        cols = np.repeat(np.arange(self.mesh.num_cells),
                         space.cell_dofs.shape[1])
        mat = sps.coo_matrix((vals.ravel(), (rows, cols)),
                             shape=(space.ndof, self.mesh.num_cells))
        return mat.tocsr()

    # -- face terms ------------------------------------------------------------

    def _build_faces(self):
        mesh, space = self.mesh, self.uspace
        snodes, sweights = edge_rule(4)
        # a continuous family has no interior jumps
        edges = (mesh.boundary_edges() if space.family == "p1cvec"
                 else np.arange(mesh.num_edges))
        cells, tab = space.edge_traces(edges, mesh.edge_points(snodes)[edges],
                                       what=("val", "grad"))
        n = mesh.edge_normal[edges]
        # per (side, edge) weights: [v] = v1 - v2, {w} = (w1 + w2)/2 on
        # interior edges; [v] = v1, {w} = w1 on the boundary, whose second
        # side repeats K1
        inner = (mesh.edge_cells[edges, 1] != BOUNDARY).astype(float)
        jump_w = np.stack((np.ones_like(inner), -inner))
        avg_w = np.stack((1.0 - 0.5 * inner, 0.5 * inner))
        val, grad = tab["val"], tab["grad"]
        epsn = 0.5 * np.einsum("seiqab,eb->seiqa",
                               grad + np.swapaxes(grad, -2, -1), n,
                               optimize=True)
        vt = val - np.einsum("seiqa,ea->seiq", val, n,
                             optimize=True)[..., None] \
            * n[:, None, None, :]

        def by_edge(w, x):
            # (side, edge, i, q, a) -> (edge, side * nloc + i, q, a)
            x = w[:, :, None, None, None] * x
            return np.swapaxes(x, 0, 1).reshape((len(edges), -1)
                                                + x.shape[3:])

        jump_t, avg_en = by_edge(jump_w, vt), by_edge(avg_w, epsn)
        dofs = np.swapaxes(space.cell_dofs[cells], 0, 1).reshape(len(edges),
                                                                 -1)
        # int_e f ds = (h_e/2) sum w f ; penalty carries 1/h_e
        pen = 0.5 * np.einsum("q,eiqa,ejqa->eij", sweights, jump_t, jump_t,
                              optimize=True)
        c = 0.5 * mesh.edge_length[edges][:, None, None] * np.einsum(
            "q,eiqa,ejqa->eij", sweights, avg_en, jump_t, optimize=True)
        self.PEN = _scatter(space, pen, dofs)
        self.CONS = _scatter(space, c + np.swapaxes(c, 1, 2), dofs)

    # -- combinations ------------------------------------------------------------

    def ah_full(self, eta=None) -> sps.csr_matrix:
        """a_h on all displacement dofs (no boundary elimination)."""
        eta = self.cfg.eta if eta is None else eta
        return (self.EPS - self.CONS + eta * self.PEN).tocsr()

    def _free_u(self, mat):
        f = self.uspace.free_dofs
        return _restrict(mat, f, f)

    def _free_v(self, mat):
        f = self.vspace.free_dofs
        return _restrict(mat, f, f)

    def ah_matrix(self, eta=None) -> sps.csr_matrix:
        return self._free_u(self.ah_full(eta))

    def h_norm_gram(self) -> sps.csr_matrix:
        """Gram of ||.||_h: strain seminorm plus tangential jumps."""
        return self._free_u(self.EPS + self.PEN)

    def grad_norm_gram(self) -> sps.csr_matrix:
        """Gram of ||.||_{1,h}: broken gradient plus tangential jumps."""
        return self._free_u(self.GRAD + self.PEN)

    def dg_norm_gram(self) -> sps.csr_matrix:
        """Gram of the DG norm; the scaled second-derivative term vanishes
        identically for affine linear families and is retained for rt1."""
        return self._free_u(self.GRAD + self.PEN + self.HESS)

    # -- free-dof restrictions, each built on first use and kept ----------------
    # Only sums and copies of these leave the class, so no caller can
    # mutate them.

    @cached_property
    def _ah_free(self):
        return self.ah_matrix()

    @cached_property
    def _dg_free(self):
        return self.dg_norm_gram()

    @cached_property
    def _DD_u_free(self):
        return self._free_u(self.DD_u)

    @cached_property
    def _M_v_free(self):
        return self._free_v(self.M_v)

    @cached_property
    def _DD_v_free(self):
        return self._free_v(self.DD_v)

    @cached_property
    def _B_up_free(self):
        return self.B_up[self.uspace.free_dofs].tocsr()

    @cached_property
    def _B_vp_free(self):
        return self.B_vp[self.vspace.free_dofs].tocsr()

    def block_system(self, params: ReducedParams, f=None, g=None,
                     g_cells=None) -> BlockSystem:
        A_uu = self._ah_free + params.lam * self._DD_u_free
        A_vv = params.rp_inv * self._M_v_free
        C_pp = (-params.alpha_p * self.M_p).tocsr()
        rhs_u, rhs_v, rhs_p = self.rhs(f=f, g=g, g_cells=g_cells)
        return BlockSystem(A_uu.tocsr(), self._B_up_free.copy(),
                           A_vv.tocsr(), self._B_vp_free.copy(), C_pp,
                           rhs_u[self.uspace.free_dofs],
                           rhs_v[self.vspace.free_dofs], rhs_p,
                           self.uspace, self.vspace, params, self.cfg,
                           self.families)

    def rhs(self, f=None, g=None, g_cells=None):
        """Load vectors (f, w), 0, (g, q) on the full dof sets.

        f and g are callables of (x, y); alternatively pass g_cells with
        per-cell values of a piecewise-constant source (exact for the
        cellwise-constant pressure test space).  The scalar source uses the
        same degree-12 rule as the cellwise projection so the discrete
        compatibility of a mean-free source survives extreme coefficient
        scales; degree 8 suffices for the vector load.
        """
        rule = triangle_rule(8)
        rhs_u = np.zeros(self.uspace.ndof)
        rhs_v = np.zeros(self.vspace.ndof)
        rhs_p = np.zeros(self.mesh.num_cells)
        if f is not None:
            wK = rule.weights[None, :] * self.uspace.detJ[:, None]
            xy = self.mesh.cell_points(rule.points)
            fv = np.asarray(f(xy[..., 0], xy[..., 1]), dtype=float)
            ut = self.uspace.tabulate(rule.points, what=("val",))
            elem = np.einsum("kq,kqa,kiqa->ki", wK, fv, ut["val"],
                             optimize=True)
            np.add.at(rhs_u, self.uspace.cell_dofs.ravel(), elem.ravel())
        if g is not None and g_cells is not None:
            raise ValueError("pass either g or g_cells, not both")
        if g is not None:
            rhs_p = project_qh(g, self.mesh) * self.areas
        elif g_cells is not None:
            rhs_p = np.asarray(g_cells, dtype=float) * self.areas
        return rhs_u, rhs_v, rhs_p

    def norm_blocks(self, params: ReducedParams) -> NormBlocks:
        N_U = self._dg_free + params.lam * self._DD_u_free
        N_V = (params.rp_inv * self._M_v_free
               + (1.0 / params.gamma) * self._DD_v_free)
        N_P = (params.gamma * self.M_p).tocsr()
        return NormBlocks(N_U.tocsr(), N_V.tocsr(), N_P, kind="paper")

    def natural_norm_blocks(self, params: ReducedParams) -> NormBlocks:
        """Norms without the gamma reweighting: the flux div term carries
        rp_inv and the pressure mass is unweighted (negative experiment)."""
        N_U = self._dg_free + params.lam * self._DD_u_free
        N_V = params.rp_inv * (self._M_v_free + self._DD_v_free)
        N_P = self.M_p.copy().tocsr()
        return NormBlocks(N_U.tocsr(), N_V.tocsr(), N_P, kind="natural")


def _check_div_compatibility(space: FESpace, name: str):
    """Elementwise rank test: span{div basis|_K} must equal the cellwise
    constants."""
    rule = triangle_rule(4)
    div = space.tabulate(rule.points, what=("div",))["div"]
    scale = np.abs(div).max() or 1.0
    rank = np.linalg.matrix_rank(np.swapaxes(div, 1, 2), tol=1e-10 * scale)
    bad = np.flatnonzero(rank != 1)
    if bad.size:
        k = bad[0]
        raise IncompatibleSpaces(
            f"family {name!r}: divergence span on cell {k} has rank "
            f"{rank[k]}, pressure space expects cellwise constants")


# -- spec-facing convenience wrappers -----------------------------------------

def assemble_ah(mesh: TriMesh, family: str, cfg: DGConfig | None = None,
                constrained: bool = False) -> sps.csr_matrix:
    """Interior-penalty elasticity form over all edges (boundary included)."""
    ops = FormOperators(mesh, (family, "rt0", "p0"), cfg, check_compat=False)
    return ops.ah_matrix() if constrained else ops.ah_full()


def export_matrix_market(path, matrix):
    """Dump any assembled block in Matrix Market coordinate format."""
    from scipy.io import mmwrite
    mmwrite(str(path), sps.coo_matrix(matrix))
