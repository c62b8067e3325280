"""Assembly of the block operator, right-hand sides and norm matrices.

All parameter-independent Gram matrices (volume and face terms) are built
once per (mesh, families, penalty), those that only the norms read on first
use, and then combined with scalar weights for each parameter point, so
sweeps over the coefficient grid cost almost nothing beyond the first
assembly.  The Grams of a space share one symmetric CSR pattern
(`GramPattern`): each is one bincount onto its lower triangle, and every
matrix on all dofs or on the free dofs is one gather over shared,
read-only index arrays, so sums of Grams and free-dof restrictions are
arithmetic on data vectors.  Every CSR pattern, the Grams' and the
monolithic matrices', is one counting sort of coordinates (`_sorted_csr`).
The monolithic matrices are laid out in one place: `block_matrix` gathers
each parameter point's block data into the read-only CSR index arrays of
the saddle layout its operators keep (`FormOperators._saddle`), lays out
any other blocks and the matrix bordered for the direct solver straight
from the blocks, and `block_diagonal` concatenates the norm blocks.
Loads that are affine in the parameters (`AffineLoad`) are assembled
once per component on first use, so the load vectors of a parameter
point are small dot products too.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sps
from scipy.linalg import cholesky, solve_triangular
# counting-sort kernels of scipy's own format conversions
from scipy.sparse import _sparsetools

from .elements import (VECTOR_FAMILIES, FESpace, edge_rule, project_qh,
                       triangle_rule)
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


@dataclass(frozen=True)
class AffineLoad:
    """A load sum_i coeffs[i] * parts(x, y)[i], affine in its parameters.

    `parts(x, y)` returns the parameter-independent component fields
    stacked on a leading axis; make it a module-level function, because
    `FormOperators` keeps the load vectors of the components per `parts`
    for its life.  Called, the load is an ordinary source f(x, y).
    """

    coeffs: tuple
    parts: Callable

    def __call__(self, x, y):
        return np.tensordot(self.coeffs, self.parts(x, y), 1)


def _as_affine(load) -> AffineLoad:
    """`load` as an `AffineLoad`; a plain callable is one component."""
    if isinstance(load, AffineLoad):
        return load
    return AffineLoad((1.0,), lambda x, y: np.asarray(load(x, y),
                                                       dtype=float)[None])


@dataclass(frozen=True)
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
    # the operators that assembled the blocks at `params`, set by
    # `FormOperators.block_system` alone; `replace` drops it, so a system
    # that has it holds their blocks, read-only (`_from_template`)
    ops: FormOperators | None = field(init=False, default=None, repr=False,
                                      compare=False)

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
        return block_matrix(self)

    def split(self, x: np.ndarray):
        nu, nv, npp = self.block_sizes
        return x[:nu], x[nu:nu + nv], x[nu + nv:]


@dataclass(frozen=True)
class NormBlocks:
    """Gram matrices of the parameter-dependent norms on the constrained
    spaces, the pressure on all cells (the pencils reduce it to mean-zero
    pressures); iterating gives (N_U, N_V, N_P)."""

    N_U: sps.csr_matrix
    N_V: sps.csr_matrix
    N_P: sps.csr_matrix
    kind: str = "paper"
    # (operators, parameters, (g, g c)) of the `FormOperators` norms the
    # blocks are, N_P = g M_p and N_V = rp_inv M_v + c DD_v; as
    # `BlockSystem.ops`, `replace` drops it
    source: tuple | None = field(init=False, default=None, repr=False,
                                 compare=False)

    def __iter__(self):
        return iter((self.N_U, self.N_V, self.N_P))

    def monolithic(self) -> sps.csr_matrix:
        return block_diagonal(self)


# -- block layout ---------------------------------------------------------------
# Canonical blocks give results bitwise equal to sps.bmat / sps.block_diag.

def _canonical(mat) -> sps.csr_matrix:
    """`mat` as CSR with sorted, unique column indices (a copy only when
    it is not already so)."""
    mat = mat.tocsr()
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    return mat


def _index_type(maxval: int):
    """int32 when it holds `maxval`, as scipy would keep, else int64."""
    return np.int32 if maxval < np.iinfo(np.int32).max else np.int64


def _sorted_csr(n: int, rows, cols, ids):
    """indptr, indices and `ids` in CSR order of the n x n coordinates
    (rows, cols), each row sorted by column: scipy's counting sort by row
    (`coo_tocsr`), then its sort of each row (`csr_sort_indices`).  All
    four arrays share one integer type, which the results keep."""
    ptr = np.empty(n + 1, dtype=rows.dtype)
    col = np.empty(rows.size, dtype=rows.dtype)
    out = np.empty(rows.size, dtype=rows.dtype)
    _sparsetools.coo_tocsr(n, n, rows.size, rows, cols, ids, ptr, col, out)
    _sparsetools.csr_sort_indices(n, ptr, col, out)
    return ptr, col, out


class BlockLayout:
    """CSR index arrays of the saddle matrix

        [[A_uu, 0, B_up], [0, A_vv, B_vp], [B_up^T, B_vp^T, C_pp]]

    for one sparsity pattern of the five blocks, or, `bordered`, of the
    same matrix bordered by the cell-area column and row.  The data vector
    is the blocks' data in that order (then the areas, bordered), and
    `order` gathers it into CSR order.  Every stored entry is listed as
    (row, column, data position) at its block offsets, each coupling block
    a second time transposed, and one counting sort (`_sorted_csr`) lays
    them out.  The arrays are read-only, so the matrices of one layout can
    share them.
    """

    def __init__(self, blocks, bordered: bool = False):
        A_uu, B_up, A_vv, B_vp, C_pp = blocks
        nu, nv, npp = A_uu.shape[0], A_vv.shape[0], C_pp.shape[0]
        self.shapes = ((nu, nu), (nu, npp), (nv, nv), (nv, npp), (npp, npp))
        if tuple(b.shape for b in blocks) != self.shapes:
            raise ValueError(f"block shapes {[b.shape for b in blocks]} do "
                             f"not form a saddle matrix of sizes "
                             f"{(nu, nv, npp)}")
        src = np.cumsum([0] + [b.nnz for b in blocks])
        n = nu + nv + npp + bordered
        # the coupling blocks are stored twice, the areas twice
        nent = src[-1] + B_up.nnz + B_vp.nnz + 2 * npp * bordered
        itype = _index_type(max(n, nent))
        coords = []  # (rows, columns, data positions) of the entries
        corners = ((0, 0), (0, nu + nv), (nu, nu), (nu, nu + nv),
                   (nu + nv, nu + nv))
        for b, (r0, c0), s in zip(blocks, corners, src):
            p, i = b.indptr, b.indices
            r = np.repeat(np.arange(r0, r0 + p.size - 1, dtype=itype),
                          np.diff(p))
            c = i.astype(itype) + c0
            pos = np.arange(s, s + i.size, dtype=itype)
            coords.append((r, c, pos))
            if r0 != c0:  # a coupling block, and its transpose below
                coords.append((c, r, pos))
        if bordered:
            pressure = np.arange(nu + nv, n - 1, dtype=itype)
            last = np.full(npp, n - 1, dtype=itype)
            areas = np.arange(src[-1], src[-1] + npp, dtype=itype)
            coords += [(pressure, last, areas), (last, pressure, areas)]
        self.indptr, self.indices, self.order = _sorted_csr(
            n, *(np.concatenate(a) for a in zip(*coords)))
        for a in (self.indptr, self.indices, self.order):
            a.flags.writeable = False
        self.template = _shared_csr(np.zeros(self.order.size), self.indices,
                                    self.indptr, (n, n))


def block_matrix(system: BlockSystem, bordered: bool = False):
    """The saddle matrix of `system` in CSR; with `bordered`, also the
    column of cell areas and its transpose as last row, which pin the
    pressure mean.

    The blocks of the operators that assembled `system` (`BlockSystem.ops`)
    take their saddle layout (`FormOperators._saddle`), whose read-only
    index arrays are handed out without copies, each matrix a copy of the
    layout's template (`_from_template`).  Any other blocks, and the
    bordered matrix, which a direct solver builds once, get a layout of
    their own that is not kept."""
    blocks = [_canonical(b) for b in (system.A_uu, system.B_up, system.A_vv,
                                      system.B_vp, system.C_pp)]
    data = [b.data for b in blocks]
    if bordered:
        data.append(system.mesh.signed_areas())
    layout = (system.ops._saddle if system.ops is not None and not bordered
              else BlockLayout(blocks, bordered))
    return _from_template(layout.template,
                          np.concatenate(data)[layout.order])


def block_diagonal(blocks) -> sps.csr_matrix:
    """The block-diagonal CSR matrix of `blocks`, by concatenating their
    CSR arrays."""
    blocks = [_canonical(b) for b in blocks]
    rows = np.cumsum([0] + [b.shape[0] for b in blocks])
    cols = np.cumsum([0] + [b.shape[1] for b in blocks])
    nnz = np.cumsum([0] + [b.nnz for b in blocks])
    indptr = np.concatenate([[0]] + [b.indptr[1:] + k
                                     for b, k in zip(blocks, nnz)])
    indices = np.concatenate([b.indices + c for b, c in zip(blocks, cols)])
    return sps.csr_matrix((np.concatenate([b.data for b in blocks]), indices,
                           indptr), shape=(rows[-1], cols[-1]))


class GramPattern:
    """One symmetric CSR pattern for every Gram of a space, and its
    restriction to the free dofs.

    The pattern is the union of the dofs[m] x dofs[m] blocks of the
    space's cell dofs and of any further dof tables.  A Gram is kept as
    the data of the lower pattern (global row >= column): one bincount
    sums the lower-triangle entries of its local matrices there.  Every
    stored entry of a CSR matrix on all dofs or on the free dofs is then
    one gather from that data, so the matrix is exactly symmetric and
    keeps the pattern's structural zeros, and sums of Grams are sums of
    data vectors.  The CSR matrices of one pattern share read-only index
    arrays: an in-place scipy call on one of them raises instead of
    changing the others.  Each is a copy of the pattern's template on all
    dofs or on the free dofs (`_from_template`).  The free-dof pattern is
    laid out from the lower pattern's free rows and columns; the pattern
    on all dofs, which only the Gram properties and `ah_full` read, on
    the first `full` call.
    """

    def __init__(self, space: FESpace, *tables):
        n = self.n = space.ndof
        tables = (space.cell_dofs,) + tables
        itype = _index_type(max(n + 1, sum(d.shape[0] * d.shape[1] ** 2
                                           for d in tables)))
        # every local lower-triangle entry: flat position, row and column
        takes, rows, cols = [], [], []
        for dofs in tables:
            m, k = dofs.shape
            dofs = dofs.astype(itype)
            r = np.broadcast_to(dofs[:, :, None], (m, k, k)).reshape(-1)
            c = np.broadcast_to(dofs[:, None, :], (m, k, k)).reshape(-1)
            take = np.flatnonzero(r >= c)
            takes.append(take)
            rows.append(r[take])
            cols.append(c[take])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        nent = rows.size
        ptr, col, entry = _sorted_csr(n, rows, cols,
                                      np.arange(nent, dtype=itype))
        if np.any(ptr[1:] == ptr[:-1]):
            raise ValueError("a dof lies in no cell")
        # runs of one (row, column) share a slot of the lower pattern
        first = np.ones(nent, dtype=bool)
        first[1:] = col[1:] != col[:-1]
        first[ptr[:-1]] = True
        slot = np.cumsum(first, dtype=itype) - 1
        nlow = self.nlow = int(slot[-1]) + 1
        lptr = np.append(slot[ptr[:-1]], slot[-1] + 1)
        lcol = col[first]
        # numpy gathers through intp maps without converting them
        slots = np.empty(nent, dtype=np.intp)
        slots[entry] = slot
        bounds = np.cumsum([0] + [t.size for t in takes])
        self._maps = [(t, slots[a:b].copy())
                      for t, a, b in zip(takes, bounds, bounds[1:])]
        self._lower = lptr, lcol  # for the pattern on all dofs
        # the lower pattern's free rows and columns, renumbered
        free = np.zeros(n, dtype=bool)
        free[space.free_dofs] = True
        kept = free[lcol] & np.repeat(free, np.diff(lptr))
        counted = np.cumsum(np.append(False, kept), dtype=itype)
        self.nfree = space.free_dofs.size
        renumber = np.cumsum(free, dtype=itype) - 1
        self.free_indptr, self.free_indices, self.free_mirror = (
            self._symmetric(counted[np.append(lptr[space.free_dofs], nlow)],
                            renumber[lcol[kept]],
                            np.flatnonzero(kept).astype(itype)))
        for a in (self.free_indptr, self.free_indices, self.free_mirror):
            a.flags.writeable = False

    @staticmethod
    def _symmetric(lptr, lcol, slots):
        """(indptr, indices, mirror) of the symmetric pattern whose lower
        part is the CSR pattern (lptr, lcol), each row ending with its
        diagonal; mirror gathers each stored entry from `slots`, the
        lower-pattern slots of the lower part's entries."""
        n, nlow = lptr.size - 1, lcol.size
        itype = lptr.dtype
        # the strict lower part, transposed by a counting sort, is the
        # strict upper part
        strict = np.ones(nlow, dtype=bool)
        strict[lptr[1:] - 1] = False
        nup = nlow - n
        uptr = np.empty(n + 1, dtype=itype)
        ucol = np.empty(nup, dtype=itype)
        uslot = np.empty(nup, dtype=itype)
        _sparsetools.csr_tocsc(n, n, lptr - np.arange(n + 1, dtype=itype),
                               lcol[strict], slots[strict], uptr, ucol,
                               uslot)
        # a row of the pattern is its lower part, then its upper part
        lpos = np.arange(nlow, dtype=itype) + np.repeat(uptr[:-1],
                                                        np.diff(lptr))
        upos = np.arange(nup, dtype=itype) + np.repeat(lptr[1:],
                                                       np.diff(uptr))
        indices = np.empty(nlow + nup, dtype=itype)
        indices[lpos], indices[upos] = lcol, ucol
        mirror = np.empty(nlow + nup, dtype=np.intp)
        mirror[lpos], mirror[upos] = slots, uslot
        return lptr + uptr, indices, mirror

    def lower(self, elem, table: int = 0) -> np.ndarray:
        """Lower-pattern data of the sum of local matrices elem (m, k, k)
        over dof table `table` (0: the cell dofs)."""
        take, slot = self._maps[table]
        return np.bincount(slot, weights=elem.reshape(-1)[take],
                           minlength=self.nlow)

    def release(self, table: int):
        """Drop the maps of a dof table no further Gram is summed over."""
        self._maps[table] = None

    def full(self, low) -> sps.csr_matrix:
        """The Gram with lower-pattern data `low` on all dofs."""
        template, mirror = self._full
        return _from_template(template, low[mirror])

    def free(self, low) -> sps.csr_matrix:
        """The Gram with lower-pattern data `low` on the free dofs."""
        return _from_template(self._free, low[self.free_mirror])

    @cached_property
    def _full(self):
        """The template on all dofs and the lower-pattern slot of each of
        its stored entries."""
        lptr, lcol = self._lower
        indptr, indices, mirror = self._symmetric(
            lptr, lcol, np.arange(self.nlow, dtype=lptr.dtype))
        for a in (indptr, indices, mirror):
            a.flags.writeable = False
        return _shared_csr(np.zeros(mirror.size), indices, indptr,
                           (self.n, self.n)), mirror

    @cached_property
    def _free(self) -> sps.csr_matrix:
        return _shared_csr(np.zeros(self.free_mirror.size), self.free_indices,
                           self.free_indptr, (self.nfree, self.nfree))


def _shared_csr(data, indices, indptr, shape) -> sps.csr_matrix:
    mat = sps.csr_matrix((data, indices, indptr), shape=shape)
    mat.has_canonical_format = True  # sorted and unique by construction
    return mat


def _from_template(template: sps.csr_matrix, data) -> sps.csr_matrix:
    """A shallow copy of the CSR `template` that holds `data`, made
    read-only: it shares the template's index arrays and format flags, so
    scipy checks them once per template, not once per matrix."""
    mat = copy.copy(template)
    data.flags.writeable = False
    mat.data = data
    return mat


def _read_only(mat: sps.csr_matrix) -> sps.csr_matrix:
    """`mat`, its arrays made read-only so that it can be handed out
    without copies."""
    for a in (mat.data, mat.indices, mat.indptr):
        a.flags.writeable = False
    return mat


def _gram(low: str, pattern: str, doc: str) -> property:
    """A Gram of `FormOperators` read as CSR on all dofs from its
    lower-pattern data `low` on the pattern `pattern`."""
    return property(lambda ops: getattr(ops, pattern).full(getattr(ops, low)),
                    doc=doc)


class FormOperators:
    """Parameter-independent Gram matrices for one mesh/family choice.

    The displacement face terms (consistency and tangential-jump penalty) sum
    over all edges, boundary included, which enforces the zero tangential
    trace weakly; normal traces are eliminated strongly downstream.

    Each Gram is kept as its data on the lower pattern of its space
    (`GramPattern`) and read as CSR, so every block of a parameter point
    is one sum of such data vectors and one gather.
    """

    EPS = _gram("_EPS", "_upattern", "Strain Gram (eps u, eps w).")
    DD_u = _gram("_DD_u", "_upattern", "Displacement div-div Gram.")
    PEN = _gram("_PEN", "_upattern",
                "Tangential-jump Gram, 1/h_e-weighted, without eta.")
    CONS = _gram("_CONS", "_upattern", "Symmetric consistency Gram.")
    GRAD = _gram("_GRAD", "_upattern", "Broken-gradient Gram.")
    M_v = _gram("_M_v", "_vpattern", "Flux mass Gram.")
    DD_v = _gram("_DD_v", "_vpattern", "Flux div-div Gram.")

    def __init__(self, mesh: TriMesh, families=("bdm1", "rt0", "p0"),
                 cfg: DGConfig | None = None):
        ufam, vfam, pfam = families
        for slot, fam in (("displacement", ufam), ("flux", vfam)):
            if fam not in VECTOR_FAMILIES:
                raise IncompatibleSpaces(
                    f"{slot} family must be one of {VECTOR_FAMILIES}, "
                    f"got {fam!r}")
        if pfam != "p0":
            raise IncompatibleSpaces(
                f"pressure family must be p0, got {pfam!r}")
        self.mesh = mesh
        self.families = tuple(families)
        self.cfg = cfg or DGConfig()
        self.uspace = FESpace(mesh, ufam)
        self.vspace = FESpace(mesh, vfam)
        self.areas = mesh.signed_areas()
        for space, name in ((self.uspace, ufam), (self.vspace, vfam)):
            _check_div_compatibility(space, name)
        # the face terms lay out the displacement pattern, which spans
        # the edge neighbourhoods
        self._build_faces()
        self._build_volume()
        # load vectors per component, weakly keyed on `parts`: the entry of
        # a plain callable's one-off parts goes when its call returns
        self._f_cache = weakref.WeakKeyDictionary()
        self._g_cache = weakref.WeakKeyDictionary()
        # the solvers' memo for the blocks these operators assemble: the
        # last factor of each preconditioner block, the displacement under
        # lambda and the flux under its shape t (`BlockPreconditioner`),
        # the last whitened displacement of their pencils under (whether
        # N_U is A_uu, lambda) (`_whitened_displacement`) and its coupling
        # rotated to the closed-form pressure basis under its identity
        # (`_closed_flux`)
        self._factors = {}

    # -- volume terms ---------------------------------------------------------
    # Derivatives are constant on each cell, so their Grams are |K| times
    # products of the spaces' per-cell arrays; only the flux mass M_v needs
    # a (degree-4) rule.

    def _cell_gram(self, pattern: GramPattern, x) -> np.ndarray:
        """Gram of |K| x_i . x_j per cell, x (nc, nloc, ...)."""
        x = x.reshape(x.shape[:2] + (-1,))
        return pattern.lower(self.areas[:, None, None]
                             * np.matmul(x, np.swapaxes(x, 1, 2)))

    def _build_volume(self):
        grad = self.uspace.cell_grad
        self._EPS = self._cell_gram(self._upattern,
                                    0.5 * (grad + np.swapaxes(grad, -2, -1)))
        self._DD_u = self._cell_gram(self._upattern, self.uspace.cell_div)
        self.B_up = self._coupling(self.uspace)

        self._vpattern = GramPattern(self.vspace)
        rule = triangle_rule(4)
        wK = rule.weights[None, :] * self.vspace.detJ[:, None]
        val = self.vspace.tabulate(rule.points)
        self._M_v = self._vpattern.lower(np.einsum("kq,kiqa,kjqa->kij", wK,
                                                   val, val, optimize=True))
        self.B_vp = self._coupling(self.vspace)
        cells = np.arange(self.mesh.num_cells + 1, dtype=np.int32)
        self.M_p = _read_only(_shared_csr(self.areas.copy(), cells[:-1],
                                          cells, (cells[-1],) * 2))

    # Grams that only the norms read, built on first use: a direct solve
    # never pays for them.

    @cached_property
    def _GRAD(self) -> np.ndarray:
        return self._cell_gram(self._upattern, self.uspace.cell_grad)

    @cached_property
    def _DD_v(self) -> np.ndarray:
        return self._cell_gram(self._vpattern, self.vspace.cell_div)

    def _coupling(self, space: FESpace) -> sps.csr_matrix:
        # -(p, div w) with cellwise-constant p: column k gets -int_K div w_i,
        # so row k of the transpose lists the dofs of cell k
        nc, nloc = space.cell_dofs.shape
        vals = -self.areas[:, None] * space.cell_div
        mat = sps.csr_matrix((vals.ravel(), space.cell_dofs.ravel(),
                              np.arange(0, nc * nloc + 1, nloc)),
                             shape=(nc, space.ndof)).T.tocsr()
        mat.eliminate_zeros()  # the divergence-free bdm1 functions
        return _read_only(mat)

    # -- face terms ------------------------------------------------------------

    def _build_faces(self):
        dofs, pen, cons = self._face_matrices()
        pattern = self._upattern = GramPattern(self.uspace, dofs)
        self._PEN = pattern.lower(pen, 1)
        self._CONS = pattern.lower(cons, 1)
        pattern.release(1)  # no other Gram sums over the edges

    def _face_matrices(self):
        """Per-edge dofs and local penalty and consistency matrices."""
        mesh, space = self.mesh, self.uspace
        # the integrands are at most quadratic along an edge, which 2-point
        # Gauss integrates exactly
        snodes, sweights = edge_rule(2)
        # a continuous family has no interior jumps
        edges = (mesh.boundary_edges() if space.family == "p1cvec"
                 else np.arange(mesh.num_edges))
        cells, val = space.edge_traces(edges, mesh.edge_points(snodes)[edges])
        n, t = mesh.edge_normal[edges], mesh.edge_tangent[edges]
        # [v] = v1 - v2, {w} = (w1 + w2)/2 on interior edges; [v] = v1 and
        # {w} = w1 on the boundary, whose second side repeats K1
        inner = (mesh.edge_cells[edges, 1] != BOUNDARY).astype(float)
        jump_w = np.stack((np.ones_like(inner), -inner))
        avg_w = np.stack((1.0 - 0.5 * inner, 0.5 * inner))
        # only tangential parts enter: [v]_t . {eps(w) n} is
        # ([v] . t)({eps(w) n} . t), and t . eps(w) n = (t n^T + n t^T) :
        # grad w / 2 is constant per cell; rows are (edge, side * nloc + i)
        jump = np.einsum("se,seiqa,ea->esiq", jump_w, val, t,
                         optimize=True).reshape(len(edges), -1, len(snodes))
        tn = t[:, :, None] * n[:, None, :]
        avg = np.einsum("se,seiab,eab->esi", avg_w, space.cell_grad[cells],
                        0.5 * (tn + np.swapaxes(tn, 1, 2)),
                        optimize=True).reshape(len(edges), -1)
        dofs = space.cell_dofs[cells.T].reshape(len(edges), -1)
        # int_e f ds = (h_e/2) sum_q w_q f(x_q); penalty carries 1/h_e
        pen = 0.5 * (sweights * jump) @ np.swapaxes(jump, 1, 2)
        # the constant strain meets the weighted point-sum of the jumps
        c = (0.5 * mesh.edge_length[edges][:, None, None] * avg[:, :, None]
             * (jump @ sweights)[:, None, :])
        return dofs, pen, c + np.swapaxes(c, 1, 2)

    # -- combinations, as sums of lower-pattern data -----------------------------

    @cached_property
    def _ah(self) -> np.ndarray:
        return self._EPS - self._CONS + self.cfg.eta * self._PEN

    @cached_property
    def _grad_jumps(self) -> np.ndarray:
        return self._GRAD + self._PEN

    def ah_full(self) -> sps.csr_matrix:
        """a_h on all displacement dofs (no boundary elimination)."""
        return self._upattern.full(self._ah)

    def ah_matrix(self) -> sps.csr_matrix:
        return self._upattern.free(self._ah)

    def h_norm_gram(self) -> sps.csr_matrix:
        """Gram of ||.||_h: strain seminorm plus tangential jumps."""
        return self._upattern.free(self._EPS + self._PEN)

    def grad_norm_gram(self) -> sps.csr_matrix:
        """Gram of ||.||_{1,h}: broken gradient plus tangential jumps.

        Every displacement family here is affine on each cell, so the
        h^2-scaled second-derivative term of the DG norm vanishes and this
        is also the DG norm's Gram."""
        return self._upattern.free(self._grad_jumps)

    # Every system shares these read-only blocks, and C_pp their index
    # arrays with M_p: an in-place edit raises instead of changing them.

    @cached_property
    def _B_up_free(self):
        return _read_only(self.B_up[self.uspace.free_dofs].tocsr())

    @cached_property
    def _B_vp_free(self):
        return _read_only(self.B_vp[self.vspace.free_dofs].tocsr())

    @cached_property
    def _saddle(self) -> BlockLayout:
        """The layout of every saddle matrix of these operators' systems
        (`block_matrix`), from the templates their blocks copy."""
        return BlockLayout((self._upattern._free, self._B_up_free,
                            self._vpattern._free, self._B_vp_free, self.M_p))

    @cached_property
    def _whitening(self):
        """(U, sigma, M_p^1/2 V, G) on the free displacement dofs, with
        K = GRAD + PEN = L L^T: the thin SVD U diag(sigma) V^T of
        L^-1 B_up M_p^-1/2, and G = L^-1 (a_h - K) L^-T.  The divergences
        are cellwise constant, so DD_u = B_up M_p^-1 B_up^T and
        N_U = L (I + lam U diag(sigma^2) U^T) L^T for every lam."""
        free = self._upattern.free
        L = cholesky(free(self._grad_jumps).toarray(), lower=True)
        root = np.sqrt(self.areas)
        U, sigma, Vt = np.linalg.svd(solve_triangular(
            L, self._B_up_free.toarray() / root, lower=True),
            full_matrices=False)
        half = solve_triangular(L, free(self._ah - self._grad_jumps)
                                .toarray(), lower=True)
        return U, sigma, root[:, None] * Vt.T, solve_triangular(
            L, half.T, lower=True)

    @cached_property
    def _flux_whitening(self):
        """(sigma, T) on the free flux dofs, with M_v = L L^T and H_r the
        first npp - 1 columns of the reflector along M_p^1/2 1
        (`_pressure_reflector`): the SVD U diag(sigma) V^T of
        Y = L^-1 B_vp M_p^-1/2 H_r, V square, and T = V^T H_r^T M_p^-1/2,
        which takes pressures to coefficients in the basis
        M_p^-1/2 H_r V of the mean-zero pressures.  The divergences are
        cellwise constant, so DD_v = B_vp M_p^-1 B_vp^T, and the free
        fluxes have no normal trace, so B_vp maps the constants to zero
        and rp_inv M_v + c DD_v = L (rp_inv I + c Y Y^T) L^T for every c."""
        root = np.sqrt(self.areas)
        v = _pressure_reflector(root)
        H_r = np.eye(v.size)[:, :-1] - 2.0 * np.outer(v, v[:-1])
        L = cholesky(self._vpattern.free(self._M_v).toarray(), lower=True)
        Y = solve_triangular(L, self._B_vp_free.toarray() / root,
                             lower=True) @ H_r
        _, sigma, Vt = np.linalg.svd(Y)
        return sigma, (Vt @ H_r.T) / root

    def block_system(self, params: ReducedParams, f=None, g=None,
                     g_cells=None) -> BlockSystem:
        A_uu = self._upattern.free(self._ah + params.lam * self._DD_u)
        A_vv = self._vpattern.free(params.rp_inv * self._M_v)
        C_pp = _from_template(self.M_p, -params.alpha_p * self.M_p.data)
        rhs_u, rhs_v, rhs_p = self.rhs(f=f, g=g, g_cells=g_cells)
        system = BlockSystem(A_uu, self._B_up_free, A_vv, self._B_vp_free,
                             C_pp, rhs_u[self.uspace.free_dofs],
                             rhs_v[self.vspace.free_dofs], rhs_p,
                             self.uspace, self.vspace, params, self.cfg,
                             self.families)
        object.__setattr__(system, "ops", self)
        return system

    def rhs(self, f=None, g=None, g_cells=None):
        """Load vectors (f, w), 0, (g, q) on the full dof sets.

        f and g are callables of (x, y) or `AffineLoad`s; alternatively
        pass g_cells with per-cell values of a piecewise-constant source
        (exact for the cellwise-constant pressure test space).  The load
        vectors of an `AffineLoad`'s components are assembled on its first
        use and kept per `parts`, so each later load is one small dot
        product with its coefficients; a plain callable is one component,
        assembled at every call.  The scalar source uses the same degree-12
        rule as the cellwise projection so the discrete compatibility of a
        mean-free source survives extreme coefficient scales; degree 8
        suffices for the vector load.
        """
        if g is not None and g_cells is not None:
            raise ValueError("pass either g or g_cells, not both")
        rhs_u = (np.zeros(self.uspace.ndof) if f is None
                 else self._load(f, self._f_vectors, self._f_cache))
        rhs_v = np.zeros(self.vspace.ndof)
        if g is not None:
            rhs_p = self._load(g, self._g_vectors, self._g_cache)
        elif g_cells is not None:
            rhs_p = np.asarray(g_cells, dtype=float) * self.areas
        else:
            rhs_p = np.zeros(self.mesh.num_cells)
        return rhs_u, rhs_v, rhs_p

    @staticmethod
    def _load(load, assemble, cache) -> np.ndarray:
        """The load vector of `load` from its components' vectors, which
        `assemble(parts)` builds and `cache` keeps."""
        load = _as_affine(load)
        vectors = cache.get(load.parts)
        if vectors is None:
            vectors = cache[load.parts] = assemble(load.parts)
        return np.asarray(load.coeffs, dtype=float) @ vectors

    def _f_vectors(self, parts) -> np.ndarray:
        """(f_i, w) for each component f_i of parts(x, y), (m, nc, nq, 2)."""
        rule = triangle_rule(8)
        wK = rule.weights[None, :] * self.uspace.detJ[:, None]
        xy = self.mesh.cell_points(rule.points)
        fv = np.asarray(parts(xy[..., 0], xy[..., 1]), dtype=float)
        val = self.uspace.tabulate(rule.points)
        # one batched matmul over (point, component) for all m loads; the
        # basis-last table gives those rows as a view
        m, (nc, nloc), n = fv.shape[0], val.shape[:2], self.uspace.ndof
        wf = np.moveaxis(wK[:, :, None] * fv, 0, 1).reshape(nc, m, -1)
        elem = np.matmul(wf, np.moveaxis(val, 1, -1).reshape(nc, -1, nloc))
        # one bincount over (load, dof) ids sums each dof's cells in order
        ids = np.arange(0, m * n, n)[:, None] + self.uspace.cell_dofs[:, None]
        return np.bincount(ids.ravel(), weights=elem.ravel(),
                           minlength=m * n).reshape(m, n)

    def _g_vectors(self, parts) -> np.ndarray:
        """(g_i, q) for each component g_i of parts(x, y), (m, nc, nq)."""
        return project_qh(parts, self.mesh) * self.areas

    def _flux_shape(self, t: float) -> sps.csr_matrix:
        """t M_v + DD_v on the free flux dofs: N_V / c at t = rp_inv / c,
        so the flux norms of one t differ by a scalar."""
        return self._vpattern.free(t * self._M_v + self._DD_v)

    # The weights (g, g c) of each norm set, N_P = g M_p and
    # N_V = rp_inv M_v + c DD_v, stated here alone: the solvers read them
    # from `NormBlocks.source`.

    def norm_blocks(self, params: ReducedParams) -> NormBlocks:
        return self._norms("paper", params, params.gamma, 1.0)

    def natural_norm_blocks(self, params: ReducedParams) -> NormBlocks:
        """Norms without the gamma reweighting: the flux div term carries
        rp_inv and the pressure mass is unweighted (negative experiment)."""
        return self._norms("natural", params, 1.0, params.rp_inv)

    def _norms(self, kind: str, params: ReducedParams, g: float,
               gc: float) -> NormBlocks:
        N_U = self._upattern.free(self._grad_jumps + params.lam * self._DD_u)
        N_V = self._vpattern.free(params.rp_inv * self._M_v
                                  + (gc / g) * self._DD_v)
        norms = NormBlocks(N_U, N_V,
                           _from_template(self.M_p, g * self.M_p.data), kind)
        object.__setattr__(norms, "source", (self, params, (g, gc)))
        return norms


def _check_div_compatibility(space: FESpace, name: str):
    """span{div basis|_K} must be the constants on every cell K.  Each
    basis divergence is one constant per cell (`FESpace.cell_div`), so
    that span is the constants unless all of them vanish on K."""
    div = space.cell_div
    tol = 1e-10 * (np.abs(div).max() or 1.0)
    bad = np.flatnonzero(np.abs(div).max(axis=1) <= tol)
    if bad.size:
        raise IncompatibleSpaces(
            f"family {name!r}: divergence span on cell {bad[0]} has rank 0, "
            f"pressure space expects cellwise constants")


def _pressure_reflector(w: np.ndarray) -> np.ndarray:
    """Unit v such that the last column of H = I - 2 v v^T is a multiple
    of w; its other columns then span the vectors orthogonal to w (the
    mean-zero pressures, for w the cell areas)."""
    v = np.array(w, dtype=float)
    v /= np.linalg.norm(v)
    # the sign keeps this sum free of cancellation
    v[-1] += np.copysign(1.0, v[-1])
    return v / np.linalg.norm(v)


def export_matrix_market(path, matrix):
    """Dump any assembled block in Matrix Market coordinate format."""
    from scipy.io import mmwrite
    mmwrite(str(path), sps.coo_matrix(matrix))
