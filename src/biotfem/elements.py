"""Reference bases, quadrature and interpolation operators.

Vector families are H(div)-style: degrees of freedom are normal-component
moments on edges, taken with a global edge orientation (lower vertex index
to higher).
The reference basis inverts the matrix of dof functionals applied to the
polynomial generators once.  Physical bases need no inversion: the
contravariant Piola map carries each reference normal moment to the
physical one up to a closed-form factor (the edge-length ratio, the sign of
the stored normal and, for the first moment, the sign between the two edge
parametrizations), so each cell's coefficients are the reference ones with
their columns divided by that factor.  Normal-trace conformity is exact
regardless of how cells are oriented.  Every family is affine on a cell, so
a basis value is cell_val0 + cell_grad (x - x0), from values at the first
vertex x0 and gradients stored once per cell, with no pull-back to the
reference cell; an H(div) divergence comes from the divergence theorem,
which leaves the first-moment BDM1 functions exactly divergence-free.

Families (2D triangles):

==========  ====================================  ====
name        local space                           dofs
==========  ====================================  ====
``bdm1``    full linear vectors                   6
``rt0``     lowest-order Raviart-Thomas           3
``p1cvec``  continuous linear vectors (nodal)     6
``p0``      cellwise constants                    1
==========  ====================================  ====
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .meshing import BOUNDARY, TriMesh, from_arrays

VECTOR_FAMILIES = ("bdm1", "rt0", "p1cvec")
HDIV_FAMILIES = ("bdm1", "rt0")

_EDGE_DOF_COUNT = {"bdm1": 2, "rt0": 1}

# reference triangle (0,0)-(1,0)-(0,1)
_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_REF_CELL = from_arrays(_REF_VERTS, [[0, 1, 2]])


class DegenerateCell(ValueError):
    """Affine cell map is (numerically) singular."""


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadRule:
    """Quadrature on the reference triangle; weights sum to the area 1/2."""

    degree: int
    bary: np.ndarray
    weights: np.ndarray

    @property
    def points(self) -> np.ndarray:
        """Cartesian reference coordinates, shape (nq, 2)."""
        return self.bary[:, 1:].copy()


def _dunavant4() -> QuadRule:
    groups = [(0.223381589678011, 0.445948490915965),
              (0.109951743655322, 0.091576213509771)]
    bary, weights = [], []
    for w, a in groups:
        b = 1.0 - 2.0 * a
        for pt in ((b, a, a), (a, b, a), (a, a, b)):
            bary.append(pt)
            weights.append(w)
    return QuadRule(4, np.asarray(bary), 0.5 * np.asarray(weights))


# m-point Gauss-Jacobi(1, 0) nodes and weights on [-1, 1], m = 3..7, for
# the collapsed rules of degrees 5-12: scipy.special.roots_jacobi(m, 1, 0)
# as printed by scipy 1.17.1, kept here so that importing the package
# does not load scipy.special
_GAUSS_JACOBI = {
    3: ((-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
        (0.8037276549558384, 0.9169644254383448, 0.2793079196058167)),
    4: ((-0.8857916077709646, -0.44631397272375245, 0.16718086473783364,
         0.7204802713124389),
        (0.5420276537259541, 0.8138582720410844, 0.5193901904329293,
         0.12472388380003234)),
    5: ((-0.9203802858970626, -0.6039731642527836, -0.1240503795052277,
         0.39092854670727223, 0.8029298284023472),
        (0.3871263609066059, 0.6686985523774788, 0.5855479483386794,
         0.2956354802904667, 0.0629916580867692)),
    6: ((-0.9413671456804301, -0.7038428006630314, -0.3260306194376914,
         0.1173430375431003, 0.538467724060109, 0.8538913426394822),
        (0.2892413229020356, 0.5421699889260747, 0.5631702151527953,
         0.3946446035626208, 0.17582066220203585, 0.034953207254438116)),
    7: ((-0.955041227122575, -0.7706418936781917, -0.4684203544308209,
         -0.09430725266111074, 0.2947505657736607, 0.6395186165262152,
         0.8874748789261557),
        (0.22386945369396347, 0.4420370327634976, 0.5095635891983541,
         0.42850026278349523, 0.2655387858619663, 0.10963342688749395,
         0.020857448811229563)),
}


def _conical(degree: int) -> QuadRule:
    # collapsed Gauss-Legendre x Gauss-Jacobi(1,0) product rule
    m = (degree + 2) // 2
    xg, wg = leggauss(m)
    xj, wj = (np.array(a) for a in _GAUSS_JACOBI[m])
    xi = 0.5 * (xg + 1.0)
    eta = 0.5 * (xj + 1.0)
    wxi = 0.5 * wg
    weta = 0.25 * wj
    x = np.outer(xi, 1.0 - eta).ravel()
    y = np.tile(eta, m)
    w = np.outer(wxi, weta).ravel()
    bary = np.column_stack((1.0 - x - y, x, y))
    return QuadRule(degree, bary, w)


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadRule:
    """Quadrature exact for polynomials up to `degree`, at most 12."""
    if degree <= 4:
        return _dunavant4()
    if degree > 12:
        raise ValueError(f"triangle rules go up to degree 12, got {degree}")
    return _conical(degree)


@lru_cache(maxsize=None)
def edge_rule(npts: int = 4):
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    return leggauss(npts)


# ---------------------------------------------------------------------------
# reference polynomial generators
# ---------------------------------------------------------------------------

# Generator g of a vector family is the affine field c_g + G_g x on the
# reference cell, stored as the 2x3 matrix [c_g | G_g] acting on (1, x, y):
# G_g is its gradient and tr G_g its divergence.  p0's one generator is 1.
_BARY = [[1, -1, -1], [0, 1, 0], [0, 0, 1]]  # 1 - x - y, x, y
_AFFINE = {
    # (1, 0), (x, 0), (y, 0), (0, 1), (0, x), (0, y)
    "bdm1": np.eye(6).reshape(6, 2, 3),
    # (1, 0), (0, 1), (x, y)
    "rt0": np.array([[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]],
                     [[0, 1, 0], [0, 0, 1]]], dtype=float),
    # nodal: lam_v e_x, lam_v e_y for the barycentric lam_v, v = 0, 1, 2
    "p1cvec": np.einsum("vc,ab->vabc", _BARY, np.eye(2),
                        optimize=True).reshape(6, 2, 3),
}


def _gen_eval(family, pts):
    """Raw generator values at points (..., 2), shape (ngen, ..., 2) (or
    (1, ...) for p0)."""
    if family == "p0":
        return np.ones((1,) + pts.shape[:-1])
    xh = np.concatenate((np.ones(pts.shape[:-1] + (1,)), pts), axis=-1)
    return np.einsum("gac,...c->g...a", _AFFINE[family], xh, optimize=True)


def _gen_deriv(family):
    """Generator gradients (ngen, 2, 2) and divergences (ngen,)."""
    grad = _AFFINE[family][:, :, 1:]
    return grad, np.trace(grad, axis1=1, axis2=2)


# ---------------------------------------------------------------------------
# reference basis (nodal with respect to the reference dof functionals)
# ---------------------------------------------------------------------------

def _edge_moments(vn, nmom):
    """Moments (1/|e|) int (v.n) P_m over edges, for P_0 = 1, P_1 = s.

    `vn` holds normal components at the 10 Gauss nodes of `edge_rule(10)` in
    its last axis, which the moments (m = 0..nmom-1) replace.  The 1/|e|
    normalization cancels against the arclength element, leaving weights /2.
    """
    snodes, sweights = edge_rule(10)
    return np.stack([0.5 * vn @ (sweights * snodes**m) for m in range(nmom)],
                    axis=-1)


def _dof_matrices(family, mesh: TriMesh) -> np.ndarray:
    """Dof functionals applied to the Piola-mapped generators on every cell,
    shape (nc, ndof, ngen)."""
    J = mesh.jacobians()
    detJ = 2.0 * mesh.signed_areas()
    x0 = mesh.vertices[mesh.cells[:, 0]]
    snodes, _ = edge_rule(10)
    edges = mesh.cell_edges
    pts = mesh.edge_points(snodes)[edges]  # (nc, 3, nq, 2)
    ref = np.einsum("kab,kjqb->kjqa", np.linalg.inv(J),
                    pts - x0[:, None, None, :], optimize=True)
    gv = _gen_eval(family, ref)  # (ngen, nc, 3, nq, 2)
    vals = np.einsum("kab,gkjqb->kjgqa", J, gv,
                     optimize=True) / detJ[:, None, None, None, None]
    vn = np.einsum("kjgqa,kja->kjgq", vals, mesh.edge_normal[edges],
                   optimize=True)
    mom = _edge_moments(vn, _EDGE_DOF_COUNT[family])  # (nc, 3, ngen, nmom)
    return np.swapaxes(mom, 2, 3).reshape(len(J), -1, gv.shape[0])


def _edge_orientation(mesh: TriMesh):
    """Per cell and local edge j: the sign of the stored normal (+1 where
    it is outward) and +1 where the edge, run cells[K, j] ->
    cells[K, (j+1) % 3], goes from the lower vertex index to the higher."""
    c = mesh.cells
    return mesh.cell_edge_sign, np.where(c < np.roll(c, -1, axis=1), 1, -1)


def _dof_scale(family, mesh: TriMesh) -> np.ndarray:
    """d[K, (j, m)]: dof (j, m) of cell K applied to the Piola image of a
    reference field is d times reference dof (j, m) applied to that field,
    shape (nc, ndof).

    The Piola map keeps v.n ds along each edge for outward normals.  The
    1/|e| normalization gives the ratio |e_ref| / |e|, the stored normals
    give their signs, and the moment P_1 = s changes sign where the
    physical and reference edges are parametrized in opposite directions;
    each sign is taken relative to the reference cell's.
    """
    ref = _REF_CELL
    normal, along = _edge_orientation(mesh)
    ref_normal, ref_along = _edge_orientation(ref)
    ratio = ref.edge_length[ref.cell_edges] / mesh.edge_length[mesh.cell_edges]
    m = np.arange(_EDGE_DOF_COUNT[family])
    d = ((normal * ref_normal * ratio)[:, :, None]
         * (along * ref_along)[:, :, None] ** m)
    return d.reshape(mesh.num_cells, -1)


class RefBasis:
    """Nodal reference basis of one family: the dof functionals applied to
    the basis give the identity matrix.
    """

    def __init__(self, family: str):
        if family not in VECTOR_FAMILIES + ("p0",):
            raise ValueError(f"unknown element family {family!r}")
        self.family = family
        ngen = _gen_eval(family, np.zeros((1, 2))).shape[0]
        self.dofs_per_cell = ngen
        if family in ("p0", "p1cvec"):
            self._coeff = np.eye(ngen)  # generators are already nodal
        else:
            self._coeff = np.linalg.inv(self._ref_dof_matrix())

    def _ref_dof_matrix(self) -> np.ndarray:
        return _dof_matrices(self.family, _REF_CELL)[0]


@lru_cache(maxsize=None)
def ref_basis(family: str) -> RefBasis:
    return RefBasis(family)


def _cell_contract(local, tab):
    """sum_i local[k, i] * tab[k, i, ...] in every cell k, as one batched
    matmul; einsum would search a contraction path on every call."""
    k, i = local.shape
    out = np.matmul(local[:, None, :], tab.reshape(k, i, -1))
    return out.reshape((k,) + tab.shape[2:])


# ---------------------------------------------------------------------------
# global finite element space
# ---------------------------------------------------------------------------

class FESpace:
    """Global dof layout plus per-cell physical basis coefficients."""

    def __init__(self, mesh: TriMesh, family: str):
        self.mesh = mesh
        self.family = family
        self.ref = ref_basis(family)

        self.J = mesh.jacobians()
        self.detJ = (self.J[:, 0, 0] * self.J[:, 1, 1]
                     - self.J[:, 0, 1] * self.J[:, 1, 0])
        if np.any(self.detJ <= 0):
            raise DegenerateCell("mesh contains a degenerate or flipped cell")
        self.x0 = mesh.vertices[mesh.cells[:, 0]]

        self._build_dof_layout()
        self._build_cell_coeff()

    # -- dof layout ---------------------------------------------------------

    def _build_dof_layout(self):
        mesh, fam = self.mesh, self.family
        nc, ne = mesh.num_cells, mesh.num_edges
        if fam == "p0":
            self.ndof = nc
            self.cell_dofs = np.arange(nc, dtype=int)[:, None]
            self.boundary_dofs = np.empty(0, dtype=int)
        elif fam == "p1cvec":
            self.ndof = 2 * mesh.num_vertices
            cd = np.empty((nc, 6), dtype=int)
            cd[:, 0::2] = 2 * mesh.cells
            cd[:, 1::2] = 2 * mesh.cells + 1
            self.cell_dofs = cd
            bnd = mesh.boundary_edges()
            n = np.abs(mesh.edge_normal[bnd])
            axis = np.argmax(n, axis=1)
            if np.any(np.abs(n[np.arange(bnd.size), axis] - 1.0) > 1e-12):
                raise ValueError(
                    "p1cvec normal-trace constraints require axis-"
                    "aligned boundary edges")
            self.boundary_dofs = np.unique(2 * mesh.edge_vertices[bnd]
                                           + axis[:, None])
        else:
            nde = _EDGE_DOF_COUNT[fam]
            self.ndof = nde * ne
            self.cell_dofs = (nde * mesh.cell_edges[:, :, None]
                              + np.arange(nde)).reshape(nc, 3 * nde)
            self.boundary_dofs = (nde * mesh.boundary_edges()[:, None]
                                  + np.arange(nde)).ravel()
        free = np.ones(self.ndof, dtype=bool)
        free[self.boundary_dofs] = False
        self.free_dofs = np.flatnonzero(free)

    # -- physical nodal coefficients ----------------------------------------

    def _build_cell_coeff(self):
        nloc = self.ref.dofs_per_cell
        if self.family in ("p0", "p1cvec"):
            self.coeff = np.broadcast_to(np.eye(nloc),
                                         (self.mesh.num_cells, nloc, nloc))
            return
        # closed form of the inverse of the cell's dof matrix diag(d) D_ref
        self.coeff = (self.ref._coeff
                      / _dof_scale(self.family, self.mesh)[:, None, :])

    # -- the affine basis: values at x0, derivatives constant per cell -----

    @cached_property
    def cell_val0(self) -> np.ndarray:
        """Basis values at each cell's vertex x0, read-only, (nc, nloc, 2)."""
        c = _AFFINE[self.family][:, :, 0]  # generator values at the origin
        if self.family in HDIV_FAMILIES:  # Piola: J c / det
            c = c @ np.swapaxes(self.J, 1, 2) / self.detJ[:, None, None]
        val0 = np.swapaxes(self.coeff, 1, 2) @ c
        val0.flags.writeable = False
        return val0

    @cached_property
    def cell_grad(self) -> np.ndarray:
        """Physical basis gradients, read-only, (nc, nloc, 2, 2)."""
        # reference gradients G of each cell's basis, then the chain rule
        G = np.einsum("kgi,gac->kiac", self.coeff, _gen_deriv(self.family)[0],
                      optimize=True)
        Jinv = (np.swapaxes(self.J[:, ::-1, ::-1], 1, 2) * [[1, -1], [-1, 1]]
                / self.detJ[:, None, None])  # adjugate over determinant
        grad = G @ Jinv[:, None]
        if self.family in HDIV_FAMILIES:  # Piola: J G Jinv / det
            grad = (self.J[:, None] @ grad) / self.detJ[:, None, None, None]
        grad.flags.writeable = False
        return grad

    @cached_property
    def cell_div(self) -> np.ndarray:
        """Physical basis divergences, read-only, (nc, nloc)."""
        if self.family in HDIV_FAMILIES:
            # divergence theorem: |K| div v is the outward flux, and a nodal
            # basis function has one nonzero mean normal moment, so the
            # P_0-moment function of edge j has div sign_j |e_j| / |K| and
            # the P_1-moment functions are exactly divergence-free
            mesh = self.mesh
            flux = np.zeros((mesh.num_cells, 3, _EDGE_DOF_COUNT[self.family]))
            flux[:, :, 0] = (mesh.cell_edge_sign
                             * mesh.edge_length[mesh.cell_edges])
            div = (flux.reshape(mesh.num_cells, -1)
                   / (0.5 * self.detJ)[:, None])
        else:
            div = np.trace(self.cell_grad, axis1=2, axis2=3)
        div.flags.writeable = False
        return div

    # -- tabulation ----------------------------------------------------------

    def tabulate(self, ref_pts):
        """Physical basis values at reference points xi, x0 + J xi in every
        cell, (nc, nloc, nq, 2), a view of an array laid out basis-last.
        p0's values are ones without the trailing component axis.
        Derivatives are constant on each cell: read `cell_grad` and
        `cell_div`.
        """
        ref_pts = np.atleast_2d(np.asarray(ref_pts, dtype=float))
        return self._tabulate_for(slice(None),
                                  ref_pts @ np.swapaxes(self.J, 1, 2))

    def tabulate_at(self, cells, phys_pts):
        """Physical basis values of `cells`, of any shape, at physical
        points phys_pts (cells.shape + (nq, 2), or broadcastable to it) that
        lie in the respective cells; laid out as in `tabulate`, with
        cells.shape in place of the cell axis.
        """
        cells = np.asarray(cells, dtype=int)
        dx = np.asarray(phys_pts) - self.x0[cells][..., None, :]
        return self._tabulate_for(cells, dx)

    def edge_traces(self, edges, pts):
        """Basis values from both sides of the given edges.

        pts (len(edges), nq, 2) are physical points on the edges.  Returns
        (cells, val): cells (2, len(edges)) holds (K1, K2) per edge, with
        K2 replaced by K1 on boundary edges (callers give that side zero
        weight), and val has shape (2, len(edges), nloc, nq, 2).
        """
        k1, k2 = self.mesh.edge_cells[edges].T
        cells = np.stack((k1, np.where(k2 == BOUNDARY, k1, k2)))
        return cells, self.tabulate_at(cells, pts)

    def _tabulate_for(self, cells, dx):
        """Basis values of `cells`, an index array of any shape or a slice,
        at the points x0 + dx of each cell, dx (selected cells' shape, nq,
        2).  Every vector family's values are the affine field
        cell_val0 + cell_grad dx; p0's are ones."""
        lead, nq = dx.shape[:-2], dx.shape[-2]
        if self.family == "p0":
            return np.ones(lead + (1, nq))
        # one batched matmul dx (q, b) @ grad (b, (a, i)) lays the values out
        # basis-last, (..., point, component, basis), so that a contraction
        # over (point, component) reshapes them without a copy
        grad = np.swapaxes(self.cell_grad[cells], -3, -1)
        val = (dx @ grad.reshape(grad.shape[:-2] + (-1,))).reshape(
            lead + (nq,) + grad.shape[-2:])
        val += np.swapaxes(self.cell_val0[cells], -1, -2)[..., None, :, :]
        return np.moveaxis(val, -1, len(lead))

    # -- discrete field helpers ----------------------------------------------

    def _local_coeffs(self, coeffs) -> np.ndarray:
        """A vector field's coefficients on each cell, (nc, nloc)."""
        if self.family == "p0":
            raise ValueError("family 'p0' is constant on each cell and "
                             "offers no derivatives")
        return np.asarray(coeffs, dtype=float)[self.cell_dofs]

    def cell_divergence(self, coeffs) -> np.ndarray:
        """Divergence of a discrete field on each cell, (nc,), constant
        there for every vector family."""
        return _cell_contract(self._local_coeffs(coeffs),
                              self.cell_div[:, :, None])[:, 0]

    def cell_gradient(self, coeffs) -> np.ndarray:
        """Gradient of a discrete field on each cell, (nc, 2, 2), constant
        there for every vector family."""
        return _cell_contract(self._local_coeffs(coeffs), self.cell_grad)

    def eval_field(self, coeffs, ref_pts) -> np.ndarray:
        """Values of a discrete field at reference points in every cell."""
        local = np.asarray(coeffs, dtype=float)[self.cell_dofs]
        return _cell_contract(local, self.tabulate(ref_pts))

    # -- canonical interpolation ----------------------------------------------

    def interpolate(self, func) -> np.ndarray:
        """Canonical interpolation of a smooth vector field.

        `func(x, y)` maps coordinate arrays to stacked components of shape
        (..., 2).  Edge moments use 10-point Gauss, so transcendental fields
        are resolved well below the test tolerances.
        """
        mesh, fam = self.mesh, self.family
        if fam == "p0":
            raise ValueError("use project_qh for the pressure space")
        if fam == "p1cvec":
            vals = func(mesh.vertices[:, 0], mesh.vertices[:, 1])
            dofs = np.zeros(self.ndof)
            dofs[0::2] = vals[..., 0]
            dofs[1::2] = vals[..., 1]
            return dofs
        pts = mesh.edge_points(edge_rule(10)[0])
        fv = func(pts[..., 0], pts[..., 1])
        vn = np.einsum("eqa,ea->eq", fv, mesh.edge_normal, optimize=True)
        return _edge_moments(vn, _EDGE_DOF_COUNT[fam]).ravel()


def interpolate_pi_div(func, mesh: TriMesh, family: str) -> np.ndarray:
    """Canonical H(div) interpolation onto the given family."""
    if family not in HDIV_FAMILIES:
        raise ValueError(f"interpolation target must be one of "
                         f"{HDIV_FAMILIES}, got {family!r}")
    return FESpace(mesh, family).interpolate(func)


def project_qh(func, mesh: TriMesh, zero_mean: bool = False) -> np.ndarray:
    """L2 projection onto cellwise constants (cell means).

    `func(x, y)` is evaluated with a degree-12 rule; fields it stacks on a
    leading axis are projected each.  Pass zero_mean=True to shift a single
    field's result into the mean-zero pressure space.
    """
    rule = triangle_rule(12)
    xy = mesh.cell_points(rule.points)
    fv = np.asarray(func(xy[..., 0], xy[..., 1]), dtype=float)
    means = 2.0 * fv @ rule.weights  # cell mean: (1/|K|) int = 2 sum(w f)
    if zero_mean:
        areas = mesh.signed_areas()
        means = means - np.dot(areas, means) / areas.sum()
    return means
