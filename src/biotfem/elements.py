"""Reference bases, quadrature, Piola transforms and interpolation operators.

Vector families are H(div)-style: degrees of freedom are normal-component
moments on edges (plus interior moments for the enriched Raviart-Thomas
space), taken with a global edge orientation (lower vertex index to higher).
Physical bases are built cell by cell by inverting the small matrix of dof
functionals applied to the Piola-mapped polynomial generators, which makes
normal-trace conformity exact regardless of how cells are oriented.

Families (2D triangles):

==========  ====================================  ====
name        local space                           dofs
==========  ====================================  ====
``bdm1``    full linear vectors                   6
``rt0``     lowest-order Raviart-Thomas           3
``rt1``     linear vectors + x * (linear scalar)  8
``p1cvec``  continuous linear vectors (nodal)     6
``p0``      cellwise constants                    1
==========  ====================================  ====
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .meshing import BOUNDARY, TriMesh, from_arrays

VECTOR_FAMILIES = ("bdm1", "rt0", "rt1", "p1cvec")
HDIV_FAMILIES = ("bdm1", "rt0", "rt1")

_EDGE_DOF_COUNT = {"bdm1": 2, "rt0": 1, "rt1": 2}
_CELL_DOF_COUNT = {"bdm1": 0, "rt0": 0, "rt1": 2}

# reference triangle (0,0)-(1,0)-(0,1)
_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


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


def _conical(degree: int) -> QuadRule:
    # collapsed Gauss-Legendre x Gauss-Jacobi(1,0) product rule
    m = (degree + 2) // 2
    xg, wg = leggauss(m)
    xj, wj = roots_jacobi(m, 1.0, 0.0)
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
    """Quadrature exact for polynomials up to `degree`."""
    if degree <= 4:
        return _dunavant4()
    return _conical(degree)


@lru_cache(maxsize=None)
def edge_rule(npts: int = 4):
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    return leggauss(npts)


# ---------------------------------------------------------------------------
# reference polynomial generators
# ---------------------------------------------------------------------------

def _gen_eval(family, pts):
    """Raw generator values, shape (ngen, nq, 2) (or (ngen, nq) for p0)."""
    x, y = pts[:, 0], pts[:, 1]
    o, z = np.ones_like(x), np.zeros_like(x)
    if family == "p0":
        return o[None, :]
    if family == "p1cvec":
        lam = (1.0 - x - y, x, y)
        out = np.zeros((6, len(x), 2))
        for v in range(3):
            out[2 * v, :, 0] = lam[v]
            out[2 * v + 1, :, 1] = lam[v]
        return out
    comps = {
        "bdm1": [(o, z), (x, z), (y, z), (z, o), (z, x), (z, y)],
        "rt0": [(o, z), (z, o), (x, y)],
        "rt1": [(o, z), (x, z), (y, z), (z, o), (z, x), (z, y),
                (x * x, x * y), (x * y, y * y)],
    }[family]
    return np.stack([np.stack(c, axis=-1) for c in comps])


def _gen_div(family, pts):
    x, y = pts[:, 0], pts[:, 1]
    o, z = np.ones_like(x), np.zeros_like(x)
    rows = {
        "bdm1": [z, o, z, z, z, o],
        "rt0": [z, z, 2 * o],
        "rt1": [z, o, z, z, z, o, 3 * x, 3 * y],
        "p1cvec": [-o, -o, o, z, z, o],
    }[family]
    return np.stack(rows)


def _gen_grad(family, pts):
    """d(gen_i)_a / d(x)_b, shape (ngen, nq, 2, 2)."""
    x, y = pts[:, 0], pts[:, 1]
    o, z = np.ones_like(x), np.zeros_like(x)

    def m(a11, a12, a21, a22):
        return np.stack([np.stack([a11, a12], -1),
                         np.stack([a21, a22], -1)], -2)

    rows = {
        "bdm1": [m(z, z, z, z), m(o, z, z, z), m(z, o, z, z),
                 m(z, z, z, z), m(z, z, o, z), m(z, z, z, o)],
        "rt0": [m(z, z, z, z), m(z, z, z, z), m(o, z, z, o)],
        "rt1": [m(z, z, z, z), m(o, z, z, z), m(z, o, z, z),
                m(z, z, z, z), m(z, z, o, z), m(z, z, z, o),
                m(2 * x, z, y, x), m(y, x, z, 2 * y)],
        "p1cvec": [m(-o, -o, z, z), m(z, z, -o, -o), m(o, z, z, z),
                   m(z, z, o, z), m(z, o, z, z), m(z, z, z, o)],
    }[family]
    return np.stack(rows)


def _gen_hess(family, pts):
    """Second derivatives, shape (ngen, nq, 2, 2, 2); zero except for rt1."""
    ngen = _gen_eval(family, pts).shape[0]
    out = np.zeros((ngen, len(pts), 2, 2, 2))
    if family == "rt1":
        # (x^2, xy): first comp hess [[2,0],[0,0]], second [[0,1],[1,0]]
        out[6, :, 0, 0, 0] = 2.0
        out[6, :, 1, 0, 1] = 1.0
        out[6, :, 1, 1, 0] = 1.0
        # (xy, y^2)
        out[7, :, 0, 0, 1] = 1.0
        out[7, :, 0, 1, 0] = 1.0
        out[7, :, 1, 1, 1] = 2.0
    return out


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
    Jinv = np.linalg.inv(J)
    detJ = 2.0 * mesh.signed_areas()
    x0 = mesh.vertices[mesh.cells[:, 0]]
    snodes, _ = edge_rule(10)
    edges = mesh.cell_edges
    pts = mesh.edge_points(snodes)[edges]  # (nc, 3, nq, 2)
    ref = np.einsum("kab,kjqb->kjqa", Jinv, pts - x0[:, None, None, :])
    gv = _gen_eval(family, ref.reshape(-1, 2))
    gv = gv.reshape(gv.shape[:1] + ref.shape)  # (ngen, nc, 3, nq, 2)
    vals = np.einsum("kab,gkjqb->kjgqa", J, gv) / detJ[:, None, None, None,
                                                       None]
    vn = np.einsum("kjgqa,kja->kjgq", vals, mesh.edge_normal[edges])
    mom = _edge_moments(vn, _EDGE_DOF_COUNT[family])  # (nc, 3, ngen, nmom)
    rows = np.swapaxes(mom, 2, 3).reshape(len(J), -1, gv.shape[0])
    if _CELL_DOF_COUNT[family]:
        rule = triangle_rule(4)
        vals = np.einsum("kab,gqb->kgqa", J, _gen_eval(
            family, rule.points)) / detJ[:, None, None, None]
        cell_rows = 2.0 * np.einsum("kgqc,q->kcg", vals, rule.weights)
        rows = np.concatenate((rows, cell_rows), axis=1)
    return rows


class RefBasis:
    """Nodal reference basis of one family.

    eval/div_eval/grad_eval/hess_eval return arrays over (basis, point, ...);
    the dof functionals applied to the basis give the identity matrix.
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
        ref_cell = from_arrays(_REF_VERTS, [[0, 1, 2]])
        return _dof_matrices(self.family, ref_cell)[0]

    def eval(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.einsum("gi,gq...->iq...", self._coeff,
                         _gen_eval(self.family, pts))

    def div_eval(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.einsum("gi,gq->iq", self._coeff,
                         _gen_div(self.family, pts))

    def grad_eval(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.einsum("gi,gqab->iqab", self._coeff,
                         _gen_grad(self.family, pts))

    def hess_eval(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.einsum("gi,gqabc->iqabc", self._coeff,
                         _gen_hess(self.family, pts))


@lru_cache(maxsize=None)
def ref_basis(family: str) -> RefBasis:
    return RefBasis(family)


# ---------------------------------------------------------------------------
# Piola transform
# ---------------------------------------------------------------------------

def piola_map(cell_vertices, ref_values, ref_divs):
    """Contravariant Piola map of reference values/divergences to one cell.

    v = J v_ref / det J and div v = div_ref / det J for the affine map with
    Jacobian J = [x1 - x0, x2 - x0].
    """
    verts = np.asarray(cell_vertices, dtype=float)
    J = np.column_stack((verts[1] - verts[0], verts[2] - verts[0]))
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    h2 = max(np.sum((verts[i] - verts[j]) ** 2)
             for i, j in ((0, 1), (1, 2), (2, 0)))
    if abs(det) <= 1e-14 * h2:
        raise DegenerateCell(f"cell map has det J = {det}")
    vals = np.einsum("ab,...b->...a", J, np.asarray(ref_values)) / det
    divs = np.asarray(ref_divs) / det
    return vals, divs


# ---------------------------------------------------------------------------
# global finite element space
# ---------------------------------------------------------------------------

class FESpace:
    """Global dof layout plus per-cell physical basis coefficients."""

    def __init__(self, mesh: TriMesh, family: str):
        self.mesh = mesh
        self.family = family
        self.ref = ref_basis(family)
        self._tab_cache: dict = {}

        self.J = mesh.jacobians()
        self.detJ = (self.J[:, 0, 0] * self.J[:, 1, 1]
                     - self.J[:, 0, 1] * self.J[:, 1, 0])
        if np.any(self.detJ <= 0):
            raise DegenerateCell("mesh contains a degenerate or flipped cell")
        self.Jinv = np.linalg.inv(self.J)
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
            constrained = set()
            for e in mesh.boundary_edges():
                n = mesh.edge_normal[e]
                axis = int(np.argmax(np.abs(n)))
                if abs(abs(n[axis]) - 1.0) > 1e-12:
                    raise ValueError(
                        "p1cvec normal-trace constraints require axis-"
                        "aligned boundary edges")
                for v in mesh.edge_vertices[e]:
                    constrained.add(2 * int(v) + axis)
            self.boundary_dofs = np.array(sorted(constrained), dtype=int)
        else:
            nde = _EDGE_DOF_COUNT[fam]
            ndc = _CELL_DOF_COUNT[fam]
            self.ndof = nde * ne + ndc * nc
            cd = np.empty((nc, 3 * nde + ndc), dtype=int)
            for j in range(3):
                eidx = mesh.cell_edges[:, j]
                for m in range(nde):
                    cd[:, nde * j + m] = nde * eidx + m
            for m in range(ndc):
                cd[:, 3 * nde + m] = nde * ne + ndc * np.arange(nc) + m
            self.cell_dofs = cd
            bd = []
            for e in mesh.boundary_edges():
                bd.extend(range(nde * e, nde * e + nde))
            self.boundary_dofs = np.array(sorted(bd), dtype=int)
        self.free_dofs = np.setdiff1d(np.arange(self.ndof),
                                      self.boundary_dofs)

    # -- physical nodal coefficients ----------------------------------------

    def _build_cell_coeff(self):
        nloc = self.ref.dofs_per_cell
        if self.family in ("p0", "p1cvec"):
            self.coeff = np.broadcast_to(np.eye(nloc),
                                         (self.mesh.num_cells, nloc, nloc))
            return
        self.coeff = np.linalg.inv(_dof_matrices(self.family, self.mesh))

    # -- tabulation ----------------------------------------------------------

    def tabulate(self, ref_pts, what=("val", "div")):
        """Physical basis data at the same reference points in every cell.

        Returns a dict with requested arrays:
        val (nc, nloc, nq, 2), div (nc, nloc, nq), grad (nc, nloc, nq, 2, 2),
        hess (nc, nloc, nq, 2, 2, 2).  Scalar families return val without the
        trailing component axis.
        """
        ref_pts = np.atleast_2d(np.asarray(ref_pts, dtype=float))
        key = (ref_pts.tobytes(), tuple(sorted(what)))
        if key in self._tab_cache:
            return self._tab_cache[key]
        out = self._tabulate_for(slice(None), ref_pts[None], what)
        self._tab_cache[key] = out
        return out

    def tabulate_at(self, cells, phys_pts, what=("val",)):
        """Physical basis data of selected cells at given physical points.

        phys_pts has shape (len(cells), nq, 2); points must lie inside the
        respective cells (used for edge traces).
        """
        cells = np.asarray(cells, dtype=int)
        ref = np.einsum("kab,kqb->kqa", self.Jinv[cells],
                        phys_pts - self.x0[cells][:, None, :])
        return self._tabulate_for(cells, ref, what)

    def edge_traces(self, edges, pts, what=("val",)):
        """Basis traces from both sides of the given edges.

        pts (len(edges), nq, 2) are physical points on the edges.  Returns
        (cells, tab): cells (2, len(edges)) holds (K1, K2) per edge, with K2
        replaced by K1 on boundary edges (callers give that side zero
        weight), and each tab array has shape (2, len(edges), nloc, nq, ...).
        """
        k1, k2 = self.mesh.edge_cells[edges].T
        cells = np.stack((k1, np.where(k2 == BOUNDARY, k1, k2)))
        tab = self.tabulate_at(cells.ravel(), np.concatenate((pts, pts)),
                               what)
        return cells, {name: arr.reshape(cells.shape + arr.shape[1:])
                       for name, arr in tab.items()}

    def _tabulate_for(self, cells, ref_pts, what):
        """Basis data of `cells` at reference points ref_pts (m, nq, 2),
        where m is len(cells) or 1 for points shared by every cell."""
        fam = self.family
        C = self.coeff[cells]
        J, det, Jinv = self.J[cells], self.detJ[cells], self.Jinv[cells]
        out = {}

        def gen(fn):
            # generators on the flattened points, then (cell, gen, point, ...)
            arr = fn(fam, ref_pts.reshape(-1, 2))
            arr = arr.reshape(arr.shape[:1] + ref_pts.shape[:2]
                              + arr.shape[2:])
            return np.broadcast_to(np.moveaxis(arr, 1, 0),
                                   (len(C),) + arr.shape[:1] + arr.shape[2:])

        if fam == "p0":
            if "val" in what:
                out["val"] = np.einsum("kgi,kgq->kiq", C, gen(_gen_eval))
            return out

        if "val" in what:
            gv = gen(_gen_eval)
            if fam == "p1cvec":
                pv = gv
            else:
                pv = np.einsum("kab,kgqb->kgqa", J, gv) / det[:, None, None,
                                                               None]
            out["val"] = np.einsum("kgi,kgqa->kiqa", C, pv)
        if "div" in what:
            if fam == "p1cvec":
                # divergence transforms through the chain rule: tr(G Jinv)
                gg = gen(_gen_grad)
                pd = np.einsum("kgqab,kba->kgq", gg, Jinv)
            else:
                pd = gen(_gen_div) / det[:, None, None]
            out["div"] = np.einsum("kgi,kgq->kiq", C, pd)
        if "grad" in what:
            gg = gen(_gen_grad)
            if fam == "p1cvec":
                pg = np.einsum("kgqac,kcb->kgqab", gg, Jinv)
            else:
                pg = np.einsum("kad,kgqdc,kcb->kgqab", J, gg,
                               Jinv) / det[:, None, None, None, None]
            out["grad"] = np.einsum("kgi,kgqab->kiqab", C, pg)
        if "hess" in what:
            gh = gen(_gen_hess)
            if fam == "p1cvec":
                ph = np.zeros_like(gh)
            else:
                ph = np.einsum("kad,kgqdce,kcb,kef->kgqabf", J, gh, Jinv,
                               Jinv) / det[:, None, None, None, None, None]
            out["hess"] = np.einsum("kgi,kgqabc->kiqabc", C, ph)
        return out

    # -- discrete field helpers ----------------------------------------------

    def cell_divergence(self, coeffs) -> np.ndarray:
        """Cell-mean divergence of a discrete field (exact for all families,
        since every divergence here is at most linear per cell)."""
        coeffs = np.asarray(coeffs, dtype=float)
        centroid = np.array([[1.0 / 3.0, 1.0 / 3.0]])
        tab = self.tabulate(centroid, what=("div",))
        local = coeffs[self.cell_dofs]
        return np.einsum("ki,kiq->k", local, tab["div"])

    def eval_field(self, coeffs, ref_pts, what=("val",)):
        """Evaluate a discrete field at reference points in every cell."""
        coeffs = np.asarray(coeffs, dtype=float)
        tab = self.tabulate(np.atleast_2d(ref_pts), what=what)
        local = coeffs[self.cell_dofs]
        out = {}
        for name, arr in tab.items():
            out[name] = np.einsum("ki,kiq...->kq...", local, arr)
        return out

    # -- canonical interpolation ----------------------------------------------

    def interpolate(self, func) -> np.ndarray:
        """Canonical interpolation of a smooth vector field.

        `func(x, y)` maps coordinate arrays to stacked components of shape
        (..., 2).  Edge moments use 10-point Gauss, interior moments a
        degree-12 rule, so transcendental fields are resolved well below the
        test tolerances.
        """
        mesh, fam = self.mesh, self.family
        if fam == "p0":
            raise ValueError("use project_qh for the pressure space")
        dofs = np.zeros(self.ndof)
        if fam == "p1cvec":
            vals = func(mesh.vertices[:, 0], mesh.vertices[:, 1])
            dofs[0::2] = vals[..., 0]
            dofs[1::2] = vals[..., 1]
            return dofs
        nde = _EDGE_DOF_COUNT[fam]
        pts = mesh.edge_points(edge_rule(10)[0])
        fv = func(pts[..., 0], pts[..., 1])
        vn = np.einsum("eqa,ea->eq", fv, mesh.edge_normal)
        base = nde * mesh.num_edges
        dofs[:base] = _edge_moments(vn, nde).ravel()
        if _CELL_DOF_COUNT[fam]:
            rule = triangle_rule(12)
            xy = mesh.cell_points(rule.points)
            fv = func(xy[..., 0], xy[..., 1])
            cidx = base + 2 * np.arange(mesh.num_cells)
            for comp in range(2):
                dofs[cidx + comp] = 2.0 * fv[..., comp] @ rule.weights
        return dofs


def interpolate_pi_div(func, mesh: TriMesh, family: str) -> np.ndarray:
    """Canonical H(div) interpolation onto the given family."""
    if family not in HDIV_FAMILIES:
        raise ValueError(f"interpolation target must be one of "
                         f"{HDIV_FAMILIES}, got {family!r}")
    return FESpace(mesh, family).interpolate(func)


def project_qh(func, mesh: TriMesh, zero_mean: bool = False) -> np.ndarray:
    """L2 projection onto cellwise constants (cell means).

    `func(x, y)` is evaluated with a degree-12 rule; pass zero_mean=True to
    shift the result into the mean-zero pressure space.
    """
    rule = triangle_rule(12)
    xy = mesh.cell_points(rule.points)
    fv = np.asarray(func(xy[..., 0], xy[..., 1]), dtype=float)
    means = 2.0 * fv @ rule.weights  # cell mean: (1/|K|) int = 2 sum(w f)
    if zero_mean:
        areas = mesh.signed_areas()
        means = means - np.dot(areas, means) / areas.sum()
    return means
