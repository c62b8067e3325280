"""Structured triangulations of the unit square with oriented edge tables.

Every edge stores the outward unit normal of its first incident cell K1; all
jump/average sign conventions downstream derive from that single choice.  For
an interior edge the normal therefore points from K1 into K2, and the tangent
is the normal rotated by +90 degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOUNDARY = -1


@dataclass(frozen=True)
class EdgeFrames:
    """Per-edge evaluation frames for jumps and averages.

    With q1, q2 the traces from K1 and K2, the conventions are
    [q] = q1 - q2 and {tau} = (tau1 + tau2)/2 . n on interior edges, and
    the one-sided definitions [q] = q, {tau} = tau . n on boundary edges.
    """

    cell1: np.ndarray
    cell2: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray
    length: np.ndarray

    def is_boundary(self) -> np.ndarray:
        return self.cell2 == BOUNDARY


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangle mesh with full edge connectivity.

    vertices : (nv, 2) float
    cells : (nc, 3) int, counterclockwise
    edge_vertices : (ne, 2) int, endpoint indices, lower index first
    edge_cells : (ne, 2) int, (K1, K2) with K2 = BOUNDARY on the boundary
    edge_normal, edge_tangent : (ne, 2) float unit vectors
    edge_length : (ne,) float
    cell_edges : (nc, 3) int, edge index per local edge (01, 12, 20)
    cell_edge_sign : (nc, 3) int, +1 where the stored edge normal is outward
    h_cell : (nc,) float circumdiameters
    """

    vertices: np.ndarray
    cells: np.ndarray
    edge_vertices: np.ndarray
    edge_cells: np.ndarray
    edge_normal: np.ndarray
    edge_tangent: np.ndarray
    edge_length: np.ndarray
    cell_edges: np.ndarray
    cell_edge_sign: np.ndarray
    h_cell: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_vertices.shape[0]

    @property
    def h_max(self) -> float:
        return float(self.h_cell.max())

    def boundary_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_cells[:, 1] == BOUNDARY)

    def interior_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_cells[:, 1] != BOUNDARY)

    def cell_vertices(self, k: int) -> np.ndarray:
        return self.vertices[self.cells[k]]

    def signed_areas(self) -> np.ndarray:
        J = self.jacobians()
        return 0.5 * (J[:, 0, 0] * J[:, 1, 1] - J[:, 1, 0] * J[:, 0, 1])

    def jacobians(self) -> np.ndarray:
        """Affine cell-map Jacobians J = [x1 - x0, x2 - x0], (nc, 2, 2)."""
        p = self.vertices[self.cells]
        return np.stack((p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=-1)

    def cell_points(self, ref_pts) -> np.ndarray:
        """Images x0 + J xi of reference points xi in every cell,
        (nc, nq, 2)."""
        x0 = self.vertices[self.cells[:, 0]]
        return (np.einsum("kab,qb->kqa", self.jacobians(), ref_pts,
                          optimize=True)
                + x0[:, None, :])

    def edge_points(self, s) -> np.ndarray:
        """Points at nodes s in [-1, 1] on every edge, running from the lower
        vertex index to the higher, (ne, ns, 2)."""
        xa, xb = np.swapaxes(self.vertices[self.edge_vertices], 0, 1)
        return (0.5 * (xa + xb)[:, None, :]
                + 0.5 * np.asarray(s)[None, :, None] * (xb - xa)[:, None, :])

    def dump(self) -> str:
        """Plain-text node/element/edge listing (debugging aid)."""

        def g17(x):
            return format(float(x), ".17g")

        lines = [f"# vertices {self.num_vertices}"]
        for i, (x, y) in enumerate(self.vertices):
            lines.append(f"{i} {g17(x)} {g17(y)}")
        lines.append(f"# cells {self.num_cells}")
        for k, (a, b, c) in enumerate(self.cells):
            lines.append(f"{k} {a} {b} {c}")
        lines.append(f"# edges {self.num_edges}")
        for e in range(self.num_edges):
            a, b = self.edge_vertices[e]
            k1, k2 = self.edge_cells[e]
            nx, ny = self.edge_normal[e]
            lines.append(f"{e} {a} {b} {k1} {k2} {g17(nx)} {g17(ny)} "
                         f"{g17(self.edge_length[e])}")
        return "\n".join(lines) + "\n"


def _build_edges(vertices: np.ndarray, cells: np.ndarray):
    """Derive edge tables from cells; K1 is the cell left of the a->b edge."""
    nc = cells.shape[0]
    index: dict[tuple[int, int], int] = {}
    ev, left, right = [], [], []
    for k in range(nc):
        tri = cells[k]
        for p, q in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(p, q), max(p, q))
            e = index.get(key)
            if e is None:
                e = len(ev)
                index[key] = e
                ev.append(key)
                left.append(BOUNDARY)
                right.append(BOUNDARY)
            # the cell traverses p->q counterclockwise; if p < q the sorted
            # direction a->b agrees and the cell lies on its left
            if p < q:
                if left[e] != BOUNDARY:
                    raise ValueError(f"edge {key} has two left cells")
                left[e] = k
            else:
                if right[e] != BOUNDARY:
                    raise ValueError(f"edge {key} has two right cells")
                right[e] = k

    ne = len(ev)
    ev = np.asarray(ev, dtype=int)
    d = vertices[ev[:, 1]] - vertices[ev[:, 0]]
    length = np.hypot(d[:, 0], d[:, 1])
    n_right = np.column_stack((d[:, 1], -d[:, 0])) / length[:, None]

    edge_cells = np.empty((ne, 2), dtype=int)
    normal = np.empty((ne, 2))
    for e in range(ne):
        if left[e] != BOUNDARY:
            edge_cells[e] = (left[e], right[e])
            normal[e] = n_right[e]
        else:
            # boundary edge whose only cell lies to the right of a->b
            edge_cells[e] = (right[e], BOUNDARY)
            normal[e] = -n_right[e]
    tangent = np.column_stack((-normal[:, 1], normal[:, 0]))

    cell_edges = np.empty((nc, 3), dtype=int)
    cell_sign = np.empty((nc, 3), dtype=int)
    for k in range(nc):
        tri = cells[k]
        for j, (p, q) in enumerate(((tri[0], tri[1]), (tri[1], tri[2]),
                                    (tri[2], tri[0]))):
            e = index[(min(p, q), max(p, q))]
            cell_edges[k, j] = e
            cell_sign[k, j] = 1 if edge_cells[e, 0] == k else -1
    return ev, edge_cells, normal, tangent, length, cell_edges, cell_sign


def from_arrays(vertices, cells) -> TriMesh:
    """Build a TriMesh from raw vertex/cell arrays (cells counterclockwise)."""
    vertices = np.asarray(vertices, dtype=float)
    cells = np.asarray(cells, dtype=int)
    p = vertices[cells]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(area2 <= 0):
        bad = int(np.argmax(area2 <= 0))
        raise ValueError(f"cell {bad} is not counterclockwise (2A={area2[bad]})")

    ev, ec, nrm, tng, ln, ce, cs = _build_edges(vertices, cells)
    # circumdiameter = product of edge lengths / (2 * area)
    el = ln[ce]
    h_cell = el[:, 0] * el[:, 1] * el[:, 2] / area2
    return TriMesh(vertices, cells, ev, ec, nrm, tng, ln, ce, cs, h_cell)


def structured_mesh(n: int) -> TriMesh:
    """Uniform n-by-n triangulation of the unit square.

    Each subsquare is split along its lower-left to upper-right diagonal,
    giving 2*n^2 congruent right triangles and h_max = sqrt(2)/n.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack((xg.ravel(), yg.ravel()))

    def vid(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    return from_arrays(vertices, np.asarray(cells))


def jump_average_frames(mesh: TriMesh) -> EdgeFrames:
    """Per-edge (K1, K2, n, t) frames fixing all jump/average signs."""
    return EdgeFrames(
        cell1=mesh.edge_cells[:, 0].copy(),
        cell2=mesh.edge_cells[:, 1].copy(),
        normal=mesh.edge_normal.copy(),
        tangent=mesh.edge_tangent.copy(),
        length=mesh.edge_length.copy(),
    )
