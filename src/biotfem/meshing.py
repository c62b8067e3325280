"""Structured triangulations of the unit square with oriented edge tables.

Every edge stores the outward unit normal of its first incident cell K1; all
jump/average sign conventions downstream derive from that single choice.  For
an interior edge the normal therefore points from K1 into K2, and the tangent
is the normal rotated by +90 degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

BOUNDARY = -1


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangle mesh with full edge connectivity.

    With q1, q2 the traces from K1 and K2, the jump and average of an
    interior edge are [q] = q1 - q2 and {tau} = (tau1 + tau2)/2 . n; on a
    boundary edge they are one-sided, [q] = q and {tau} = tau . n.

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

    def signed_areas(self) -> np.ndarray:
        """Cell areas, computed once per mesh and shared read-only."""
        return self._areas

    @cached_property
    def _areas(self) -> np.ndarray:
        J = self.jacobians()
        areas = 0.5 * (J[:, 0, 0] * J[:, 1, 1] - J[:, 1, 0] * J[:, 0, 1])
        areas.flags.writeable = False
        return areas

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
    """Derive edge tables from cells; K1 is the cell left of the a->b edge.

    Edges are numbered in the order they first appear along (cell, local
    edge)."""
    nc = cells.shape[0]
    # local edge j runs p -> q counterclockwise; if p < q the sorted
    # direction a->b agrees and the cell lies on its left (side 0)
    p, q = cells.ravel(), np.roll(cells, -1, axis=1).ravel()
    pairs = np.column_stack((np.minimum(p, q), np.maximum(p, q)))
    _, first, inverse = np.unique(pairs[:, 0] * vertices.shape[0]
                                  + pairs[:, 1], return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    edge = rank[inverse.ravel()]
    ev = pairs[first[order]]
    ne = ev.shape[0]

    side = (p > q).astype(int)
    slot = 2 * edge + side
    by_slot = np.argsort(slot, kind="stable")
    repeated = by_slot[1:][slot[by_slot[1:]] == slot[by_slot[:-1]]]
    if repeated.size:
        i = repeated.min()
        raise ValueError(f"edge {tuple(ev[edge[i]].tolist())} has two "
                         f"{('left', 'right')[side[i]]} cells")
    left_right = np.full((ne, 2), BOUNDARY)
    left_right[edge, side] = np.repeat(np.arange(nc), 3)

    d = vertices[ev[:, 1]] - vertices[ev[:, 0]]
    length = np.hypot(d[:, 0], d[:, 1])
    n_right = np.column_stack((d[:, 1], -d[:, 0])) / length[:, None]
    # a boundary edge whose only cell lies to the right of a->b keeps that
    # cell as K1 and flips its normal
    has_left = (left_right[:, 0] != BOUNDARY)[:, None]
    edge_cells = np.where(has_left, left_right,
                          np.column_stack((left_right[:, 1],
                                           np.full(ne, BOUNDARY))))
    normal = np.where(has_left, n_right, -n_right)
    tangent = np.column_stack((-normal[:, 1], normal[:, 0]))

    cell_edges = edge.reshape(nc, 3)
    cell_sign = np.where(edge_cells[cell_edges, 0]
                         == np.arange(nc)[:, None], 1, -1)
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

    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    # two cells per subsquare, row by row
    cells = np.stack((v00, v10, v11, v00, v11, v01), axis=1).reshape(-1, 3)
    return from_arrays(vertices, cells)
