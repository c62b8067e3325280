import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from biotfem.elements import FESpace
from biotfem.meshing import BOUNDARY, from_arrays, structured_mesh


@pytest.mark.parametrize("n,nv,nc,ne,nbd", [
    (1, 4, 2, 5, 4),
    (2, 9, 8, 16, 8),
    (4, 25, 32, 56, 16),
])
def test_structured_counts(n, nv, nc, ne, nbd):
    m = structured_mesh(n)
    assert (m.num_vertices, m.num_cells) == (nv, nc)
    # Euler relation pins the edge count: E = V + C - 1
    assert m.num_edges == m.num_vertices + m.num_cells - 1 == ne
    assert len(m.boundary_edges()) == nbd == 4 * n
    assert m.num_vertices - m.num_edges + m.num_cells == 1


def test_h_max():
    assert structured_mesh(4).h_max == pytest.approx(np.sqrt(2) / 4,
                                                     rel=1e-15)


@pytest.mark.parametrize("kind", ["structured", "perturbed"])
def test_signed_areas_are_computed_once_and_read_only(perturbed_mesh, kind):
    """Every call returns the same read-only array: half the determinant
    of each cell's Jacobian."""
    m = structured_mesh(4) if kind == "structured" else perturbed_mesh[4]
    areas = m.signed_areas()
    assert m.signed_areas() is areas
    assert not areas.flags.writeable
    with pytest.raises(ValueError):
        areas[0] = 1.0
    J = m.jacobians()
    assert np.array_equal(areas, 0.5 * (J[:, 0, 0] * J[:, 1, 1]
                                        - J[:, 1, 0] * J[:, 0, 1]))


def test_cells_counterclockwise_and_incidence():
    m = structured_mesh(3)
    assert np.all(m.signed_areas() > 0)
    counts = np.sum(m.edge_cells != BOUNDARY, axis=1)
    interior = m.interior_edges()
    boundary = m.boundary_edges()
    assert np.all(counts[interior] == 2)
    assert np.all(counts[boundary] == 1)


def test_edge_frames_orthonormal():
    m = structured_mesh(3)
    normal, tangent = m.edge_normal, m.edge_tangent
    assert np.max(np.abs(np.hypot(normal[:, 0], normal[:, 1]) - 1)) <= 1e-14
    assert np.max(np.abs(np.hypot(tangent[:, 0], tangent[:, 1]) - 1)) \
        <= 1e-14
    assert np.max(np.abs(np.einsum("ea,ea->e", normal, tangent))) <= 1e-14
    # tangent is the normal rotated by +90 degrees
    rot = np.stack([-normal[:, 1], normal[:, 0]], axis=-1)
    assert np.max(np.abs(rot - tangent)) <= 1e-15


def test_normal_is_outward_for_first_cell():
    m = structured_mesh(3)
    mid = 0.5 * (m.vertices[m.edge_vertices[:, 0]]
                 + m.vertices[m.edge_vertices[:, 1]])
    cent = m.vertices[m.cells].mean(axis=1)
    d = np.einsum("ea,ea->e", mid - cent[m.edge_cells[:, 0]], m.edge_normal)
    assert d.min() > 0


def test_jump_sign_convention_piecewise_constants():
    m = structured_mesh(2)
    e = m.interior_edges()[0]
    k1, k2 = m.edge_cells[e]
    q = np.zeros(m.num_cells)
    q[k1], q[k2] = 1.0, 3.0
    assert q[k1] - q[k2] == -2.0  # [q] = q|K1 - q|K2


def test_continuous_linear_has_no_jump(rng):
    # traces of a continuous piecewise-linear field agree from both sides
    m = structured_mesh(3)
    sp = FESpace(m, "p1cvec")
    coeffs = rng.standard_normal(sp.ndof)
    snod, _ = leggauss(3)
    worst = 0.0
    for e in m.interior_edges():
        k1, k2 = m.edge_cells[e]
        va, vb = m.vertices[m.edge_vertices[e]]
        pts = 0.5 * (va + vb) + 0.5 * np.outer(snod, vb - va)
        tr = sp.tabulate_at(np.array([k1, k2]), np.stack([pts, pts]))
        v1 = np.einsum("i,iqa->qa", coeffs[sp.cell_dofs[k1]], tr[0])
        v2 = np.einsum("i,iqa->qa", coeffs[sp.cell_dofs[k2]], tr[1])
        worst = max(worst, np.abs(v1 - v2).max())
    assert worst <= 1e-13


def _edge_points(m, e, snod):
    va, vb = m.vertices[m.edge_vertices[e]]
    return 0.5 * (va + vb) + 0.5 * np.outer(snod, vb - va)


def test_trace_identity_hdiv_scalar(rng, perturbed_mesh):
    """Cellwise boundary fluxes equal the edgewise {v}[q] pairing for
    H(div) fields and discontinuous piecewise-linear q, on a structured
    and a perturbed mesh."""
    for m in (structured_mesh(3), perturbed_mesh[4]):
        _check_trace_identity(m, rng)


def _check_trace_identity(m, rng):
    for family in ("rt0", "bdm1"):
        sp = FESpace(m, family)
        cv = rng.standard_normal(sp.ndof)
        qc = rng.standard_normal((m.num_cells, 3))  # cellwise linear coeffs

        def q_on(k, pts):
            return qc[k, 0] + qc[k, 1] * pts[:, 0] + qc[k, 2] * pts[:, 1]

        snod, swts = leggauss(4)
        lhs = 0.0
        for k in range(m.num_cells):
            for j in range(3):
                e = m.cell_edges[k, j]
                sign = m.cell_edge_sign[k, j]
                pts = _edge_points(m, e, snod)
                tr = sp.tabulate_at(np.array([k]), pts[None])[0]
                vn = np.einsum("i,iqa,a->q", cv[sp.cell_dofs[k]], tr,
                               sign * m.edge_normal[e])
                lhs += 0.5 * m.edge_length[e] * np.einsum(
                    "q,q->", swts, vn * q_on(k, pts))
        rhs = 0.0
        for e in range(m.num_edges):
            k1, k2 = m.edge_cells[e]
            pts = _edge_points(m, e, snod)
            tr1 = sp.tabulate_at(np.array([k1]), pts[None])[0]
            v1 = np.einsum("i,iqa->qa", cv[sp.cell_dofs[k1]], tr1)
            if k2 == BOUNDARY:
                avg = v1 @ m.edge_normal[e]
                jump = q_on(k1, pts)
            else:
                tr2 = sp.tabulate_at(np.array([k2]), pts[None])[0]
                v2 = np.einsum("i,iqa->qa", cv[sp.cell_dofs[k2]], tr2)
                avg = 0.5 * (v1 + v2) @ m.edge_normal[e]
                jump = q_on(k1, pts) - q_on(k2, pts)
            rhs += 0.5 * m.edge_length[e] * np.einsum("q,q->", swts,
                                                      avg * jump)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_trace_identity_tensor_vector(rng):
    """Continuous tensor against discontinuous piecewise-linear vectors."""
    m = structured_mesh(3)

    def tau(x, y):
        return np.stack([
            np.stack([x + 2 * y, x * y], axis=-1),
            np.stack([x - y, 2 * x + y * y], axis=-1),
        ], axis=-2)

    vc = rng.standard_normal((m.num_cells, 2, 3))

    def v_on(k, pts):
        basis = np.stack([np.ones(len(pts)), pts[:, 0], pts[:, 1]], axis=-1)
        return np.einsum("ac,qc->qa", vc[k], basis)

    snod, swts = leggauss(6)
    lhs = 0.0
    for k in range(m.num_cells):
        for j in range(3):
            e = m.cell_edges[k, j]
            sign = m.cell_edge_sign[k, j]
            pts = _edge_points(m, e, snod)
            tn = np.einsum("qab,b->qa", tau(pts[:, 0], pts[:, 1]),
                           sign * m.edge_normal[e])
            lhs += 0.5 * m.edge_length[e] * np.einsum(
                "q,qa,qa->", swts, tn, v_on(k, pts))
    rhs = 0.0
    for e in range(m.num_edges):
        k1, k2 = m.edge_cells[e]
        pts = _edge_points(m, e, snod)
        tn = np.einsum("qab,b->qa", tau(pts[:, 0], pts[:, 1]),
                       m.edge_normal[e])
        if k2 == BOUNDARY:
            jump = v_on(k1, pts)
        else:
            jump = v_on(k1, pts) - v_on(k2, pts)
        rhs += 0.5 * m.edge_length[e] * np.einsum("q,qa,qa->", swts, tn,
                                                  jump)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_symmetric_jump_contraction(rng):
    """[[w_t]] : [[w_t]] = (1/2) [w_t].[w_t] pointwise for tangential
    fields."""
    m = structured_mesh(2)
    for e in range(m.num_edges):
        n = m.edge_normal[e]
        t = m.edge_tangent[e]
        for _ in range(3):
            w1 = rng.standard_normal() * t
            w2 = rng.standard_normal() * t
            jump = w1 - w2
            # [[w]] = w1 (x) n1 + w2 (x) n2 with n2 = -n, symmetrized
            sym = 0.5 * (np.outer(w1, n) + np.outer(n, w1)) \
                + 0.5 * (np.outer(w2, -n) + np.outer(-n, w2))
            assert np.sum(sym * sym) == pytest.approx(
                0.5 * jump @ jump, abs=1e-13)


def test_from_arrays_rejects_clockwise():
    verts = [[0, 0], [1, 0], [0, 1]]
    with pytest.raises(ValueError, match="counterclockwise"):
        from_arrays(verts, [[0, 2, 1]])


def _edges_by_loop(vertices, cells):
    """Edge tables by a scan over (cell, local edge); the oracle for the
    array construction in meshing."""
    index, ev, left, right = {}, [], [], []
    for k, tri in enumerate(cells.tolist()):
        for p, q in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(p, q), max(p, q))
            if key not in index:
                index[key] = len(ev)
                ev.append(key)
                left.append(BOUNDARY)
                right.append(BOUNDARY)
            (left if p < q else right)[index[key]] = k
    ev = np.asarray(ev, dtype=int)
    d = vertices[ev[:, 1]] - vertices[ev[:, 0]]
    length = np.hypot(d[:, 0], d[:, 1])
    n_right = np.column_stack((d[:, 1], -d[:, 0])) / length[:, None]
    edge_cells = np.empty((len(ev), 2), dtype=int)
    normal = np.empty((len(ev), 2))
    for e in range(len(ev)):
        if left[e] != BOUNDARY:
            edge_cells[e], normal[e] = (left[e], right[e]), n_right[e]
        else:
            edge_cells[e], normal[e] = (right[e], BOUNDARY), -n_right[e]
    cell_edges = np.empty(cells.shape, dtype=int)
    cell_sign = np.empty(cells.shape, dtype=int)
    for k, tri in enumerate(cells.tolist()):
        for j, (p, q) in enumerate(((tri[0], tri[1]), (tri[1], tri[2]),
                                    (tri[2], tri[0]))):
            e = index[(min(p, q), max(p, q))]
            cell_edges[k, j] = e
            cell_sign[k, j] = 1 if edge_cells[e, 0] == k else -1
    tangent = np.column_stack((-normal[:, 1], normal[:, 0]))
    return dict(edge_vertices=ev, edge_cells=edge_cells, edge_normal=normal,
                edge_tangent=tangent, edge_length=length,
                cell_edges=cell_edges, cell_edge_sign=cell_sign)


@pytest.mark.parametrize("kind,n", [("structured", n)
                                    for n in (1, 2, 3, 5, 8, 16)]
                         + [("perturbed", 4), ("perturbed", 8)])
def test_edge_tables_match_loop_oracle(perturbed_mesh, kind, n):
    m = structured_mesh(n) if kind == "structured" else perturbed_mesh[n]
    for name, want in _edges_by_loop(m.vertices, m.cells).items():
        got = getattr(m, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    if kind == "structured":
        # two counterclockwise cells per subsquare, row by row
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        v00 = (j * (n + 1) + i).ravel()
        v11 = v00 + n + 2
        assert np.array_equal(m.cells[0::2], np.column_stack(
            (v00, v00 + 1, v11)))
        assert np.array_equal(m.cells[1::2], np.column_stack(
            (v00, v11, v00 + n + 1)))


def test_repeated_cell_rejected():
    verts = [[0, 0], [1, 0], [0, 1], [0.5, -1], [0.7, -0.5]]
    with pytest.raises(ValueError, match=r"edge \(0, 1\) has two left"):
        from_arrays(verts, [[0, 1, 2], [0, 1, 2]])
    with pytest.raises(ValueError, match=r"edge \(0, 1\) has two right"):
        from_arrays(verts, [[0, 1, 2], [1, 0, 3], [1, 0, 4]])


def test_single_triangle_mesh():
    m = from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    assert m.num_cells == 1 and m.num_edges == 3
    assert len(m.boundary_edges()) == 3
    assert m.h_cell[0] == pytest.approx(np.sqrt(2), rel=1e-14)


def test_dump_roundtrip_counts():
    m = structured_mesh(2)
    text = m.dump()
    lines = text.splitlines()
    assert lines[0] == f"# vertices {m.num_vertices}"
    assert f"# cells {m.num_cells}" in lines
    assert f"# edges {m.num_edges}" in lines
    assert len(lines) == 3 + m.num_vertices + m.num_cells + m.num_edges
