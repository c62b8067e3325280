from math import factorial

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from biotfem.elements import (DegenerateCell, FESpace, edge_rule,
                              interpolate_pi_div, piola_map, project_qh,
                              ref_basis, triangle_rule)
from biotfem.meshing import from_arrays, structured_mesh


def exact_triangle_monomial(a, b):
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", [4, 8, 12])
def test_triangle_rule_exactness(degree):
    rule = triangle_rule(degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = np.sum(rule.weights * rule.points[:, 0]**a
                         * rule.points[:, 1]**b)
            assert got == pytest.approx(exact_triangle_monomial(a, b),
                                        abs=2e-15)


def test_edge_rule_exactness():
    snod, swts = edge_rule(4)
    for k in range(8):  # 4-point Gauss is exact through degree 7
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert np.sum(swts * snod**k) == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("family,ndofs", [
    ("bdm1", 6), ("rt0", 3), ("rt1", 8), ("p1cvec", 6), ("p0", 1),
])
def test_dof_counts(family, ndofs):
    assert ref_basis(family).dofs_per_cell == ndofs


@pytest.mark.parametrize("family", ["bdm1", "rt0", "rt1"])
def test_reference_kronecker(family):
    rb = ref_basis(family)
    M = rb._ref_dof_matrix() @ rb._coeff
    assert np.abs(M - np.eye(rb.dofs_per_cell)).max() <= 1e-12


def test_piola_identity_map():
    rb = ref_basis("bdm1")
    pts = triangle_rule(4).points
    vals = rb.eval(pts)
    divs = rb.div_eval(pts)
    out_v, out_d = piola_map([[0, 0], [1, 0], [0, 1]], vals, divs)
    assert np.abs(out_v - vals).max() <= 1e-15
    assert np.abs(out_d - divs).max() <= 1e-15


def test_piola_uniform_scaling():
    rb = ref_basis("rt0")
    pts = triangle_rule(4).points
    divs = rb.div_eval(pts)
    _, out_d = piola_map([[0, 0], [2, 0], [0, 2]], rb.eval(pts), divs)
    assert np.abs(out_d - divs / 4.0).max() <= 1e-15  # det J = 4


def test_piola_degenerate_cell():
    rb = ref_basis("rt0")
    pts = triangle_rule(4).points
    with pytest.raises(DegenerateCell):
        piola_map([[0, 0], [1, 0], [2, 0]], rb.eval(pts), rb.div_eval(pts))


def test_rt0_edge_flux_equals_dof(rng, perturbed_mesh):
    """On a random affine cell, and on every cell of a perturbed mesh, each
    basis function carries unit mean normal flux on its own edge and zero on
    the others (1D quadrature oracle)."""
    verts = np.array([[0.1, -0.2], [1.3, 0.15], [0.4, 1.1]])
    snod, swts = leggauss(6)
    for mesh in (from_arrays(verts, [[0, 1, 2]]), perturbed_mesh[4]):
        sp = FESpace(mesh, "rt0")
        for k in range(mesh.num_cells):
            for j in range(3):
                e = mesh.cell_edges[k, j]
                a, b = mesh.edge_vertices[e]
                xa, xb = mesh.vertices[a], mesh.vertices[b]
                pts = 0.5 * (xa + xb) + 0.5 * np.outer(snod, xb - xa)
                tr = sp.tabulate_at(np.array([k]), pts[None],
                                    what=("val",))["val"][0]
                for i in range(3):
                    mean_flux = 0.5 * np.einsum("q,qa,a->", swts, tr[i],
                                                mesh.edge_normal[e])
                    expected = 1.0 if sp.cell_dofs[k, i] == e else 0.0
                    assert mean_flux == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("family", ["bdm1", "rt0", "rt1"])
def test_normal_trace_continuity(family, rng, perturbed_mesh):
    snod, _ = leggauss(5)
    for mesh in (structured_mesh(3), perturbed_mesh[4]):
        sp = FESpace(mesh, family)
        coeffs = rng.standard_normal(sp.ndof)
        worst = 0.0
        for e in mesh.interior_edges():
            k1, k2 = mesh.edge_cells[e]
            xa, xb = mesh.vertices[mesh.edge_vertices[e]]
            pts = 0.5 * (xa + xb) + 0.5 * np.outer(snod, xb - xa)
            tr = sp.tabulate_at(np.array([k1, k2]), np.stack([pts, pts]),
                                what=("val",))["val"]
            v1 = np.einsum("i,iqa->qa", coeffs[sp.cell_dofs[k1]], tr[0])
            v2 = np.einsum("i,iqa->qa", coeffs[sp.cell_dofs[k2]], tr[1])
            worst = max(worst, np.abs((v1 - v2) @ mesh.edge_normal[e]).max())
        assert worst <= 1e-12


@pytest.mark.parametrize("family", ["bdm1", "rt0", "rt1"])
def test_interpolation_reproduces_space(family, rng):
    """Fields lying in the global space are reproduced exactly."""
    mesh = structured_mesh(2)
    sp = FESpace(mesh, family)
    coef = rng.standard_normal(6 if family != "rt1" else 8)

    def field(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        comps = [coef[0] + coef[1] * x + coef[2] * y,
                 coef[3] + coef[4] * x + coef[5] * y]
        if family == "rt0":
            comps = [coef[0] + coef[2] * x, coef[1] + coef[2] * y]
        if family == "rt1":
            comps[0] = comps[0] + coef[6] * x * x + coef[7] * x * y
            comps[1] = comps[1] + coef[6] * x * y + coef[7] * y * y
        return np.stack(comps, axis=-1)

    dofs = sp.interpolate(field)
    rule = triangle_rule(4)
    uh = sp.eval_field(dofs, rule.points)["val"]
    xy = np.einsum("kab,qb->kqa", sp.J, rule.points) + sp.x0[:, None, :]
    exact = field(xy[..., 0], xy[..., 1])
    assert np.abs(uh - exact).max() <= 1e-12


def test_interpolate_linear_divergence():
    mesh = structured_mesh(3)
    sp = FESpace(mesh, "bdm1")
    dofs = sp.interpolate(lambda x, y: np.stack([x, y], axis=-1))
    assert np.abs(sp.cell_divergence(dofs) - 2.0).max() <= 1e-13


@pytest.mark.parametrize("family", ["bdm1", "rt0"])
def test_commuting_diagram_random_polynomials(family, rng):
    """div of the interpolant equals the projected divergence; polynomial
    inputs keep every quadrature exact."""
    mesh = structured_mesh(4)
    sp = FESpace(mesh, family)
    for _ in range(20):
        c = rng.standard_normal(12)

        def u(x, y):
            return np.stack([
                c[0] + c[1] * x + c[2] * y + c[3] * x * y + c[4] * x * x
                + c[5] * y * y,
                c[6] + c[7] * x + c[8] * y + c[9] * x * y + c[10] * x * x
                + c[11] * y * y], axis=-1)

        def divu(x, y):
            return (c[1] + c[3] * y + 2 * c[4] * x
                    + c[8] + c[9] * x + 2 * c[11] * y)

        dofs = sp.interpolate(u)
        lhs = sp.cell_divergence(dofs)
        rhs = project_qh(divu, mesh)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_commuting_diagram_trig_field():
    mesh = structured_mesh(4)

    def u(x, y):
        s = np.sin(np.pi * x) * np.sin(np.pi * y)
        return np.stack([s, s], axis=-1)

    def divu(x, y):
        return np.pi * (np.cos(np.pi * x) * np.sin(np.pi * y)
                        + np.sin(np.pi * x) * np.cos(np.pi * y))

    dofs = interpolate_pi_div(u, mesh, "bdm1")
    sp = FESpace(mesh, "bdm1")
    err = np.abs(sp.cell_divergence(dofs) - project_qh(divu, mesh))
    assert err.max() <= 1e-12


def test_project_constant_and_mean_shift():
    mesh = structured_mesh(2)
    vals = project_qh(lambda x, y: 3.5 * np.ones_like(x), mesh)
    assert np.abs(vals - 3.5).max() <= 1e-14
    shifted = project_qh(lambda x, y: 3.5 * np.ones_like(x), mesh,
                         zero_mean=True)
    assert np.abs(shifted).max() <= 1e-14


def test_project_linear_exact_at_centroids():
    mesh = structured_mesh(3)
    vals = project_qh(lambda x, y: x - 0.5, mesh)
    cent = mesh.vertices[mesh.cells].mean(axis=1)
    assert np.abs(vals - (cent[:, 0] - 0.5)).max() <= 1e-14


def test_project_trig_against_independent_rule():
    """Cell means of cos(pi x) cos(pi y) cross-checked with a hand-built
    tensor quadrature (Gauss-Legendre squared on the collapsed square)."""
    mesh = structured_mesh(2)
    vals = project_qh(lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y),
                      mesh)
    xg, wg = leggauss(12)
    xi, wxi = 0.5 * (xg + 1), 0.5 * wg
    oracle = np.zeros(mesh.num_cells)
    for k in range(mesh.num_cells):
        v = mesh.vertices[mesh.cells[k]]
        J = np.column_stack((v[1] - v[0], v[2] - v[0]))
        s = 0.0
        for i, a in enumerate(xi):
            for j, b in enumerate(xi):
                # Duffy substitution x = a(1-b), y = b with density (1-b)
                ref = np.array([a * (1 - b), b])
                x, y = v[0] + J @ ref
                s += wxi[i] * wxi[j] * (1 - b) * np.cos(np.pi * x) \
                    * np.cos(np.pi * y)
        oracle[k] = 2.0 * s  # mean over the cell
    assert np.abs(vals - oracle).max() <= 1e-12


def test_interpolation_approximation_orders():
    """L2 error of the canonical interpolant decays at second order and the
    broken H1 seminorm at first order for a smooth field."""

    def u(x, y):
        return np.stack([np.sin(np.pi * x) * np.sin(np.pi * y),
                         np.cos(np.pi * x) * np.sin(np.pi * y)], axis=-1)

    def grad_u(x, y):
        pi = np.pi
        return np.stack([
            np.stack([pi * np.cos(pi * x) * np.sin(pi * y),
                      pi * np.sin(pi * x) * np.cos(pi * y)], axis=-1),
            np.stack([-pi * np.sin(pi * x) * np.sin(pi * y),
                      pi * np.cos(pi * x) * np.cos(pi * y)], axis=-1),
        ], axis=-2)

    errs0, errs1 = [], []
    for n in (2, 4, 8):
        mesh = structured_mesh(n)
        sp = FESpace(mesh, "bdm1")
        dofs = sp.interpolate(u)
        rule = triangle_rule(8)
        wK = rule.weights[None, :] * sp.detJ[:, None]
        xy = np.einsum("kab,qb->kqa", sp.J, rule.points) + sp.x0[:, None, :]
        fld = sp.eval_field(dofs, rule.points, what=("val", "grad"))
        e0 = np.sqrt(np.einsum("kq,kqa->", wK,
                               (u(xy[..., 0], xy[..., 1])
                                - fld["val"])**2))
        e1 = np.sqrt(np.einsum("kq,kqab->", wK,
                               (grad_u(xy[..., 0], xy[..., 1])
                                - fld["grad"])**2))
        errs0.append(e0)
        errs1.append(e1)
    orders0 = np.log2(np.array(errs0[:-1]) / np.array(errs0[1:]))
    orders1 = np.log2(np.array(errs1[:-1]) / np.array(errs1[1:]))
    assert orders0.min() >= 1.8
    assert orders1.min() >= 0.8 and orders1[-1] >= 0.9


@pytest.mark.parametrize("family,rank", [
    ("bdm1", 1), ("rt0", 1), ("p1cvec", 1), ("rt1", 3),
])
def test_divergence_span_rank(family, rank):
    mesh = structured_mesh(2)
    sp = FESpace(mesh, family)
    div = sp.tabulate(triangle_rule(4).points, what=("div",))["div"]
    for k in range(mesh.num_cells):
        assert np.linalg.matrix_rank(div[k].T, tol=1e-10) == rank


def test_interpolate_rejects_pressure_family():
    mesh = structured_mesh(2)
    with pytest.raises(ValueError):
        interpolate_pi_div(lambda x, y: np.stack([x, y], axis=-1), mesh,
                           "p0")
