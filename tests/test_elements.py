import dataclasses
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from biotfem import elements
from biotfem.elements import (_REF_CELL, DegenerateCell, FESpace,
                              _dof_matrices, _ref_coeff, edge_rule,
                              interpolate_pi_div, project_qh, triangle_rule)
from biotfem.meshing import BOUNDARY, from_arrays, structured_mesh

from conftest import pulled_back_values


def exact_triangle_monomial(a, b):
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(13))
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


def test_gauss_jacobi_tables_match_scipy():
    """The literal Gauss-Jacobi(1, 0) tables of the collapsed rules are
    scipy's nodes and weights, to within an ulp."""
    from scipy.special import roots_jacobi

    for m, (nodes, weights) in elements._GAUSS_JACOBI.items():
        want = roots_jacobi(m, 1.0, 0.0)
        np.testing.assert_array_max_ulp(np.array(nodes), want[0], maxulp=1)
        np.testing.assert_array_max_ulp(np.array(weights), want[1],
                                        maxulp=1)
    # every collapsed rule of degrees 5-12 reads one of them
    assert sorted(elements._GAUSS_JACOBI) == sorted(
        {(d + 2) // 2 for d in range(5, 13)})


def test_triangle_rule_rejects_degree_above_12():
    with pytest.raises(ValueError, match="degree 12"):
        triangle_rule(13)


def test_import_does_not_load_scipy_special():
    """The collapsed rules read literal Gauss-Jacobi tables, so importing
    the package leaves scipy.special, and its memory, out."""
    code = "import sys, biotfem; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(elements.__file__).parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
           if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_edge_rule_exactness():
    # the face Grams use 2 points, the error norms 4, the dof moments 10
    for npts in (2, 4, 10):
        snod, swts = edge_rule(npts)
        for k in range(2 * npts):  # n-point Gauss: exact through 2n - 1
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert np.sum(swts * snod**k) == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("family,ndofs", [
    ("bdm1", 6), ("rt0", 3), ("p1cvec", 6),
])
def test_dof_counts(family, ndofs):
    assert FESpace(structured_mesh(2), family).cell_dofs.shape[1] == ndofs


def test_unknown_family_rejected():
    """rt1, whose divergence is not cellwise constant, is not a family."""
    with pytest.raises(ValueError, match="unknown element family"):
        FESpace(structured_mesh(2), "rt1")


@pytest.mark.parametrize("family", ["bdm1", "rt0"])
def test_reference_kronecker(family):
    M = _dof_matrices(family, _REF_CELL)[0] @ _ref_coeff(family)
    assert np.abs(M - np.eye(len(M))).max() <= 1e-12


def test_piola_degenerate_cell():
    """A space refuses a mesh whose cell map is flattened or flipped: the
    Piola map divides by det J.  `from_arrays` rejects such cells first,
    so the vertices are moved after the edge tables are built."""
    mesh = structured_mesh(2)
    flat, flipped = mesh.vertices.copy(), mesh.vertices.copy()
    # the centre onto, then past, the edge 1-5 of the cell (1, 5, 4)
    flat[4], flipped[4] = [0.75, 0.25], [0.9, 0.1]
    for verts in (flat, flipped):
        bad = dataclasses.replace(mesh, vertices=verts)
        with pytest.raises(DegenerateCell):
            FESpace(bad, "rt0")


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
                tr = sp.tabulate_at(np.array([k]), pts[None])[0]
                for i in range(3):
                    mean_flux = 0.5 * np.einsum("q,qa,a->", swts, tr[i],
                                                mesh.edge_normal[e])
                    expected = 1.0 if sp.cell_dofs[k, i] == e else 0.0
                    assert mean_flux == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("family", ["bdm1", "rt0"])
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
            tr = sp.tabulate_at(np.array([k1, k2]), np.stack([pts, pts]))
            v1 = np.einsum("i,iqa->qa", coeffs[sp.cell_dofs[k1]], tr[0])
            v2 = np.einsum("i,iqa->qa", coeffs[sp.cell_dofs[k2]], tr[1])
            worst = max(worst, np.abs((v1 - v2) @ mesh.edge_normal[e]).max())
        assert worst <= 1e-12


COEFFICIENT_MESHES = ["p4", "p8", "s5"]  # perturbed n = 4, 8; structured 5


def _coefficient_mesh(name, perturbed_mesh):
    n = int(name[1:])
    return perturbed_mesh[n] if name[0] == "p" else structured_mesh(n)


@pytest.mark.parametrize("mesh_name", COEFFICIENT_MESHES)
@pytest.mark.parametrize("family", ["bdm1", "rt0"])
def test_closed_form_coefficients_match_the_inverse(family, mesh_name,
                                                     perturbed_mesh):
    """The Piola-scaled reference coefficients are the inverse of every
    cell's dof matrix."""
    mesh = _coefficient_mesh(mesh_name, perturbed_mesh)
    inv = np.linalg.inv(_dof_matrices(family, mesh))
    coeff = FESpace(mesh, family).coeff
    assert np.abs(coeff - inv).max() <= 1e-13 * np.abs(inv).max()


@pytest.mark.parametrize("mesh_name", COEFFICIENT_MESHES)
@pytest.mark.parametrize("family", ["bdm1", "rt0"])
def test_physical_dofs_of_the_basis_are_the_identity(family, mesh_name,
                                                     perturbed_mesh):
    """Each cell's dof functionals, the normal moments along its own edges
    with the stored normals, applied to its basis give the identity."""
    mesh = _coefficient_mesh(mesh_name, perturbed_mesh)
    sp = FESpace(mesh, family)
    nc, nloc = sp.cell_dofs.shape
    snod, swts = edge_rule(10)
    edges = mesh.cell_edges  # (nc, 3)
    pts = mesh.edge_points(snod)[edges].reshape(nc, -1, 2)
    val = pulled_back_values(sp, np.arange(nc), pts)
    vn = np.einsum("kieqa,kea->keiq", val.reshape(nc, nloc, 3, -1, 2),
                   mesh.edge_normal[edges], optimize=True)
    nmom = nloc // 3
    mom = np.stack([0.5 * vn @ (swts * snod**m) for m in range(nmom)],
                   axis=2)  # (nc, edge, moment, basis)
    assert np.abs(mom.reshape(nc, nloc, nloc) - np.eye(nloc)).max() <= 1e-13


@pytest.mark.parametrize("mesh_name", COEFFICIENT_MESHES)
def test_first_moment_bdm1_functions_are_divergence_free(mesh_name,
                                                         perturbed_mesh):
    """The P_1-moment BDM1 functions have divergence exactly zero on every
    cell, and the P_0-moment functions do not."""
    mesh = _coefficient_mesh(mesh_name, perturbed_mesh)
    sp = FESpace(mesh, "bdm1")
    assert np.all(sp.cell_div[:, 1::2] == 0.0)
    assert np.all(sp.cell_div[:, 0::2] != 0.0)


@pytest.mark.parametrize("family", ["bdm1", "rt0"])
def test_space_inverts_no_cell_matrix(family, perturbed_mesh, monkeypatch):
    """Building a space applies no dof functional on the mesh's cells and
    inverts no stack of cell matrices."""
    calls = []
    dof_matrices, inv = elements._dof_matrices, np.linalg.inv

    def spy_dofs(fam, mesh):
        calls.append(("dof matrices", mesh.num_cells))
        return dof_matrices(fam, mesh)

    def spy_inv(a):
        calls.append(("inv", np.shape(a)))
        return inv(a)

    _ref_coeff(family)  # the reference basis inverts its one matrix once
    monkeypatch.setattr(elements, "_dof_matrices", spy_dofs)
    monkeypatch.setattr(np.linalg, "inv", spy_inv)
    FESpace(perturbed_mesh[8], family)
    assert calls == []


def _central_differences(sp, cells, pts, delta):
    """grad[..., a, b] = d v_a / d x_b from pulled-back physical values;
    exact for basis functions of degree at most two, up to roundoff /
    delta."""
    def val(shift):
        return pulled_back_values(sp, cells, pts + shift)

    e = delta * np.eye(2)
    return np.stack([(val(e[b]) - val(-e[b])) / (2.0 * delta)
                     for b in range(2)], axis=-1)


_REF_PTS = np.array([[1 / 3, 1 / 3], [0.2, 0.6], [0.6, 0.2], [0.2, 0.2]])


@pytest.mark.parametrize("family", ["bdm1", "rt0", "p1cvec"])
def test_physical_derivatives_match_finite_differences(family,
                                                       perturbed_mesh):
    """cell_grad agrees with central differences of the physical basis
    values at every point of each cell, and cell_div with the trace of
    cell_grad, on congruent and on perturbed cells."""
    for mesh in (structured_mesh(3), perturbed_mesh[4]):
        sp = FESpace(mesh, family)
        cells = np.arange(mesh.num_cells)
        pts = mesh.cell_points(_REF_PTS)
        delta = 0.05 * mesh.h_cell.min()
        grad = _central_differences(sp, cells, pts, delta)
        vmax = np.abs(pulled_back_values(sp, cells, pts)).max()
        assert np.abs(sp.cell_grad[cells][:, :, None] - grad).max() \
            <= 1e-12 * vmax / delta
        assert np.abs(sp.cell_div - np.trace(sp.cell_grad, axis1=-2,
                                             axis2=-1)).max() \
            <= 1e-13 * np.abs(sp.cell_grad).max()


@pytest.mark.parametrize("family", ["bdm1", "rt0", "p1cvec"])
def test_cell_divergence_reads_the_cell_array(family, perturbed_mesh, rng):
    """cell_divergence contracts each cell's coefficients with cell_div, and
    equals the trace of cell_gradient."""
    sp = FESpace(perturbed_mesh[4], family)
    coeffs = rng.standard_normal(sp.ndof)
    div = sp.cell_divergence(coeffs)
    expected = np.einsum("ki,ki->k", coeffs[sp.cell_dofs], sp.cell_div)
    assert div.shape == (sp.mesh.num_cells,)
    assert np.abs(div - expected).max() <= 1e-14 * np.abs(expected).max()
    trace = np.trace(sp.cell_gradient(coeffs), axis1=-2, axis2=-1)
    assert np.abs(div - trace).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("family", ["bdm1", "rt0", "p1cvec"])
def test_cell_gradient_matches_finite_differences(family, perturbed_mesh,
                                                  rng):
    """cell_gradient of a discrete field agrees with central differences of
    its pulled-back values at every point of each cell."""
    mesh = perturbed_mesh[4]
    sp = FESpace(mesh, family)
    coeffs = rng.standard_normal(sp.ndof)
    cells = np.arange(mesh.num_cells)
    pts = mesh.cell_points(_REF_PTS)
    delta = 0.05 * mesh.h_cell.min()
    local = coeffs[sp.cell_dofs]
    want = np.einsum("ki,kiqab->kqab", local,
                     _central_differences(sp, cells, pts, delta))
    vmax = np.abs(np.einsum("ki,kiqa->kqa", local,
                            pulled_back_values(sp, cells, pts))).max()
    got = sp.cell_gradient(coeffs)
    assert got.shape == (mesh.num_cells, 2, 2)
    assert np.abs(got[:, None] - want).max() <= 1e-12 * vmax / delta


def test_p0_is_no_element_family():
    """The pressure space needs no basis (`FormOperators.M_p`,
    `project_qh`), so p0 builds no space."""
    with pytest.raises(ValueError, match="unknown element family 'p0'"):
        FESpace(structured_mesh(2), "p0")


@pytest.mark.parametrize("family", ["bdm1", "rt0", "p1cvec"])
def test_affine_values_match_the_pulled_back_basis(family, perturbed_mesh):
    """tabulate, tabulate_at and both sides of edge_traces, boundary edges
    included, evaluate cell_val0 + cell_grad (x - x0); they agree with the
    reference pull-back on a perturbed mesh."""
    mesh = perturbed_mesh[8]
    sp = FESpace(mesh, family)
    cells = np.arange(mesh.num_cells)
    ref_pts = triangle_rule(8).points
    cell_pts = mesh.cell_points(ref_pts)
    edge_pts = mesh.edge_points(edge_rule(4)[0])
    k1, k2 = mesh.edge_cells.T
    assert np.any(k2 == BOUNDARY)
    sides = np.stack((k1, np.where(k2 == BOUNDARY, k1, k2)))
    traced, traces = sp.edge_traces(np.arange(mesh.num_edges), edge_pts)
    assert np.array_equal(traced, sides)
    inside = pulled_back_values(sp, cells, cell_pts)
    for got, want in (
            (sp.tabulate(ref_pts), inside),
            (sp.tabulate_at(cells, cell_pts), inside),
            (traces, pulled_back_values(sp, sides, edge_pts))):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("family", ["bdm1", "rt0"])
def test_interpolation_reproduces_space(family, rng):
    """Fields lying in the global space are reproduced exactly."""
    mesh = structured_mesh(2)
    sp = FESpace(mesh, family)
    coef = rng.standard_normal(6)

    def field(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        comps = [coef[0] + coef[1] * x + coef[2] * y,
                 coef[3] + coef[4] * x + coef[5] * y]
        if family == "rt0":
            comps = [coef[0] + coef[2] * x, coef[1] + coef[2] * y]
        return np.stack(comps, axis=-1)

    dofs = sp.interpolate(field)
    rule = triangle_rule(4)
    uh = sp.eval_field(dofs, rule.points)
    xy = np.einsum("kab,qb->kqa", sp.J, rule.points) + sp.x0[:, None, :]
    exact = field(xy[..., 0], xy[..., 1])
    assert np.abs(uh - exact).max() <= 1e-12


def test_interpolate_linear_divergence():
    mesh = structured_mesh(3)
    sp = FESpace(mesh, "bdm1")
    dofs = sp.interpolate(lambda x, y: np.stack([x, y], axis=-1))
    assert np.abs(sp.cell_divergence(dofs) - 2.0).max() <= 1e-13


@pytest.mark.parametrize("family,perturbed", [
    pytest.param(family, perturbed,
                 id=family + ("-perturbed" if perturbed else ""))
    for perturbed in (False, True) for family in ("bdm1", "rt0")])
def test_commuting_diagram_random_polynomials(family, perturbed, rng,
                                              perturbed_mesh):
    """div of the interpolant equals the projected divergence; polynomial
    inputs keep every quadrature exact.  The perturbed mesh mixes cell
    shapes, orientations and areas, which congruent cells hide."""
    mesh = perturbed_mesh[4] if perturbed else structured_mesh(4)
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
        e0 = np.sqrt(np.einsum("kq,kqa->", wK,
                               (u(xy[..., 0], xy[..., 1])
                                - sp.eval_field(dofs, rule.points))**2))
        e1 = np.sqrt(np.einsum("kq,kqab->", wK,
                               (grad_u(xy[..., 0], xy[..., 1])
                                - sp.cell_gradient(dofs)[:, None])**2))
        errs0.append(e0)
        errs1.append(e1)
    orders0 = np.log2(np.array(errs0[:-1]) / np.array(errs0[1:]))
    orders1 = np.log2(np.array(errs1[:-1]) / np.array(errs1[1:]))
    assert orders0.min() >= 1.8
    assert orders1.min() >= 0.8 and orders1[-1] >= 0.9


@pytest.mark.parametrize("family,rank", [
    ("bdm1", 1), ("rt0", 1), ("p1cvec", 1),
])
def test_divergence_span_rank(family, rank):
    mesh = structured_mesh(2)
    sp = FESpace(mesh, family)
    for k in range(mesh.num_cells):
        assert np.linalg.matrix_rank(sp.cell_div[k][None],
                                     tol=1e-10) == rank


def test_interpolate_rejects_pressure_family():
    mesh = structured_mesh(2)
    with pytest.raises(ValueError):
        interpolate_pi_div(lambda x, y: np.stack([x, y], axis=-1), mesh,
                           "p0")
