import numpy as np
import pytest
import scipy.sparse as sps
import sympy as sy

from biotfem.assembly import (DGConfig, FormOperators, IncompatibleSpaces,
                              assemble_ah, export_matrix_market)
from biotfem.analysis import _error_jump_seminorm
from biotfem.elements import edge_rule, triangle_rule
from biotfem.meshing import from_arrays, structured_mesh
from biotfem.params import ReducedParams


def test_block_sizes_n2(ops_bdm):
    # 16 edges, 8 boundary: displacement 2*16 - 2*8, flux 16 - 8, pressure 8
    bs = ops_bdm[2].block_system(ReducedParams(1, 1, 0))
    assert bs.block_sizes == (16, 8, 8)


@pytest.mark.parametrize("lam,rp,ap", [(1, 1, 0), (1e8, 1e-8, 1.0)])
def test_monolithic_exactly_symmetric(ops_bdm, lam, rp, ap):
    A = ops_bdm[4].block_system(ReducedParams(lam, rp, ap)).monolithic()
    assert abs(A - A.T).max() == 0.0


def test_dg_config_validation():
    with pytest.raises(ValueError):
        DGConfig(eta=0.0)


def test_rigid_translation_boundary_penalty_only(ops_bdm):
    """With zero strain only the boundary tangential penalty contributes."""
    ops = ops_bdm[2]
    mesh = ops.mesh
    c = np.array([0.7, -0.3])
    dofs = ops.uspace.interpolate(
        lambda x, y: np.broadcast_to(c, np.shape(x) + (2,)))
    val = dofs @ (ops.ah_full() @ dofs)
    expected = 0.0
    for e in mesh.boundary_edges():
        n = mesh.edge_normal[e]
        ct = c - (c @ n) * n
        expected += ops.cfg.eta * (ct @ ct)
    assert val == pytest.approx(expected, rel=1e-13)


def _sympy_bdm1_element_matrix(eta):
    """Exact interior-penalty element matrix on the reference triangle.

    Builds the nodal basis symbolically from the edge-moment functionals and
    integrates every volume and boundary term in closed form.
    """
    x, y, s = sy.symbols("x y s")
    verts = [sy.Matrix([0, 0]), sy.Matrix([1, 0]), sy.Matrix([0, 1])]
    # mesh edge slots (01, 12, 20) with endpoints sorted, outward normals
    edges = [((0, 1), sy.Matrix([0, -1]), 1),
             ((1, 2), sy.Matrix([1, 1]) / sy.sqrt(2), sy.sqrt(2)),
             ((0, 2), sy.Matrix([-1, 0]), 1)]
    mono = [sy.Matrix([1, 0]), sy.Matrix([x, 0]), sy.Matrix([y, 0]),
            sy.Matrix([0, 1]), sy.Matrix([0, x]), sy.Matrix([0, y])]

    def edge_moment(v, edge, k):
        (a, b), normal, _ = edge
        xa, xb = verts[a], verts[b]
        pt = (xa + xb) / 2 + s * (xb - xa) / 2
        vn = v.subs({x: pt[0], y: pt[1]}).dot(normal)
        return sy.integrate(vn * (s if k else 1), (s, -1, 1)) / 2

    M = sy.zeros(6, 6)
    for j, v in enumerate(mono):
        row = 0
        for edge in edges:
            for k in (0, 1):
                M[row, j] = edge_moment(v, edge, k)
                row += 1
    C = M.inv()
    basis = [sum((C[g, i] * mono[g] for g in range(6)), sy.zeros(2, 1))
             for i in range(6)]

    def eps(v):
        G = sy.Matrix([[sy.diff(v[0], x), sy.diff(v[0], y)],
                       [sy.diff(v[1], x), sy.diff(v[1], y)]])
        return (G + G.T) / 2

    def tri_integral(expr):
        return sy.integrate(sy.integrate(expr, (y, 0, 1 - x)), (x, 0, 1))

    A = sy.zeros(6, 6)
    for i in range(6):
        for j in range(i, 6):
            term = tri_integral(sum(
                eps(basis[i]).multiply_elementwise(eps(basis[j]))))
            # boundary faces: -<eps(u) n, w_t> - <eps(w) n, u_t>
            #                 + eta/h <u_t, w_t>
            for (a, b), normal, length in edges:
                xa, xb = verts[a], verts[b]
                pt = (xa + xb) / 2 + s * (xb - xa) / 2
                sub = {x: pt[0], y: pt[1]}

                def tang(v):
                    vv = v.subs(sub)
                    return vv - (vv.dot(normal)) * normal

                en_i = (eps(basis[i]) * normal).subs(sub)
                en_j = (eps(basis[j]) * normal).subs(sub)
                integrand = (-en_i.dot(tang(basis[j]))
                             - en_j.dot(tang(basis[i]))
                             + (eta / length) * tang(basis[i]).dot(
                                 tang(basis[j])))
                term += sy.integrate(integrand, (s, -1, 1)) * length / 2
            A[i, j] = A[j, i] = sy.nsimplify(term)
    return np.array(A.evalf(30), dtype=float)


def test_single_reference_triangle_matches_symbolic_oracle():
    mesh = from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    got = assemble_ah(mesh, "bdm1", DGConfig(10.0)).toarray()
    want = _sympy_bdm1_element_matrix(10)
    assert got.shape == (6, 6)
    assert np.abs(got - got.T).max() == 0.0
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.linalg.matrix_rank(got, tol=1e-10) >= 3


def test_continuous_interior_field_pure_strain_energy(rng):
    """Zero jumps reduce a_h to the broken strain energy; a continuous field
    vanishing on the boundary has no face contributions at all."""
    mesh = structured_mesh(3)
    ops = FormOperators(mesh, ("p1cvec", "rt0", "p0"))
    sp = ops.uspace
    coeffs = np.zeros(sp.ndof)
    boundary_vertices = set()
    for e in mesh.boundary_edges():
        boundary_vertices.update(mesh.edge_vertices[e])
    inner = [v for v in range(mesh.num_vertices)
             if v not in boundary_vertices]
    for v in inner:
        coeffs[2 * v] = rng.standard_normal()
        coeffs[2 * v + 1] = rng.standard_normal()
    a_val = coeffs @ (ops.ah_full() @ coeffs)
    strain = coeffs @ (ops.EPS @ coeffs)
    assert a_val == pytest.approx(strain, rel=1e-13)


def _face_terms_per_edge(ops, coeffs, u_exact):
    """Reference for the batched face kernels: a plain loop over edges with
    one `tabulate_at` call per edge.  Returns dense PEN, CONS and the
    tangential-jump error seminorm of (u_exact - coeffs)."""
    mesh, space = ops.mesh, ops.uspace
    snodes, sweights = edge_rule(4)
    PEN = np.zeros((space.ndof, space.ndof))
    CONS = np.zeros((space.ndof, space.ndof))
    seminorm = 0.0
    for e in range(mesh.num_edges):
        k1, k2 = mesh.edge_cells[e]
        sides = [k1] if k2 < 0 else [k1, k2]
        n = mesh.edge_normal[e]
        xa, xb = mesh.vertices[mesh.edge_vertices[e]]
        pts = 0.5 * (xa + xb) + 0.5 * np.outer(snodes, xb - xa)
        tab = space.tabulate_at(np.array(sides), np.stack([pts] * len(sides)),
                                what=("val", "grad"))
        jump, avg, uh = [], [], []
        for s, k in enumerate(sides):
            val, grad = tab["val"][s], tab["grad"][s]
            vt = val - np.einsum("iqa,a->iq", val, n)[..., None] * n
            epsn = 0.5 * np.einsum("iqab,b->iqa",
                                   grad + np.swapaxes(grad, -2, -1), n)
            jump.append(vt if s == 0 else -vt)
            avg.append(epsn / len(sides))
            uh.append(np.einsum("i,iqa->qa", coeffs[space.cell_dofs[k]], val))
        err = (u_exact(pts[:, 0], pts[:, 1]) - uh[0] if k2 < 0
               else uh[1] - uh[0])
        err_t = err - np.einsum("qa,a->q", err, n)[:, None] * n
        seminorm += 0.5 * np.einsum("q,qa->", sweights, err_t**2)
        if k2 >= 0 and space.family == "p1cvec":
            continue  # continuous family: the operators skip interior jumps
        jump, avg = np.concatenate(jump), np.concatenate(avg)
        dofs = np.concatenate([space.cell_dofs[k] for k in sides])
        idx = np.ix_(dofs, dofs)
        np.add.at(PEN, idx, 0.5 * np.einsum("q,iqa,jqa->ij", sweights, jump,
                                            jump))
        c = 0.5 * mesh.edge_length[e] * np.einsum("q,iqa,jqa->ij", sweights,
                                                  avg, jump)
        np.add.at(CONS, idx, c + c.T)
    return PEN, CONS, seminorm


@pytest.mark.parametrize("family", ["bdm1", "rt0", "p1cvec"])
def test_face_terms_match_per_edge_reference(family, perturbed_mesh, rng):
    """The batched face Grams and jump seminorm equal the per-edge loop on a
    perturbed mesh, where a kernel that mixes up cells cannot hide."""
    ops = FormOperators(perturbed_mesh[4], (family, "rt0", "p0"))
    coeffs = rng.standard_normal(ops.uspace.ndof)

    def u(x, y):
        return np.stack([np.sin(3 * x + y), np.cos(x - 2 * y)], axis=-1)

    PEN, CONS, seminorm = _face_terms_per_edge(ops, coeffs, u)
    # rt0 strains are multiples of the identity, so CONS vanishes exactly
    # and is compared on the scale of the strain Gram
    cons_scale = np.abs(ops.EPS).max() if family == "rt0" else \
        np.abs(CONS).max()
    assert np.abs(ops.PEN.toarray() - PEN).max() <= 1e-14 * np.abs(PEN).max()
    assert np.abs(ops.CONS.toarray() - CONS).max() <= 1e-14 * cons_scale
    assert _error_jump_seminorm(ops.uspace, coeffs, u) == pytest.approx(
        seminorm, rel=1e-14)


def test_rt1_with_p0_pressure_rejected():
    with pytest.raises(IncompatibleSpaces):
        FormOperators(structured_mesh(2), ("rt1", "rt0", "p0"))


def test_non_p0_pressure_rejected():
    with pytest.raises(IncompatibleSpaces):
        FormOperators(structured_mesh(2), ("bdm1", "rt0", "p1cvec"))


def test_ah_spd_on_constrained_dofs(ops_bdm):
    w = np.linalg.eigvalsh(ops_bdm[2].ah_matrix().toarray())
    assert w.min() > 0


@pytest.mark.parametrize("lam,rp,ap", [(1, 1, 0), (1e4, 1e-4, 1)])
def test_norm_blocks_spd(ops_bdm, lam, rp, ap):
    from biotfem.solver import pressure_reduction_basis

    nb = ops_bdm[2].norm_blocks(ReducedParams(lam, rp, ap))
    for M in (nb.N_U, nb.N_V):
        assert np.linalg.eigvalsh(M.toarray()).min() > 0
    Z = pressure_reduction_basis(ops_bdm[2].areas)
    assert np.linalg.eigvalsh(Z.T @ nb.N_P.toarray() @ Z).min() > 0


def test_pressure_norm_is_scaled_cell_areas(ops_bdm):
    nb = ops_bdm[2].norm_blocks(ReducedParams(4.0, 1e6, 0.1))
    gamma = ReducedParams(4.0, 1e6, 0.1).gamma
    want = gamma * ops_bdm[2].areas
    assert np.abs(nb.N_P.diagonal() - want).max() <= 1e-15
    assert (nb.N_P - sps.diags(nb.N_P.diagonal())).nnz == 0


def test_natural_norms_coincide_at_unit_weights(ops_bdm):
    pr = ReducedParams(1.0, 1.0, 0.0)  # gamma = 1 makes both weights agree
    paper = ops_bdm[2].norm_blocks(pr)
    natural = ops_bdm[2].natural_norm_blocks(pr)
    assert abs(paper.N_V - natural.N_V).max() <= 1e-14
    assert abs(paper.N_P - natural.N_P).max() <= 1e-15


def test_natural_norms_differ_for_large_rp(ops_bdm):
    pr = ReducedParams(1.0, 1e6, 0.0)
    paper = ops_bdm[2].norm_blocks(pr)
    natural = ops_bdm[2].natural_norm_blocks(pr)
    assert sps.linalg.norm(paper.N_V - natural.N_V) > 1.0
    # the unweighted pressure mass ignores the parameters entirely
    nat2 = ops_bdm[2].natural_norm_blocks(ReducedParams(1e4, 1e-4, 1.0))
    assert abs(natural.N_P - nat2.N_P).max() == 0.0


def test_rhs_zero_sources(ops_bdm):
    bs = ops_bdm[2].block_system(ReducedParams(1, 1, 0))
    assert np.all(bs.rhs == 0)


def test_rhs_unit_source_gives_cell_areas():
    mesh = structured_mesh(2)
    _, _, rhs_p = FormOperators(mesh).rhs(g=lambda x, y: np.ones_like(x))
    assert np.abs(rhs_p - mesh.signed_areas()).max() <= 1e-15


def test_rhs_constant_force_against_independent_quadrature():
    """(f, w) entries recomputed with a separete high-order tensor rule."""
    from numpy.polynomial.legendre import leggauss

    mesh = structured_mesh(2)
    ops = FormOperators(mesh, ("bdm1", "rt0", "p0"))
    f = lambda x, y: np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1)
    rhs_u, rhs_v, _ = ops.rhs(f=f)
    assert np.all(rhs_v == 0)
    xg, wg = leggauss(10)
    xi, wxi = 0.5 * (xg + 1), 0.5 * wg
    ref = np.array([[a * (1 - b), b] for a in xi for b in xi])
    wts = np.array([wa * wb * (1 - b)
                    for a, wa in zip(xi, wxi)
                    for b, wb in zip(xi, wxi)])
    sp = ops.uspace
    tab = sp.tabulate(ref, what=("val",))["val"]
    oracle = np.zeros(sp.ndof)
    elem = np.einsum("q,k,kiq->ki", wts, sp.detJ, tab[:, :, :, 0])
    np.add.at(oracle, sp.cell_dofs.ravel(), elem.ravel())
    assert np.abs(rhs_u - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_coupling_rows_sum_to_zero_on_constrained_dofs(ops_bdm):
    # (div w, 1) equals the boundary flux, which vanishes for w.n = 0
    bs = ops_bdm[2].block_system(ReducedParams(1, 1, 0))
    for B in (bs.B_up, bs.B_vp):
        assert np.abs(np.asarray(B.sum(axis=1))).max() <= 1e-14


def test_divergence_is_elementwise_constant(ops_bdm, rng):
    sp = ops_bdm[4].uspace
    coeffs = rng.standard_normal(sp.ndof)
    div = sp.eval_field(coeffs, triangle_rule(4).points,
                        what=("div",))["div"]
    spread = np.abs(div - div[:, :1]).max()
    assert spread <= 1e-13 * (1 + np.abs(div).max())


def test_korn_bounds_within_fixed_interval(ops_bdm):
    """Equivalence eigenvalues of the three mesh-dependent norms stay inside
    [0.25, 1] on n = 2, 4, 8.  The interval is not n-independent: the lower
    strain/gradient bound leaves it at n=16 (0.196) on its way to about
    0.14; acceptance criterion 6 checks that bound's h-stability on
    n = 32, 64."""
    from biotfem.analysis import korn_equivalence_bounds

    for n in (2, 4, 8):
        bounds = korn_equivalence_bounds(ops_bdm[n])
        for lo, hi in bounds.values():
            assert 0.25 <= lo <= hi <= 1.0 + 1e-12


def test_ah_constants_stable(ops_bdm):
    from biotfem.analysis import ah_constants

    cont, coer = {}, {}
    for n in (2, 4, 8):
        cont[n], coer[n] = ah_constants(ops_bdm[n])
        assert coer[n] > 0
    assert max(cont.values()) / min(cont.values()) <= 1.02
    assert max(coer.values()) / min(coer.values()) <= 1.10


def test_sampled_continuity_bound(ops_bdm, rng):
    for n in (2, 4, 8):
        A = ops_bdm[n].ah_matrix()
        D = ops_bdm[n].dg_norm_gram()
        for _ in range(10):
            u = rng.standard_normal(A.shape[0])
            w = rng.standard_normal(A.shape[0])
            num = abs(u @ (A @ w))
            den = np.sqrt(u @ (D @ u)) * np.sqrt(w @ (D @ w))
            assert num <= 10.5 * den


def test_module_level_wrappers(ops_bdm):
    """assemble_ah on a fresh mesh agrees with the FormOperators forms."""
    mesh = structured_mesh(2)
    pr = ReducedParams(1, 1, 0)
    ops = FormOperators(mesh)
    assert ops.block_system(pr).block_sizes == (16, 8, 8)
    assert ops.norm_blocks(pr).N_U.shape == (16, 16)
    ah = assemble_ah(mesh, "bdm1", constrained=True)
    assert ah.shape == (16, 16)
    assert abs(ah - ops_bdm[2].ah_matrix()).max() == 0.0
    ah_full = assemble_ah(mesh, "bdm1")
    assert abs(ah_full - ops_bdm[2].ah_full()).max() == 0.0


def test_matrix_market_roundtrip(tmp_path, ops_bdm):
    from scipy.io import mmread

    bs = ops_bdm[2].block_system(ReducedParams(1, 1, 0))
    path = tmp_path / "A_uu.mtx"
    export_matrix_market(path, bs.A_uu)
    back = mmread(path).tocsr()
    assert abs(back - bs.A_uu).max() <= 1e-15
