import numpy as np
import pytest
import scipy.sparse as sps
import sympy as sy

from biotfem import assembly
from biotfem.assembly import (DGConfig, FormOperators, IncompatibleSpaces,
                              export_matrix_market)
from biotfem.analysis import _edge_exact, _error_jump_seminorm
from biotfem.elements import FESpace, edge_rule, triangle_rule
from biotfem.meshing import from_arrays, structured_mesh
from biotfem.params import ReducedParams

from conftest import pulled_back_values


def test_block_sizes_n2(ops_bdm):
    # 16 edges, 8 boundary: displacement 2*16 - 2*8, flux 16 - 8, pressure 8
    bs = ops_bdm[2].block_system(ReducedParams(1, 1, 0))
    assert bs.block_sizes == (16, 8, 8)


@pytest.mark.parametrize("lam,rp,ap", [(1, 1, 0), (1e8, 1e-8, 1.0)])
def test_monolithic_exactly_symmetric(ops_bdm, lam, rp, ap):
    A = ops_bdm[4].block_system(ReducedParams(lam, rp, ap)).monolithic()
    assert abs(A - A.T).max() == 0.0


def _tril_mirror(mat):
    """Oracle: the lower triangle plus its transpose plus the diagonal."""
    lower = sps.tril(mat, -1, format="csr")
    return (lower + lower.T + sps.diags(mat.diagonal())).tocsr()


def _coo_sum(elem, dofs, n):
    """Oracle: local matrices elem (m, k, k) summed through COO."""
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    return sps.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _local_grams(ops):
    """Each Gram's local matrices and the dof table they sum over."""
    u, v = ops.uspace, ops.vspace

    def cell(x):
        x = x.reshape(x.shape[:2] + (-1,))
        return ops.areas[:, None, None] * (x @ np.swapaxes(x, 1, 2))

    rule = triangle_rule(4)
    val = v.tabulate(rule.points)
    mass = np.einsum("q,k,kiqa,kjqa->kij", rule.weights, v.detJ, val, val)
    grad = u.cell_grad
    dofs, pen, cons = ops._face_matrices()
    return {"EPS": (cell(0.5 * (grad + np.swapaxes(grad, -2, -1))),
                    u.cell_dofs, u.ndof),
            "DD_u": (cell(u.cell_div), u.cell_dofs, u.ndof),
            "GRAD": (cell(grad), u.cell_dofs, u.ndof),
            "PEN": (pen, dofs, u.ndof),
            "CONS": (cons, dofs, u.ndof),
            "M_v": (mass, v.cell_dofs, v.ndof),
            "DD_v": (cell(v.cell_div), v.cell_dofs, v.ndof)}


def _is_canonical(mat):
    """Sorted, unique column indices, judged afresh from the arrays."""
    return sps.csr_matrix((mat.data, mat.indices.copy(), mat.indptr.copy()),
                          shape=mat.shape).has_canonical_format


@pytest.mark.parametrize("family", ["bdm1", "rt0", "p1cvec"])
def test_grams_are_the_tril_mirror(family, perturbed_mesh):
    """Each of the seven Grams equals the tril + tril^T + diag mirror of
    its COO sum to roundoff, is exactly symmetric and is canonical CSR."""
    ops = FormOperators(perturbed_mesh[8], (family, "rt0", "p0"))
    for name, (elem, dofs, n) in _local_grams(ops).items():
        got, ref = getattr(ops, name), _tril_mirror(_coo_sum(elem, dofs, n))
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-15 * scale, name
        assert (got != got.T).nnz == 0, name
        assert _is_canonical(got), name


def test_grams_of_a_space_share_one_pattern():
    """The Grams of one space store their data over one read-only pair of
    index arrays, which holds the union of their sparsity patterns."""
    ops = FormOperators(structured_mesh(4))
    for names in (("EPS", "DD_u", "PEN", "CONS", "GRAD"), ("M_v", "DD_v")):
        mats = [getattr(ops, name) for name in names]
        first = mats[0]
        assert not first.indices.flags.writeable
        assert not first.indptr.flags.writeable
        for mat in mats:
            assert np.shares_memory(mat.indices, first.indices)
            assert np.shares_memory(mat.indptr, first.indptr)
            assert abs(mat).nnz <= first.nnz  # structural zeros kept


def test_blocks_at_two_points_share_their_pattern():
    """The free-dof blocks of two parameter points share index arrays, so
    both saddle matrices take the operators' one block layout and share
    its index arrays."""
    ops = FormOperators(structured_mesh(4))
    points = (ReducedParams(1.0, 1.0, 0.0), ReducedParams(1e8, 1e-8, 1.0))
    systems = [ops.block_system(pr) for pr in points]
    norms = [ops.norm_blocks(pr) for pr in points]
    for a, b in ((s.A_uu for s in systems), (s.A_vv for s in systems),
                 (systems[0].A_uu, norms[1].N_U),
                 (systems[0].A_vv, norms[1].N_V)):
        assert np.shares_memory(a.indices, b.indices)
        assert np.shares_memory(a.indptr, b.indptr)
    template = ops._saddle.template
    for system in systems:
        A = system.monolithic()
        assert A.indices is template.indices and A.indptr is template.indptr


def test_in_place_call_on_a_block_raises():
    """A write into a block's data, or an in-place scipy call that would
    rewrite the shared index arrays, raises and leaves the blocks that
    share them unchanged."""
    ops = FormOperators(structured_mesh(4))
    pr = ReducedParams(1.0, 1.0, 0.0)
    block = ops.block_system(pr).A_uu
    siblings = [ops.norm_blocks(pr).N_U, ops.block_system(pr).A_uu]
    kept = [mat.copy() for mat in siblings]
    with pytest.raises(ValueError):
        block.data[::2] = 0.0
    with pytest.raises(ValueError):
        block.eliminate_zeros()
    block.has_sorted_indices = False
    with pytest.raises(ValueError):
        block.sort_indices()
    siblings.append(ops.block_system(pr).A_uu)
    kept.append(kept[1])
    for mat, ref in zip(siblings, kept):
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(mat, name), getattr(ref, name))


def _handed_out(ops, pr):
    """One CSR matrix of each kind the operators hand out: from the
    displacement pattern on the free dofs and on all dofs, the flux
    pattern, the saddle layout, and the templates of C_pp and N_P."""
    system = ops.block_system(pr)
    return {"free": system.A_uu, "full": ops.ah_full(), "flux": system.A_vv,
            "saddle": system.monolithic(), "C_pp": system.C_pp,
            "N_P": ops.norm_blocks(pr).N_P}


@pytest.mark.parametrize("kind", ["free", "full", "flux", "saddle", "C_pp",
                                  "N_P"])
def test_handed_out_blocks_leave_their_template_alone(kind):
    """Each block is a copy of a template that shares its read-only index
    arrays and holds read-only data: a write into the data or an in-place
    scipy call on it raises, and neither that call nor its format flags
    reach the next block."""
    ops = FormOperators(structured_mesh(4))
    pr = ReducedParams(1e2, 1e-4, 1.0)
    block = _handed_out(ops, pr)[kind]
    kept = block.copy()
    with pytest.raises(ValueError):
        block.data[:] = 0.0
    with pytest.raises(ValueError):
        block.eliminate_zeros()
    block.has_sorted_indices = False
    with pytest.raises(ValueError):
        block.sort_indices()
    again = _handed_out(ops, pr)[kind]
    assert again.data is not block.data
    assert again.indices is block.indices and again.indptr is block.indptr
    assert again.has_sorted_indices and again.has_canonical_format
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(again, name), getattr(kept, name))


def test_patterns_and_layout_die_with_form_operators():
    """The templates belong to their patterns and layout, which nothing
    outside the operators keeps alive."""
    import gc
    import weakref

    ops = FormOperators(structured_mesh(2))
    _handed_out(ops, ReducedParams(1.0, 1.0, 0.0))
    refs = [weakref.ref(obj) for obj in (ops._upattern, ops._vpattern,
                                         ops._saddle)]
    del ops
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


def test_pattern_rejects_a_dof_in_no_cell():
    space = FESpace(structured_mesh(2), "rt0")

    class Orphan:  # one more dof than the cells reach
        ndof = space.ndof + 1
        cell_dofs = space.cell_dofs
        free_dofs = space.free_dofs

    with pytest.raises(ValueError, match="no cell"):
        assembly.GramPattern(Orphan())


def test_norm_only_grams_are_built_on_first_use(monkeypatch):
    """A direct solve never builds GRAD or DD_v; the first norm_blocks
    call sums each once, and every later reader reuses it."""
    from biotfem.solver import DirectSolver

    ops = FormOperators(structured_mesh(4))
    pr = ReducedParams(1e4, 1e-4, 1.0)
    DirectSolver(ops.block_system(pr))
    assert not {"_GRAD", "_DD_v"} & set(ops.__dict__)

    calls = []
    lower = assembly.GramPattern.lower

    def counting(self, *args):
        calls.append(args)
        return lower(self, *args)

    monkeypatch.setattr(assembly.GramPattern, "lower", counting)
    ops.norm_blocks(pr)
    assert len(calls) == 2
    ops.norm_blocks(ReducedParams(1.0, 1.0, 0.0))
    ops.natural_norm_blocks(pr)
    ops.grad_norm_gram()
    ops.GRAD, ops.DD_v
    assert len(calls) == 2


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
    got = FormOperators(mesh, ("bdm1", "rt0", "p0"),
                        DGConfig(10.0)).ah_full().toarray()
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
    """Reference for the batched face kernels: a plain loop over edges,
    with the traces of each edge pulled back to the reference cell and the
    gradients from `cell_grad`.  Returns dense PEN, CONS and the
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
        vals = pulled_back_values(space, np.array(sides), pts)
        jump, avg, uh = [], [], []
        for s, k in enumerate(sides):
            val = vals[s]
            grad = np.broadcast_to(space.cell_grad[k][:, None],
                                   val.shape + (2,))
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
    assert _error_jump_seminorm(ops.uspace, coeffs, _edge_exact(
        ops.uspace, u)) == pytest.approx(seminorm, rel=1e-14)


def _volume_grams_by_quadrature(ops):
    """Reference for the per-cell volume Grams: every integrand summed over
    the six points of the degree-4 rule, as dense matrices by name."""
    rule = triangle_rule(4)
    wK = rule.weights[None, :] * ops.uspace.detJ[:, None]
    u, v = ops.uspace, ops.vspace

    def at_points(arr):  # a per-cell array, repeated at every point
        return np.repeat(arr[:, :, None], len(rule.points), axis=2)

    grad, div_u, div_v = (at_points(arr) for arr in
                          (u.cell_grad, u.cell_div, v.cell_div))
    eps = 0.5 * (grad + np.swapaxes(grad, -2, -1))

    def gram(space, form, x):
        out = np.zeros((space.ndof, space.ndof))
        dofs = space.cell_dofs
        np.add.at(out, (dofs[:, :, None], dofs[:, None, :]),
                  np.einsum(form, wK, x, x))
        return out

    def coupling(space, div):
        out = np.zeros((space.ndof, ops.mesh.num_cells))
        cells = np.broadcast_to(np.arange(ops.mesh.num_cells)[:, None],
                                space.cell_dofs.shape)
        np.add.at(out, (space.cell_dofs, cells),
                  -np.einsum("kq,kiq->ki", wK, div))
        return out

    return {"EPS": gram(u, "kq,kiqab,kjqab->kij", eps),
            "GRAD": gram(u, "kq,kiqab,kjqab->kij", grad),
            "DD_u": gram(u, "kq,kiq,kjq->kij", div_u),
            "DD_v": gram(v, "kq,kiq,kjq->kij", div_v),
            "M_v": gram(v, "kq,kiqa,kjqa->kij", v.tabulate(rule.points)),
            "B_up": coupling(u, div_u),
            "B_vp": coupling(v, div_v)}


@pytest.mark.parametrize("family", ["bdm1", "rt0", "p1cvec"])
def test_volume_grams_match_degree_4_quadrature(family, perturbed_mesh):
    """The Grams built from per-cell derivatives times |K| equal the sums
    over the degree-4 rule on a perturbed mesh."""
    ops = FormOperators(perturbed_mesh[4], (family, "rt0", "p0"))
    for name, ref in _volume_grams_by_quadrature(ops).items():
        got = getattr(ops, name).toarray()
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name


def test_vanishing_divergence_rejected():
    """Divergences that all vanish on one cell span no constants there,
    and the compatibility check names that cell.  No shipped family fails
    it, so a stub stands in: bdm1's per-cell divergences with those of
    cell 2 zeroed."""
    div = FESpace(structured_mesh(2), "bdm1").cell_div.copy()
    div[2] = 0.0

    class Stub:
        cell_div = div

    with pytest.raises(IncompatibleSpaces, match="cell 2 has rank 0"):
        assembly._check_div_compatibility(Stub(), "stub")


@pytest.mark.parametrize("families,slot", [
    (("p0", "rt0", "p0"), "displacement"),
    (("bdm1", "p0", "p0"), "flux"),
], ids=["displacement", "flux"])
def test_scalar_family_in_a_vector_slot_rejected(families, slot):
    with pytest.raises(IncompatibleSpaces, match=f"{slot} family"):
        FormOperators(structured_mesh(2), families)


def test_non_p0_pressure_rejected():
    with pytest.raises(IncompatibleSpaces):
        FormOperators(structured_mesh(2), ("bdm1", "rt0", "p1cvec"))


def test_ah_spd_on_constrained_dofs(ops_bdm):
    w = np.linalg.eigvalsh(ops_bdm[2].ah_matrix().toarray())
    assert w.min() > 0


@pytest.mark.parametrize("lam,rp,ap", [(1, 1, 0), (1e4, 1e-4, 1)])
def test_norm_blocks_spd(ops_bdm, lam, rp, ap):
    from scipy.linalg import null_space

    nb = ops_bdm[2].norm_blocks(ReducedParams(lam, rp, ap))
    for M in (nb.N_U, nb.N_V):
        assert np.linalg.eigvalsh(M.toarray()).min() > 0
    Z = null_space(ops_bdm[2].areas[None])
    assert np.linalg.eigvalsh(Z.T @ nb.N_P.toarray() @ Z).min() > 0


def test_pressure_norm_is_scaled_cell_areas(ops_bdm):
    nb = ops_bdm[2].norm_blocks(ReducedParams(4.0, 1e6, 0.1))
    gamma = ReducedParams(4.0, 1e6, 0.1).gamma
    want = gamma * ops_bdm[2].areas
    assert np.abs(nb.N_P.diagonal() - want).max() <= 1e-15
    assert (nb.N_P - sps.diags(nb.N_P.diagonal())).nnz == 0


def test_returned_blocks_do_not_alias_cached_grams():
    """The free-dof Grams are restricted once per FormOperators, on first
    use; a write into a returned block must not reach the next point.
    Every returned block is read-only, so the write raises."""
    ops = FormOperators(structured_mesh(2))
    fresh = FormOperators(structured_mesh(2))
    assert not [k for k in vars(fresh) if k.endswith("_free")]
    pr = ReducedParams(1e4, 1e-4, 1.0)
    makers = ("block_system", "norm_blocks", "natural_norm_blocks")
    for name in makers:
        mats = [m for m in vars(getattr(ops, name)(pr)).values()
                if sps.issparse(m)]
        assert len(mats) == (5 if name == "block_system" else 3)
        for mat in mats:
            with pytest.raises(ValueError):
                mat.data[:] = np.nan
    for name in makers:
        got, want = (getattr(o, name)(pr) for o in (ops, fresh))
        for key, mat in vars(want).items():
            if sps.issparse(mat):
                assert (getattr(got, key) != mat).nnz == 0, (name, key)


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
    tab = sp.tabulate(ref)
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
    """A discrete field is affine on each cell with gradient cell_gradient,
    so its divergence is one constant per cell: cell_divergence."""
    sp = ops_bdm[4].uspace
    coeffs = rng.standard_normal(sp.ndof)
    points = triangle_rule(4).points
    val = sp.eval_field(coeffs, points)
    dx = sp.mesh.cell_points(points) - sp.x0[:, None]
    grad = sp.cell_gradient(coeffs)
    affine = val[:, :1] + np.einsum("kab,kqb->kqa", grad, dx - dx[:, :1])
    assert np.abs(val - affine).max() <= 1e-13 * np.abs(val).max()
    div = sp.cell_divergence(coeffs)
    assert np.abs(div - np.trace(grad, axis1=1, axis2=2)).max() \
        <= 1e-13 * (1 + np.abs(div).max())


def test_korn_bounds_within_fixed_interval(ops_bdm):
    """Equivalence eigenvalues of the strain and gradient norms stay inside
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
        D = ops_bdm[n].grad_norm_gram()
        for _ in range(10):
            u = rng.standard_normal(A.shape[0])
            w = rng.standard_normal(A.shape[0])
            num = abs(u @ (A @ w))
            den = np.sqrt(u @ (D @ u)) * np.sqrt(w @ (D @ w))
            assert num <= 10.5 * den


def test_matrix_market_roundtrip(tmp_path, ops_bdm):
    from scipy.io import mmread

    bs = ops_bdm[2].block_system(ReducedParams(1, 1, 0))
    path = tmp_path / "A_uu.mtx"
    export_matrix_market(path, bs.A_uu)
    back = mmread(path).tocsr()
    assert abs(back - bs.A_uu).max() <= 1e-15
