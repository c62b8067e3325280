"""The cached block layout reproduces sps.bmat / sps.block_diag bitwise.

`assembly.block_matrix` fills the saddle matrix from the CSR layout its
operators keep (and any other blocks, and the matrix bordered by the
cell-area column, from a layout built for them), each laid out by one
counting sort of block coordinates, and `assembly.block_diagonal`
concatenates CSR arrays.  Every
matrix built that way must equal, in indptr, indices and data, the scipy
reference built here, over the whole coefficient grid, on structured and
perturbed meshes, and after a block changes its sparsity pattern.
"""
import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sps

from biotfem import assembly
from biotfem.assembly import FormOperators, block_diagonal, block_matrix
from biotfem.meshing import structured_mesh
from biotfem.params import ReducedParams
from biotfem.solver import DirectSolver, build_preconditioner

from conftest import AP_GRID, LAM_GRID, RP_GRID

GRID = list(itertools.product(LAM_GRID, RP_GRID, AP_GRID))


def _bmat(system, bordered=False):
    blocks = [[system.A_uu, None, system.B_up],
              [None, system.A_vv, system.B_vp],
              [system.B_up.T, system.B_vp.T, system.C_pp]]
    if bordered:
        col = system.mesh.signed_areas()[:, None]
        blocks = [row + [None] for row in blocks] + [[None, None, col.T,
                                                      None]]
        blocks[2][3] = col
    return sps.bmat(blocks, format="csr")


def _scaled(K, d):
    """d_i K_ij d_j, as the direct solver scales its bordered matrix."""
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    K.data *= d[rows] * d[K.indices]
    return K


def _assert_bitwise(got, want):
    assert got.format == "csr" and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype.kind == b.dtype.kind, name
        assert a.tobytes() == b.astype(a.dtype).tobytes(), name


@pytest.fixture(scope="module")
def operators(ops_bdm, perturbed_mesh):
    ops = {f"structured-{n}": o for n, o in ops_bdm.items()}
    ops.update({f"perturbed-{n}": FormOperators(mesh)
                for n, mesh in perturbed_mesh.items()})
    return ops


@pytest.mark.parametrize("name", ["structured-2", "structured-4",
                                  "structured-8", "perturbed-4",
                                  "perturbed-8"])
def test_layout_matches_scipy_over_the_grid(operators, name):
    ops = operators[name]
    for pt in GRID:
        pr = ReducedParams(*pt)
        system = ops.block_system(pr)
        norms = ops.norm_blocks(pr)
        _assert_bitwise(system.monolithic(), _bmat(system))
        _assert_bitwise(block_matrix(system, bordered=True),
                        _bmat(system, bordered=True))
        _assert_bitwise(norms.monolithic(),
                        sps.block_diag((norms.N_U, norms.N_V, norms.N_P),
                                       format="csr"))
        pc = build_preconditioner(norms, system)
        _assert_bitwise(block_diagonal(pc.blocks),
                        sps.block_diag(pc.blocks, format="csr"))
    # the grid shares one pattern, so it shares the operators' layout
    assert system.monolithic().indices is ops._saddle.template.indices


def _count_layouts(monkeypatch) -> list:
    """The `bordered` flag of every `BlockLayout` built from now on."""
    built, real = [], assembly.BlockLayout.__init__

    def counted(self, blocks, bordered=False):
        built.append(bordered)
        real(self, blocks, bordered)

    monkeypatch.setattr(assembly.BlockLayout, "__init__", counted)
    return built


def test_one_layout_per_operators_over_the_grid(monkeypatch):
    """Every saddle matrix of one operator set over the lambda-major grid
    takes the operators' layout, built once.  A direct solver and a
    `replace`d system, which has no operators, each build a layout of
    their own, leave the operators' as it was, and give scipy's
    matrix."""
    ops = FormOperators(structured_mesh(4))
    built = _count_layouts(monkeypatch)
    systems = [ops.block_system(ReducedParams(*pt)) for pt in GRID]
    for system in systems:
        _assert_bitwise(system.monolithic(), _bmat(system))
    assert built == [False]
    layout = ops._saddle
    for system in systems:
        del built[:]
        solver = DirectSolver(system)
        _assert_bitwise(solver.K, _scaled(_bmat(system, bordered=True),
                                          solver.d))
        copied = dataclasses.replace(system)
        _assert_bitwise(copied.monolithic(), _bmat(copied))
        assert built == [True, False]
        assert ops._saddle is layout


def test_direct_solver_scales_the_bordered_reference(operators):
    system = operators["perturbed-4"].block_system(
        ReducedParams(1e4, 1e-4, 1.0))
    solver = DirectSolver(system)
    _assert_bitwise(solver.K, _scaled(_bmat(system, bordered=True), solver.d))


def test_direct_solver_leaves_no_layout_behind():
    """A direct solver borders its matrix once, so it does not keep a
    layout alive for the life of the operators."""
    ops = FormOperators(structured_mesh(2))
    DirectSolver(ops.block_system(ReducedParams(1.0, 1.0, 0.0)))
    assert "_saddle" not in vars(ops)


def test_changed_pattern_rebuilds_the_layout(operators):
    """A block with one more entry, in a `replace`d system, gets a layout
    of its own, and the operators' layout still serves their systems."""
    ops = operators["perturbed-4"]
    system = ops.block_system(ReducedParams(1e2, 1.0, 0.0))
    system.monolithic()
    kept = ops._saddle
    A = system.A_uu.tolil()
    cols = A.rows[0]
    A[0, next(j for j in range(A.shape[1]) if j not in cols)] = 0.5
    edited = dataclasses.replace(system, A_uu=A.tocsr())
    assert edited.A_uu.nnz == system.A_uu.nnz + 1
    for sys_ in (edited, system):
        _assert_bitwise(sys_.monolithic(), _bmat(sys_))
        _assert_bitwise(block_matrix(sys_, bordered=True),
                        _bmat(sys_, bordered=True))
    assert ops._saddle is kept


def test_in_place_call_on_the_saddle_matrix_raises(operators):
    """The saddle matrices of one layout share its read-only index arrays
    and hold read-only data, so a write into a returned matrix or an
    in-place call on it raises and leaves the cached layout intact."""
    system = operators["structured-4"].block_system(
        ReducedParams(1.0, 1.0, 0.0))
    A = system.monolithic()
    with pytest.raises(ValueError):
        A.data[:] = 0.0
    with pytest.raises(ValueError):
        A.eliminate_zeros()
    _assert_bitwise(system.monolithic(), _bmat(system))


@pytest.mark.parametrize("itype", [np.int32, np.int64])
def test_sorted_csr_matches_a_lexsort_reference(itype):
    """The counting sort behind every layout, on repeated (row, column)
    pairs and empty rows, in both integer types `_index_type` picks."""
    rng = np.random.default_rng(7)
    n = 40
    rows = rng.choice(np.arange(0, n, 3), size=600).astype(itype)
    cols = rng.integers(0, 12, size=600).astype(itype)
    indptr, indices, order = assembly._sorted_csr(
        n, rows, cols, np.arange(600, dtype=itype))
    for a in (indptr, indices, order):
        assert a.dtype == itype
    assert np.array_equal(np.diff(indptr), np.bincount(rows, minlength=n))
    assert np.any(np.diff(indptr) == 0)
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    # within a row the columns are sorted
    assert np.all((np.diff(indices) >= 0) | (np.diff(row_of) > 0))
    # each entry carries its own id, every id once
    assert np.array_equal(np.sort(order), np.arange(600))
    assert np.array_equal(rows[order], row_of)
    assert np.array_equal(cols[order], indices)
    # the lexsort reference: the same entries in (row, column) order
    ref = np.lexsort((cols, rows))
    assert np.array_equal(rows[ref], row_of)
    assert np.array_equal(cols[ref], indices)


def test_mismatched_block_shapes_raise(operators):
    system = operators["structured-2"].block_system(
        ReducedParams(1.0, 1.0, 0.0))
    bad = dataclasses.replace(system, B_vp=system.B_vp[:, :-1].tocsr())
    with pytest.raises(ValueError, match="saddle matrix"):
        bad.monolithic()


def test_layout_keeps_the_shared_read_only_blocks():
    """The systems of one FormOperators share their coupling blocks and
    C_pp's index arrays with M_p, all read-only, so the operators' one
    layout, built from the templates of their blocks, serves them all.
    A `replace`d system holds blocks that may change after a layout is
    built, copies or writeable arrays, so its matrix is laid out from
    its own blocks."""
    ops = FormOperators(structured_mesh(4))
    first, second = (ops.block_system(ReducedParams(*pt))
                     for pt in ((1.0, 1.0, 0.0), (1e8, 1e-8, 1.0)))
    assert first.B_up is second.B_up and first.B_vp is second.B_vp
    assert np.shares_memory(first.C_pp.indices, ops.M_p.indices)
    for mat in (first.B_up, first.B_vp, first.C_pp, ops.M_p):
        with pytest.raises(ValueError):
            mat.indices[0] = 0
    for mat in (first.B_up, first.B_vp):
        with pytest.raises(ValueError):
            mat.data[0] = 0.0
    first.monolithic()
    layout = ops._saddle
    _assert_bitwise(second.monolithic(), _bmat(second))
    blocks = (second.A_uu, second.B_up, second.A_vv, second.B_vp,
              second.C_pp)
    templates = (ops._upattern._free, ops._B_up_free, ops._vpattern._free,
                 ops._B_vp_free, ops.M_p)
    for template, block in zip(templates, blocks):
        assert np.shares_memory(template.indptr, block.indptr)
        assert np.shares_memory(template.indices, block.indices)
    copied = dataclasses.replace(second, A_uu=second.A_uu.copy())
    writeable = dataclasses.replace(
        second, **{name: getattr(second, name).copy() for name in
                   ("A_uu", "B_up", "A_vv", "B_vp", "C_pp")})
    for system in (copied, writeable):
        _assert_bitwise(system.monolithic(), _bmat(system))
    assert ops._saddle is layout
