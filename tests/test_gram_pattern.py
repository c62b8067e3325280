"""`GramPattern` lays out its patterns from the lower pattern alone.

The free-dof pattern is read straight off the lower pattern's free rows
and columns, and the pattern on all dofs is laid out on the first `full`
call.  Every array must equal, in type and value, what the coordinate
builder below makes: the lower-triangle coordinates of every local block
sorted into the lower pattern, the strict lower part transposed into the
upper part, the whole pattern on all dofs, and its free rows and columns
picked from that.  The builder is kept here as the oracle.
"""
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import _sparsetools

from biotfem.assembly import FormOperators, GramPattern, _index_type
from biotfem.meshing import BOUNDARY, structured_mesh
from biotfem.params import ReducedParams
from biotfem.solver import DirectSolver


def _coordinate_pattern(space, *tables):
    """Oracle: every array of the pattern, from the coordinates of every
    local lower-triangle entry, by way of the pattern on all dofs."""
    n = space.ndof
    tables = (space.cell_dofs,) + tables
    itype = _index_type(max(n + 1, sum(d.shape[0] * d.shape[1] ** 2
                                       for d in tables)))
    takes, rows, cols = [], [], []
    for dofs in tables:
        m, k = dofs.shape
        dofs = dofs.astype(itype)
        r = np.broadcast_to(dofs[:, :, None], (m, k, k)).reshape(-1)
        c = np.broadcast_to(dofs[:, None, :], (m, k, k)).reshape(-1)
        take = np.flatnonzero(r >= c)
        takes.append(take)
        rows.append(r[take])
        cols.append(c[take])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    nent = rows.size
    ptr = np.empty(n + 1, dtype=itype)
    col = np.empty(nent, dtype=itype)
    entry = np.empty(nent, dtype=itype)
    _sparsetools.coo_tocsr(n, n, nent, rows, cols,
                           np.arange(nent, dtype=itype), ptr, col, entry)
    _sparsetools.csr_sort_indices(n, ptr, col, entry)
    first = np.ones(nent, dtype=bool)
    first[1:] = col[1:] != col[:-1]
    first[ptr[:-1]] = True
    slot = np.cumsum(first, dtype=itype) - 1
    nlow = int(slot[-1]) + 1
    lptr = np.append(slot[ptr[:-1]], slot[-1] + 1)
    lcol = col[first]
    slots = np.empty(nent, dtype=np.intp)
    slots[entry] = slot
    bounds = np.cumsum([0] + [t.size for t in takes])
    maps = [(t, slots[a:b].copy())
            for t, a, b in zip(takes, bounds, bounds[1:])]
    strict = np.ones(nlow, dtype=bool)
    strict[lptr[1:] - 1] = False
    nup = nlow - n
    uptr = np.empty(n + 1, dtype=itype)
    ucol = np.empty(nup, dtype=itype)
    uslot = np.empty(nup, dtype=itype)
    _sparsetools.csr_tocsc(n, n, lptr - np.arange(n + 1, dtype=itype),
                           lcol[strict], np.flatnonzero(strict).astype(itype),
                           uptr, ucol, uslot)
    lpos = np.arange(nlow, dtype=itype) + np.repeat(uptr[:-1], np.diff(lptr))
    upos = np.arange(nup, dtype=itype) + np.repeat(lptr[1:], np.diff(uptr))
    indptr = lptr + uptr
    indices = np.empty(nlow + nup, dtype=itype)
    indices[lpos], indices[upos] = lcol, ucol
    mirror = np.empty(nlow + nup, dtype=np.intp)
    mirror[lpos], mirror[upos] = np.arange(nlow), uslot
    free = np.zeros(n, dtype=bool)
    free[space.free_dofs] = True
    kept = free[indices] & np.repeat(free, np.diff(indptr))
    counted = np.cumsum(np.append(False, kept), dtype=itype)
    renumber = np.cumsum(free, dtype=itype) - 1
    return {"nlow": nlow, "maps": maps,
            "indptr": indptr, "indices": indices, "mirror": mirror,
            "free_indptr": counted[np.append(indptr[space.free_dofs],
                                             indptr[-1])],
            "free_indices": renumber[indices[kept]],
            "free_mirror": mirror[kept]}


def _same(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


def _edge_dofs(ops):
    """The two-sided edge dof table of the operators' face terms."""
    mesh, space = ops.mesh, ops.uspace
    edges = (mesh.boundary_edges() if space.family == "p1cvec"
             else np.arange(mesh.num_edges))
    k1, k2 = mesh.edge_cells[edges].T
    cells = np.stack((k1, np.where(k2 == BOUNDARY, k1, k2)))
    return space.cell_dofs[cells.T].reshape(len(edges), -1)


MESHES = [("structured", 1), ("structured", 2), ("structured", 8),
          ("perturbed", 4), ("perturbed", 8)]


@pytest.mark.parametrize("family", ["bdm1", "rt0", "p1cvec"])
@pytest.mark.parametrize("kind,n", MESHES)
def test_pattern_matches_the_coordinate_builder(family, kind, n,
                                                perturbed_mesh):
    """Every array and map of the displacement pattern (cell and edge
    blocks) and of the flux pattern equals the oracle's bitwise, the
    arrays on all dofs only after the first `full` call."""
    mesh = structured_mesh(n) if kind == "structured" else perturbed_mesh[n]
    ops = FormOperators(mesh, (family, "rt0", "p0"))
    # the spaces, and the displacement space with every dof free, whose
    # free pattern ends with the last dof's row
    unconstrained = SimpleNamespace(ndof=ops.uspace.ndof,
                                    cell_dofs=ops.uspace.cell_dofs,
                                    free_dofs=np.arange(ops.uspace.ndof))
    for space, tables in ((ops.uspace, (_edge_dofs(ops),)),
                          (ops.vspace, ()), (unconstrained, ())):
        pattern = GramPattern(space, *tables)
        want = _coordinate_pattern(space, *tables)
        assert pattern.nlow == want["nlow"]
        assert len(pattern._maps) == len(want["maps"])
        for got_map, want_map in zip(pattern._maps, want["maps"]):
            assert all(_same(g, w) for g, w in zip(got_map, want_map))
        for name in ("free_indptr", "free_indices", "free_mirror"):
            assert _same(getattr(pattern, name), want[name]), name
        assert "_full" not in vars(pattern)
        pattern.full(np.zeros(pattern.nlow))
        template, mirror = pattern._full
        assert _same(template.indptr, want["indptr"])
        assert _same(template.indices, want["indices"])
        assert _same(mirror, want["mirror"])
    # the operators' own patterns: the displacement one has dropped its
    # edge maps, which no later Gram sums over
    for pattern, space in ((ops._upattern, ops.uspace),
                           (ops._vpattern, ops.vspace)):
        want = _coordinate_pattern(space, *(
            (_edge_dofs(ops),) if space is ops.uspace else ()))
        assert all(_same(g, w) for g, w in zip(pattern._maps[0],
                                               want["maps"][0]))
        for name in ("free_indptr", "free_indices", "free_mirror"):
            assert _same(getattr(pattern, name), want[name]), name


def test_blocks_and_solves_never_lay_out_the_pattern_on_all_dofs():
    """A system, its saddle matrix, the norm blocks and a direct solve
    read the free-dof patterns only; the pattern on all dofs is laid out
    by the first Gram property or `ah_full` that reads it."""
    ops = FormOperators(structured_mesh(4))
    pr = ReducedParams(1e4, 1e-4, 1.0)
    system = ops.block_system(pr)
    system.monolithic()
    ops.norm_blocks(pr).monolithic()
    ops.natural_norm_blocks(pr)
    DirectSolver(system).solve(system.rhs)
    for pattern in (ops._upattern, ops._vpattern):
        assert "_full" not in vars(pattern)
    ops.ah_full()
    assert "_full" in vars(ops._upattern)
    assert "_full" not in vars(ops._vpattern)
    ops.M_v
    assert "_full" in vars(ops._vpattern)
