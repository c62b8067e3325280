import dataclasses
import os

# One BLAS thread, as CI and the benchmark run, unless the caller chose:
# each small dense LAPACK call of the suite pays a thread hand-off
# otherwise.  OpenBLAS reads these when numpy loads, so they are set
# before the first import of numpy.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREADS:
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.sparse as sps  # noqa: E402
from scipy.sparse import _sparsetools  # noqa: E402

from biotfem.assembly import FormOperators, _index_type  # noqa: E402
from biotfem.elements import HDIV_FAMILIES, _gen_eval  # noqa: E402
from biotfem.meshing import (BOUNDARY, from_arrays,  # noqa: E402
                             structured_mesh)


def pytest_report_header(config):
    return "BLAS threads: " + ", ".join(
        f"{name}={os.environ[name]}" for name in BLAS_THREADS)


# acceptance parameter grid, shared by several suites
LAM_GRID = [1.0, 1e2, 1e4, 1e8]
RP_GRID = [1e-8, 1e-4, 1.0, 1e4, 1e8]
AP_GRID = [0.0, 1.0]


@pytest.fixture(scope="session")
def ops_bdm():
    """Stable-triple operators on the acceptance meshes, built once."""
    return {n: FormOperators(structured_mesh(n), ("bdm1", "rt0", "p0"))
            for n in (2, 4, 8)}


@pytest.fixture(scope="session")
def ops_p1c():
    """Unstable-triple operators for the negative experiments."""
    return {n: FormOperators(structured_mesh(n), ("p1cvec", "rt0", "p0"))
            for n in (2, 4)}


def perturbed_unit_square(n: int, seed: int = 1706):
    """n-by-n unit-square mesh whose squares are split along a random
    diagonal and whose interior vertices move by up to 0.2 h, so that
    neighbouring cells differ in shape, orientation and area."""
    rng = np.random.default_rng([seed, n])
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack((xg.ravel(), yg.ravel()))
    inner = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    vertices[inner] += rng.uniform(-0.2 / n, 0.2 / n, (inner.sum(), 2))
    i, j = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n),
                                           indexing="xy"))
    v00 = j * (n + 1) + i
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    rising = rng.integers(0, 2, n * n).astype(bool)[:, None]
    first = np.where(rising, np.column_stack((v00, v10, v11)),
                     np.column_stack((v00, v10, v01)))
    second = np.where(rising, np.column_stack((v00, v11, v01)),
                      np.column_stack((v10, v11, v01)))
    return from_arrays(vertices, np.concatenate((first, second)))


def pulled_back_values(space, cells, phys_pts):
    """Physical basis values of a vector family by the reference pull-back,
    an oracle independent of the affine evaluation in `FESpace`:
    xi = Jinv (x - x0), the raw generators at xi, the contravariant Piola
    map J / det for H(div) families, then each cell's coefficients.

    cells has any shape and phys_pts (nq, 2) points per cell, broadcast
    against it; returns cells.shape + (nloc, nq, 2).
    """
    cells = np.asarray(cells)
    J = space.J[cells]
    xi = np.einsum("...ab,...qb->...qa", np.linalg.inv(J),
                   phys_pts - space.x0[cells][..., None, :])
    gen = np.moveaxis(_gen_eval(space.family, xi), 0, cells.ndim)
    if space.family in HDIV_FAMILIES:
        gen = (np.einsum("...ab,...gqb->...gqa", J, gen)
               / space.detJ[cells][..., None, None, None])
    return np.einsum("...gi,...gqa->...iqa", space.coeff[cells], gen)


def coordinate_pattern(space, *tables):
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


def edge_dofs(ops):
    """The two-sided edge dof table of the operators' face terms."""
    mesh, space = ops.mesh, ops.uspace
    edges = (mesh.boundary_edges() if space.family == "p1cvec"
             else np.arange(mesh.num_edges))
    k1, k2 = mesh.edge_cells[edges].T
    cells = np.stack((k1, np.where(k2 == BOUNDARY, k1, k2)))
    return space.cell_dofs[cells.T].reshape(len(edges), -1)


def full_gram(ops, low, flux=False) -> sps.csr_matrix:
    """Oracle: the Gram of `ops` with lower-pattern data `low` as CSR on
    all dofs, boundary dofs included, laid out by `coordinate_pattern`
    from the displacement pattern (cell and edge blocks) or, with `flux`,
    from the flux pattern."""
    space, tables = ((ops.vspace, ()) if flux
                     else (ops.uspace, (edge_dofs(ops),)))
    want = coordinate_pattern(space, *tables)
    return sps.csr_matrix((low[want["mirror"]], want["indices"],
                           want["indptr"]), shape=(space.ndof, space.ndof))


def norm_system(system, blocks):
    """`system` with its operator replaced by the block-diagonal norm
    `blocks` (N_U, N_V, N_P), a tuple or `NormBlocks`, and its couplings
    zeroed: every theta of its pencil against those blocks is 1."""
    N_U, N_V, N_P = blocks
    return dataclasses.replace(system, A_uu=N_U, A_vv=N_V, C_pp=N_P,
                               B_up=0.0 * system.B_up,
                               B_vp=0.0 * system.B_vp)


@pytest.fixture(scope="session")
def perturbed_mesh():
    """Seeded perturbed meshes with mixed diagonals, keyed by n; congruent
    structured meshes hide kernels that mix up cells."""
    return {n: perturbed_unit_square(n) for n in (4, 8)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
