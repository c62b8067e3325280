"""`GramPattern` lays out its free-dof pattern from the lower pattern alone.

The free-dof pattern is read straight off the lower pattern's free rows
and columns.  Every array must equal, in type and value, what the
coordinate builder `conftest.coordinate_pattern` makes: the
lower-triangle coordinates of every local block sorted into the lower
pattern, the strict lower part transposed into the upper part, the whole
pattern on all dofs, and its free rows and columns picked from that.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from biotfem.assembly import FormOperators, GramPattern
from biotfem.meshing import structured_mesh

from conftest import coordinate_pattern, edge_dofs


def _same(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


MESHES = [("structured", 1), ("structured", 2), ("structured", 8),
          ("perturbed", 4), ("perturbed", 8)]


@pytest.mark.parametrize("family", ["bdm1", "rt0", "p1cvec"])
@pytest.mark.parametrize("kind,n", MESHES)
def test_pattern_matches_the_coordinate_builder(family, kind, n,
                                                perturbed_mesh):
    """Every array and map of the displacement pattern (cell and edge
    blocks) and of the flux pattern equals the oracle's bitwise."""
    mesh = structured_mesh(n) if kind == "structured" else perturbed_mesh[n]
    ops = FormOperators(mesh, (family, "rt0", "p0"))
    # the spaces, and the displacement space with every dof free, whose
    # free pattern ends with the last dof's row
    unconstrained = SimpleNamespace(ndof=ops.uspace.ndof,
                                    cell_dofs=ops.uspace.cell_dofs,
                                    free_dofs=np.arange(ops.uspace.ndof))
    for space, tables in ((ops.uspace, (edge_dofs(ops),)),
                          (ops.vspace, ()), (unconstrained, ())):
        pattern = GramPattern(space, *tables)
        want = coordinate_pattern(space, *tables)
        assert pattern.nlow == want["nlow"]
        assert len(pattern._maps) == len(want["maps"])
        for got_map, want_map in zip(pattern._maps, want["maps"]):
            assert all(_same(g, w) for g, w in zip(got_map, want_map))
        for name in ("free_indptr", "free_indices", "free_mirror"):
            assert _same(getattr(pattern, name), want[name]), name
    # the operators' own patterns: the displacement one has dropped its
    # edge maps, which no later Gram sums over
    for pattern, space in ((ops._upattern, ops.uspace),
                           (ops._vpattern, ops.vspace)):
        want = coordinate_pattern(space, *(
            (edge_dofs(ops),) if space is ops.uspace else ()))
        assert all(_same(g, w) for g, w in zip(pattern._maps[0],
                                               want["maps"][0]))
        for name in ("free_indptr", "free_indices", "free_mirror"):
            assert _same(getattr(pattern, name), want[name]), name
