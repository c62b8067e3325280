"""
Meshes, conforming flux elements and the commuting projection
=============================================================

Builds structured triangulations, checks the edge bookkeeping that fixes
every jump sign downstream, and demonstrates that taking the divergence of
the canonical interpolant is the same as projecting the divergence.
"""

import numpy as np

from biotfem import (FESpace, interpolate_pi_div, project_qh,
                     structured_mesh)

for n in (1, 2, 4, 8):
    m = structured_mesh(n)
    print(f"n={n}: {m.num_vertices:4d} vertices, {m.num_cells:4d} cells, "
          f"{m.num_edges:4d} edges ({len(m.boundary_edges())} on the "
          f"boundary), h_max = {m.h_max:.4f}")

mesh = structured_mesh(4)

# normal-trace continuity of a random conforming flux field
rng = np.random.default_rng(3)
space = FESpace(mesh, "bdm1")
coeffs = rng.standard_normal(space.ndof)
from numpy.polynomial.legendre import leggauss

snod, _ = leggauss(4)
worst = 0.0
for e in mesh.interior_edges():
    k1, k2 = mesh.edge_cells[e]
    xa, xb = mesh.vertices[mesh.edge_vertices[e]]
    pts = 0.5 * (xa + xb) + 0.5 * np.outer(snod, xb - xa)
    tr = space.tabulate_at(np.array([k1, k2]), np.stack([pts, pts]))
    v1 = np.einsum("i,iqa->qa", coeffs[space.cell_dofs[k1]], tr[0])
    v2 = np.einsum("i,iqa->qa", coeffs[space.cell_dofs[k2]], tr[1])
    worst = max(worst, np.abs((v1 - v2) @ mesh.edge_normal[e]).max())
print("max normal jump of a random conforming field:", worst)


def u(x, y):
    s = np.sin(np.pi * x) * np.sin(np.pi * y)
    return np.stack([s, s], axis=-1)


def div_u(x, y):
    return np.pi * (np.cos(np.pi * x) * np.sin(np.pi * y)
                    + np.sin(np.pi * x) * np.cos(np.pi * y))


dofs = interpolate_pi_div(u, mesh, "bdm1")
lhs = FESpace(mesh, "bdm1").cell_divergence(dofs)
rhs = project_qh(div_u, mesh)
print("commuting-diagram defect (interpolate then div vs project div):",
      np.abs(lhs - rhs).max())
