import numpy as np
import pytest

from biotfem.assembly import FormOperators
from biotfem.meshing import from_arrays, structured_mesh

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


@pytest.fixture(scope="session")
def perturbed_mesh():
    """Seeded perturbed meshes with mixed diagonals, keyed by n; congruent
    structured meshes hide kernels that mix up cells."""
    return {n: perturbed_unit_square(n) for n in (4, 8)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
