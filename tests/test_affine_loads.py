"""Parameter-affine manufactured loads.

`manufactured_case` gives f = f_0 + lam f_1 and g = g_0 + R_p g_1 +
alpha_p g_2 as `AffineLoad`s.  `FormOperators.rhs` assembles the load
vectors of their components once per operators and combines them per
point.  The closed-form loads below are the reference: the loads must
agree with them pointwise and after assembly, the components must be
evaluated once for a whole sweep, and the bincount that sums the vector
load must equal `np.add.at` bitwise.
"""
import itertools

import numpy as np
import pytest

from biotfem import analysis
from biotfem.analysis import manufactured_case
from biotfem.assembly import AffineLoad, FormOperators
from biotfem.elements import project_qh, triangle_rule
from biotfem.meshing import structured_mesh
from biotfem.params import ReducedParams

from conftest import AP_GRID, LAM_GRID, RP_GRID

GRID = [ReducedParams(*pt) for pt in itertools.product(LAM_GRID, RP_GRID,
                                                       AP_GRID)]


def closed_form_f(params):
    pi, lam = np.pi, params.lam

    def f(x, y):
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        base = (pi * pi * sx * sy
                - 0.5 * pi * pi * (cx * cy - sx * sy)
                - lam * pi * pi * (cx * cy - sx * sy))
        return np.stack([base - pi * sx * cy, base - pi * cx * sy], axis=-1)
    return f


def closed_form_g(params):
    pi, Rp, alpha_p = np.pi, 1.0 / params.rp_inv, params.alpha_p

    def g(x, y):
        div_u = pi * (np.cos(pi * x) * np.sin(pi * y)
                      + np.sin(pi * x) * np.cos(pi * y))
        div_v = 2.0 * pi * pi * Rp * np.cos(pi * x) * np.cos(pi * y)
        return -div_u - div_v - alpha_p * np.cos(pi * x) * np.cos(pi * y)
    return g


def _close(got, want, tol=1e-14):
    return np.abs(got - want).max() <= tol * np.abs(want).max()


def test_loads_match_the_closed_form_pointwise(rng):
    x, y = rng.uniform(0.0, 1.0, (2, 7, 5))
    for pr in GRID:
        case = manufactured_case(pr)
        assert isinstance(case.f, AffineLoad)
        assert isinstance(case.g, AffineLoad)
        assert case.f(x, y).shape == (7, 5, 2)
        assert case.g(x, y).shape == (7, 5)
        assert _close(case.f(x, y), closed_form_f(pr)(x, y)), pr
        assert _close(case.g(x, y), closed_form_g(pr)(x, y)), pr


@pytest.fixture(scope="module")
def load_operators(perturbed_mesh):
    return {"structured-4": FormOperators(structured_mesh(4)),
            "structured-12": FormOperators(structured_mesh(12)),
            "perturbed-8": FormOperators(perturbed_mesh[8])}


@pytest.mark.parametrize("name", ["structured-4", "structured-12",
                                  "perturbed-8"])
def test_assembled_loads_match_the_closed_form(load_operators, name):
    ops = load_operators[name]
    for pr in GRID:
        case = manufactured_case(pr)
        f, g = closed_form_f(pr), closed_form_g(pr)
        got = ops.rhs(f=case.f, g=case.g)
        want = ops.rhs(f=lambda x, y: f(x, y), g=lambda x, y: g(x, y))
        assert not np.any(got[1]) and not np.any(want[1])
        for a, b in zip(got[::2], want[::2]):
            assert _close(a, b), pr


def test_a_sweep_evaluates_each_component_once(monkeypatch):
    calls = {"f": 0, "g": 0}

    def counted(key, parts):
        def wrapper(x, y):
            calls[key] += 1
            return parts(x, y)
        return wrapper

    monkeypatch.setattr(analysis, "_f_parts",
                        counted("f", analysis._f_parts))
    monkeypatch.setattr(analysis, "_g_parts",
                        counted("g", analysis._g_parts))
    ops = FormOperators(structured_mesh(4))
    for pr in GRID:
        case = manufactured_case(pr)
        ops.block_system(pr, f=case.f, g=case.g)
    assert len(GRID) == 40 and calls == {"f": 1, "g": 1}
    # other operators assemble their own components
    FormOperators(structured_mesh(4)).block_system(pr, f=case.f, g=case.g)
    assert calls == {"f": 2, "g": 2}


def test_plain_callables_are_assembled_at_every_call():
    ops = FormOperators(structured_mesh(2))
    scale = [1.0]

    def g(x, y):
        return scale[0] * np.cos(np.pi * x)

    first = ops.rhs(g=g)[2]
    scale[0] = 2.0
    assert np.array_equal(ops.rhs(g=g)[2], 2.0 * first)
    assert not ops._g_cache  # nothing kept for a plain callable


def test_vector_load_bincount_equals_add_at(perturbed_mesh):
    """The vector load of a plain callable sums its cell vectors with one
    bincount, bitwise equal to np.add.at over the same cell vectors."""
    ops = FormOperators(perturbed_mesh[8])
    pr = ReducedParams(1e4, 1e-4, 1.0)
    f = closed_form_f(pr)
    sp, rule = ops.uspace, triangle_rule(8)
    wK = rule.weights[None, :] * sp.detJ[:, None]
    xy = ops.mesh.cell_points(rule.points)
    val = sp.tabulate(rule.points)
    nc, nloc = val.shape[:2]
    wf = (wK[:, :, None] * f(xy[..., 0], xy[..., 1])).reshape(nc, 1, -1)
    elem = np.matmul(wf, np.moveaxis(val, 1, -1).reshape(nc, -1,
                                                         nloc))[:, 0]
    oracle = np.zeros(sp.ndof)
    np.add.at(oracle, sp.cell_dofs.ravel(), elem.ravel())
    assert ops.rhs(f=f)[0].tobytes() == oracle.tobytes()


@pytest.mark.parametrize("pt", [(1.0, 1.0, 0.0), (1e4, 1e-4, 1.0),
                                (1e8, 1e-8, 1.0), (1.0, 1e8, 0.0)])
def test_audit_of_the_affine_source_agrees_with_the_assembled_one(pt):
    """The Q_h g that `conservation_audit` reads from the assembled affine
    load equals the cell means of the source itself."""
    pr = ReducedParams(*pt)
    case = manufactured_case(pr)
    ops = FormOperators(structured_mesh(4))
    system = ops.block_system(pr, f=case.f, g=case.g)
    assembled = system.rhs_p / ops.areas
    scale = np.abs(assembled).max()
    assert np.abs(assembled - project_qh(case.g, ops.mesh)).max() \
        <= 1e-14 * scale


@pytest.mark.parametrize("family", ["bdm1", "rt0", "p1cvec"])
def test_vector_load_contracts_the_value_table_without_a_copy(
        family, perturbed_mesh):
    """Basis values are laid out basis-last, so the vector load's
    (point, component) rows are a view of the degree-8 table, and its load
    vectors equal those of a contiguous copy of the table bitwise."""
    ops = FormOperators(perturbed_mesh[8], (family, "rt0", "p0"))
    sp, rule = ops.uspace, triangle_rule(8)
    val = sp.tabulate(rule.points)
    nc, nloc = val.shape[:2]
    rows = np.moveaxis(val, 1, -1).reshape(nc, -1, nloc)
    assert np.shares_memory(val, rows)
    wK = rule.weights[None, :] * sp.detJ[:, None]
    xy = ops.mesh.cell_points(rule.points)
    fv = analysis._f_parts(xy[..., 0], xy[..., 1])
    wf = np.moveaxis(wK[:, :, None] * fv, 0, 1).reshape(nc, len(fv), -1)
    elem = np.matmul(wf, np.ascontiguousarray(rows))
    oracle = np.stack([np.bincount(sp.cell_dofs.ravel(), weights=e.ravel(),
                                   minlength=sp.ndof)
                       for e in np.moveaxis(elem, 1, 0)])
    assert ops._f_vectors(analysis._f_parts).tobytes() == oracle.tobytes()
