"""One table of manufactured values per displacement space.

`error_norms` and `best_approximation_errors` read the exact fields of a
mesh level from one table, kept per displacement space for the last case
evaluated there, which `ManufacturedCase.at` fills from one sin/cos
evaluation of the points.  The reference is a copy of the unshared error
norms, which evaluated every field at every call: the errors and quasi
ratios must equal it bitwise.
"""
import collections
import dataclasses

import numpy as np
import pytest

from biotfem import analysis
from biotfem.analysis import (best_approximation_errors, convergence_study,
                              error_norms, expand_solution, manufactured_case,
                              solve_manufactured, triple_error_norms)
from biotfem.assembly import FormOperators
from biotfem.elements import (_cell_contract, edge_rule, project_qh,
                              triangle_rule)
from biotfem.meshing import BOUNDARY, structured_mesh
from biotfem.params import ReducedParams

POINTS = [(1.0, 1.0, 0.0), (1e8, 1e-8, 1.0), (1e4, 1e4, 0.0)]
FIELDS = ("u", "grad_u", "hess_u", "div_u", "p", "v", "div_v")
COS = np.cos  # not counted where a test counts np.cos calls


def unshared_error_norms(uspace, vspace, cu, cv, p_cells, case):
    """The error norms with every exact field evaluated at the call."""
    params, mesh = case.params, uspace.mesh
    rule = triangle_rule(8)
    xy = mesh.cell_points(rule.points)
    wK = rule.weights[None, :] * uspace.detJ[:, None]
    X, Y = xy[..., 0], xy[..., 1]

    # the derivatives are constant per cell: contract the per-cell arrays
    local = cu[uspace.cell_dofs]
    grad = _cell_contract(local, uspace.cell_grad)[:, None]
    div = _cell_contract(local, uspace.cell_div[:, :, None])
    e_grad = np.einsum("kq,kqab->", wK, (case.grad_u(X, Y) - grad)**2,
                       optimize=True)
    e_hess = np.einsum("k,kq,kqabc->", mesh.h_cell**2, wK,
                       case.hess_u(X, Y)**2, optimize=True)
    e_div = np.einsum("kq,kq->", wK, (case.div_u(X, Y) - div)**2,
                      optimize=True)
    snodes, sweights = edge_rule(4)
    pts = mesh.edge_points(snodes)
    cells, val = uspace.edge_traces(np.arange(mesh.num_edges), pts)
    uhe = np.einsum("sei,seiqa->seqa", cu[uspace.cell_dofs[cells]], val,
                    optimize=True)
    boundary = (mesh.edge_cells[:, 1] == BOUNDARY)[:, None, None]
    err = np.where(boundary, case.u(pts[..., 0], pts[..., 1]) - uhe[0],
                   uhe[1] - uhe[0])
    err_t = np.einsum("eqa,ea->eq", err, mesh.edge_tangent, optimize=True)
    e_jump = 0.5 * np.einsum("q,eq->", sweights, err_t**2, optimize=True)
    err_U = np.sqrt(e_grad + e_jump + e_hess + params.lam * e_div)

    vh = _cell_contract(cv[vspace.cell_dofs], vspace.tabulate(rule.points))
    e_v = np.einsum("kq,kqa->", wK, (case.v(X, Y) - vh)**2,
                    optimize=True)
    div_v = _cell_contract(cv[vspace.cell_dofs], vspace.cell_div[:, :, None])
    e_dv = np.einsum("kq,kq->", wK, (case.div_v(X, Y) - div_v)**2,
                     optimize=True)
    err_V = np.sqrt(params.rp_inv * e_v + e_dv / params.gamma)

    ph = np.asarray(p_cells)[:, None] * np.ones_like(wK)
    e_p = np.einsum("kq,kq->", wK, (case.p(X, Y) - ph)**2, optimize=True)
    return err_U, err_V, np.sqrt(params.gamma * e_p)


def unshared_level(ops, params):
    """Errors of the direct solve and of the interpolants on `ops`, by
    the unshared norms, for a case of their own."""
    case = manufactured_case(params)
    system, x, _, _ = solve_manufactured(ops, params, case)
    errs = unshared_error_norms(ops.uspace, ops.vspace,
                                *expand_solution(system, x), case)
    best = unshared_error_norms(
        ops.uspace, ops.vspace, ops.uspace.interpolate(case.u),
        ops.vspace.interpolate(case.v),
        project_qh(case.p, ops.mesh, zero_mean=True), case)
    return errs, best


@pytest.mark.parametrize("pt", POINTS)
def test_convergence_rows_equal_the_unshared_norms(pt):
    pr = ReducedParams(*pt)
    table = convergence_study(pr, [4, 8])
    for row in table.rows:
        errs, best = unshared_level(FormOperators(structured_mesh(row.n)), pr)
        assert (row.err_U, row.err_V, row.err_P) == errs
        assert row.quasi_ratio == float(sum(errs) / sum(best))


@pytest.mark.parametrize("pt", POINTS)
@pytest.mark.parametrize("n", [4, 8])
def test_perturbed_errors_equal_the_unshared_norms(pt, n, perturbed_mesh):
    pr = ReducedParams(*pt)
    errs, best = unshared_level(FormOperators(perturbed_mesh[n]), pr)
    ops = FormOperators(perturbed_mesh[n])
    system, x, _, case = solve_manufactured(ops, pr)
    assert error_norms(system, x, case) == errs
    assert best_approximation_errors(ops, case) == best


def counting_case(calls, base):
    """`base` with each field counting its calls by name and point shape."""
    def counted(name):
        field = getattr(base, name)

        def call(x, y):
            calls[name, np.shape(x)] += 1
            return field(x, y)
        return call
    return dataclasses.replace(base, **{f: counted(f) for f in FIELDS})


def test_convergence_evaluates_each_field_once_per_level(monkeypatch):
    calls = collections.Counter()
    monkeypatch.setattr(analysis, "manufactured_case", lambda params: (
        counting_case(calls, manufactured_case(params))))
    convergence_study(ReducedParams(1.0, 1.0, 0.0), [2, 4])
    nq = triangle_rule(8).weights.size
    for n in (2, 4):
        at_points = {f: calls[f, (2 * n * n, nq)] for f in FIELDS}
        assert at_points == dict.fromkeys(FIELDS, 1) | {"u": 0}


def count_waves(monkeypatch):
    """Count np.sin and np.cos calls."""
    calls = collections.Counter()
    for name in ("sin", "cos"):
        def wave(t, _fn=getattr(np, name), _name=name):
            calls[_name] += 1
            return _fn(t)
        monkeypatch.setattr(np, name, wave)
    return calls


def test_a_table_makes_one_sin_cos_evaluation_of_its_points(monkeypatch,
                                                            ops_bdm):
    ops = ops_bdm[4]
    case = manufactured_case(ReducedParams(1.0, 1.0, 0.0))
    calls = count_waves(monkeypatch)
    analysis._exact_table(ops.uspace, case)
    # sin and cos of pi x and pi y at the cell points, and the sines of
    # u at the edge points
    assert calls == {"sin": 4, "cos": 2}


def test_at_shares_the_waves_and_calls_a_replaced_field_once(monkeypatch,
                                                             rng):
    base = manufactured_case(ReducedParams(1.0, 1.0, 0.0))
    replaced = collections.Counter()

    def p(x, y):
        replaced["p"] += 1
        return 2.0 * COS(np.pi * x) * COS(np.pi * y)

    case = dataclasses.replace(base, p=p)
    x, y = rng.uniform(0.0, 1.0, (2, 5, 3))
    single = {name: getattr(case, name)(x, y) for name in FIELDS}
    replaced.clear()
    calls = count_waves(monkeypatch)
    got = case.at(x, y, FIELDS)
    # sin and cos of pi x and pi y, once for all the closed-form fields
    assert calls == {"sin": 2, "cos": 2}
    assert replaced == {"p": 1}
    assert list(got) == list(FIELDS)
    for name in FIELDS:
        assert np.array_equal(got[name], single[name])


def test_a_second_case_on_one_space_reads_its_own_table(ops_bdm):
    ops = ops_bdm[4]
    pr = ReducedParams(1.0, 1.0, 0.0)
    base = manufactured_case(pr)
    cases = [dataclasses.replace(base, p=lambda x, y, c=c: c * base.p(x, y),
                                 u=lambda x, y, c=c: c * base.u(x, y))
             for c in (1.0, 3.0)]
    zeros = (np.zeros(ops.uspace.ndof), np.zeros(ops.vspace.ndof),
             np.zeros(ops.mesh.num_cells))
    for case in cases + cases[::-1]:
        assert (triple_error_norms(ops.uspace, ops.vspace, *zeros, case)
                == unshared_error_norms(ops.uspace, ops.vspace, *zeros, case))
        assert analysis._EXACT[ops.uspace]["case"] is case
