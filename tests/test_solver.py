import dataclasses
import gc
import itertools
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from biotfem import solver
from biotfem.analysis import (conservation_audit, error_norms, infsup_constant,
                              manufactured_case, minres_sweep,
                              solve_manufactured)
from biotfem.assembly import (FormOperators, NormBlocks, block_diagonal,
                              block_matrix)
from biotfem.meshing import structured_mesh
from biotfem.params import ReducedParams
from biotfem.solver import (BlockPreconditioner, DirectSolver,
                            FactorizationFailure, SingularNormMatrix,
                            _pressure_reflector, build_preconditioner,
                            estimate_condition, minres_solve, solve_direct)

from conftest import AP_GRID, LAM_GRID, RP_GRID, norm_system


def _system(ops, lam, rp, ap, with_rhs=True):
    pr = ReducedParams(lam, rp, ap)
    if with_rhs:
        case = manufactured_case(pr)
        return ops.block_system(pr, f=case.f, g=case.g), pr
    return ops.block_system(pr), pr


def test_preconditioner_inverse_pair(ops_bdm, rng):
    bs, pr = _system(ops_bdm[2], 1.0, 1.0, 0.0, with_rhs=False)
    pc = build_preconditioner(ops_bdm[2].norm_blocks(pr), bs)
    r = rng.standard_normal(sum(pc.sizes))
    back = block_diagonal(pc.blocks) @ pc.apply(r)
    assert np.abs(back - r).max() <= 1e-12 * np.abs(r).max()


def test_preconditioner_matches_dense_inverse_columns(ops_bdm):
    bs, pr = _system(ops_bdm[2], 1.0, 1.0, 0.0, with_rhs=False)
    pc = build_preconditioner(ops_bdm[2].norm_blocks(pr), bs)
    dense = np.linalg.inv(block_diagonal(pc.blocks).toarray())
    n = sum(pc.sizes)
    for j in (0, 7, n - 3):
        e = np.zeros(n)
        e[j] = 1.0
        assert np.abs(pc.apply(e) - dense[:, j]).max() <= 1e-10


def test_pressure_block_scales_inverse_gamma(ops_bdm):
    pr = ReducedParams(1.0, 1.0, 1e6)  # gamma = alpha_p = 1e6
    bs = ops_bdm[2].block_system(pr)
    pc = build_preconditioner(ops_bdm[2].norm_blocks(pr), bs)
    nu, nv, npp = pc.sizes
    r = np.zeros(nu + nv + npp)
    r[nu + nv:] = ops_bdm[2].areas
    z = pc.apply(r)
    assert np.abs(z[nu + nv:] - 1.0 / 1e6).max() <= 1e-18


def test_pressure_block_factored_only_off_the_positive_diagonal(ops_bdm,
                                                                rng):
    """The paper's N_P is a positive diagonal and is inverted entrywise,
    also when it stores an explicit zero off the diagonal, which the
    general pencil route reads as the paper's own N_P with its source
    dropped does; a positive N_P with one off-diagonal entry, or a zero
    mass, is refused, not factored, by the preconditioner and by the
    inf-sup pencil alike, which share the check."""
    bs, pr = _system(ops_bdm[2], 1.0, 1.0, 1.0, with_rhs=False)
    nb = ops_bdm[2].norm_blocks(pr)
    nu, nv, npp = bs.block_sizes
    pair = sps.csr_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(npp, npp))
    stored_zero = nb.N_P + pair
    stored_zero.data[stored_zero.indices != np.repeat(
        np.arange(npp), np.diff(stored_zero.indptr))] = 0.0
    r = rng.standard_normal(nu + nv + npp)
    for N_P in (nb.N_P, stored_zero):
        z = BlockPreconditioner(bs.A_uu, nb.N_V, N_P).apply(r)[nu + nv:]
        assert np.abs(N_P @ z - r[nu + nv:]).max() \
            <= 1e-14 * np.abs(r).max()
    assert infsup_constant(bs, NormBlocks(nb.N_U, nb.N_V, stored_zero)) \
        .beta0 == infsup_constant(bs, dataclasses.replace(nb)).beta0
    coupled = nb.N_P + 0.25 * nb.N_P[0, 0] * pair
    zero_mass = nb.N_P.copy()
    zero_mass.data[0] = 0.0
    for N_P in (coupled, zero_mass):
        with pytest.raises(SingularNormMatrix, match="pressure block"):
            BlockPreconditioner(bs.A_uu, nb.N_V, N_P)
        with pytest.raises(SingularNormMatrix,
                           match="^paper norm matrix: pressure block"):
            infsup_constant(bs, NormBlocks(nb.N_U, nb.N_V, N_P))


@pytest.mark.parametrize("lam,rp,ap", [(1, 1, 0), (1e8, 1e-8, 1)])
def test_preconditioner_blocks_positive(ops_bdm, rng, lam, rp, ap):
    bs, pr = _system(ops_bdm[2], lam, rp, ap, with_rhs=False)
    pc = build_preconditioner(ops_bdm[2].norm_blocks(pr), bs)
    for _ in range(20):
        r = rng.standard_normal(sum(pc.sizes))
        assert r @ pc.apply(r) > 0


def test_factorization_failure_on_singular_block(ops_bdm):
    bs, pr = _system(ops_bdm[2], 1.0, 1.0, 0.0, with_rhs=False)
    nb = ops_bdm[2].norm_blocks(pr)
    singular = NormBlocks(nb.N_U, sps.csr_matrix(nb.N_V.shape), nb.N_P)
    with pytest.raises(FactorizationFailure):
        pc = build_preconditioner(singular, bs)
        pc.apply(np.ones(sum(pc.sizes)))


def test_indefinite_flux_block_fails_the_pivot_certificate(ops_bdm):
    """Symmetric-mode factorization takes its pivots from the diagonal
    unchecked; the positive-pivot certificate must reject an indefinite
    block and name it."""
    bs, pr = _system(ops_bdm[2], 1.0, 1.0, 0.0, with_rhs=False)
    nb = ops_bdm[2].norm_blocks(pr)
    N_V = nb.N_V.copy()
    N_V[0, 0] = -N_V[0, 0]
    with pytest.raises(FactorizationFailure, match="flux block") as info:
        build_preconditioner(dataclasses.replace(nb, N_V=N_V), bs)
    assert "displacement" not in str(info.value)


def _count_lu_calls(monkeypatch):
    """Shapes of the matrices handed to either scipy sparse-LU entry point
    from now on."""
    import scipy.sparse.linalg as spla

    shapes = []
    for name in ("splu", "factorized"):
        def counted(A, *args, _lu=getattr(spla, name), **kwargs):
            shapes.append(A.shape)
            return _lu(A, *args, **kwargs)
        monkeypatch.setattr(spla, name, counted)
    return shapes


def test_minres_sweep_factors_each_displacement_block_once(ops_bdm,
                                                           monkeypatch):
    """A_uu depends on lambda alone, so a lambda-major sweep factors it once
    per lambda instead of at every point."""
    nu, nv, _ = ops_bdm[4].block_system(ReducedParams(1, 1, 0)).block_sizes
    shapes = _count_lu_calls(monkeypatch)
    records = minres_sweep(4, [1.0, 1e4], [1e-4, 1.0], [1.0])
    assert all(r["converged"] for r in records)
    assert shapes.count((nu, nu)) == 2
    assert len(shapes) < 2 * len(records)


def test_changed_block_is_refactored_not_reused(ops_bdm, monkeypatch, rng):
    """A replaced system, its blocks changed or not, has no operators, so
    both preconditioner blocks are factored afresh."""
    bs, pr = _system(ops_bdm[2], 1e2, 1.0, 0.0, with_rhs=False)
    nb = ops_bdm[2].norm_blocks(pr)
    build_preconditioner(nb, bs)
    shapes = _count_lu_calls(monkeypatch)
    same = build_preconditioner(nb, bs)
    assert shapes == []
    build_preconditioner(nb, dataclasses.replace(bs))
    assert shapes == [bs.A_uu.shape, nb.N_V.shape]
    del shapes[:]
    A = bs.A_uu.copy()
    A[0, 0] *= 2.0
    changed = build_preconditioner(nb, dataclasses.replace(bs, A_uu=A))
    assert shapes == [A.shape, nb.N_V.shape]
    r = rng.standard_normal(sum(same.sizes))
    expect = BlockPreconditioner(A, nb.N_V, nb.N_P).apply(r)
    assert np.array_equal(changed.apply(r), expect)
    assert not np.array_equal(same.apply(r), expect)


def test_factor_memo_dies_with_form_operators():
    """The operators keep the displacement factor under lambda and the
    paper's flux factors by their shape t = gamma rp_inv.  With a
    preconditioned solve, a condition estimate and an inf-sup constant
    they also keep the whitened displacement and the rotated coupling.
    Nothing outside the operators keeps any of it, nor their saddle
    layout, alive; the SuperLU factors take no weak reference and are
    checked through the operators that hold them."""
    ops = FormOperators(structured_mesh(2))
    bs, pr = _system(ops, 1.0, 1e-4, 1.0)
    nb = ops.norm_blocks(pr)
    pc = build_preconditioner(nb, bs)
    memo = ops._factors
    assert set(memo) == {"displacement", "flux"}
    assert list(memo["flux"]) == [pr.gamma * pr.rp_inv]
    assert list(memo["displacement"]) == [pr.lam]
    assert pc.lu_fill == {name: lu.nnz for name, kept in memo.items()
                          for lu in kept.values()}
    minres_solve(bs, pc)
    estimate_condition(bs, pc)
    infsup_constant(bs, nb)
    assert set(memo) == {"displacement", "flux", "whitened displacement",
                         "rotated coupling"}
    W_uu, coupling = memo["whitened displacement"][1]
    refs = [weakref.ref(obj) for obj in (
        ops, ops._saddle, W_uu, coupling, memo["rotated coupling"][1])]
    del ops, bs, nb, pc, memo, W_uu, coupling
    gc.collect()
    assert [ref() for ref in refs] == [None] * 5


@pytest.mark.parametrize("mesh", ["structured4", "perturbed4"])
def test_reused_factor_matches_a_fresh_build(ops_bdm, perturbed_mesh,
                                             monkeypatch, rng, mesh):
    """A point that shares lambda and the flux shape gamma rp_inv (here
    1) with the previous one factors nothing; applying the
    preconditioner gives, bit for bit, what one built on fresh operators
    gives."""
    ops = (ops_bdm[4] if mesh == "structured4"
           else FormOperators(perturbed_mesh[4]))
    bs, pr = _system(ops, 1e4, 1.0, 0.0, with_rhs=False)
    build_preconditioner(ops.norm_blocks(pr), bs)
    bs, pr = _system(ops, 1e4, 1e-4, 1.0, with_rhs=False)
    shapes = _count_lu_calls(monkeypatch)
    reused = build_preconditioner(ops.norm_blocks(pr), bs)
    assert shapes == []
    fresh_ops = FormOperators(ops.mesh)
    fresh = build_preconditioner(fresh_ops.norm_blocks(pr),
                                 fresh_ops.block_system(pr))
    assert reused.lu_fill == fresh.lu_fill
    for _ in range(3):
        r = rng.standard_normal(sum(reused.sizes))
        assert np.array_equal(reused.apply(r), fresh.apply(r))


def _grid_points():
    return [ReducedParams(lam, rp, ap) for lam in LAM_GRID for rp in RP_GRID
            for ap in AP_GRID]


def _factored_names(monkeypatch) -> list:
    """The block name of every `solver._factor` call from now on."""
    names, real = [], solver._factor

    def counted(mat, name, spd):
        names.append(name)
        return real(mat, name, spd)

    monkeypatch.setattr(solver, "_factor", counted)
    return names


@pytest.mark.parametrize("kind", ["structured", "perturbed"])
def test_paper_flux_factored_once_per_shape(perturbed_mesh, monkeypatch,
                                            rng, kind):
    """Over the lambda-major grid the paper's flux block is factored once
    per distinct gamma rp_inv, fewer times than the grid has runs of
    equal shape, and all of them are kept; A_uu is factored once per
    lambda, and the flux part of every application solves with N_V to
    1e-12."""
    ops = FormOperators(structured_mesh(4) if kind == "structured"
                        else perturbed_mesh[4])
    names = _factored_names(monkeypatch)
    shapes = [pr.gamma * pr.rp_inv for pr in _grid_points()]
    runs = 1 + sum(a != b for a, b in zip(shapes, shapes[1:]))
    nu, nv, _ = ops.block_system(ReducedParams(1, 1, 0)).block_sizes
    for pr in _grid_points():
        nb = ops.norm_blocks(pr)
        pc = build_preconditioner(nb, ops.block_system(pr))
        assert pc.blocks.N_V is nb.N_V
        r = rng.standard_normal(sum(pc.sizes))
        expect = spla.spsolve(nb.N_V.tocsc(), r[nu:nu + nv])
        got = pc.apply(r)[nu:nu + nv]
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(
            expect), pr
    distinct = list(dict.fromkeys(shapes))
    assert names.count("displacement") == len(LAM_GRID)
    assert names.count("flux") == len(distinct) == 5 < runs == 15
    assert list(ops._factors["flux"]) == distinct


def test_foreign_flux_block_is_factored_afresh(ops_bdm, monkeypatch, rng):
    """N_V scaled, or at another rp_inv, is not the operators' own: norms
    that hold it have no source, so every build factors both blocks
    afresh and solves with that N_V, and the memo of the operators' own
    factors is left as it was, so their block after it factors
    nothing."""
    ops = ops_bdm[4]
    pr = ReducedParams(1e2, 1e-4, 1.0)
    bs, own = ops.block_system(pr), ops.norm_blocks(pr)
    nu, nv, _ = bs.block_sizes
    build_preconditioner(own, bs)
    kept = {name: dict(ops._factors[name])
            for name in ("displacement", "flux")}
    names = _factored_names(monkeypatch)
    for N_V in (2.0 * own.N_V,
                ops.norm_blocks(ReducedParams(1e2, 1.0, 1.0)).N_V):
        norms = dataclasses.replace(own, N_V=N_V)
        for _ in range(2):
            pc = build_preconditioner(norms, bs)
        r = rng.standard_normal(sum(pc.sizes))
        expect = spla.spsolve(N_V.tocsc(), r[nu:nu + nv])
        assert np.linalg.norm(pc.apply(r)[nu:nu + nv] - expect) \
            <= 1e-12 * np.linalg.norm(expect)
    build_preconditioner(own, bs)
    assert names == ["displacement", "flux"] * 4
    memo = ops._factors
    for name, factors in kept.items():
        assert list(memo[name]) == list(factors)
        assert all(memo[name][key] is lu for key, lu in factors.items())


def test_flux_factors_kept_within_the_displacement_fill(monkeypatch, rng):
    """A scan of 30 flux shapes t = rp_inv at lambda = 1 keeps the newest
    flux factors, oldest dropped first, whose fill together is no more
    than that of the displacement factor kept beside them.  A dropped
    shape met again is factored anew, and its preconditioner applies
    bitwise as the first one did."""
    ops = FormOperators(structured_mesh(4))
    scan = [ReducedParams(1.0, rp, 0.0) for rp in np.logspace(0, 8, 30)]
    shapes = [pr.gamma * pr.rp_inv for pr in scan]
    assert len(set(shapes)) == len(scan)
    r = rng.standard_normal(sum(ops.block_system(scan[0]).block_sizes))
    names = _factored_names(monkeypatch)
    first = None
    for i, pr in enumerate(scan):
        pc = build_preconditioner(ops.norm_blocks(pr), ops.block_system(pr))
        first = pc.apply(r) if first is None else first
        memo = ops._factors
        (lu_U,) = memo["displacement"].values()
        kept = list(memo["flux"])
        assert kept == shapes[i + 1 - len(kept):i + 1]
        assert sum(lu.nnz for lu in memo["flux"].values()) <= lu_U.nnz
    assert names == ["displacement"] + ["flux"] * len(scan)
    assert 1 < len(kept) < len(scan)
    del names[:]
    pc = build_preconditioner(ops.norm_blocks(scan[0]),
                              ops.block_system(scan[0]))
    assert names == ["flux"]
    assert np.array_equal(pc.apply(r), first)


def test_natural_flux_factored_once_over_the_grid(monkeypatch):
    """The natural N_V is rp_inv (M_v + DD_v), one shape t = 1 for every
    point, so a grid sweep factors it once; each application solves with
    N_V to 1e-12."""
    ops = FormOperators(structured_mesh(2))
    names = _factored_names(monkeypatch)
    rng = np.random.default_rng(5)
    for pr in _grid_points():
        nb = ops.natural_norm_blocks(pr)
        pc = build_preconditioner(nb, ops.block_system(pr))
        nu, nv, _ = pc.sizes
        r = rng.standard_normal(sum(pc.sizes))
        expect = spla.spsolve(nb.N_V.tocsc(), r[nu:nu + nv])
        assert np.linalg.norm(pc.apply(r)[nu:nu + nv] - expect) \
            <= 1e-12 * np.linalg.norm(expect), pr
    assert names.count("flux") == 1
    assert names.count("displacement") == len(LAM_GRID)


def _first_pivot_negated(mat):
    mat = mat.copy()
    mat[0, 0] = -mat[0, 0]
    return mat


def test_indefinite_flux_block_raises_on_either_route(monkeypatch):
    """The positive-pivot certificate guards the factored shape as it
    guards a foreign flux block."""
    ops = FormOperators(structured_mesh(2))
    bs, pr = _system(ops, 1.0, 1.0, 0.0, with_rhs=False)
    nb = ops.norm_blocks(pr)
    foreign = dataclasses.replace(nb, N_V=_first_pivot_negated(nb.N_V))
    with pytest.raises(SingularNormMatrix, match="flux block"):
        build_preconditioner(foreign, bs)
    real = ops._flux_shape
    monkeypatch.setattr(ops, "_flux_shape",
                        lambda t: _first_pivot_negated(real(t)))
    with pytest.raises(SingularNormMatrix, match="flux block"):
        build_preconditioner(nb, bs)


# MINRES iterations (tol 1e-8) over the acceptance grid, lambda-major as in
# analysis.minres_sweep, with COLAMD-factored preconditioner blocks and no
# reuse; factor reuse and symmetric mode must not move them
GRID_ITERATIONS = {
    "structured12": [5, 5, 8, 8, 23, 22, 30, 18, 25, 15,
                     5, 5, 7, 7, 10, 11, 30, 12, 10, 5,
                     5, 5, 6, 6, 8, 9, 13, 10, 19, 3,
                     5, 5, 5, 5, 5, 7, 8, 6, 13, 3],
    "perturbed8": [6, 6, 8, 8, 25, 24, 32, 17, 29, 15,
                   6, 6, 7, 7, 11, 11, 33, 10, 10, 5,
                   6, 6, 6, 6, 8, 9, 14, 8, 16, 3,
                   6, 6, 5, 5, 5, 7, 8, 6, 14, 3],
}


@pytest.mark.parametrize("mesh", sorted(GRID_ITERATIONS))
def test_grid_iterations_match_kept_table(perturbed_mesh, mesh):
    ops = FormOperators(structured_mesh(12) if mesh == "structured12"
                        else perturbed_mesh[8])
    iterations = []
    for pt in ((lam, rp, ap) for lam in LAM_GRID for rp in RP_GRID
               for ap in AP_GRID):
        bs, pr = _system(ops, *pt)
        pc = build_preconditioner(ops.norm_blocks(pr), bs)
        _, rep = minres_solve(bs, pc, tol=1e-8, max_iter=500)
        assert rep.converged, pt
        iterations.append(rep.iterations)
    assert iterations == GRID_ITERATIONS[mesh]


def _reference_minres(system, precond, tol, max_iter):
    """The MINRES recurrence of `minres_solve` as plain expressions, each
    allocating its result: (x, residual history)."""
    A = system.monolithic()
    project_dual, project = solver._mean_zero_projectors(system)
    b = project_dual(system.rhs.copy())
    x, v_prev, w_prev, w = (np.zeros(b.size) for _ in range(4))
    v = b.copy()
    z = project(precond.apply(v))
    gamma = norm_b = eta = np.sqrt(z @ v)
    s_prev = s = 0.0
    c_prev = c = 1.0
    gamma_old = 1.0
    history = [1.0]
    for _ in range(max_iter):
        z = z / gamma
        Az = A @ z
        delta = Az @ z
        v_next = Az - (delta / gamma) * v - (gamma / gamma_old) * v_prev
        z_next = project(precond.apply(v_next))
        gamma_new = np.sqrt(max(z_next @ v_next, 0.0))
        a0 = c * delta - c_prev * s * gamma
        a1 = np.hypot(a0, gamma_new)
        a2 = s * delta + c_prev * c * gamma
        a3 = s_prev * gamma
        c_new, s_new = a0 / a1, gamma_new / a1
        w_next = (z - a3 * w_prev - a2 * w) / a1
        x = x + (c_new * eta) * w_next
        eta = -s_new * eta
        history.append(abs(eta) / norm_b)
        if abs(eta) <= tol * norm_b or gamma_new == 0.0:
            break
        v_prev, v, z = v, v_next, z_next
        gamma_old, gamma = gamma, gamma_new
        w_prev, w = w, w_next
        s_prev, s, c_prev, c = s, s_new, c, c_new
    return x, history


@pytest.mark.parametrize("route", ["own", "foreign"])
@pytest.mark.parametrize("kind", ["structured", "perturbed"])
def test_minres_iterates_are_the_plain_recurrence(perturbed_mesh, kind,
                                                  route):
    """The in-place loop computes, bit for bit, the iterates and
    residuals of the plain expressions, over the grid, with the paper's
    flux block and with a foreign one (2 N_V)."""
    ops = FormOperators(structured_mesh(4) if kind == "structured"
                        else perturbed_mesh[4])
    for pr in _grid_points():
        case = manufactured_case(pr)
        bs = ops.block_system(pr, f=case.f, g=case.g)
        nb = ops.norm_blocks(pr)
        if route == "foreign":
            nb = dataclasses.replace(nb, N_V=2.0 * nb.N_V)
        pc = build_preconditioner(nb, bs)
        x, rep = minres_solve(bs, pc, tol=1e-8, max_iter=500)
        x_ref, history = _reference_minres(bs, pc, 1e-8, 500)
        assert rep.converged, pr
        assert np.array_equal(x, x_ref), pr
        assert rep.residual_history == history, pr


class _StubSystem:
    """Minimal duck-typed system for the bare MINRES recurrence.  Its last
    unknown is its one pressure dof, which the mean-zero constraint pins
    to zero."""

    def __init__(self, A, b):
        self._A = sps.csr_matrix(A)
        self.rhs = np.asarray(b, dtype=float)
        self.block_sizes = (self.rhs.size - 1, 0, 1)
        self.mesh = types.SimpleNamespace(signed_areas=lambda: np.ones(1))

    def monolithic(self):
        return self._A


class _StubPrecond:
    def __init__(self, M):
        self._M = np.asarray(M, dtype=float)

    def apply(self, r):
        return self._M @ r


def test_minres_zero_rhs():
    sys_ = _StubSystem(np.diag([2.0, 3.0]), np.zeros(2))
    x, rep = minres_solve(sys_, _StubPrecond(np.diag([0.5, 1 / 3])))
    assert np.all(x == 0) and rep.converged and rep.iterations == 0


def test_minres_exact_preconditioner_one_iteration():
    A = np.diag([2.0, 5.0, 1.0])
    sys_ = _StubSystem(A, np.array([1.0, -2.0, 0.0]))
    x, rep = minres_solve(sys_, _StubPrecond(np.linalg.inv(A)), tol=1e-12)
    assert rep.iterations == 1 and rep.converged
    assert np.abs(x - np.array([0.5, -0.4, 0.0])).max() <= 1e-12


def test_minres_matches_direct_solve(ops_bdm):
    bs, pr = _system(ops_bdm[4], 1.0, 1.0, 0.0)
    pc = build_preconditioner(ops_bdm[4].norm_blocks(pr), bs)
    x, rep = minres_solve(bs, pc, tol=1e-12, max_iter=400)
    xd, _ = solve_direct(bs)
    assert rep.converged
    assert np.linalg.norm(x - xd) <= 1e-8 * np.linalg.norm(xd)


def test_minres_matches_direct_solve_on_perturbed_mesh(perturbed_mesh):
    """Cells of unequal area separate the compatible loads (zero plain sum of
    the pressure component) from the mean-zero pressures (zero area-weighted
    mean); MINRES must project each kind of vector its own way to converge
    to the direct solution."""
    ops = FormOperators(perturbed_mesh[8])
    for pt in [(1, 1, 0), (1, 1, 1), (1e4, 1e-4, 0), (1e8, 1e-8, 0)]:
        bs, pr = _system(ops, *pt)
        pc = build_preconditioner(ops.norm_blocks(pr), bs)
        x, rep = minres_solve(bs, pc, tol=1e-8, max_iter=500)
        xd, _ = solve_direct(bs)
        assert rep.converged and rep.iterations <= 40, (pt, rep.iterations)
        assert np.linalg.norm(x - xd) <= 1e-6 * np.linalg.norm(xd), pt


@pytest.mark.parametrize("lam,rp,ap", [(1, 1, 0), (1e8, 1e-8, 0),
                                       (1e4, 1e4, 1)])
def test_minres_residuals_monotone_and_mean_zero(ops_bdm, lam, rp, ap):
    bs, pr = _system(ops_bdm[4], lam, rp, ap)
    pc = build_preconditioner(ops_bdm[4].norm_blocks(pr), bs)
    x, rep = minres_solve(bs, pc, tol=1e-8, max_iter=400)
    assert rep.converged
    hist = np.asarray(rep.residual_history)
    assert np.all(hist[1:] <= hist[:-1] * (1 + 1e-12))
    _, _, xp = bs.split(x)
    assert abs(np.dot(ops_bdm[4].areas, xp)) <= 1e-12 * (
        1 + np.abs(xp).max())


def test_minres_true_residual_meets_tolerance(ops_bdm):
    """The recurrence's residual estimate is honest: the true preconditioned
    residual satisfies the requested tolerance after convergence."""
    bs, pr = _system(ops_bdm[8], 1e2, 1e4, 0.0)
    pc = build_preconditioner(ops_bdm[8].norm_blocks(pr), bs)
    x, rep = minres_solve(bs, pc, tol=1e-8, max_iter=400)
    assert rep.converged
    nu, nv, _ = bs.block_sizes
    areas = bs.mesh.signed_areas()
    c = areas / np.linalg.norm(areas)

    def proj(v):
        v = v.copy()
        v[nu + nv:] -= c * (c @ v[nu + nv:])
        return v

    r = proj(bs.rhs - bs.monolithic() @ x)
    b = proj(bs.rhs.copy())
    rel = np.sqrt(max(r @ pc.apply(r), 0)) / np.sqrt(b @ pc.apply(b))
    assert rel <= 2e-8


def test_minres_max_iter_returns_best_iterate(ops_bdm):
    bs, pr = _system(ops_bdm[4], 1.0, 1.0, 0.0)
    pc = build_preconditioner(ops_bdm[4].norm_blocks(pr), bs)
    x, rep = minres_solve(bs, pc, tol=1e-14, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert np.linalg.norm(x) > 0
    assert len(rep.residual_history) == 4


def test_minres_iteration_robustness_extreme_parameters(ops_bdm):
    """Iteration counts at an extreme corner stay within twice the count of
    the unit-parameter reference problem (golden counts: 23 and 6 on the
    n=4 mesh at the default penalty)."""
    counts = {}
    for pt in [(1.0, 1.0, 0.0), (1e6, 1e-6, 0.0)]:
        bs, pr = _system(ops_bdm[4], *pt)
        pc = build_preconditioner(ops_bdm[4].norm_blocks(pr), bs)
        _, rep = minres_solve(bs, pc, tol=1e-8, max_iter=400)
        assert rep.converged
        counts[pt] = rep.iterations
    ref = counts[(1.0, 1.0, 0.0)]
    assert counts[(1e6, 1e-6, 0.0)] <= 2 * ref
    assert abs(ref - 23) <= 3  # regression anchor from the first
    assert abs(counts[(1e6, 1e-6, 0.0)] - 6) <= 3  # verified dense run


def test_direct_solve_multiplier_zero_for_compatible_source(ops_bdm):
    bs, pr = _system(ops_bdm[4], 1.0, 1.0, 0.0)
    x, mult = solve_direct(bs)
    assert abs(mult) <= 1e-9
    _, _, xp = bs.split(x)
    assert abs(np.dot(ops_bdm[4].areas, xp)) <= 1e-12


@pytest.mark.parametrize("mesh", ["structured4", "perturbed8"])
def test_direct_solver_reuse_matches_solve_direct(ops_bdm, perturbed_mesh,
                                                  rng, mesh):
    """One factorization reused for several loads returns, bit for bit,
    the one-off direct solve of each load."""
    ops = (ops_bdm[4] if mesh == "structured4"
           else FormOperators(perturbed_mesh[8]))
    pr = ReducedParams(1e4, 1e-4, 1.0)
    bs = ops.block_system(pr)
    loads = [ops.block_system(pr, f=case.f, g=case.g) for case in
             (manufactured_case(ReducedParams(*pt))
              for pt in [(1, 1, 0), (1e4, 1e-4, 1), (1e8, 1e-8, 0)])]
    nu, nv, npp = bs.block_sizes
    loads.append(dataclasses.replace(bs, rhs_u=rng.standard_normal(nu),
                                     rhs_v=rng.standard_normal(nv),
                                     rhs_p=rng.standard_normal(npp)))
    solver = DirectSolver(bs)
    for load in loads:
        x, mult = solver.solve(load.rhs)
        xd, mult_d = solve_direct(load)
        assert np.array_equal(x, xd) and mult == mult_d


def test_hard_corner_converges_at_first_order():
    """At (1e8, 1e8, 0) a refinement that stalls still conserves mass
    cellwise but loses the flux and pressure accuracy; the error orders
    from n=16 to n=32 catch it."""
    pr = ReducedParams(1e8, 1e8, 0.0)
    errs = []
    for n in (16, 32):
        system, x, _, case = solve_manufactured(
            FormOperators(structured_mesh(n)), pr)
        errs.append(error_norms(system, x, case))
    _, order_v, order_p = np.log2(np.divide(*errs))
    assert order_v >= 0.9 and order_p >= 0.9, (order_v, order_p)


class _CountingFactor:
    """Wraps a factor and counts its applications."""

    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, b):
        self.calls += 1
        return self.lu.solve(b)


def _counting_solver(system):
    direct = DirectSolver(system)
    direct.lu = _CountingFactor(direct.lu)
    return direct


def _scaled_residual(direct, rhs, x, mult):
    b = direct.d * np.append(rhs, 0.0)
    r = b - direct.K @ (np.append(x, mult) / direct.d)
    return np.linalg.norm(r) / np.linalg.norm(b)


def test_refinement_applies_the_factor_once_per_iteration():
    """At the time stepper's point (2, 400, 0.05) one classical step meets
    both certificates: no GMRES iteration and one factor application."""
    pr = ReducedParams(2.0, 400.0, 0.05)
    case = manufactured_case(pr)
    bs = FormOperators(structured_mesh(8)).block_system(pr, f=case.f,
                                                        g=case.g)
    direct = _counting_solver(bs)
    x, mult = direct.solve(bs.rhs)
    assert direct.refine_iterations == 0
    assert direct.refine_solves == direct.lu.calls == 1
    assert _scaled_residual(direct, bs.rhs, x, mult) <= 1e-12


def test_zero_load_solves_nothing(ops_bdm):
    bs, _ = _system(ops_bdm[4], 1e8, 1e8, 0.0, with_rhs=False)
    direct = _counting_solver(bs)
    x, mult = direct.solve(bs.rhs)
    assert not x.any() and mult == 0.0
    assert direct.lu.calls == direct.refine_solves == 0
    assert direct.refine_iterations == 0 and direct.refine_residual == 0.0


def test_hard_corner_meets_the_bound():
    """(1e8, 1e8, 0) needs the most GMRES iterations of the grid; the
    solve still meets the scaled residual bound, recomputed here."""
    pr = ReducedParams(1e8, 1e8, 0.0)
    case = manufactured_case(pr)
    bs = FormOperators(structured_mesh(8)).block_system(pr, f=case.f,
                                                        g=case.g)
    direct = _counting_solver(bs)
    x, mult = direct.solve(bs.rhs)
    assert _scaled_residual(direct, bs.rhs, x, mult) <= 1e-12
    assert direct.refine_residual <= 1e-12
    assert direct.refine_iterations < solver._CYCLES * solver._RESTART
    assert direct.refine_solves == direct.lu.calls


def _mass_row_shortfall(system, x, mult):
    """The largest |r_K| / (1e-12 (|g_K| + 1) |K|) over the mass-balance
    rows of the unscaled bordered system, g_K = rhs_p / |K|."""
    nu, nv, _ = system.block_sizes
    K = block_matrix(system, bordered=True)
    r = np.append(system.rhs, 0.0) - K @ np.append(x, mult)
    areas = np.abs(system.mesh.signed_areas())
    g = system.rhs_p / areas
    return np.max(np.abs(r[nu + nv:-1]) / (1e-12 * (np.abs(g) + 1.0)
                                            * areas))


def test_stalled_classical_step_hands_over_to_gmres():
    """At (1e8, 1e8, 0) on n=32 classical steps stall short of the bound;
    GMRES takes over from the current iterate, and the solve meets both
    certificates, recomputed here."""
    pr = ReducedParams(1e8, 1e8, 0.0)
    case = manufactured_case(pr)
    bs = FormOperators(structured_mesh(32)).block_system(pr, f=case.f,
                                                         g=case.g)
    direct = _counting_solver(bs)
    x, mult = direct.solve(bs.rhs)
    assert direct.refine_iterations >= 1
    assert direct.refine_solves == direct.lu.calls
    assert direct.refine_solves > direct.refine_iterations
    assert _scaled_residual(direct, bs.rhs, x, mult) <= 1e-12
    assert _mass_row_shortfall(bs, x, mult) <= 1.0


def test_perturbed_grid_meets_both_certificates(perturbed_mesh):
    """On the perturbed n=8 mesh, at every point of the acceptance grid,
    the direct solve of the manufactured load meets the scaled residual
    bound and the cellwise mass balance, audited outside the solver, is
    within 1e-12 (|g_K| + 1)."""
    ops = FormOperators(perturbed_mesh[8])
    for lam, rp, ap in itertools.product(LAM_GRID, RP_GRID, AP_GRID):
        bs, _ = _system(ops, lam, rp, ap)
        direct = DirectSolver(bs)
        x, mult = direct.solve(bs.rhs)
        assert _scaled_residual(direct, bs.rhs, x, mult) <= 1e-12
        assert _mass_row_shortfall(bs, x, mult) <= 1.0
        g = bs.rhs_p / bs.mesh.signed_areas()
        audit = conservation_audit(bs, x)
        assert np.all(np.abs(audit) <= 1e-12 * (np.abs(g) + 1.0)), (
            lam, rp, ap)


def test_load_far_from_balance_is_certified_at_its_rounding(ops_bdm, rng):
    """A random load at (1e4, 1e-4, 1) drives fluxes so large that the
    rounding of the mass rows' residual, gamma_m (|b| + |K| |y|), exceeds
    1e-12 (|g_K| + 1) |K|: the solve returns, its mass rows within that
    rounding."""
    bs, _ = _system(ops_bdm[4], 1e4, 1e-4, 1.0, with_rhs=False)
    nu, nv, npp = bs.block_sizes
    bs = dataclasses.replace(bs, rhs_u=rng.standard_normal(nu),
                             rhs_v=rng.standard_normal(nv),
                             rhs_p=rng.standard_normal(npp))
    direct = DirectSolver(bs)
    x, mult = direct.solve(bs.rhs)
    assert _scaled_residual(direct, bs.rhs, x, mult) <= 1e-12
    assert _mass_row_shortfall(bs, x, mult) > 1.0
    K = block_matrix(bs, bordered=True)
    y = np.append(x, mult)
    b = np.append(bs.rhs, 0.0)
    rows = slice(nu + nv, -1)
    m = np.diff(K.indptr)[rows] + 1.0
    eps = np.finfo(float).eps
    rounding = m * eps / (1.0 - m * eps) * (np.abs(b[rows])
                                            + abs(K[rows]) @ np.abs(y))
    assert np.all(np.abs((b - K @ y)[rows]) <= rounding)


def test_gmres_stops_on_breakdown():
    """With an exact factor the Krylov space is exhausted after one
    iteration: scipy's GMRES stops there instead of dividing by zero, and
    the solution is exact.  It applies the factor three times: once for
    the norm of its preconditioned load, once to start the cycle and once
    in the iteration."""
    K = sps.identity(6, format="csr")
    b = np.arange(1.0, 7.0)
    y, r, iterations, solves = solver._gmres(K, solver._factor(
        K, "identity", spd=True), b, np.linalg.norm(b), np.zeros_like(b), b)
    assert (iterations, solves) == (1, 3)
    assert np.linalg.norm(r) <= 1e-15 * np.linalg.norm(b)
    assert np.allclose(y, b, rtol=1e-15, atol=0)


def test_refinement_that_misses_its_bound_raises(ops_bdm):
    """A factor of another grid point preconditions GMRES too poorly to
    reach the bound: the solve raises and returns nothing."""
    bs, _ = _system(ops_bdm[4], 1e8, 1e-8, 0.0)
    solver_ = DirectSolver(bs)
    solver_.lu = DirectSolver(_system(ops_bdm[4], 1.0, 1e8, 1.0)[0]).lu
    with pytest.raises(FactorizationFailure, match="bordered saddle-point"):
        solver_.solve(bs.rhs)
    assert solver_.refine_iterations is None


def test_unshifted_saddle_point_fails_the_pivot_certificate(ops_bdm,
                                                            monkeypatch):
    """Without the shift the pressure pivots at alpha_p = 0 are exactly
    zero, so static pivoting leaves the diagonal; the certificate names
    the bordered block instead of returning a wrong factor."""
    bs, _ = _system(ops_bdm[4], 1.0, 1.0, 0.0, with_rhs=False)
    monkeypatch.setattr(solver, "_SHIFT", 0.0)
    with pytest.raises(FactorizationFailure,
                       match="bordered saddle-point block: an off-diagonal"):
        DirectSolver(bs)


def _factored_bordered(system, monkeypatch):
    """The DirectSolver of `system` and the matrix it handed to
    `solver._factor`."""
    factor, factored = solver._factor, []

    def spy(mat, name, spd):
        factored.append(mat.tocsr())
        return factor(mat, name, spd)

    monkeypatch.setattr(solver, "_factor", spy)
    direct = DirectSolver(system)
    return direct, factored[0]


def test_clamp_at_zero_alpha_p_is_the_uniform_shift(ops_bdm, monkeypatch):
    """At alpha_p = 0 the pressure and multiplier diagonal of K is zero,
    so the clamp factors K shifted by -1e-6 there, bit for bit."""
    bs, _ = _system(ops_bdm[4], 1.0, 1.0, 0.0)
    direct, mat = _factored_bordered(bs, monkeypatch)
    start = direct._mass.start
    assert np.all(mat.diagonal()[start:] == -solver._SHIFT)
    shift = np.zeros(direct.K.shape[0])
    shift[start:] = solver._SHIFT
    shifted = (direct.K - sps.diags(shift)).tocsr()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(mat, attr), getattr(shifted, attr))


def test_clamp_keeps_large_pressure_pivots(monkeypatch):
    """At the time stepper's point (2, 400, 0.05) the scaled pressure
    diagonal is -alpha_p / gamma = -0.1: the factored matrix is K except
    for its multiplier entry, -1e-6."""
    bs, _ = _system(FormOperators(structured_mesh(8)), 2.0, 400.0, 0.05)
    direct, mat = _factored_bordered(bs, monkeypatch)
    diff = (mat - direct.K).tocoo()
    diff.eliminate_zeros()
    last = direct.K.shape[0] - 1
    assert (diff.row.tolist(), diff.col.tolist()) == ([last], [last])
    assert diff.data[0] == mat[last, last] == -solver._SHIFT


def test_clamp_raises_small_pressure_pivots(ops_bdm, monkeypatch):
    """Where 0 < alpha_p / gamma < 1e-6 each pressure pivot is clamped to
    exactly -1e-6; nothing off the diagonal moves."""
    bs, _ = _system(ops_bdm[4], 1.0, 1.0, 1e-9)
    direct, mat = _factored_bordered(bs, monkeypatch)
    start = direct._mass.start
    assert np.all(-solver._SHIFT < direct.K.diagonal()[start:-1])
    assert np.all(mat.diagonal()[start:] == -solver._SHIFT)
    diff = (mat - direct.K).tocoo()
    diff.eliminate_zeros()
    assert np.array_equal(diff.row, diff.col)


def test_small_alpha_p_meets_both_certificates():
    """Around the clamp's threshold, alpha_p / gamma near 1e-6, and well
    below it, every direct solve on n=8 meets the scaled residual bound
    and the mass-row certificate, recomputed from the unscaled bordered
    matrix."""
    ops = FormOperators(structured_mesh(8))
    for lam, rp, ap in itertools.product([1.0, 1e8], [1e-8, 1.0, 1e8],
                                         [1e-12, 5e-7, 2e-6]):
        bs, _ = _system(ops, lam, rp, ap)
        direct = DirectSolver(bs)
        x, mult = direct.solve(bs.rhs)
        assert _scaled_residual(direct, bs.rhs, x, mult) <= 1e-12, (
            lam, rp, ap)
        assert _mass_row_shortfall(bs, x, mult) <= 1.0, (lam, rp, ap)


def test_condition_identity_pencil(ops_bdm):
    """kappa = 1 when the operator equals the preconditioner matrix."""
    bs, pr = _system(ops_bdm[2], 1.0, 1.0, 0.0, with_rhs=False)
    pc = build_preconditioner(ops_bdm[2].norm_blocks(pr), bs)

    kappa = estimate_condition(norm_system(bs, pc.blocks), pc)
    assert kappa == pytest.approx(1.0, abs=1e-10)


def test_condition_golden_grid(ops_bdm):
    """Regression anchors from the first verified dense-eigensolver run."""
    golden = {
        (1.0, 1.0): 2.567561910188358,
        (1.0, 1e4): 10.968241094386359,
        (1e4, 1.0): 1.1213604118980454,
        (1e4, 1e4): 4.0147320779574658,
    }
    for (lam, rp), want in golden.items():
        bs, pr = _system(ops_bdm[2], lam, rp, 0.0, with_rhs=False)
        pc = build_preconditioner(ops_bdm[2].norm_blocks(pr), bs)
        assert estimate_condition(bs, pc) == pytest.approx(want, rel=1e-6)


def test_condition_blows_up_for_unstable_triple(ops_p1c):
    """The continuous linear displacement space lacks the discrete Stokes
    stability: the preconditioned condition number explodes with rp_inv."""
    kappas = {}
    for rp in (1.0, 1e6):
        pr = ReducedParams(1.0, rp, 0.0)
        bs = ops_p1c[2].block_system(pr)
        pc = build_preconditioner(ops_p1c[2].norm_blocks(pr), bs)
        kappas[rp] = estimate_condition(bs, pc)
    assert kappas[1e6] >= 10 * kappas[1.0]


def test_condition_rejects_large_problems(ops_bdm, monkeypatch):
    bs, pr = _system(ops_bdm[8], 1.0, 1.0, 0.0, with_rhs=False)
    pc = build_preconditioner(ops_bdm[8].norm_blocks(pr), bs)
    monkeypatch.setattr(solver, "_CONDITION_DOFS", 10)
    with pytest.raises(ValueError, match="limited to 10 dofs"):
        estimate_condition(bs, pc)


def _reduction_basis(areas):
    """The first npp - 1 columns of the reflector of `_pressure_reflector`
    along the area vector."""
    v = _pressure_reflector(areas)
    return (np.eye(v.size) - 2.0 * np.outer(v, v))[:, :-1]


def test_pressure_reduction_basis(ops_bdm):
    areas = ops_bdm[2].areas
    Z = _reduction_basis(areas)
    assert Z.shape == (len(areas), len(areas) - 1)
    assert np.abs(areas @ Z).max() <= 1e-12
    assert np.abs(Z.T @ Z - np.eye(len(areas) - 1)).max() <= 1e-12


def _null_space_pencil(system, N):
    """Oracle: eigenvalues of the pencil reduced by the SVD null-space basis
    of the area vector, a basis independent of the library's reflector."""
    from scipy.linalg import block_diag, eigh, null_space

    nu, nv, _ = system.block_sizes
    Zp = null_space(system.mesh.signed_areas()[None, :])
    Z = block_diag(np.eye(nu + nv), Zp)
    A = system.monolithic().toarray()
    N = N.toarray()
    return eigh(Z.T @ A @ Z, Z.T @ N @ Z, eigvals_only=True)


@pytest.mark.parametrize("lam,rp,ap", [(1, 1, 0), (1e8, 1e-8, 1),
                                       (1, 1e8, 0)])
def test_pencil_reduction_matches_null_space_oracle_on_perturbed_mesh(
        perturbed_mesh, lam, rp, ap):
    """Cells of different areas: the mean-zero constraint is areas . p = 0,
    not the plain sum, and any orthonormal basis of it gives the same
    pencil eigenvalues: to 1e-12 at lambda <= 1e2.  At lambda = 1e8 the
    float64 pencil of eigh is itself up to 4e-8 off (rounding away the
    lambda-free parts of A_uu and N_U), so there the two agree to 1e-7
    and tests/test_pencil_oracle.py bounds the error."""
    ops = FormOperators(perturbed_mesh[4])
    pr = ReducedParams(lam, rp, ap)
    bs = ops.block_system(pr)
    nb = ops.norm_blocks(pr)
    rel = 1e-12 if lam <= 1e2 else 1e-7
    want = np.abs(_null_space_pencil(bs, nb.monolithic())).min()
    assert infsup_constant(bs, nb).beta0 == pytest.approx(want, rel=rel)
    pc = build_preconditioner(nb, bs)
    theta = np.abs(_null_space_pencil(bs, block_diagonal(pc.blocks)))
    assert estimate_condition(bs, pc) == pytest.approx(
        theta.max() / theta.min(), rel=rel)


def test_pressure_reduction_basis_on_perturbed_mesh(perturbed_mesh):
    areas = perturbed_mesh[4].signed_areas()
    assert np.ptp(areas) > 0.1 * areas.mean()
    Z = _reduction_basis(areas)
    assert Z.shape == (len(areas), len(areas) - 1)
    assert np.abs(areas @ Z).max() <= 1e-15
    assert np.abs(Z.T @ Z - np.eye(len(areas) - 1)).max() <= 1e-14


@pytest.mark.parametrize("kind", ["structured", "perturbed"])
def test_dense_pencil_matches_eigh_over_the_grid(ops_bdm, perturbed_mesh,
                                                 kind):
    """At every acceptance-grid point with lambda <= 1e2 on n = 4 the
    whitened pencil agrees with eigh (dsygvd with its minimal workspace)
    on the monolithic pencil reduced by the SVD null-space basis: beta0
    and kappa in the paper's norms to 1e-12 relative.  The natural-norm
    beta0 sits far below the rest of its spectrum, so the two rounding
    orders may part by more: 1e-8.  At
    lambda >= 1e4 eigh's float64 pencil rounds away the lambda-free parts
    of A_uu and N_U; tests/test_pencil_oracle.py checks those points
    against a certified long-double reference instead."""
    ops = ops_bdm[4] if kind == "structured" else FormOperators(
        perturbed_mesh[4])
    for lam in (lam for lam in LAM_GRID if lam <= 1e2):
        for rp in RP_GRID:
            for ap in AP_GRID:
                pr = ReducedParams(lam, rp, ap)
                bs = ops.block_system(pr)
                nb = ops.norm_blocks(pr)
                want = np.abs(_null_space_pencil(bs, nb.monolithic())).min()
                assert infsup_constant(bs, nb).beta0 == pytest.approx(
                    want, rel=1e-12)
                pc = build_preconditioner(nb, bs)
                theta = np.abs(_null_space_pencil(
                    bs, block_diagonal(pc.blocks)))
                assert estimate_condition(bs, pc) == pytest.approx(
                    theta.max() / theta.min(), rel=1e-12)
                natural = ops.natural_norm_blocks(pr)
                want = np.abs(_null_space_pencil(
                    bs, natural.monolithic())).min()
                assert infsup_constant(bs, natural).beta0 == pytest.approx(
                    want, rel=1e-8)


def _recorded_lwork(monkeypatch, driver: str):
    """(order, lwork) of every call of the LAPACK `driver`."""
    from scipy.linalg import lapack

    seen = []
    real = getattr(lapack, driver)

    def recorded(a, *args, **kwargs):
        seen.append((a.shape[0], kwargs["lwork"]))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(lapack, driver, recorded)
    return seen


def test_dense_pencil_gives_the_blocked_reduction_its_workspace(
        ops_bdm, monkeypatch):
    """The tridiagonal reduction dsytrd of the whitened inf-sup pencil and
    of the whitened Korn pencil gets n * `_PANEL`: dsytrd reduces
    lwork / n columns per panel, unblocked only below 2, and the width
    lies below the one dsytrd_lwork reports.  The inf-sup pencil is the
    closed form's, without the divergence-free fluxes."""
    from biotfem.analysis import korn_equivalence_bounds
    from scipy.linalg import lapack

    seen = _recorded_lwork(monkeypatch, "dsytrd")
    pr = ReducedParams(1.0, 1.0, 0.0)
    infsup_constant(ops_bdm[4].block_system(pr), ops_bdm[4].norm_blocks(pr))
    korn_equivalence_bounds(ops_bdm[4])
    nu, nv, npp = ops_bdm[4].block_system(pr).block_sizes
    assert [n for n, _ in seen] == [nu + npp - 1 + min(nv, npp - 1),
                                    ops_bdm[4].uspace.free_dofs.size]
    for n, lwork in seen:
        assert lwork == n * solver._PANEL
        assert 2 <= solver._PANEL < lapack.dsytrd_lwork(n, lower=1)[0] // n


def test_nan_in_the_norm_matrix_raises_value_error(ops_bdm):
    pr = ReducedParams(1.0, 1.0, 0.0)
    nb = ops_bdm[2].norm_blocks(pr)
    N_V = nb.N_V.copy()
    N_V.data[0] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        infsup_constant(ops_bdm[2].block_system(pr),
                        NormBlocks(nb.N_U, N_V, nb.N_P))


BLOCKS = {"displacement": 0, "flux": 1, "pressure": 2}


def _spoil(mat, scale=10.0):
    """Copy of mat whose first diagonal entry is -scale * max |diagonal|;
    negative enough that the block stays indefinite on mean-zero
    pressures too."""
    diag = mat.diagonal()
    shift = np.zeros_like(diag)
    shift[0] = -diag[0] - scale * np.abs(diag).max()
    return (mat + sps.diags(shift)).tocsr()


@pytest.mark.parametrize("block", BLOCKS)
def test_infsup_names_the_indefinite_norm_block(ops_bdm, block):
    pr = ReducedParams(1.0, 1.0, 0.0)
    nb = ops_bdm[2].norm_blocks(pr)
    mats = [nb.N_U, nb.N_V, nb.N_P]
    mats[BLOCKS[block]] = _spoil(mats[BLOCKS[block]])
    with pytest.raises(SingularNormMatrix, match=f"{block} block") as info:
        infsup_constant(ops_bdm[2].block_system(pr), NormBlocks(*mats))
    assert "paper norm" in str(info.value)
    assert all(other not in str(info.value) for other in BLOCKS
               if other != block)


@pytest.mark.parametrize("block", BLOCKS)
def test_condition_names_the_indefinite_preconditioner_block(ops_bdm,
                                                             block):
    bs, pr = _system(ops_bdm[2], 1.0, 1.0, 0.0, with_rhs=False)
    nb = ops_bdm[2].norm_blocks(pr)
    mats = [bs.A_uu, nb.N_V, nb.N_P]
    mats[BLOCKS[block]] = _spoil(mats[BLOCKS[block]])
    with pytest.raises(SingularNormMatrix, match=f"{block} block") as info:
        estimate_condition(bs, BlockPreconditioner(*mats))
    assert all(other not in str(info.value) for other in BLOCKS
               if other != block)


@pytest.mark.parametrize("lam", [1.0, 1e2])
def test_infsup_with_a_generic_pressure_norm(perturbed_mesh, rng, lam):
    """A pressure norm that is a positive diagonal but no multiple of the
    cell areas: the pressures are scaled by its inverse square root, so
    the reflector is not along the area vector; beta0 agrees with the
    SVD null-space oracle to 1e-12."""
    ops = FormOperators(perturbed_mesh[4])
    pr = ReducedParams(lam, 1e-2, 1.0)
    bs, nb = ops.block_system(pr), ops.norm_blocks(pr)
    npp = bs.block_sizes[2]
    norms = NormBlocks(nb.N_U, nb.N_V,
                       sps.diags(rng.uniform(0.1, 10.0, npp)).tocsr())
    want = np.abs(_null_space_pencil(bs, norms.monolithic())).min()
    assert infsup_constant(bs, norms).beta0 == pytest.approx(want, rel=1e-12)


def _count_closed_forms(monkeypatch) -> list:
    """The lambdas `solver._closed_form` whitens at, from now on."""
    lams, real = [], solver._closed_form

    def counted(ops, lam):
        lams.append(lam)
        return real(ops, lam)

    monkeypatch.setattr(solver, "_closed_form", counted)
    return lams


def test_whitened_displacement_is_kept_per_lambda(ops_bdm, monkeypatch):
    """A lambda-major sweep whitens the displacement block once per
    lambda; a point whose displacement blocks repeat reuses it and gets
    bitwise the value of a fresh computation, and a changed A_uu with the
    same N_U is whitened again, by the Cholesky route."""
    ops = ops_bdm[4]
    ops._factors.clear()
    whitened = _count_closed_forms(monkeypatch)
    values = {}
    for lam in LAM_GRID:
        for rp in RP_GRID:
            pr = ReducedParams(lam, rp, 0.0)
            values[pr] = infsup_constant(ops.block_system(pr),
                                         ops.norm_blocks(pr)).beta0
    assert whitened == LAM_GRID
    for pr, beta0 in values.items():
        ops._factors.clear()
        assert infsup_constant(ops.block_system(pr),
                               ops.norm_blocks(pr)).beta0 == beta0
    pr = ReducedParams(1e4, 1.0, 0.0)
    bs, nb = ops.block_system(pr), ops.norm_blocks(pr)
    infsup_constant(bs, nb)
    del whitened[:]
    stiffer = dataclasses.replace(bs, A_uu=(2.0 * bs.A_uu).tocsr())
    assert infsup_constant(stiffer, nb).beta0 != values[pr]
    ops._factors.clear()
    assert infsup_constant(stiffer, nb).beta0 == infsup_constant(
        stiffer, nb).beta0
    assert whitened == []


@pytest.mark.parametrize("kind,n", [("structured", 2), ("structured", 4),
                                    ("structured", 6), ("perturbed", 4)])
def test_factored_divdiv_is_the_gram(perturbed_mesh, kind, n):
    """The divergences are cellwise constant, so the displacement and
    flux div-div Grams on the free dofs are B_up M_p^-1 B_up^T and
    B_vp M_p^-1 B_vp^T, to a few ulp of their largest entry in float64:
    the identities the closed-form whitening rests on."""
    ops = FormOperators(perturbed_mesh[n] if kind == "perturbed"
                        else structured_mesh(n))
    for B, pattern, low in ((ops._B_up_free, ops._upattern, ops._DD_u),
                            (ops._B_vp_free, ops._vpattern, ops._DD_v)):
        factored = (B @ sps.diags(1.0 / ops.areas) @ B.T).toarray()
        gram = pattern.free(low).toarray()
        assert np.abs(factored - gram).max() <= 4 * np.spacing(
            np.abs(gram).max())


def test_closed_form_whitening_only_for_the_operators_own_blocks(
        ops_bdm, monkeypatch):
    """The closed form stands in for the Cholesky route only when the
    system's operators built the norms at its parameters, paper and
    natural norms alike; N_U at another lambda, 2 A_uu, a zeroed
    coupling, or any `replace` of the system or of the norms, which drops
    their source, take the Cholesky route.  A preconditioner's N_U is
    A_uu itself, so its whitened block is the identity, with a source or
    without."""
    ops = ops_bdm[2]
    pr = ReducedParams(1e8, 1.0, 0.0)
    bs, nb = ops.block_system(pr), ops.norm_blocks(pr)
    whitened = _count_closed_forms(monkeypatch)
    for system, norms in (
            (bs, nb), (bs, ops.natural_norm_blocks(pr)),
            (bs, dataclasses.replace(
                nb, N_U=ops.norm_blocks(ReducedParams(1e4, 1.0, 0.0)).N_U)),
            (dataclasses.replace(bs, A_uu=(2.0 * bs.A_uu).tocsr()), nb),
            (dataclasses.replace(bs, B_up=0.0 * bs.B_up), nb),
            (dataclasses.replace(bs), nb), (bs, dataclasses.replace(nb))):
        ops._factors.clear()
        infsup_constant(system, norms)
    for pc in (build_preconditioner(nb, bs),
               BlockPreconditioner(bs.A_uu, nb.N_V, nb.N_P)):
        ops._factors.clear()
        W_uu, _ = solver._whitened_displacement(
            bs, pc.blocks, "preconditioner matrix",
            solver._own(bs, pc.blocks))
        assert np.array_equal(W_uu, np.eye(len(W_uu)))
    assert whitened == [pr.lam, pr.lam]


@pytest.mark.parametrize("lam", LAM_GRID)
@pytest.mark.parametrize("mesh", ["structured4", "perturbed4"])
def test_closed_form_whitens_the_displacement_block(ops_bdm, perturbed_mesh,
                                                    mesh, lam):
    """Z = L^-T P, with K = GRAD + PEN = L L^T and the per-mesh SVD,
    whitens N_U, and the closed form returns Z^T A_uu Z and B_up^T Z;
    checked in float64, whose products of the lambda-sized N_U and A_uu
    with Z round at about lambda eps."""
    from scipy.linalg import cholesky, solve_triangular

    ops = (ops_bdm[4] if mesh == "structured4"
           else FormOperators(perturbed_mesh[4]))
    pr = ReducedParams(lam, 1.0, 0.0)
    bs, N_U = ops.block_system(pr), ops.norm_blocks(pr).N_U
    U, sigma, _, _ = ops._whitening
    s = 1.0 / np.sqrt(1.0 + lam * sigma**2)
    P = np.eye(len(U)) - (U * (1.0 - s)) @ U.T
    L = cholesky(ops.grad_norm_gram().toarray(), lower=True)
    Z = solve_triangular(L.T, P)
    W_uu, coupling = solver._closed_form(ops, lam)
    tol = 1e-14 * max(1.0, lam)
    assert np.abs(Z.T @ (N_U @ Z) - np.eye(len(Z))).max() <= tol
    assert np.abs(Z.T @ (bs.A_uu @ Z) - W_uu).max() <= tol * np.abs(
        W_uu).max()
    assert np.abs(bs.B_up.T @ Z - coupling).max() <= tol * np.abs(
        coupling).max()


@pytest.mark.parametrize("mesh", ["structured4", "perturbed4"])
def test_closed_form_whitening_matches_the_cholesky_route(
        ops_bdm, perturbed_mesh, monkeypatch, mesh):
    """Up to lambda = 1e4 the closed forms of the displacement and the
    flux and the Cholesky route (the same system replaced, without its
    operators) give beta0 to 1e-12 relative at the paper norms and to
    4e-12 relative at the natural norms, whose beta0 falls to 1e-7 and
    whose two routes differ by up to 1.08e-12 relative (one and two
    BLAS threads), over the grid."""
    ops = (ops_bdm[4] if mesh == "structured4"
           else FormOperators(perturbed_mesh[4]))
    whitened = _count_closed_forms(monkeypatch)
    for lam in LAM_GRID[:-1]:
        for rp in RP_GRID:
            for ap in AP_GRID:
                pr = ReducedParams(lam, rp, ap)
                bs = ops.block_system(pr)
                for nb in (ops.norm_blocks(pr), ops.natural_norm_blocks(pr)):
                    values = []
                    for system in (bs, dataclasses.replace(bs)):
                        ops._factors.clear()
                        values.append(infsup_constant(system, nb).beta0)
                    rel = 1e-12 if nb.kind == "paper" else 4e-12
                    assert values[0] == pytest.approx(values[1], rel=rel,
                                                      abs=0.0)
    assert len(whitened) == 2 * len(AP_GRID) * len(RP_GRID) * 3


def _pencil_orders(monkeypatch) -> list:
    """The order of every matrix `solver._dense_pencil` gets, from now
    on."""
    orders, real = [], solver._dense_pencil

    def recorded(A, extremes=False):
        orders.append(len(A))
        return real(A, extremes)

    monkeypatch.setattr(solver, "_dense_pencil", recorded)
    return orders


def test_closed_flux_whitening_only_for_the_operators_own_blocks(
        ops_bdm, rng, monkeypatch):
    """The flux and pressure blocks are whitened in closed form, and the
    divergence-free fluxes leave the pencil, only when the system's
    operators built the norms at its parameters: paper and natural
    norms, a preconditioner's included.  N_V at another rp_inv, 2 A_vv,
    a zeroed B_vp, a random positive diagonal N_P, or any `replace` of
    the system or of the norms, which drops their source, take the
    Cholesky route with the full pencil, as do norms of the same
    operators at other parameters."""
    ops = ops_bdm[4]
    pr = ReducedParams(1e4, 1e-4, 1.0)
    bs, nb = ops.block_system(pr), ops.norm_blocks(pr)
    nu, nv, npp = bs.block_sizes
    closed, full = nu + npp - 1 + min(nv, npp - 1), nu + nv + npp - 1
    assert closed < full
    orders = _pencil_orders(monkeypatch)
    infsup_constant(bs, nb)
    infsup_constant(bs, ops.natural_norm_blocks(pr))
    estimate_condition(bs, build_preconditioner(nb, bs))
    estimate_condition(bs, build_preconditioner(
        ops.natural_norm_blocks(pr), bs))
    assert orders == [closed] * 4
    del orders[:]
    other = ReducedParams(1e4, 1.0, 1.0)
    for system, norms in (
            (bs, dataclasses.replace(nb, N_V=ops.norm_blocks(other).N_V)),
            (dataclasses.replace(bs, A_vv=(2.0 * bs.A_vv).tocsr()), nb),
            (dataclasses.replace(bs, B_vp=0.0 * bs.B_vp), nb),
            (bs, dataclasses.replace(nb, N_P=sps.diags(
                rng.uniform(0.1, 10.0, npp)).tocsr())),
            (dataclasses.replace(bs), nb), (bs, dataclasses.replace(nb)),
            (bs, dataclasses.replace(nb, kind="natural")),
            (bs, ops.norm_blocks(other))):
        infsup_constant(system, norms)
    assert orders == [full] * 8


def test_closed_flux_whitening_rotates_the_coupling_once_per_lambda(
        ops_bdm):
    """Points that share the whitened displacement share its coupling
    rotated to the closed-form pressure basis, bitwise the value a fresh
    computation gets."""
    ops = ops_bdm[4]
    ops._factors.clear()
    rotated = []
    for rp in RP_GRID:
        pr = ReducedParams(1e2, rp, 0.0)
        infsup_constant(ops.block_system(pr), ops.norm_blocks(pr))
        rotated.append(ops._factors["rotated coupling"][1])
    assert all(r is rotated[0] for r in rotated)
    ops._factors.clear()
    infsup_constant(ops.block_system(pr), ops.norm_blocks(pr))
    assert np.array_equal(
        ops._factors["rotated coupling"][1], rotated[0])


@pytest.mark.parametrize("flux", ["bdm1", "p1cvec"])
@pytest.mark.parametrize("mesh", ["structured4", "perturbed4"])
def test_closed_flux_whitening_matches_the_cholesky_route_for_other_fluxes(
        perturbed_mesh, monkeypatch, mesh, flux):
    """The closed-form flux whitening agrees with the Cholesky route over
    the grid for the bdm1 and the p1cvec flux, paper norms and the
    preconditioner's blocks.  The Cholesky route gets the same system
    replaced, without its operators, and its displacement whitened as
    the system's, so the two routes differ in the flux whitening alone.

    Each min and max |theta| agree to 1e-12 of the largest |theta|, the
    size of W's rounding, by which Weyl's inequality bounds how far any
    eigenvalue moves.  The stable bdm1 pairing also gives beta0 and kappa
    to 1e-12 relative.  The p1cvec flux has 30 free dofs and 31 mean-zero
    pressures on n = 4, so a pressure has no flux partner, and its beta0
    falls to 1e-16 at small rp_inv, where no float64 route resolves it
    relatively."""
    ops = FormOperators(structured_mesh(4) if mesh == "structured4"
                        else perturbed_mesh[4], ("bdm1", flux, "p0"))
    nu, nv, npp = ops.block_system(ReducedParams(1.0, 1.0, 0.0)).block_sizes
    assert (nv < npp - 1) == (flux == "p1cvec")
    orders = _pencil_orders(monkeypatch)
    real = solver._whitened_displacement
    for lam in LAM_GRID:
        for rp in RP_GRID:
            for ap in AP_GRID:
                pr = ReducedParams(lam, rp, ap)
                bs, nb = ops.block_system(pr), ops.norm_blocks(pr)
                pc = build_preconditioner(nb, bs)
                copied = dataclasses.replace(bs)
                monkeypatch.setattr(
                    solver, "_whitened_displacement",
                    lambda system, norms, label, own, bs=bs: real(
                        bs, norms, label, solver._own(bs, norms)))
                for blocks in (nb, pc.blocks):
                    closed, cholesky = (np.abs(solver._mean_zero_pencil(
                        system, blocks, "norm matrix", extremes=True))
                        for system in (bs, copied))
                    for pick in (np.min, np.max):
                        assert abs(pick(closed) - pick(cholesky)) <= \
                            1e-12 * cholesky.max(), (pr, pick)
                if flux == "bdm1":
                    assert infsup_constant(bs, nb).beta0 == pytest.approx(
                        infsup_constant(copied, nb).beta0, rel=1e-12, abs=0)
                    assert estimate_condition(bs, pc) == pytest.approx(
                        estimate_condition(copied, pc), rel=1e-12, abs=0)
    closed, full = nu + npp - 1 + min(nv, npp - 1), nu + nv + npp - 1
    assert orders == [closed, full] * (2 * 40 * (2 if flux == "bdm1" else 1))


def test_closed_flux_whitening_leaves_a_334_row_pencil_on_n6(monkeypatch):
    """On n = 6, the mesh of the `infsup` benchmark, with paper norms:
    192 displacements, 71 mean-zero pressures and as many fluxes; the
    other 25 of the 96 free fluxes are divergence-free and leave, and
    their theta = 1 comes back with the selected eigenvalues."""
    ops = FormOperators(structured_mesh(6))
    pr = ReducedParams(1e2, 1e-4, 1.0)
    bs, nb = ops.block_system(pr), ops.norm_blocks(pr)
    orders = _pencil_orders(monkeypatch)
    theta = solver._mean_zero_pencil(bs, nb, "paper norm matrix")
    assert bs.block_sizes == (192, 96, 72)
    assert orders == [334]
    assert theta[-1] == 1.0
