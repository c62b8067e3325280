import numpy as np
import pytest
import scipy.sparse as sps

from biotfem.analysis import manufactured_case
from biotfem.assembly import FormOperators, NormBlocks
from biotfem.params import ReducedParams
from biotfem.solver import (FactorizationFailure, build_preconditioner,
                            estimate_condition, minres_solve,
                            pressure_reduction_basis, solve_direct)


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
    back = pc.matrix() @ pc.apply(r)
    assert np.abs(back - r).max() <= 1e-12 * np.abs(r).max()


def test_preconditioner_matches_dense_inverse_columns(ops_bdm):
    bs, pr = _system(ops_bdm[2], 1.0, 1.0, 0.0, with_rhs=False)
    pc = build_preconditioner(ops_bdm[2].norm_blocks(pr), bs)
    dense = np.linalg.inv(pc.matrix().toarray())
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


class _StubSystem:
    """Minimal duck-typed system for the bare MINRES recurrence."""

    def __init__(self, A, b):
        self._A = sps.csr_matrix(A)
        self.rhs = np.asarray(b, dtype=float)

    def monolithic(self):
        return self._A


class _StubPrecond:
    def __init__(self, M):
        self._M = np.asarray(M, dtype=float)

    def apply(self, r):
        return self._M @ r


def test_minres_zero_rhs():
    sys_ = _StubSystem(np.diag([2.0, 3.0]), np.zeros(2))
    x, rep = minres_solve(sys_, _StubPrecond(np.diag([0.5, 1 / 3])),
                          project_mean=False)
    assert np.all(x == 0) and rep.converged and rep.iterations == 0


def test_minres_exact_preconditioner_one_iteration():
    A = np.diag([2.0, 5.0])
    sys_ = _StubSystem(A, np.array([1.0, -2.0]))
    x, rep = minres_solve(sys_, _StubPrecond(np.linalg.inv(A)),
                          tol=1e-12, project_mean=False)
    assert rep.iterations == 1 and rep.converged
    assert np.abs(x - np.array([0.5, -0.4])).max() <= 1e-12


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


def test_solve_report_serialization(tmp_path, ops_bdm):
    bs, pr = _system(ops_bdm[2], 1.0, 1.0, 0.0)
    pc = build_preconditioner(ops_bdm[2].norm_blocks(pr), bs)
    _, rep = minres_solve(bs, pc, tol=1e-8)
    rec = rep.to_json(n=2)
    assert '"converged": true' in rec
    path = tmp_path / "hist.csv"
    rep.write_history_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,resnorm"
    assert len(lines) == len(rep.residual_history) + 1


def test_direct_solve_multiplier_zero_for_compatible_source(ops_bdm):
    bs, pr = _system(ops_bdm[4], 1.0, 1.0, 0.0)
    x, mult = solve_direct(bs)
    assert abs(mult) <= 1e-9
    _, _, xp = bs.split(x)
    assert abs(np.dot(ops_bdm[4].areas, xp)) <= 1e-12


def test_condition_identity_pencil(ops_bdm):
    """kappa = 1 when the operator equals the preconditioner matrix."""
    bs, pr = _system(ops_bdm[2], 1.0, 1.0, 0.0, with_rhs=False)
    pc = build_preconditioner(ops_bdm[2].norm_blocks(pr), bs)

    class _SpdSystem:
        def __init__(self, base, N):
            self._N = N
            self.block_sizes = base.block_sizes
            self.mesh = base.mesh

        def monolithic(self):
            return self._N

    kappa = estimate_condition(_SpdSystem(bs, pc.matrix()), pc)
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


def test_condition_rejects_large_problems(ops_bdm):
    bs, pr = _system(ops_bdm[8], 1.0, 1.0, 0.0, with_rhs=False)
    pc = build_preconditioner(ops_bdm[8].norm_blocks(pr), bs)
    with pytest.raises(ValueError):
        estimate_condition(bs, pc, max_dofs=10)


def test_pressure_reduction_basis(ops_bdm):
    areas = ops_bdm[2].areas
    Z = pressure_reduction_basis(areas)
    assert Z.shape == (len(areas), len(areas) - 1)
    assert np.abs(areas @ Z).max() <= 1e-12
    assert np.abs(Z.T @ Z - np.eye(len(areas) - 1)).max() <= 1e-12
