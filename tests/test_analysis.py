import numpy as np
import pytest

from biotfem.analysis import (best_approximation_errors, conservation_audit,
                              convergence_study, error_norms,
                              infsup_constant, manufactured_case,
                              solve_manufactured, triple_error_norms)
from biotfem.elements import project_qh
from biotfem.meshing import structured_mesh
from biotfem.params import ReducedParams
from biotfem.solver import solve_direct

GOLDEN_BETA0_N2 = 0.5407076109301002  # first verified dense run, (1,1,0)


def test_infsup_golden_value(ops_bdm):
    pr = ReducedParams(1.0, 1.0, 0.0)
    res = infsup_constant(ops_bdm[2].block_system(pr),
                          ops_bdm[2].norm_blocks(pr))
    assert res.beta0 == pytest.approx(GOLDEN_BETA0_N2, rel=1e-9)
    assert res.mesh_n == 2 and res.triple == "bdm1-rt0-p0"
    assert res.norms == "paper"


def test_infsup_against_whitening_oracle(ops_bdm):
    """Independent route: Cholesky-whiten the norm matrix and take singular
    values of the congruent operator."""
    from scipy.linalg import cholesky, solve_triangular, svd

    from biotfem.solver import reduce_pressure_pencil

    pr = ReducedParams(1e4, 1e-2, 1.0)
    bs = ops_bdm[2].block_system(pr)
    nb = ops_bdm[2].norm_blocks(pr)
    res = infsup_constant(bs, nb)
    Ar, Nr = reduce_pressure_pencil(bs, bs.monolithic(), nb.monolithic())
    L = cholesky(Nr, lower=True)
    W = solve_triangular(L, solve_triangular(L, Ar, lower=True).T,
                         lower=True)
    sing = svd(W, compute_uv=False)
    assert res.beta0 == pytest.approx(sing.min(), rel=1e-9)


def test_infsup_identity_pencil(ops_bdm):
    pr = ReducedParams(1.0, 1.0, 0.0)
    nb = ops_bdm[2].norm_blocks(pr)
    bs = ops_bdm[2].block_system(pr)

    class _Stub:
        block_sizes = bs.block_sizes
        mesh = bs.mesh
        params = pr
        families = bs.families

        def monolithic(self):
            return nb.monolithic()

    res = infsup_constant(_Stub(), nb)
    assert res.beta0 == pytest.approx(1.0, abs=1e-10)


def test_infsup_mesh_stability_at_stressed_corner(ops_bdm):
    """The worst corner of the grid keeps its constant under refinement."""
    pr = ReducedParams(1.0, 1e8, 0.0)
    vals = [infsup_constant(ops_bdm[n].block_system(pr),
                            ops_bdm[n].norm_blocks(pr)).beta0
            for n in (4, 8)]
    assert vals[0] == pytest.approx(vals[1], rel=0.01)
    assert min(vals) >= 0.1


def test_natural_norms_match_paper_norms_at_unit_parameters(ops_bdm):
    pr = ReducedParams(1.0, 1.0, 0.0)
    nat = ops_bdm[2].natural_norm_blocks(pr)
    pap = ops_bdm[2].norm_blocks(pr)
    assert abs(nat.N_V - pap.N_V).max() <= 1e-14
    assert abs(nat.N_P - pap.N_P).max() <= 1e-15
    assert nat.kind == "natural"


def test_negative_experiment_unstable_norms(ops_p1c):
    """With the unweighted norms the inf-sup constant of the continuous-P1
    triple collapses as rp_inv grows (here by more than three decades)."""
    vals = {}
    for rp in (1.0, 1e6):
        pr = ReducedParams(1.0, rp, 0.0)
        bs = ops_p1c[2].block_system(pr)
        vals[rp] = infsup_constant(bs,
                                   ops_p1c[2].natural_norm_blocks(pr)).beta0
    assert vals[1e6] <= 0.1 * vals[1.0]


class TestManufacturedCase:
    pr = ReducedParams(1.0, 1.0, 0.0)

    def test_boundary_traces(self):
        case = manufactured_case(self.pr)
        y = np.linspace(0, 1, 13)
        assert np.abs(case.u(np.zeros_like(y), y)).max() <= 1e-15
        assert np.abs(case.u(np.ones_like(y), y)).max() <= 1e-14
        # normal flux on the four sides
        assert np.abs(case.v(np.zeros_like(y), y)[..., 0]).max() <= 1e-15
        assert np.abs(case.v(np.ones_like(y), y)[..., 0]).max() <= 1e-14
        assert np.abs(case.v(y, np.zeros_like(y))[..., 1]).max() <= 1e-15
        assert np.abs(case.v(y, np.ones_like(y))[..., 1]).max() <= 1e-14

    def test_pressure_and_source_mean_free(self):
        case = manufactured_case(ReducedParams(2.0, 10.0, 0.5))
        mesh = structured_mesh(8)
        areas = mesh.signed_areas()
        assert abs(np.dot(areas, project_qh(case.p, mesh))) <= 1e-12
        assert abs(np.dot(areas, project_qh(case.g, mesh))) <= 1e-10

    @staticmethod
    def _fd_strong_residual(case, pts, h=1e-4):
        """Central finite differences of the strong operator (oracle)."""
        lam = case.params.lam
        x, y = pts[:, 0], pts[:, 1]

        def d2(f, dx, dy, comp=None):
            def pick(v):
                return v if comp is None else v[..., comp]

            return (pick(f(x + dx * h, y + dy * h))
                    - 2 * pick(f(x, y))
                    + pick(f(x - dx * h, y - dy * h))) / h**2

        def d1(f, axis, comp=None):
            def pick(v):
                return v if comp is None else v[..., comp]

            if axis == 0:
                return (pick(f(x + h, y)) - pick(f(x - h, y))) / (2 * h)
            return (pick(f(x, y + h)) - pick(f(x, y - h))) / (2 * h)

        # div eps(u): component i of the divergence of the strain tensor
        u = case.u
        uxx = d2(u, 1, 0, 0)
        uyy = d2(u, 0, 1, 0)
        vxx = d2(u, 1, 0, 1)
        vyy = d2(u, 0, 1, 1)
        mixed_u = (u(x + h, y + h)[..., 1] - u(x + h, y - h)[..., 1]
                   - u(x - h, y + h)[..., 1]
                   + u(x - h, y - h)[..., 1]) / (4 * h * h)
        mixed_v = (u(x + h, y + h)[..., 0] - u(x + h, y - h)[..., 0]
                   - u(x - h, y + h)[..., 0]
                   + u(x - h, y - h)[..., 0]) / (4 * h * h)
        div_eps_1 = uxx + 0.5 * (uyy + mixed_u)
        div_eps_2 = vyy + 0.5 * (vxx + mixed_v)
        grad_div_1 = uxx + mixed_u
        grad_div_2 = vyy + mixed_v
        dp = np.stack([d1(case.p, 0), d1(case.p, 1)], axis=-1)
        f1 = -div_eps_1 - lam * grad_div_1 + dp[..., 0]
        f2 = -div_eps_2 - lam * grad_div_2 + dp[..., 1]
        div_u = d1(u, 0, 0) + d1(u, 1, 1)
        div_v = d1(case.v, 0, 0) + d1(case.v, 1, 1)
        g = -div_u - div_v - case.params.alpha_p * case.p(x, y)
        darcy = (case.params.rp_inv * case.v(x, y)
                 + dp)  # Darcy residual should vanish
        return np.stack([f1, f2], axis=-1), g, darcy

    @pytest.mark.parametrize("params", [
        ReducedParams(1.0, 1.0, 0.0),
        ReducedParams(1e4, 1e-2, 1.0),
    ])
    def test_strong_form_against_finite_differences(self, params, rng):
        case = manufactured_case(params)
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        f_fd, g_fd, darcy = self._fd_strong_residual(case, pts)
        f_cl = case.f(pts[:, 0], pts[:, 1])
        g_cl = case.g(pts[:, 0], pts[:, 1])
        scale_f = 1.0 + np.abs(f_cl).max()
        scale_g = 1.0 + np.abs(g_cl).max()
        assert np.abs(f_cl - f_fd).max() <= 1e-6 * scale_f
        assert np.abs(g_cl - g_fd).max() <= 1e-6 * scale_g
        assert np.abs(darcy).max() <= 1e-6 * (1 + case.params.rp_inv
                                              * np.abs(case.v(pts[:, 0],
                                                              pts[:, 1])
                                                       ).max())

    def test_point_value_example(self):
        case = manufactured_case(self.pr)
        pts = np.array([[0.25, 0.25]])
        f_fd, _, _ = self._fd_strong_residual(case, pts)
        f_cl = case.f(pts[:, 0], pts[:, 1])
        assert np.abs(f_cl - f_fd).max() <= 1e-6


def test_error_norms_zero_for_representable_fields(ops_bdm):
    """A solution triple lying in the discrete spaces has zero error."""
    pr = ReducedParams(1.0, 1.0, 0.0)
    base = manufactured_case(pr)
    c = 0.35

    def v(x, y):
        return np.stack([0.2 + c * x, -0.1 + c * y], axis=-1)

    case = type(base)(
        params=pr,
        u=lambda x, y: np.zeros(np.shape(x) + (2,)),
        grad_u=lambda x, y: np.zeros(np.shape(x) + (2, 2)),
        hess_u=lambda x, y: np.zeros(np.shape(x) + (2, 2, 2)),
        div_u=lambda x, y: np.zeros(np.shape(x)),
        p=lambda x, y: np.zeros(np.shape(x)),
        v=v,
        div_v=lambda x, y: 2 * c * np.ones(np.shape(x)),
        f=base.f, g=base.g)
    ops = ops_bdm[2]
    cu = np.zeros(ops.uspace.ndof)
    cv = ops.vspace.interpolate(v)
    pp = np.zeros(ops.mesh.num_cells)
    errs = triple_error_norms(ops.uspace, ops.vspace, cu, cv, pp, case)
    assert max(errs) <= 1e-12


def test_error_norm_of_zero_solution_is_weighted_pressure_norm(ops_bdm):
    # ||p||^2 = int cos^2 cos^2 = 1/4, so err_P = sqrt(gamma)/2
    pr = ReducedParams(4.0, 1e6, 0.1)
    case = manufactured_case(pr)
    ops = ops_bdm[4]
    errs = triple_error_norms(
        ops.uspace, ops.vspace, np.zeros(ops.uspace.ndof),
        np.zeros(ops.vspace.ndof), np.zeros(ops.mesh.num_cells), case)
    assert errs[2] == pytest.approx(np.sqrt(pr.gamma) * 0.5, rel=1e-10)


def test_conservation_zero_for_homogeneous_problem(ops_bdm):
    pr = ReducedParams(1.0, 1.0, 0.0)
    system = ops_bdm[2].block_system(pr)
    x, _ = solve_direct(system)
    assert np.abs(x).max() <= 1e-14
    assert np.abs(conservation_audit(system, x)).max() <= 1e-14


def test_conservation_after_direct_solve(ops_bdm):
    pr = ReducedParams(1e4, 1e-4, 1.0)
    system, x, mult, case = solve_manufactured(ops_bdm[8], pr)
    r = conservation_audit(system, x)
    g_scale = np.abs(system.rhs_p / ops_bdm[8].areas).max() + 1.0
    assert np.abs(r).max() <= 1e-10 * g_scale
    # the weighted sum equals the multiplier contribution
    areas = ops_bdm[8].areas
    assert abs(np.dot(areas, r) + mult) <= 1e-13 * g_scale


def test_convergence_study_small():
    table = convergence_study(ReducedParams(1.0, 1.0, 0.0), [2, 4],
                              with_quasi=True)
    assert len(table.rows) == 2
    assert table.rows[0].order_U is None
    assert table.rows[1].order_U == pytest.approx(1.0, abs=0.15)
    assert table.rows[1].quasi_ratio <= 20


def test_convergence_study_single_row():
    table = convergence_study(ReducedParams(1.0, 1.0, 0.0), [2],
                              with_quasi=False)
    assert len(table.rows) == 1
    assert table.rows[0].order_U is None


def test_convergence_study_rejects_unsorted():
    with pytest.raises(ValueError):
        convergence_study(ReducedParams(1.0, 1.0, 0.0), [4, 2])


def test_best_approximation_positive(ops_bdm):
    pr = ReducedParams(1.0, 1.0, 0.0)
    errs = best_approximation_errors(ops_bdm[4], manufactured_case(pr))
    assert all(e > 0 for e in errs)
