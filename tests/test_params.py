import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
import sympy as sp

from biotfem.assembly import FormOperators
from biotfem.meshing import structured_mesh
from biotfem.params import (DimensionMismatch, FieldScaling, PhysicalParams,
                            RangeViolation, ReducedParams,
                            compose_timestep_rhs, reduce)


def symbolic_reduction():
    """Independent oracle: run the substitution chain symbolically.

    Start from the time-step operator rows, divide every row by 2*mu, then
    substitute u~ = c*u, v~ = t*v, p~ = c^2*p with the divided coupling
    c = alpha/(2 mu) and time step t = tau/(2 mu), and read off the
    coefficients of the resulting system.
    """
    mu, lam, alpha, K, tau, cpp = sp.symbols(
        "mu lambda alpha K tau c_pp", positive=True)
    lam1 = lam / (2 * mu)
    c = alpha / (2 * mu)
    t = tau / (2 * mu)
    rp_inv = sp.simplify(c**2 / (t * K))
    alpha_p = sp.simplify((cpp / (2 * mu)) / c**2)
    scales = dict(u=c, v=t, p=c**2, f=c / (2 * mu),
                  g=sp.Rational(1) / (2 * mu))
    return (mu, lam, alpha, K, tau, cpp), (lam1, rp_inv, alpha_p), scales


@pytest.mark.parametrize("phys,expected", [
    # unit shear scale: every factor collapses to one
    (dict(mu=0.5, lam=1, alpha=1, K=1, tau=1, c_pp=0), (1, 1, 0, 1, 1)),
    (dict(mu=0.5, lam=4, alpha=1, K=1e-6, tau=1, c_pp=0.1),
     (4, 1e6, 0.1, 4, 0.25)),
])
def test_reduce_direct_examples(phys, expected):
    red, _ = reduce(PhysicalParams(**phys))
    lam, rp, ap, rho, gamma = expected
    assert red.lam == pytest.approx(lam, rel=1e-15)
    assert red.rp_inv == pytest.approx(rp, rel=1e-15)
    assert red.alpha_p == pytest.approx(ap, rel=1e-15)
    assert red.rho == pytest.approx(rho, rel=1e-15)
    assert red.gamma == pytest.approx(gamma, rel=1e-15)


def test_reduction_matches_symbolic_substitution_chain(rng):
    syms, (lam1, rp_inv, alpha_p), scales = symbolic_reduction()
    for _ in range(12):
        vals = dict(zip(syms, [float(v) for v in rng.uniform(0.2, 4.0, 6)]))
        mu, lam, alpha, K, tau, cpp = (vals[s] for s in syms)
        lam = max(lam, 2.0 * mu * 1.05)  # keep the reduced value above one
        vals[syms[1]] = lam
        red, scal = reduce(PhysicalParams(mu, lam, alpha, K, tau, cpp))
        assert red.lam == pytest.approx(float(lam1.subs(vals)), rel=1e-13)
        assert red.rp_inv == pytest.approx(float(rp_inv.subs(vals)),
                                           rel=1e-13)
        assert red.alpha_p == pytest.approx(float(alpha_p.subs(vals)),
                                            rel=1e-13)
        for name, expr in scales.items():
            assert getattr(scal, f"{name}_scale") == pytest.approx(
                float(expr.subs(vals)), rel=1e-13)


def test_reduce_specific_point_from_chain():
    # mu=1, lambda=2, alpha=1, K=1, tau=2: the chain gives rp_inv = 1/4
    red, _ = reduce(PhysicalParams(mu=1, lam=2, alpha=1, K=1, tau=2, c_pp=0))
    assert red.lam == pytest.approx(1.0)
    assert red.rp_inv == pytest.approx(0.25, rel=1e-15)
    assert red.alpha_p == 0.0


def test_lambda_red_below_one_is_an_error():
    with pytest.raises(RangeViolation, match="0.25"):
        reduce(PhysicalParams(mu=2, lam=1, alpha=1, K=1, tau=1, c_pp=0))


def test_rp_inv_zero_rejected():
    with pytest.raises(RangeViolation):
        ReducedParams(1.0, 0.0, 0.0)
    # smallest exercised value stays valid
    ReducedParams(1.0, 1e-8, 0.0)


@pytest.mark.parametrize("triple", [(np.inf, 1.0, 0.0), (1.0, np.inf, 0.0),
                                    (1.0, 1.0, np.inf), (np.nan, 1.0, 0.0)])
def test_non_finite_reduced_params_rejected(triple):
    with pytest.raises(RangeViolation, match="finite"):
        ReducedParams(*triple)


@pytest.mark.parametrize("name", ["mu", "lam", "alpha", "K", "tau", "c_pp"])
def test_non_finite_physical_params_rejected(name):
    base = dict(mu=0.5, lam=1.0, alpha=1.0, K=1.0, tau=1.0, c_pp=0.0)
    with pytest.raises(RangeViolation, match="finite"):
        PhysicalParams(**{**base, name: np.inf})


def test_rho_gamma_inequalities(rng):
    for _ in range(50):
        lam = float(10 ** rng.uniform(0, 8))
        rp = float(10 ** rng.uniform(-8, 8))
        ap = float(rng.uniform(0, 2))
        red = ReducedParams(lam, rp, ap)
        assert red.rho <= lam and red.rho <= rp
        assert red.gamma >= 1.0 / red.rho and red.gamma >= ap


def test_monotonicity(rng):
    for _ in range(20):
        mu = float(rng.uniform(0.2, 2.0))
        base = dict(mu=mu, lam=4 * mu, alpha=float(rng.uniform(0.5, 2.0)),
                    K=float(rng.uniform(0.1, 10.0)), tau=1.0)
        cpps = np.sort(rng.uniform(0, 1, 4))
        aps = [reduce(PhysicalParams(**base, c_pp=c))[0].alpha_p
               for c in cpps]
        assert np.all(np.diff(aps) >= 0)
        taus = np.sort(rng.uniform(0.1, 10, 4))
        rps = [reduce(PhysicalParams(**{**base, "tau": t}, c_pp=0))[0].rp_inv
               for t in taus]
        assert np.all(np.diff(rps) <= 0)


def test_field_scaling_roundtrip(rng):
    _, scal = reduce(PhysicalParams(mu=0.7, lam=3.1, alpha=1.3, K=0.4,
                                    tau=2.2, c_pp=0.5))
    for _ in range(5):
        fields = {k: rng.standard_normal(40) for k in "uvpfg"}
        back = scal.to_physical(**{k: scal.to_reduced(**{k: v})
                                   for k, v in fields.items()})
        for orig, rec in zip(fields.values(), back):
            assert np.max(np.abs(orig - rec)) <= 1e-14 * np.max(
                np.abs(orig))


def test_scaling_factors_positive():
    with pytest.raises(RangeViolation):
        FieldScaling(1.0, 1.0, 0.0, 1.0, 1.0)


def test_reduced_solve_equals_scaled_physical_solve():
    """Solving the untransformed system and unscaling the reduced solve must
    agree; this pins the whole parameter map end to end."""
    phys = PhysicalParams(mu=0.8, lam=4.0, alpha=1.4, K=0.6, tau=1.7,
                          c_pp=0.3)
    red, scal = reduce(phys)
    mesh = structured_mesh(3)
    ops = FormOperators(mesh, ("bdm1", "rt0", "p0"))

    def f(x, y):
        return np.stack([np.sin(np.pi * x) * y, np.cos(np.pi * y) * x],
                        axis=-1)

    def g(x, y):
        return np.cos(np.pi * x) * np.cos(np.pi * y)

    # physical operator: rows of the time-step system before any rescaling
    fu = ops.uspace.free_dofs
    fv = ops.vspace.free_dofs
    two_mu = 2.0 * phys.mu
    A_uu = (two_mu * ops.ah_full() + phys.lam * ops.DD_u)[fu][:, fu]
    A_vv = ((phys.tau / phys.K) * ops.M_v)[fv][:, fv]
    B_up = (phys.alpha * ops.B_up)[fu]
    B_vp = (phys.tau * ops.B_vp)[fv]
    C_pp = -phys.c_pp * ops.M_p
    rhs_u, rhs_v, rhs_p = ops.rhs(f=f, g=g)
    A = sps.bmat([[A_uu, None, B_up], [None, A_vv, B_vp],
                  [B_up.T, B_vp.T, C_pp]], format="csr")
    areas = mesh.signed_areas()
    col = np.concatenate([np.zeros(A_uu.shape[0] + A_vv.shape[0]), areas])
    K = sps.bmat([[A, col[:, None]], [col[None, :], None]], format="csc")
    b = np.concatenate([rhs_u[fu], rhs_v[fv], rhs_p, [0.0]])
    x_phys = spla.spsolve(K, b)[:-1]
    nu, nv = A_uu.shape[0], A_vv.shape[0]

    from biotfem.solver import solve_direct
    system = ops.block_system(
        red,
        f=lambda x, y: scal.f_scale * f(x, y),
        g=lambda x, y: scal.g_scale * g(x, y))
    x_red, _ = solve_direct(system)
    u_r, v_r, p_r = system.split(x_red)
    scale = np.concatenate([
        np.full(nu, 1.0 / scal.u_scale),
        np.full(nv, 1.0 / scal.v_scale),
        np.full(len(areas), 1.0 / scal.p_scale),
    ])
    x_back = np.concatenate([u_r, v_r, p_r]) * scale
    err = np.linalg.norm(x_back - x_phys) / np.linalg.norm(x_phys)
    assert err <= 1e-10


class TestComposeTimestepRhs:
    phys = PhysicalParams(mu=0.5, lam=1.0, alpha=1.0, K=1.0, tau=2.0,
                          c_pp=0.0)

    def setup_method(self):
        self.ops = FormOperators(structured_mesh(2), ("bdm1", "rt0", "p0"))
        self.nc = self.ops.mesh.num_cells

    def test_all_zero(self):
        out = compose_timestep_rhs(np.zeros(self.nc),
                                   np.zeros(self.ops.uspace.ndof),
                                   np.zeros(self.nc), self.phys,
                                   self.ops.uspace)
        assert np.all(out == 0)

    def test_constant_source(self):
        # -tau * g with everything else zero; 2*mu = 1 makes the reduced
        # rescaling a no-op
        out = compose_timestep_rhs(np.ones(self.nc),
                                   np.zeros(self.ops.uspace.ndof),
                                   np.zeros(self.nc), self.phys,
                                   self.ops.uspace)
        assert np.allclose(out, -2.0, atol=1e-15)

    def test_divergence_term_against_flux_oracle(self):
        # u_prev = (x, y)/2 has unit divergence; cross-check the cellwise
        # divergence with the boundary-flux quadrature oracle
        sp_u = self.ops.uspace
        u_prev = sp_u.interpolate(
            lambda x, y: 0.5 * np.stack([x, y], axis=-1))
        mesh = self.ops.mesh
        from numpy.polynomial.legendre import leggauss
        snod, swts = leggauss(6)
        oracle = np.zeros(self.nc)
        for k in range(self.nc):
            for j in range(3):
                e = mesh.cell_edges[k, j]
                sign = mesh.cell_edge_sign[k, j]
                a, b = mesh.edge_vertices[e]
                xa, xb = mesh.vertices[a], mesh.vertices[b]
                pts = 0.5 * (xa + xb) + 0.5 * np.outer(snod, xb - xa)
                tr = sp_u.tabulate_at(np.array([k]), pts[None])[0]
                vals = np.einsum("i,iqa->qa", u_prev[sp_u.cell_dofs[k]], tr)
                flux = 0.5 * mesh.edge_length[e] * np.einsum(
                    "q,qa,a->", swts, vals, mesh.edge_normal[e])
                oracle[k] += sign * flux
        oracle /= mesh.signed_areas()
        assert np.allclose(oracle, 1.0, atol=1e-13)
        out = compose_timestep_rhs(np.zeros(self.nc), u_prev,
                                   np.zeros(self.nc), self.phys,
                                   self.ops.uspace)
        assert np.allclose(out, -self.phys.alpha * oracle, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose_timestep_rhs(np.zeros(self.nc + 1),
                                 np.zeros(self.ops.uspace.ndof),
                                 np.zeros(self.nc), self.phys,
                                 self.ops.uspace)
        with pytest.raises(DimensionMismatch):
            compose_timestep_rhs(np.zeros(self.nc),
                                 np.zeros(self.ops.uspace.ndof - 1),
                                 np.zeros(self.nc), self.phys,
                                 self.ops.uspace)
