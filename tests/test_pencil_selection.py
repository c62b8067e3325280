"""`solver._dense_pencil` computes only the
eigenvalues |theta| reads: a Sturm count on the tridiagonal that dsytrd
makes of W says where zero falls in its spectrum, and bisection (dstebz)
computes the two eigenvalues either side of it, plus the extremes for the
condition number.  These tests check the count against `eigvalsh`, the
selected eigenvalues against the full spectrum, and beta0 and kappa over
the acceptance grid against the full spectrum of the same tridiagonal,
which in turn lies within the backward-error bound of `eigvalsh` on the
same whitened matrices."""
import numpy as np
import pytest
from scipy.linalg import lapack

from biotfem import solver
from biotfem.analysis import infsup_constant
from biotfem.assembly import FormOperators
from biotfem.params import ReducedParams
from biotfem.solver import (_dense_pencil, _negative_pivots,
                            build_preconditioner, estimate_condition)
from conftest import AP_GRID, LAM_GRID, RP_GRID, norm_system


def _spd(m, seed=5):
    B = np.random.default_rng(seed).standard_normal((m, m))
    return B @ B.T + np.eye(m)


def _with_spectrum(theta, seed=6):
    """Q diag(theta) Q^T for a random orthogonal Q."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (len(theta), len(theta))))
    return (Q * theta) @ Q.T


def _tridiagonal(A):
    """(d, e) of the tridiagonal dsytrd makes of A, as `_dense_pencil`
    calls it."""
    _, d, e, _, info = lapack.dsytrd(np.array(A, dtype=float, order="F"),
                                     lower=1, lwork=len(A) * solver._PANEL)
    assert info == 0
    return d, e


def _recording(monkeypatch):
    """Copies of every matrix `_dense_pencil` gets."""
    seen = []
    real = solver._dense_pencil

    def recorded(A, extremes=False):
        seen.append(np.array(A))
        return real(A, extremes)

    monkeypatch.setattr(solver, "_dense_pencil", recorded)
    return seen


def _reductions(monkeypatch):
    """(W, d, e) of every dsytrd call from now on: a copy of the matrix it
    gets and the tridiagonal it makes of it."""
    seen = []
    real = lapack.dsytrd

    def recorded(a, *args, **kwargs):
        W = np.array(a)
        out = real(a, *args, **kwargs)
        seen.append((W, out[1].copy(), out[2].copy()))
        return out

    monkeypatch.setattr(lapack, "dsytrd", recorded)
    return seen


MATRICES = {
    "spd": _spd(30),  # j = 0
    "negative definite": -_spd(30),  # j = m
    "indefinite": _with_spectrum([-3.0, -2.0, -0.5, 1e-3, 1.0, 2.0]),
    # eigvalsh returns the zero eigenvalue exactly; its pivot is zero
    "exact zero": np.array([[1.0, 1.0], [1.0, 1.0]]),
    "split": np.array([[-1.0, 2.0, 0.0, 0.0],
                       [2.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, -4.0, 1.0],
                       [0.0, 0.0, 1.0, 3.0]]),
    "1x1": np.array([[-2.0]]),
}


@pytest.mark.parametrize("name", MATRICES)
def test_sturm_count_is_the_number_of_negative_eigenvalues(name):
    A = MATRICES[name]
    d, e = _tridiagonal(A)
    if name == "split":
        assert np.count_nonzero(e == 0.0) == 1
    assert _negative_pivots(d, e) == np.count_nonzero(
        np.linalg.eigvalsh(A) < 0)


def test_sturm_count_on_the_identity_pencils(ops_bdm, monkeypatch):
    ops, pr = ops_bdm[2], ReducedParams(1.0, 1.0, 0.0)
    bs, nb = ops.block_system(pr), ops.norm_blocks(pr)
    pc = build_preconditioner(nb, bs)
    seen = _recording(monkeypatch)
    assert infsup_constant(norm_system(bs, (nb.N_U, nb.N_V, nb.N_P)),
                           nb).beta0 == pytest.approx(1.0, abs=1e-10)
    assert estimate_condition(norm_system(bs, pc.blocks),
                              pc) == pytest.approx(1.0, abs=1e-10)
    assert len(seen) == 2
    for W in seen:
        assert _negative_pivots(*_tridiagonal(W)) == np.count_nonzero(
            np.linalg.eigvalsh(W) < 0) == 0


@pytest.mark.parametrize("first", [0.0, 0.25, -0.25])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sturm_count_through_a_pivot_below_pivmin(first, sign):
    """A first pivot of 0 or tiny / 4 is moved to +-pivmin, which keeps the
    next quotient finite and the count right."""
    d = sign * np.array([first * np.finfo(float).tiny, 1.0, -1.0])
    e = np.array([1.0, 1.0])
    A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert _negative_pivots(d, e) == np.count_nonzero(
        np.linalg.eigvalsh(A) < 0)


@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("extremes", [False, True])
def test_dense_pencil_selects_the_eigenvalues_either_side_of_zero(
        name, extremes):
    A = MATRICES[name]
    full = np.linalg.eigvalsh(A)
    j = np.count_nonzero(full < 0)
    picks = {j - 1, j} | ({0, len(full) - 1} if extremes else set())
    want = full[sorted(k for k in picks if 0 <= k < len(full))]
    got = np.unique(_dense_pencil(A.copy(order="F"), extremes=extremes))
    assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_dense_pencil_finds_the_top_of_a_tight_cluster(monkeypatch):
    """Half the spectrum at 1, which rounding spreads over a few ulps, as
    at the top of the Korn pencil: on the tridiagonal the helper makes of
    this matrix, bisection for the largest eigenvalue alone loses it
    (dstebz's info 2), and the helper computes the whole spectrum of the
    tridiagonal (dsterf) instead.  Whether a seed meets info 2 depends on
    the rounding of the reduction, so on its panel width."""
    m = 40
    theta = np.r_[np.linspace(0.3, 0.9, m // 2), np.ones(m // 2)]
    A = _with_spectrum(theta, seed=10)
    infos, calls = [], []
    stebz, sterf = lapack.dstebz, lapack.dsterf

    def recorded_stebz(*args):
        out = stebz(*args)
        infos.append(out[-1])
        return out

    def recorded_sterf(*args):
        calls.append(len(args[0]))
        return sterf(*args)

    monkeypatch.setattr(lapack, "dstebz", recorded_stebz)
    monkeypatch.setattr(lapack, "dsterf", recorded_sterf)
    got = _dense_pencil(A.copy(order="F"), extremes=True)
    assert infos == [0, 0, 2] and calls == [m]
    assert got.max() == pytest.approx(1.0, abs=1e-14)
    assert got.min() == pytest.approx(0.3, abs=1e-14)


def test_dense_pencil_names_a_non_finite_entry():
    with pytest.raises(ValueError, match="infs or NaNs"):
        _dense_pencil(np.array([[1.0, np.nan], [np.nan, 1.0]]))


@pytest.mark.parametrize("kind", ["structured", "perturbed"])
def test_grid_values_match_the_full_spectrum_of_the_same_matrix(
        ops_bdm, perturbed_mesh, monkeypatch, kind):
    """On n = 4, at all 40 grid points, paper and natural beta0 and the
    preconditioner's kappa equal min |theta| and max / min |theta| of the
    full spectrum (dsterf) of the tridiagonal that the helper's own dsytrd
    call made of W, to 1e-13.  That spectrum lies within the
    backward-error bound m eps ||W||_2 of `eigvalsh` on W, whose own
    reduction runs at another panel width and rounds otherwise: at
    natural norms ||W||_2 reaches 1e4."""
    ops = ops_bdm[4] if kind == "structured" else FormOperators(
        perturbed_mesh[4])
    seen = _reductions(monkeypatch)

    def spectrum():
        [(W, d, e)] = seen
        seen.clear()
        theta, info = lapack.dsterf(d, e)
        assert info == 0
        full = np.linalg.eigvalsh(W)
        bound = len(W) * np.finfo(float).eps * np.abs(full).max()
        assert np.abs(np.sort(theta) - full).max() <= bound
        return np.abs(theta)

    for lam in LAM_GRID:
        for rp in RP_GRID:
            for ap in AP_GRID:
                pr = ReducedParams(lam, rp, ap)
                bs, nb = ops.block_system(pr), ops.norm_blocks(pr)
                for blocks in (nb, ops.natural_norm_blocks(pr)):
                    beta0 = infsup_constant(bs, blocks).beta0
                    theta = spectrum()
                    assert beta0 == pytest.approx(theta.min(), rel=1e-13), \
                        (pr, blocks.kind)
                kappa = estimate_condition(bs, build_preconditioner(nb, bs))
                theta = spectrum()
                assert kappa == pytest.approx(theta.max() / theta.min(),
                                              rel=1e-13), pr
    assert seen == []
