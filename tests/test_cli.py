import json

import numpy as np
import pytest

from biotfem.cli import (ConfigError, build_config, main, make_parser,
                         parse_config_file, timestep_drive)


def _cfg(argv):
    return build_config(make_parser().parse_args(argv))


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nmu = 0.5\nlambda = 1.0\nalpha = 1\n"
                    "K = 1\ntau = 0.5\nc_pp = 0.0\nn = 3\n")
    vals = parse_config_file(path)
    assert vals["mu"] == "0.5" and vals["n"] == "3"
    cfg = _cfg(["solve", "--config", str(path)])
    assert cfg.mesh_n == 3
    assert cfg.physical_params().mu == 0.5


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lambda_red = 1\nrp_inv = 1\nalpha_p = 0\nn = 2\n")
    cfg = _cfg(["infsup", "--config", str(path), "--n", "4"])
    assert cfg.mesh_n == 4
    assert cfg.reduced_params().lam == 1.0


def test_mixed_parameter_sets_rejected():
    with pytest.raises(ConfigError):
        _cfg(["infsup", "--lambda", "1", "--rp-inv", "1", "--alpha-p", "0",
              "--mu", "1"])


def test_incomplete_reduced_set_rejected():
    with pytest.raises(ConfigError):
        _cfg(["infsup", "--lambda", "1"])


@pytest.mark.parametrize("argv", [
    ["timestep", "--n", "0"],
    ["timestep", "--steps", "0"],
    ["timestep", "--eta", "0"],
    ["solve", "--tol", "0"],
    ["solve", "--tol", "nan"],
    ["solve", "--max-iter", "0"],
    ["convergence", "--n-list", "0,4"],
])
def test_out_of_range_settings_rejected(argv):
    """Zero or non-finite settings fail instead of becoming the defaults."""
    with pytest.raises(ConfigError):
        _cfg(argv + ["--lambda", "1", "--rp-inv", "1", "--alpha-p", "0"])


@pytest.mark.parametrize("line", ["n = 0", "steps = 0", "eta = 0",
                                  "max_iter = 0", "tol = -1", "n = four",
                                  "method = cholesky", "mesh_size = 4"])
def test_bad_config_file_values_rejected(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(f"lambda_red = 1\nrp_inv = 1\nalpha_p = 0\n{line}\n")
    with pytest.raises(ConfigError):
        _cfg(["solve", "--config", str(path)])


def test_natural_norms_only_for_infsup():
    ok = _cfg(["infsup", "--lambda", "1", "--rp-inv", "1", "--alpha-p", "0",
               "--norms", "natural"])
    assert ok.norms == "natural"
    args = make_parser().parse_args(
        ["solve", "--lambda", "1", "--rp-inv", "1", "--alpha-p", "0"])
    args.norms = "natural"
    with pytest.raises(ConfigError):
        build_config(args)


def test_infsup_command_golden_row(tmp_path):
    out = tmp_path / "art"
    rc = main(["infsup", "--n", "2", "--triple", "bdm1-rt0-p0",
               "--lambda", "1", "--rp-inv", "1", "--alpha-p", "0",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "infsup.csv").read_text().splitlines()
    assert lines[0] == "triple,norms,n,lambda,rp_inv,alpha_p,beta0"
    fields = lines[1].split(",")
    assert fields[:3] == ["bdm1-rt0-p0", "paper", "2"]
    assert float(fields[-1]) == pytest.approx(0.5407076109301002, rel=1e-9)
    assert (out / "resolved_config.txt").exists()


def test_solve_zero_sources_gives_zero_solution(tmp_path):
    out = tmp_path / "z"
    rc = main(["solve", "--n", "2", "--lambda", "1", "--rp-inv", "1",
               "--alpha-p", "0", "--source", "zero", "--out", str(out)])
    assert rc == 0
    rec = json.loads((out / "report.json").read_text())
    assert rec["conservation_max"] <= 1e-14


def test_solve_minres_writes_history(tmp_path):
    out = tmp_path / "m"
    rc = main(["solve", "--n", "2", "--lambda", "1", "--rp-inv", "1",
               "--alpha-p", "0", "--method", "minres", "--out", str(out)])
    assert rc == 0
    rec = json.loads((out / "report.json").read_text())
    assert rec["converged"] is True
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[0] == "iter,resnorm"
    assert len(lines) == rec["iterations"] + 2


def test_solve_artifacts_dump(tmp_path):
    from scipy.io import mmread

    out = tmp_path / "d"
    rc = main(["solve", "--n", "2", "--lambda", "1", "--rp-inv", "1",
               "--alpha-p", "0", "--source", "zero", "--dump-mesh",
               "--export-blocks", "--out", str(out)])
    assert rc == 0
    assert (out / "mesh.txt").read_text().startswith("# vertices 9")
    A = mmread(out / "A_uu.mtx")
    assert A.shape == (16, 16)


def test_convergence_command_orders(tmp_path):
    out = tmp_path / "c"
    rc = main(["convergence", "--n-list", "4,8,16", "--lambda", "1",
               "--rp-inv", "1", "--alpha-p", "0", "--out", str(out)])
    assert rc == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,h,err_U,err_V,err_P,order_U,order_V,order_P"
    last = lines[-1].split(",")
    orders = [float(v) for v in last[5:]]
    assert all(o >= 0.9 for o in orders)


def test_byte_identical_reruns(tmp_path):
    argv = ["convergence", "--n-list", "2,4", "--lambda", "1", "--rp-inv",
            "1", "--alpha-p", "0"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert (out1 / "convergence.csv").read_bytes() == \
        (out2 / "convergence.csv").read_bytes()


def test_sweep_command(tmp_path):
    out = tmp_path / "s"
    rc = main(["sweep", "--n", "2", "--lambda-list", "1,1e4",
               "--rp-inv-list", "1", "--alpha-p-list", "0",
               "--with-condition", "--out", str(out)])
    assert rc == 0
    lines = (out / "minres.csv").read_text().splitlines()
    assert lines[0] == "n,lambda,rp_inv,alpha_p,iters,cond_estimate"
    assert len(lines) == 3


def test_error_record_on_bad_config(capsys):
    rc = main(["infsup", "--n", "2", "--lambda", "1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"


def test_error_record_on_runtime_failure(capsys):
    # rt1 with cellwise-constant pressure violates div compatibility
    rc = main(["solve", "--n", "2", "--triple", "rt1-rt0-p0",
               "--lambda", "1", "--rp-inv", "1", "--alpha-p", "0",
               "--source", "zero", "--out", "/tmp/biotfem-err-test"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "IncompatibleSpaces"


class TestTimestep:
    argv = ["timestep", "--n", "2", "--mu", "0.5", "--lambda-phys", "1",
            "--alpha", "1", "--K", "1", "--tau", "0.5", "--c-pp", "0.1"]

    def test_requires_physical_parameters(self):
        with pytest.raises(ConfigError):
            cfg = _cfg(["timestep", "--n", "2", "--lambda", "1", "--rp-inv",
                        "1", "--alpha-p", "0"])
            timestep_drive(cfg, n_steps=1)

    def test_zero_everything_stays_zero(self):
        cfg = _cfg(self.argv + ["--g-mode", "zero"])
        records, state = timestep_drive(cfg, n_steps=3)
        assert len(records) == 3
        assert all(r["u_norm"] == 0 and r["p_norm"] == 0 for r in records)

    def test_single_step_equals_static_solve(self):
        from biotfem.analysis import expand_solution
        from biotfem.assembly import FormOperators
        from biotfem.elements import triangle_rule
        from biotfem.meshing import structured_mesh
        from biotfem.params import compose_timestep_rhs, reduce
        from biotfem.solver import solve_direct

        cfg = _cfg(self.argv + ["--g-mode", "cosine"])
        records, state = timestep_drive(cfg, n_steps=1)

        phys = cfg.physical_params()
        red, scal = reduce(phys)
        ops = FormOperators(structured_mesh(2), ("bdm1", "rt0", "p0"))
        rule = triangle_rule(8)
        xy = np.einsum("kab,qb->kqa", ops.uspace.J, rule.points) \
            + ops.uspace.x0[:, None, :]
        g_cells = np.einsum("kq,q->k",
                            np.cos(np.pi * xy[..., 0])
                            * np.cos(np.pi * xy[..., 1]), rule.weights) \
            * ops.uspace.detJ / ops.areas
        gk = compose_timestep_rhs(g_cells, np.zeros(ops.uspace.ndof),
                                  np.zeros(ops.mesh.num_cells), phys,
                                  ops.uspace)
        system = ops.block_system(red, g_cells=gk)
        x, _ = solve_direct(system)
        cu, cv, pp = expand_solution(system, x)
        assert np.abs(cu / scal.u_scale - state.u_prev).max() <= 1e-12 * (
            1 + np.abs(state.u_prev).max())
        assert np.abs(pp / scal.p_scale - state.p_prev).max() <= 1e-12 * (
            1 + np.abs(state.p_prev).max())

    def test_second_step_uses_composed_history(self):
        """Step two of the driver equals a hand-built static solve whose
        source is composed from the step-one fields."""
        from biotfem.analysis import expand_solution
        from biotfem.assembly import FormOperators
        from biotfem.elements import triangle_rule
        from biotfem.meshing import structured_mesh
        from biotfem.params import compose_timestep_rhs, reduce
        from biotfem.solver import solve_direct

        cfg = _cfg(self.argv + ["--g-mode", "cosine"])
        records1, state1 = timestep_drive(cfg, n_steps=1)
        records2, state2 = timestep_drive(cfg, n_steps=2)

        phys = cfg.physical_params()
        red, scal = reduce(phys)
        ops = FormOperators(structured_mesh(2), ("bdm1", "rt0", "p0"))
        rule = triangle_rule(8)
        xy = np.einsum("kab,qb->kqa", ops.uspace.J, rule.points) \
            + ops.uspace.x0[:, None, :]
        g_cells = np.einsum("kq,q->k",
                            np.cos(np.pi * xy[..., 0])
                            * np.cos(np.pi * xy[..., 1]), rule.weights) \
            * ops.uspace.detJ / ops.areas
        gk2 = compose_timestep_rhs(g_cells, state1.u_prev, state1.p_prev,
                                   phys, ops.uspace)
        system = ops.block_system(red, g_cells=gk2)
        x, _ = solve_direct(system)
        cu, _, pp = expand_solution(system, x)
        assert np.abs(cu / scal.u_scale - state2.u_prev).max() <= 1e-11 * (
            1 + np.abs(state2.u_prev).max())
        assert np.abs(pp / scal.p_scale - state2.p_prev).max() <= 1e-11 * (
            1 + np.abs(state2.p_prev).max())
        # history terms actually entered: the two steps differ
        assert np.abs(state2.p_prev - state1.p_prev).max() > 1e-6

    def test_timestep_command_artifacts(self, tmp_path):
        out = tmp_path / "ts"
        rc = main(self.argv + ["--steps", "2", "--out", str(out)])
        assert rc == 0
        rec = json.loads((out / "timestep_report.json").read_text())
        assert len(rec["steps"]) == 2
        lines = (out / "timestep_conservation.csv").read_text().splitlines()
        assert lines[0] == "step,time,conservation_max"
        assert len(lines) == 3
