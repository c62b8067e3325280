import json
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biotfem.cli import (SETTINGS, ConfigError, RunConfig, build_config,
                         main, make_parser, parse_config_file,
                         timestep_drive)


TIMESTEP_ARGV = ["timestep", "--n", "2", "--mu", "0.5", "--lambda-phys", "1",
                 "--alpha", "1", "--K", "1", "--tau", "0.5", "--c-pp", "0.1"]


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


# one valid, non-default text per config-file key, and a text its check
# rejects; the table tests below cover every row
SAMPLE = {"n": "3", "n_list": "2,3", "triple": "p1cvec-rt0-p0", "eta": "7.5",
          "output_dir": "elsewhere", "lambda_red": "2", "rp_inv": "1e4",
          "alpha_p": "1", "mu": "0.5", "lambda": "2", "alpha": "0.9",
          "K": "1e-2", "tau": "0.25", "c_pp": "0.05", "method": "minres",
          "source": "zero", "tol": "1e-6", "max_iter": "40",
          "norms": "natural", "lambda_list": "1,100", "rp_inv_list": "1e-4",
          "alpha_p_list": "0,1", "steps": "5", "g_mode": "zero"}
BAD = {"n": "0", "n_list": "0,4", "triple": "foo-rt0-p0", "eta": "0",
       "method": "cholesky", "source": "random", "tol": "nan",
       "max_iter": "0", "norms": "energy", "steps": "0", "g_mode": "sine"}
ROWS = [s for s in SETTINGS if s.key is not None]


def _offered(rows):
    return [pytest.param(s, cmd, id=f"{s.key}-{cmd}")
            for s in rows for cmd in s.commands]


def _completion(setting):
    """The other members of a parameter set, so that the set is complete."""
    return {s.key: SAMPLE[s.key] for s in ROWS
            if s.attr == setting.attr and s.key != setting.key
            and setting.attr in ("physical", "reduced")}


def test_table_covers_every_key_and_field():
    assert set(SAMPLE) == {s.key for s in ROWS}
    assert set(BAD) == {s.key for s in ROWS
                        if s.check is not None or s.choices}
    fields = set(RunConfig.__dataclass_fields__) - {"command"}
    assert {s.attr for s in SETTINGS} == fields
    assert len({s.flag for s in SETTINGS}) == len(SETTINGS)


@pytest.mark.parametrize("setting,command", _offered(ROWS))
def test_flag_and_config_key_agree(tmp_path, setting, command):
    values = {setting.key: SAMPLE[setting.key], **_completion(setting)}
    flags = {s.key: s.flag for s in ROWS}
    argv = [command] + [a for key, text in values.items()
                        for a in (flags[key], text)]
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    from_flags = _cfg(argv)
    from_file = _cfg([command, "--config", str(path)])
    assert from_flags == from_file
    assert setting.get(from_flags) == setting.cast(SAMPLE[setting.key])
    assert setting.get(from_flags) != setting.get(RunConfig(command))


@pytest.mark.parametrize("setting,command",
                         _offered([s for s in ROWS if s.key in BAD]))
def test_bad_value_same_error_from_flag_and_file(tmp_path, setting,
                                                 command):
    text = BAD[setting.key]
    path = tmp_path / "run.cfg"
    path.write_text(f"{setting.key} = {text}\n")
    with pytest.raises(ConfigError) as from_file:
        _cfg([command, "--config", str(path)])
    if setting.choices:
        # argparse refuses the choice first; build_config checks it too
        with pytest.raises(SystemExit):
            make_parser().parse_args([command, setting.flag, text])
        args = make_parser().parse_args([command])
        setattr(args, setting.dest, text)
    else:
        args = make_parser().parse_args([command, setting.flag, text])
    with pytest.raises(ConfigError) as from_flag:
        build_config(args)
    assert str(from_flag.value) == str(from_file.value)
    assert str(from_flag.value).startswith(f"{setting.key} must be ")


@pytest.mark.parametrize("setting,command", [
    pytest.param(s, cmd, id=f"{s.flag[2:]}-{cmd}") for s in SETTINGS
    for cmd in ("solve", "infsup", "sweep", "convergence", "timestep")
    if cmd not in s.commands])
def test_flag_rejected_where_not_offered(setting, command):
    argv = [command, setting.flag]
    if setting.key is not None:
        argv.append(SAMPLE[setting.key])
    with pytest.raises(SystemExit):
        make_parser().parse_args(argv)


def test_mesh_size_is_not_an_abbreviation_of_the_size_list():
    """convergence takes --n-list only; --n must not expand into it."""
    with pytest.raises(SystemExit):
        make_parser().parse_args(["convergence", "--n", "8"])
    with pytest.raises(SystemExit):
        make_parser().parse_args(["convergence", "--n-l", "8"])
    args = make_parser().parse_args(["convergence", "--n-list", "8"])
    assert args.n_list == [8]


COMMON_RECORD = {"command", "triple", "eta", "output_dir"}


@pytest.mark.parametrize("argv,extra", [
    (["solve", "--dump-mesh"], {"mesh_n", "method", "source", "tol",
                                "max_iter"}),
    (["infsup", "--rp-inv-list", "1,2"], {"mesh_n", "rp_inv_list", "norms"}),
    (["sweep", "--with-condition"], {"mesh_n", "tol", "max_iter"}),
    (["convergence", "--lambda", "1", "--rp-inv", "1", "--alpha-p", "0"],
     {"n_list", "lambda_red", "rp_inv", "alpha_p"}),
    (TIMESTEP_ARGV, {"mesh_n", "steps", "g_mode", "mu", "lambda", "alpha",
                     "K", "tau", "c_pp"}),
], ids=lambda v: v[0] if isinstance(v, list) else "")
def test_resolved_config_keys(argv, extra):
    """resolved_config.txt records each setting only for the commands that
    read it: the solver settings for solve (tolerance and cap for sweep
    too), the norms for infsup, the mesh size under mesh_n (n_list for
    convergence), the timestep settings for timestep; also the given
    parameters and lists, and no switch."""
    rec = _cfg(argv).resolved_dict()
    assert set(rec) == COMMON_RECORD | extra
    if "rp_inv_list" in rec:
        assert rec["rp_inv_list"] == "1,2"


def test_switches_set_their_field():
    for s in SETTINGS:
        if s.key is None:
            for cmd in s.commands:
                assert s.get(_cfg([cmd, s.flag])) is True
                assert s.get(_cfg([cmd])) is False


def test_unknown_family_name_is_a_config_error(tmp_path, capsys):
    for triple in ("foo-rt0-p0", "rt1-rt0-p0"):
        rc = main(["solve", "--n", "2", "--triple", triple,
                   "--lambda", "1", "--rp-inv", "1", "--alpha-p", "0",
                   "--out", str(tmp_path / "f")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError" and triple in err["message"]
    for triple in ("bdm1-rt0", "bdm1-rt0-p0-p0", "BDM1-rt0-p0"):
        with pytest.raises(ConfigError):
            _cfg(["infsup", "--triple", triple])


def _command_lines(readme):
    """The biotfem command lines of the README's Command line block."""
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("biotfem ")]


def test_readme_command_lines_build_configs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = _command_lines(readme.read_text())
    assert [argv[0] for argv in lines] == ["infsup", "infsup", "solve",
                                           "sweep", "convergence",
                                           "timestep"]
    for argv in lines:
        cfg = _cfg(argv)
        assert cfg.command == argv[0] and cfg.output_dir == "out/"


@pytest.mark.parametrize("given,expect", [
    (["--lambda", "1", "--rp-inv", "1e4", "--alpha-p", "1"], (1e4, 1.0)),
    # reduced from physical data
    (["--mu", "0.5", "--lambda-phys", "2", "--alpha", "1", "--K", "1e-2",
      "--tau", "0.25", "--c-pp", "0.05"], None),
    ([], (1.0, 0.0)),
], ids=["reduced", "physical", "none"])
def test_partial_infsup_lists_take_the_given_parameters(tmp_path, given,
                                                        expect):
    """A missing --rp-inv-list/--alpha-p-list takes the given parameter set,
    so infsup.csv computes what resolved_config.txt records."""
    out = tmp_path / "i"
    argv = ["infsup", "--n", "2", "--lambda-list", "1,100"] + given
    assert main(argv + ["--out", str(out)]) == 0
    if expect is None:
        red = _cfg(argv).reduced_params()
        expect = (red.rp_inv, red.alpha_p)
    rows = [line.split(",") for line in
            (out / "infsup.csv").read_text().splitlines()[1:]]
    assert [float(r[3]) for r in rows] == [1.0, 100.0]
    assert all((float(r[4]), float(r[5])) == expect for r in rows)
    recorded = parse_config_file(out / "resolved_config.txt")
    if "rp_inv" in recorded:
        assert (float(recorded["rp_inv"]),
                float(recorded["alpha_p"])) == expect


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
    # measured factor + solve time and LU fill; no stopping tolerance
    assert rec["method"] == "direct" and rec["tol"] is None
    assert rec["wall_time"] > 0
    assert isinstance(rec["lu_fill"], int) and rec["lu_fill"] > 0


DIRECT_RECORD = {"method", "iterations", "converged", "tol", "wall_time",
                 "cond_estimate", "residual_history", "lu_fill",
                 "refine_iterations", "refine_solves", "refine_residual",
                 "conservation_max", "err_U", "err_V", "err_P"}
STEP_RECORD = {"step", "time", "multiplier", "refine_iterations",
               "refine_solves", "conservation_max", "u_norm", "p_norm"}
STEP_REPORT = {"steps", "lam", "rp_inv", "alpha_p", "gamma"}


def test_direct_solve_reports_refinement(tmp_path):
    """The refinement of the direct path reports its GMRES iteration count,
    factor applications and final scaled residual in the JSON records,
    never in a CSV."""
    out = tmp_path / "r"
    rc = main(["solve", "--n", "4", "--lambda", "1e8", "--rp-inv", "1e8",
               "--alpha-p", "0", "--out", str(out)])
    assert rc == 0
    rec = json.loads((out / "report.json").read_text())
    assert set(rec) == DIRECT_RECORD
    assert isinstance(rec["refine_iterations"], int)
    assert rec["refine_iterations"] >= 0
    # classical steps may meet both certificates without GMRES
    assert isinstance(rec["refine_solves"], int)
    assert rec["refine_solves"] >= 1
    assert 0.0 <= rec["refine_residual"] <= 1e-12
    assert not list(out.glob("*.csv"))

    out = tmp_path / "ts"
    assert main(TIMESTEP_ARGV + ["--steps", "2", "--out", str(out)]) == 0
    report = json.loads((out / "timestep_report.json").read_text())
    assert set(report) == STEP_REPORT
    red = _cfg(TIMESTEP_ARGV).reduced_params()
    assert [report[k] for k in ("lam", "rp_inv", "alpha_p", "gamma")] == [
        red.lam, red.rp_inv, red.alpha_p, red.gamma]
    steps = report["steps"]
    assert all(set(r) == STEP_RECORD for r in steps)
    assert all(isinstance(r["refine_iterations"], int)
               and r["refine_iterations"] >= 0
               and r["refine_solves"] == 1
               for r in steps)
    header = (out / "timestep_conservation.csv").read_text().splitlines()[0]
    assert header == "step,time,conservation_max"


def test_timestep_steps_apply_the_factor_once():
    """With the README's physical data every backward Euler step on n=8
    meets both certificates of the direct solve after one classical step,
    without GMRES: its pressure pivots, -alpha_p / gamma = -0.1, are
    factored as they are."""
    records, _ = timestep_drive(_cfg([
        "timestep", "--n", "8", "--mu", "0.5", "--lambda-phys", "2",
        "--alpha", "1", "--K", "1e-2", "--c-pp", "0.05", "--tau", "0.25",
        "--steps", "8"]))
    assert [(r["refine_iterations"], r["refine_solves"]) for r in records] \
        == [(0, 1)] * 8
    assert all(r["conservation_max"] <= 1e-14 for r in records)


def test_solve_minres_writes_history(tmp_path):
    out = tmp_path / "m"
    rc = main(["solve", "--n", "2", "--lambda", "1", "--rp-inv", "1",
               "--alpha-p", "0", "--method", "minres", "--out", str(out)])
    assert rc == 0
    rec = json.loads((out / "report.json").read_text())
    assert rec["converged"] is True
    # fill of each factored preconditioner block; the pressure block is a
    # diagonal scaling
    assert set(rec["lu_fill"]) == {"displacement", "flux"}
    assert all(isinstance(fill, int) and fill > 0
               for fill in rec["lu_fill"].values())
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


@pytest.mark.parametrize("argv,csv", [
    (["convergence", "--n-list", "2,4", "--lambda", "1", "--rp-inv", "1",
      "--alpha-p", "0"], "convergence.csv"),
    (TIMESTEP_ARGV + ["--steps", "3"], "timestep_conservation.csv"),
], ids=["convergence", "timestep"])
def test_byte_identical_reruns(tmp_path, argv, csv):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert (out1 / csv).read_bytes() == (out2 / csv).read_bytes()


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


def test_error_record_on_runtime_failure(tmp_path, capsys):
    # a known family name, but a scalar one in the flux slot
    rc = main(["solve", "--n", "2", "--triple", "bdm1-p0-p0",
               "--lambda", "1", "--rp-inv", "1", "--alpha-p", "0",
               "--source", "zero", "--out", str(tmp_path / "e")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "IncompatibleSpaces"


class TestTimestep:
    argv = TIMESTEP_ARGV

    def test_requires_physical_parameters(self):
        with pytest.raises(ConfigError):
            cfg = _cfg(["timestep", "--n", "2", "--lambda", "1", "--rp-inv",
                        "1", "--alpha-p", "0"])
            timestep_drive(replace(cfg, steps=1))

    def test_zero_everything_stays_zero(self):
        cfg = _cfg(self.argv + ["--g-mode", "zero"])
        records, state = timestep_drive(replace(cfg, steps=3))
        assert len(records) == 3
        assert all(r["u_norm"] == 0 and r["p_norm"] == 0 for r in records)

    def test_step_matrix_factorized_once(self, monkeypatch):
        """The step matrix does not change between steps, so a multi-step
        run makes one LU factorization, through either scipy entry point."""
        import scipy.sparse.linalg as spla

        shapes = []
        for name in ("splu", "factorized"):
            def counted(A, *args, _lu=getattr(spla, name), **kwargs):
                shapes.append(A.shape)
                return _lu(A, *args, **kwargs)
            monkeypatch.setattr(spla, name, counted)
        cfg = _cfg(self.argv + ["--g-mode", "cosine"])
        records, _ = timestep_drive(replace(cfg, steps=3))
        assert len(records) == 3
        assert len(shapes) == 1

    def test_single_step_equals_static_solve(self):
        from biotfem.analysis import expand_solution
        from biotfem.assembly import FormOperators
        from biotfem.elements import triangle_rule
        from biotfem.meshing import structured_mesh
        from biotfem.params import compose_timestep_rhs, reduce
        from biotfem.solver import solve_direct

        cfg = _cfg(self.argv + ["--g-mode", "cosine"])
        records, state = timestep_drive(replace(cfg, steps=1))

        phys = cfg.physical_params()
        red, scal = reduce(phys)
        ops = FormOperators(structured_mesh(2), ("bdm1", "rt0", "p0"))
        rule = triangle_rule(8)
        xy = ops.mesh.cell_points(rule.points)
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
        records1, state1 = timestep_drive(replace(cfg, steps=1))
        records2, state2 = timestep_drive(replace(cfg, steps=2))

        phys = cfg.physical_params()
        red, scal = reduce(phys)
        ops = FormOperators(structured_mesh(2), ("bdm1", "rt0", "p0"))
        rule = triangle_rule(8)
        xy = ops.mesh.cell_points(rule.points)
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

    @pytest.mark.parametrize("c_pp", ["0.05", "0"])
    def test_first_order_in_tau(self, c_pp):
        """Backward Euler to T = 2 on n = 8 with the README's physical
        data, with and without storage, tau halved three times from 0.25:
        the final states converge at order at least 0.9 (criterion 5's
        floor) in Euclidean norms at physical scale, and each difference
        is a few percent of the state.  Without the history terms the
        states shrink with tau."""
        finals = []
        for k in range(4):
            _, state = timestep_drive(_cfg([
                "timestep", "--n", "8", "--mu", "0.5", "--lambda-phys", "2",
                "--alpha", "1", "--K", "1e-2", "--c-pp", c_pp,
                "--tau", str(0.25 / 2**k), "--steps", str(8 * 2**k)]))
            finals.append(state)
        for name in ("u_prev", "p_prev"):
            states = [getattr(s, name) for s in finals]
            diffs = np.array([np.linalg.norm(a - b)
                              for a, b in zip(states, states[1:])])
            assert np.all(np.log2(diffs[:-1] / diffs[1:]) >= 0.9)
            assert diffs.max() <= 0.05 * np.linalg.norm(states[-1])

    @pytest.mark.parametrize("c_pp", ["0", "0.05"])
    @pytest.mark.parametrize("K", ["1e-2", "1e-10"])
    @pytest.mark.parametrize("lam", ["2", "1e8"])
    def test_physical_corner_balances_mass_across_steps(
            self, monkeypatch, record_property, lam, K, c_pp):
        """Four steps on n = 8 at a corner of the physical grid, the other
        data the README's: at every step the cellwise residual of the
        time-discrete mass balance stays within criterion 1's budget
        1e-10 (|g_k| + 1).  The balance is written here from the solutions
        themselves: the reduced load g_k is the first step's, which starts
        from rest, minus (alpha div u + c_pp p)/(2 mu) of the step before,
        at physical scale.  The GMRES-IR iterations of each step are
        recorded, with no bound yet: (1e8, 1e-10, 0) is the direct
        solver's hard corner."""
        from biotfem import analysis
        from biotfem.params import reduce

        solved = []
        audit = analysis.conservation_audit

        def recorded(system, x):
            solved.append((system, x))
            return audit(system, x)

        monkeypatch.setattr(analysis, "conservation_audit", recorded)
        cfg = _cfg(["timestep", "--n", "8", "--mu", "0.5", "--lambda-phys",
                    lam, "--alpha", "1", "--K", K, "--c-pp", c_pp, "--tau",
                    "0.25", "--steps", "4"])
        records, _ = timestep_drive(cfg)
        record_property("refine_iterations",
                        [r["refine_iterations"] for r in records])
        phys = cfg.physical_params()
        scaling = reduce(phys)[1]
        first = solved[0][0]
        g_rest = first.rhs_p / first.mesh.signed_areas()
        history = np.zeros_like(g_rest)
        assert len(solved) == 4
        for system, x in solved:
            cu, cv, p = analysis.expand_solution(system, x)
            div_u = system.uspace.cell_divergence(cu)
            g = g_rest - history
            balance = (-div_u - system.vspace.cell_divergence(cv)
                       - system.params.alpha_p * p - g)
            assert np.abs(balance).max() <= 1e-10 * (np.abs(g).max() + 1.0)
            history = (phys.alpha * div_u / scaling.u_scale
                       + phys.c_pp * p / scaling.p_scale) / (2.0 * phys.mu)

    def test_timestep_command_artifacts(self, tmp_path):
        out = tmp_path / "ts"
        rc = main(self.argv + ["--steps", "2", "--out", str(out)])
        assert rc == 0
        rec = json.loads((out / "timestep_report.json").read_text())
        assert len(rec["steps"]) == 2
        lines = (out / "timestep_conservation.csv").read_text().splitlines()
        assert lines[0] == "step,time,conservation_max"
        assert len(lines) == 3
