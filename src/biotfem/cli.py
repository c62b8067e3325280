"""Command-line experiment drivers.

Subcommands: solve, sweep, infsup, convergence, timestep.  Parameters come
either as the reduced triple (--lambda/--rp-inv/--alpha-p) or as physical
material data (--mu/--lambda-phys/--alpha/--K/--tau/--c-pp), never both;
a flat key=value config file may supply any of the same keys, with
command-line flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis, output
from .assembly import DGConfig, FormOperators, export_matrix_market
from .elements import triangle_rule
from .meshing import structured_mesh
from .params import (PhysicalParams, RangeViolation, ReducedParams,
                     compose_timestep_rhs, reduce)
from .solver import DirectSolver, SolveReport, build_preconditioner, \
    minres_solve

PHYSICAL_KEYS = ("mu", "lambda", "alpha", "K", "tau", "c_pp")
REDUCED_KEYS = ("lambda_red", "rp_inv", "alpha_p")


class ConfigError(ValueError):
    """Invalid or contradictory run configuration."""


@dataclass
class RunConfig:
    command: str
    mesh_n: int = 4
    n_list: list[int] = field(default_factory=lambda: [2, 4, 8, 16])
    triple: str = "bdm1-rt0-p0"
    norms: str = "paper"
    physical: dict | None = None
    reduced: dict | None = None
    lam_list: list[float] | None = None
    rp_list: list[float] | None = None
    ap_list: list[float] | None = None
    eta: float = 10.0
    tol: float = 1e-8
    max_iter: int = 500
    method: str = "direct"
    source: str = "manufactured"
    steps: int = 3
    g_mode: str = "cosine"
    output_dir: str = "out"
    dump_mesh: bool = False
    export_blocks: bool = False
    with_condition: bool = False

    def families(self):
        parts = tuple(self.triple.split("-"))
        if len(parts) != 3:
            raise ConfigError(f"triple must look like bdm1-rt0-p0, got "
                              f"{self.triple!r}")
        return parts

    def reduced_params(self) -> ReducedParams:
        if (self.physical is None) == (self.reduced is None):
            raise ConfigError("exactly one of the physical or reduced "
                              "parameter sets must be given")
        try:
            if self.reduced is not None:
                return ReducedParams(self.reduced["lambda_red"],
                                     self.reduced["rp_inv"],
                                     self.reduced["alpha_p"])
            red, _ = reduce(self.physical_params())
            return red
        except RangeViolation as exc:
            raise ConfigError(str(exc)) from exc

    def physical_params(self) -> PhysicalParams:
        if self.physical is None:
            raise ConfigError("this command requires physical parameters "
                              "(mu, lambda, alpha, K, tau, c_pp)")
        p = self.physical
        return PhysicalParams(mu=p["mu"], lam=p["lambda"], alpha=p["alpha"],
                              K=p["K"], tau=p["tau"],
                              c_pp=p.get("c_pp", 0.0))

    def resolved_dict(self) -> dict:
        rec = {
            "command": self.command,
            "triple": self.triple,
            "norms": self.norms,
            "eta": self.eta,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "method": self.method,
            "source": self.source,
            "output_dir": str(self.output_dir),
        }
        if self.command == "convergence":
            rec["n_list"] = ",".join(str(n) for n in self.n_list)
        elif self.command == "timestep":
            rec["mesh_n"] = self.mesh_n
            rec["steps"] = self.steps
            rec["g_mode"] = self.g_mode
        else:
            rec["mesh_n"] = self.mesh_n
        if self.physical is not None:
            rec.update({k: self.physical[k] for k in PHYSICAL_KEYS
                        if k in self.physical})
        if self.reduced is not None:
            rec.update(self.reduced)
        for name, vals in (("lambda_list", self.lam_list),
                           ("rp_inv_list", self.rp_list),
                           ("alpha_p_list", self.ap_list)):
            if vals is not None:
                rec[name] = ",".join(output.fmt(v) for v in vals)
        return rec


def parse_config_file(path) -> dict:
    """Flat key = value file; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key] = val
    return values


def _floats(text) -> list[float]:
    return [float(t) for t in str(text).split(",") if t.strip()]


def _ints(text) -> list[int]:
    return [int(t) for t in str(text).split(",") if t.strip()]


def _positive(v) -> bool:
    return bool(np.isfinite(v) and v > 0)


def _one_of(*choices):
    return lambda v: v in choices


# Run settings: config-file key -> (argparse dest, cast, RunConfig attribute,
# check, requirement).  A flag overrides the file; the RunConfig default
# applies only when neither gives a value.
_SETTINGS = {
    "n": ("n", int, "mesh_n", lambda v: v >= 1, ">= 1"),
    "n_list": ("n_list", _ints, "n_list", lambda v: v and min(v) >= 1,
               "a non-empty list of sizes >= 1"),
    "triple": ("triple", str, "triple", None, ""),
    "norms": ("norms", str, "norms", _one_of("paper", "natural"),
              "paper or natural"),
    "eta": ("eta", float, "eta", _positive, "finite and > 0"),
    "tol": ("tol", float, "tol", _positive, "finite and > 0"),
    "max_iter": ("max_iter", int, "max_iter", lambda v: v >= 1, ">= 1"),
    "method": ("method", str, "method", _one_of("direct", "minres"),
               "direct or minres"),
    "source": ("source", str, "source", _one_of("zero", "manufactured"),
               "zero or manufactured"),
    "steps": ("steps", int, "steps", lambda v: v >= 1, ">= 1"),
    "g_mode": ("g_mode", str, "g_mode", _one_of("zero", "cosine"),
               "zero or cosine"),
    "output_dir": ("out", str, "output_dir", None, ""),
}
# parameter keys -> argparse dest; list keys (also their argparse dest) ->
# RunConfig attribute
_PHYSICAL_FLAGS = {"mu": "mu", "lambda": "lambda_phys", "alpha": "alpha",
                   "K": "K", "tau": "tau", "c_pp": "c_pp"}
_REDUCED_FLAGS = {"lambda_red": "lam", "rp_inv": "rp_inv",
                  "alpha_p": "alpha_p"}
_LISTS = {"lambda_list": "lam_list", "rp_inv_list": "rp_list",
          "alpha_p_list": "ap_list"}


def build_config(args: argparse.Namespace) -> RunConfig:
    file_vals = parse_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_vals) - set(_SETTINGS) - set(_PHYSICAL_FLAGS)
                     - set(_REDUCED_FLAGS) - set(_LISTS))
    if unknown:
        raise ConfigError(f"{args.config}: unknown keys {unknown}")

    def pick(key, dest, cast):
        flag_val = getattr(args, dest, None)
        if flag_val is not None:
            return flag_val
        if key not in file_vals:
            return None
        try:
            return cast(file_vals[key])
        except ValueError as exc:
            raise ConfigError(f"{args.config}: bad value for {key}: "
                              f"{exc}") from exc

    cfg = RunConfig(command=args.command)
    for key, (dest, cast, attr, check, need) in _SETTINGS.items():
        val = pick(key, dest, cast)
        if val is None:
            continue
        if check is not None and not check(val):
            raise ConfigError(f"{key} must be {need}, got {val!r}")
        setattr(cfg, attr, val)
    for key, attr in _LISTS.items():
        vals = pick(key, key, _floats)
        if vals is not None:
            setattr(cfg, attr, vals)
    cfg.dump_mesh = bool(getattr(args, "dump_mesh", False))
    cfg.export_blocks = bool(getattr(args, "export_blocks", False))
    cfg.with_condition = bool(getattr(args, "with_condition", False))

    # parameter sets: flags override file values key by key
    def picked(flags):
        vals = {key: pick(key, dest, float) for key, dest in flags.items()}
        return {key: v for key, v in vals.items() if v is not None}

    phys, red = picked(_PHYSICAL_FLAGS), picked(_REDUCED_FLAGS)
    if phys and red:
        raise ConfigError("pass either physical or reduced parameters, "
                          "never both")
    if phys:
        missing = [k for k in PHYSICAL_KEYS if k not in phys and k != "c_pp"]
        if missing:
            raise ConfigError(f"physical parameter set incomplete, missing "
                              f"{missing}")
        cfg.physical = phys
    if red:
        missing = [k for k in REDUCED_KEYS if k not in red]
        if missing:
            raise ConfigError(f"reduced parameter set incomplete, missing "
                              f"{missing}")
        cfg.reduced = red

    if cfg.norms == "natural" and cfg.command != "infsup":
        raise ConfigError("natural norms are only valid with the infsup "
                          "command")
    return cfg


# -- command implementations ----------------------------------------------------


def _source_functions(cfg: RunConfig, params: ReducedParams):
    if cfg.source == "zero":
        return None, None, None
    if cfg.source == "manufactured":
        case = analysis.manufactured_case(params)
        return case.f, case.g, case
    raise ConfigError(f"unknown source {cfg.source!r}")


def _prepare(cfg: RunConfig):
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    output.write_resolved_config(cfg.resolved_dict(),
                                 out / "resolved_config.txt")
    return out


def run_solve(cfg: RunConfig) -> int:
    out = _prepare(cfg)
    params = cfg.reduced_params()
    ops = FormOperators(structured_mesh(cfg.mesh_n), cfg.families(),
                        DGConfig(cfg.eta))
    f, g, case = _source_functions(cfg, params)
    system = ops.block_system(params, f=f, g=g)
    if cfg.dump_mesh:
        (out / "mesh.txt").write_text(ops.mesh.dump())
    if cfg.export_blocks:
        for name, mat in (("A_uu", system.A_uu), ("B_up", system.B_up),
                          ("A_vv", system.A_vv), ("B_vp", system.B_vp),
                          ("C_pp", system.C_pp)):
            export_matrix_market(out / f"{name}.mtx", mat)
    extra = {}
    if cfg.method == "minres":
        precond = build_preconditioner(ops.norm_blocks(params), system)
        x, report = minres_solve(system, precond, tol=cfg.tol,
                                 max_iter=cfg.max_iter)
        report.write_history_csv(out / "residuals.csv")
        extra["lu_fill"] = precond.lu_fill
    else:
        # the direct path refines to a fixed bound; it takes no tolerance
        t0 = time.perf_counter()
        solver = DirectSolver(system)
        x, mult = solver.solve(system.rhs)
        report = SolveReport(iterations=0, residual_history=[],
                             converged=True, tol=None,
                             wall_time=time.perf_counter() - t0,
                             method="direct")
        extra["lu_fill"] = solver.lu_fill
        extra["refine_iterations"] = solver.refine_iterations
        extra["refine_residual"] = solver.refine_residual
    audit = analysis.conservation_audit(system, x)
    record = json.loads(report.to_json(**extra))
    record["conservation_max"] = float(np.abs(audit).max())
    if case is not None:
        errs = analysis.error_norms(system, x, case)
        record["err_U"], record["err_V"], record["err_P"] = map(float, errs)
    output.write_json(record, out / "report.json")
    return 0


def run_infsup(cfg: RunConfig) -> int:
    out = _prepare(cfg)
    if cfg.lam_list or cfg.rp_list or cfg.ap_list:
        params = None
        lam_list = cfg.lam_list or [1.0]
        rp_list = cfg.rp_list or [1.0]
        ap_list = cfg.ap_list or [0.0]
    else:
        params = cfg.reduced_params()
        lam_list = [params.lam]
        rp_list = [params.rp_inv]
        ap_list = [params.alpha_p]
    results = analysis.infsup_sweep([cfg.mesh_n], lam_list, rp_list, ap_list,
                                    families=cfg.families(), norms=cfg.norms,
                                    cfg=DGConfig(cfg.eta))
    output.write_infsup_csv(results, out / "infsup.csv")
    return 0


def run_sweep(cfg: RunConfig) -> int:
    out = _prepare(cfg)
    lam_list = cfg.lam_list or [1.0, 1e2, 1e4, 1e8]
    rp_list = cfg.rp_list or [1e-8, 1e-4, 1.0, 1e4, 1e8]
    ap_list = cfg.ap_list or [0.0, 1.0]
    records = analysis.minres_sweep(cfg.mesh_n, lam_list, rp_list, ap_list,
                                    families=cfg.families(),
                                    cfg=DGConfig(cfg.eta), tol=cfg.tol,
                                    max_iter=cfg.max_iter,
                                    with_condition=cfg.with_condition)
    output.write_minres_csv(records, out / "minres.csv")
    return 0


def run_convergence(cfg: RunConfig) -> int:
    out = _prepare(cfg)
    params = cfg.reduced_params() if (cfg.reduced or cfg.physical) \
        else ReducedParams(1.0, 1.0, 0.0)
    table = analysis.convergence_study(params, cfg.n_list,
                                       families=cfg.families(),
                                       cfg=DGConfig(cfg.eta))
    output.write_convergence_csv(table, out / "convergence.csv")
    return 0


@dataclass
class TimeStepState:
    """Physical-scale fields carried between backward Euler steps."""

    u_prev: np.ndarray
    p_prev: np.ndarray
    step: int
    tau: float


def timestep_drive(cfg: RunConfig, n_steps: int | None = None,
                   u0: np.ndarray | None = None,
                   p0: np.ndarray | None = None):
    """Backward Euler sweep over the static solver.

    The reduced parameters do not change between steps, so the step matrix
    is assembled and factorized once.  Each step composes the
    pressure-equation source from the previous physical-scale fields,
    solves against that factor, and audits local mass conservation.
    Returns (list of step records, state).
    """
    phys = cfg.physical_params()
    red, scaling = reduce(phys)
    ops = FormOperators(structured_mesh(cfg.mesh_n), cfg.families(),
                        DGConfig(cfg.eta))
    ncells = ops.mesh.num_cells
    state = TimeStepState(
        u_prev=np.zeros(ops.uspace.ndof) if u0 is None else np.asarray(u0),
        p_prev=np.zeros(ncells) if p0 is None else np.asarray(p0),
        step=0, tau=phys.tau)
    if state.u_prev.shape != (ops.uspace.ndof,):
        raise ConfigError(f"initial displacement has {state.u_prev.shape}, "
                          f"expected ({ops.uspace.ndof},)")
    if state.p_prev.shape != (ncells,):
        raise ConfigError(f"initial pressure has {state.p_prev.shape}, "
                          f"expected ({ncells},)")

    if cfg.g_mode == "zero":
        def g_of_t(t):
            return lambda x, y: np.zeros_like(x)
    elif cfg.g_mode == "cosine":
        def g_of_t(t):
            return lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
    else:
        raise ConfigError(f"unknown g_mode {cfg.g_mode!r}")

    rule = triangle_rule(8)
    xy = ops.mesh.cell_points(rule.points)
    areas = ops.areas
    steps = n_steps if n_steps is not None else cfg.steps
    system = ops.block_system(red)
    solver = DirectSolver(system)
    records = []
    for k in range(1, steps + 1):
        t_k = k * phys.tau
        g_fn = g_of_t(t_k)
        g_cells = np.einsum("kq,q->k", g_fn(xy[..., 0], xy[..., 1]),
                            rule.weights, optimize=True) \
            * ops.uspace.detJ / areas
        gk_red = compose_timestep_rhs(g_cells, state.u_prev, state.p_prev,
                                      phys, ops.uspace)
        system = replace(system, rhs_p=ops.rhs(g_cells=gk_red)[2])
        x, mult = solver.solve(system.rhs)
        cu, cv, p_cells = analysis.expand_solution(system, x)
        audit = analysis.conservation_audit(system, x)
        state = TimeStepState(u_prev=cu / scaling.u_scale,
                              p_prev=p_cells / scaling.p_scale,
                              step=k, tau=phys.tau)
        records.append({
            "step": k,
            "time": t_k,
            "multiplier": mult,
            "refine_iterations": solver.refine_iterations,
            "conservation_max": float(np.abs(audit).max()),
            "u_norm": float(np.linalg.norm(state.u_prev)),
            "p_norm": float(np.linalg.norm(state.p_prev)),
        })
    return records, state


def run_timestep(cfg: RunConfig) -> int:
    out = _prepare(cfg)
    records, state = timestep_drive(cfg)
    output.write_json({"steps": records}, out / "timestep_report.json")
    output.write_csv(out / "timestep_conservation.csv",
                     ["step", "time", "conservation_max"],
                     [(r["step"], r["time"], r["conservation_max"])
                      for r in records])
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biotfem",
        description="Three-field poroelasticity experiments on the unit "
                    "square")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=True):
        p.add_argument("--config", help="flat key = value config file")
        if with_n:
            p.add_argument("--n", type=int, help="mesh subdivisions per side")
        p.add_argument("--triple", help="families, e.g. bdm1-rt0-p0")
        p.add_argument("--eta", type=float, help="interior penalty weight")
        p.add_argument("--out", help="output directory")
        # reduced parameters
        p.add_argument("--lambda", dest="lam", type=float,
                       help="reduced Lame parameter (>= 1)")
        p.add_argument("--rp-inv", dest="rp_inv", type=float)
        p.add_argument("--alpha-p", dest="alpha_p", type=float)
        # physical parameters
        p.add_argument("--mu", type=float)
        p.add_argument("--lambda-phys", dest="lambda_phys", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--K", type=float)
        p.add_argument("--tau", type=float)
        p.add_argument("--c-pp", dest="c_pp", type=float)

    p = sub.add_parser("solve", help="one static solve")
    common(p)
    p.add_argument("--method", choices=["direct", "minres"])
    p.add_argument("--source", choices=["zero", "manufactured"])
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--dump-mesh", action="store_true")
    p.add_argument("--export-blocks", action="store_true")

    p = sub.add_parser("infsup", help="discrete inf-sup constants")
    common(p)
    p.add_argument("--norms", choices=["paper", "natural"])
    p.add_argument("--lambda-list", dest="lambda_list", type=_floats)
    p.add_argument("--rp-inv-list", dest="rp_inv_list", type=_floats)
    p.add_argument("--alpha-p-list", dest="alpha_p_list", type=_floats)

    p = sub.add_parser("sweep", help="MINRES robustness sweep")
    common(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--lambda-list", dest="lambda_list", type=_floats)
    p.add_argument("--rp-inv-list", dest="rp_inv_list", type=_floats)
    p.add_argument("--alpha-p-list", dest="alpha_p_list", type=_floats)
    p.add_argument("--with-condition", action="store_true",
                   help="also estimate kappa (dense, small meshes only)")

    p = sub.add_parser("convergence", help="manufactured convergence study")
    common(p, with_n=False)
    p.add_argument("--n-list", dest="n_list", type=_ints,
                   help="comma-separated mesh sizes")

    p = sub.add_parser("timestep", help="backward Euler driver")
    common(p)
    p.add_argument("--steps", type=int)
    p.add_argument("--g-mode", dest="g_mode", choices=["zero", "cosine"])
    return parser


_COMMANDS = {
    "solve": run_solve,
    "infsup": run_infsup,
    "sweep": run_sweep,
    "convergence": run_convergence,
    "timestep": run_timestep,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a validated configuration to its driver."""
    return _COMMANDS[cfg.command](cfg)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return run(cfg)
    except ConfigError as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map to a machine-readable record
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
