"""Command-line experiment drivers.

Subcommands: solve, sweep, infsup, convergence, timestep.  Parameters come
either as the reduced triple (--lambda/--rp-inv/--alpha-p) or as physical
material data (--mu/--lambda-phys/--alpha/--K/--tau/--c-pp), never both;
a flat key=value config file may supply any of the same keys, with
command-line flags taking precedence.  Every setting is declared once, as a
row of SETTINGS, which drives the parser, the config file, validation and
resolved_config.txt.
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
from .assembly import DGConfig, FormOperators
from .elements import VECTOR_FAMILIES, triangle_rule
from .meshing import structured_mesh
from .params import (FieldScaling, PhysicalParams, RangeViolation,
                     ReducedParams, compose_timestep_rhs, reduce)
from .solver import DirectSolver, build_preconditioner, minres_solve


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
        return tuple(self.triple.split("-"))

    def reduced_params(self) -> ReducedParams:
        return self.reduction()[0]

    def reduction(self) -> tuple[ReducedParams, FieldScaling | None]:
        """The reduced triple of the given parameter set and, for physical
        data, its field scaling (None for a reduced triple).  A value outside
        its admissible range, lambda < 2 mu included, is a ConfigError."""
        if (self.physical is None) == (self.reduced is None):
            raise ConfigError("exactly one of the physical or reduced "
                              "parameter sets must be given")
        try:
            if self.reduced is not None:
                return ReducedParams(self.reduced["lambda_red"],
                                     self.reduced["rp_inv"],
                                     self.reduced["alpha_p"]), None
            return reduce(self.physical_params())
        except RangeViolation as exc:
            raise ConfigError(str(exc)) from exc

    def given_or_unit_params(self) -> ReducedParams:
        """The given parameter set, or (1, 1, 0) when none was given."""
        if self.physical is None and self.reduced is None:
            return ReducedParams(1.0, 1.0, 0.0)
        return self.reduced_params()

    def physical_params(self) -> PhysicalParams:
        if self.physical is None:
            raise ConfigError("this command requires physical parameters "
                              "(mu, lambda, alpha, K, tau, c_pp)")
        p = self.physical
        return PhysicalParams(mu=p["mu"], lam=p["lambda"], alpha=p["alpha"],
                              K=p["K"], tau=p["tau"],
                              c_pp=p.get("c_pp", 0.0))

    def resolved_dict(self) -> dict:
        rec = {"command": self.command}
        for s in SETTINGS:
            if s.key is None or (s.scoped and self.command not in s.commands):
                continue
            val = s.get(self)
            if isinstance(val, list):
                val = ",".join(output.fmt(v) for v in val)
            if val is not None:
                rec[s.record_as or s.key] = val
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


_PARAMETER_SETS = ("physical", "reduced")


@dataclass(frozen=True)
class Setting:
    """One run setting: its flag, config-file key (None for a switch, which
    is a flag only) and RunConfig attribute ("physical"/"reduced": a key of
    that parameter dict).  resolved_config.txt records it under its key (or
    record_as) for every command, or only for the commands that offer the
    flag when scoped."""

    flag: str
    key: str | None
    attr: str
    commands: tuple[str, ...]
    help: str
    cast: object = float
    choices: tuple[str, ...] = ()
    check: tuple | None = None  # (predicate, what it requires)
    scoped: bool = False
    record_as: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def argparse_kwargs(self) -> dict:
        if self.key is None:
            return {"action": "store_true"}
        if self.choices:
            return {"choices": self.choices}
        return {"type": self.cast}

    def validate(self, val):
        if self.choices:
            ok, need = val in self.choices, " or ".join(self.choices)
        elif self.check is not None:
            ok, need = self.check[0](val), self.check[1]
        else:
            return
        if not ok:
            raise ConfigError(f"{self.key} must be {need}, got {val!r}")

    def get(self, cfg: RunConfig):
        if self.attr in _PARAMETER_SETS:
            return (getattr(cfg, self.attr) or {}).get(self.key)
        return getattr(cfg, self.attr)


_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: bool(np.isfinite(v) and v > 0), "finite and > 0")
_FAMILY_NAMES = VECTOR_FAMILIES + ("p0",)
_TRIPLE = (lambda v: len(v.split("-")) == 3
           and set(v.split("-")) <= set(_FAMILY_NAMES),
           f"three of {', '.join(_FAMILY_NAMES)} joined by '-'")
_TIMESTEP_SOURCES = {
    "zero": lambda x, y: np.zeros_like(x),
    "cosine": lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y),
}

_ALL = ("solve", "infsup", "sweep", "convergence", "timestep")
_ONE_MESH = ("solve", "infsup", "sweep", "timestep")
_GRID = ("infsup", "sweep")
_KRYLOV = ("solve", "sweep")

SETTINGS = (
    Setting("--n", "n", "mesh_n", _ONE_MESH, "mesh subdivisions per side",
            int, check=_AT_LEAST_1, scoped=True, record_as="mesh_n"),
    Setting("--n-list", "n_list", "n_list", ("convergence",),
            "comma-separated mesh sizes", _ints, scoped=True,
            check=(lambda v: v and min(v) >= 1,
                   "a non-empty list of sizes >= 1")),
    Setting("--triple", "triple", "triple", _ALL,
            "families, e.g. bdm1-rt0-p0", str, check=_TRIPLE),
    Setting("--eta", "eta", "eta", _ALL, "interior penalty weight",
            check=_POSITIVE),
    Setting("--out", "output_dir", "output_dir", _ALL, "output directory",
            str),
    Setting("--lambda", "lambda_red", "reduced", _ALL,
            "reduced Lame parameter (>= 1)"),
    Setting("--rp-inv", "rp_inv", "reduced", _ALL,
            "reduced inverse permeability"),
    Setting("--alpha-p", "alpha_p", "reduced", _ALL,
            "reduced storage coefficient"),
    Setting("--mu", "mu", "physical", _ALL, "shear modulus"),
    Setting("--lambda-phys", "lambda", "physical", _ALL,
            "Lame parameter lambda"),
    Setting("--alpha", "alpha", "physical", _ALL, "Biot-Willis coefficient"),
    Setting("--K", "K", "physical", _ALL, "hydraulic conductivity"),
    Setting("--tau", "tau", "physical", _ALL, "time step"),
    Setting("--c-pp", "c_pp", "physical", _ALL,
            "constrained specific storage (default 0)"),
    Setting("--method", "method", "method", ("solve",), "solver",
            str, choices=("direct", "minres"), scoped=True),
    Setting("--source", "source", "source", ("solve",), "right-hand side",
            str, choices=("zero", "manufactured"), scoped=True),
    Setting("--tol", "tol", "tol", _KRYLOV, "MINRES stopping tolerance",
            check=_POSITIVE, scoped=True),
    Setting("--max-iter", "max_iter", "max_iter", _KRYLOV,
            "MINRES iteration cap", int, check=_AT_LEAST_1, scoped=True),
    Setting("--dump-mesh", None, "dump_mesh", ("solve",), "write mesh.txt"),
    Setting("--export-blocks", None, "export_blocks", ("solve",),
            "write the blocks as Matrix Market files"),
    Setting("--norms", "norms", "norms", ("infsup",),
            "norms of the pencil", str, choices=("paper", "natural"),
            scoped=True),
    Setting("--lambda-list", "lambda_list", "lam_list", _GRID,
            "comma-separated reduced lambdas", _floats),
    Setting("--rp-inv-list", "rp_inv_list", "rp_list", _GRID,
            "comma-separated reduced inverse permeabilities", _floats),
    Setting("--alpha-p-list", "alpha_p_list", "ap_list", _GRID,
            "comma-separated reduced storage coefficients", _floats),
    Setting("--with-condition", None, "with_condition", ("sweep",),
            "also estimate kappa (dense, small meshes only)"),
    Setting("--steps", "steps", "steps", ("timestep",),
            "backward Euler steps", int, check=_AT_LEAST_1, scoped=True),
    Setting("--g-mode", "g_mode", "g_mode", ("timestep",),
            "pressure-equation source", str,
            choices=tuple(_TIMESTEP_SOURCES), scoped=True),
)


def build_config(args: argparse.Namespace) -> RunConfig:
    file_vals = parse_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_vals) - {s.key for s in SETTINGS})
    if unknown:
        raise ConfigError(f"{args.config}: unknown keys {unknown}")

    cfg = RunConfig(command=args.command)
    sets = {name: {} for name in _PARAMETER_SETS}
    for s in SETTINGS:
        val = getattr(args, s.dest, None)
        if s.key is None:
            setattr(cfg, s.attr, bool(val))
            continue
        if val is None and s.key in file_vals:
            try:
                val = s.cast(file_vals[s.key])
            except ValueError as exc:
                raise ConfigError(f"{args.config}: bad value for {s.key}: "
                                  f"{exc}") from exc
        if val is None:
            continue
        s.validate(val)
        if s.attr in sets:
            sets[s.attr][s.key] = val
        else:
            setattr(cfg, s.attr, val)

    # parameter sets: flags override file values key by key
    if sets["physical"] and sets["reduced"]:
        raise ConfigError("pass either physical or reduced parameters, "
                          "never both")
    for name, given in sets.items():
        if not given:
            continue
        missing = [s.key for s in SETTINGS if s.attr == name
                   and s.key not in given and s.key != "c_pp"]
        if missing:
            raise ConfigError(f"{name} parameter set incomplete, missing "
                              f"{missing}")
        setattr(cfg, name, given)

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
        output.write_mesh(ops.mesh, out / "mesh.txt")
    if cfg.export_blocks:
        for name, mat in (("A_uu", system.A_uu), ("B_up", system.B_up),
                          ("A_vv", system.A_vv), ("B_vp", system.B_vp),
                          ("C_pp", system.C_pp)):
            output.write_matrix_market(mat, out / f"{name}.mtx")
    record = {"method": cfg.method, "cond_estimate": None}
    if cfg.method == "minres":
        precond = build_preconditioner(ops.norm_blocks(params), system)
        x, report = minres_solve(system, precond, tol=cfg.tol,
                                 max_iter=cfg.max_iter)
        output.write_csv(out / "residuals.csv", ["iter", "resnorm"],
                         enumerate(report.residual_history))
        record.update(iterations=report.iterations,
                      residual_history=report.residual_history,
                      converged=report.converged, tol=report.tol,
                      wall_time=report.wall_time, lu_fill=precond.lu_fill)
    else:
        # the direct path refines to a fixed bound; it takes no tolerance
        t0 = time.perf_counter()
        solver = DirectSolver(system)
        x, mult = solver.solve(system.rhs)
        record.update(iterations=0, residual_history=[], converged=True,
                      tol=None, wall_time=time.perf_counter() - t0,
                      lu_fill=solver.lu.nnz,
                      refine_iterations=solver.refine_iterations,
                      refine_solves=solver.refine_solves,
                      refine_residual=solver.refine_residual)
    audit = analysis.conservation_audit(system, x)
    record["conservation_max"] = float(np.abs(audit).max())
    if case is not None:
        errs = analysis.error_norms(system, x, case)
        record["err_U"], record["err_V"], record["err_P"] = map(float, errs)
    output.write_json(record, out / "report.json")
    return 0


def run_infsup(cfg: RunConfig) -> int:
    out = _prepare(cfg)
    # a missing list takes the given parameter (1, 1, 0 when none is given)
    params = (cfg.given_or_unit_params()
              if cfg.lam_list or cfg.rp_list or cfg.ap_list
              else cfg.reduced_params())
    results = analysis.infsup_sweep([cfg.mesh_n],
                                    cfg.lam_list or [params.lam],
                                    cfg.rp_list or [params.rp_inv],
                                    cfg.ap_list or [params.alpha_p],
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
    table = analysis.convergence_study(cfg.given_or_unit_params(),
                                       cfg.n_list,
                                       families=cfg.families(),
                                       cfg=DGConfig(cfg.eta))
    output.write_convergence_csv(table, out / "convergence.csv")
    return 0


@dataclass
class TimeStepState:
    """Physical-scale fields carried between backward Euler steps."""

    u_prev: np.ndarray
    p_prev: np.ndarray


def timestep_drive(cfg: RunConfig):
    """Backward Euler sweep of `cfg.steps` steps over the static solver,
    starting from rest.

    The reduced parameters do not change between steps, so the step matrix
    is assembled and factorized once.  Each step composes the
    pressure-equation source from the previous physical-scale fields,
    solves against that factor, and audits local mass conservation.
    Returns (list of step records, state).
    """
    red, scaling = cfg.reduction()
    phys = cfg.physical_params()
    ops = FormOperators(structured_mesh(cfg.mesh_n), cfg.families(),
                        DGConfig(cfg.eta))
    state = TimeStepState(u_prev=np.zeros(ops.uspace.ndof),
                          p_prev=np.zeros(ops.mesh.num_cells))

    g_fn = _TIMESTEP_SOURCES.get(cfg.g_mode)
    if g_fn is None:
        raise ConfigError(f"unknown g_mode {cfg.g_mode!r}")
    rule = triangle_rule(8)
    xy = ops.mesh.cell_points(rule.points)
    # the source does not depend on time, so it is integrated once
    g_means = np.einsum("kq,q->k", g_fn(xy[..., 0], xy[..., 1]),
                        rule.weights, optimize=True) \
        * ops.uspace.detJ / ops.areas
    system = ops.block_system(red)
    solver = DirectSolver(system)
    records = []
    for k in range(1, cfg.steps + 1):
        t_k = k * phys.tau
        gk_red = compose_timestep_rhs(g_means, state.u_prev, state.p_prev,
                                      phys, ops.uspace)
        system = replace(system, rhs_p=gk_red * ops.areas)
        x, mult = solver.solve(system.rhs)
        cu, cv, p_cells = analysis.expand_solution(system, x)
        audit = analysis.conservation_audit(system, x)
        state = TimeStepState(u_prev=cu / scaling.u_scale,
                              p_prev=p_cells / scaling.p_scale)
        records.append({
            "step": k,
            "time": t_k,
            "multiplier": mult,
            "refine_iterations": solver.refine_iterations,
            "refine_solves": solver.refine_solves,
            "conservation_max": float(np.abs(audit).max()),
            "u_norm": float(np.linalg.norm(state.u_prev)),
            "p_norm": float(np.linalg.norm(state.p_prev)),
        })
    return records, state


def run_timestep(cfg: RunConfig) -> int:
    out = _prepare(cfg)
    records, state = timestep_drive(cfg)
    red = cfg.reduced_params()
    output.write_json({"steps": records, "lam": red.lam,
                       "rp_inv": red.rp_inv, "alpha_p": red.alpha_p,
                       "gamma": red.gamma}, out / "timestep_report.json")
    output.write_csv(out / "timestep_conservation.csv",
                     ["step", "time", "conservation_max"],
                     [(r["step"], r["time"], r["conservation_max"])
                      for r in records])
    return 0


_COMMANDS = {
    "solve": (run_solve, "one static solve"),
    "infsup": (run_infsup, "discrete inf-sup constants"),
    "sweep": (run_sweep, "MINRES robustness sweep"),
    "convergence": (run_convergence, "manufactured convergence study"),
    "timestep": (run_timestep, "backward Euler driver"),
}


def make_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: no flag may stand for a longer one it prefixes
    # (convergence offers --n-list, not --n)
    parser = argparse.ArgumentParser(
        prog="biotfem", allow_abbrev=False,
        description="Three-field poroelasticity experiments on the unit "
                    "square")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="flat key = value config file")
        for s in SETTINGS:
            if command in s.commands:
                p.add_argument(s.flag, dest=s.dest, help=s.help,
                               **s.argparse_kwargs())
    return parser


def run(cfg: RunConfig) -> int:
    """Dispatch a validated configuration to its driver."""
    return _COMMANDS[cfg.command][0](cfg)


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
