"""Fingerprint of the package's numbers: one fixed set of arrays, hashed.

    python3 tools/fingerprint.py write OUT
    python3 tools/fingerprint.py compare A B

Run from anywhere in a checkout; the package is imported from `src/` and
the benchmark's inputs from `perfbench/`.  `write` computes the fixed set
below with one BLAS thread, saves the arrays to OUT.npz and, per name,
their dtype, shape, SHA-256 of their bytes and largest magnitude to
OUT.json, and prints one digest of the whole set.  `compare` reads A.npz
and B.npz and prints each entry as bitwise equal or with its largest
difference relative to the larger magnitude of the two, worst first; it
exits with status 1 unless every entry of both is present in both and
bitwise equal.

The fixed set, which takes about 2 s on a 2-vCPU Xeon:
- the lower-pattern and free-dof data of every Gram of the bdm1-rt0-p0
  and p1cvec-rt0-p0 operators on structured n = 4, 8 and on the
  benchmark's perturbed n = 8 mesh (`perturbed_mesh_arrays(8, 1, 0)`);
- at each of the 40 acceptance grid points on structured n = 4, the
  direct solution and multiplier of the manufactured problem, its
  `error_norms` and the paper-norm inf-sup constant;
- at the same points, visited lambda-major through one `FormOperators`
  so that the preconditioner reuses its kept factors, the MINRES
  iteration count, residual history and iterate of the manufactured
  problem;
- the `timestep` workload's step records and final state (n = 16,
  8 steps);
- the bytes of every file written by the README's command lines and by a
  zero-load solve that dumps its mesh and blocks (`ARTIFACT_RUNS`), run
  through `cli.main`, with the `wall_time` value of report.json and the
  `output_dir` value of resolved_config.txt blanked.
"""

import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for key in BLAS_ENV:  # before numpy loads BLAS
        os.environ[key] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import biotfem as bf  # noqa: E402
from biotfem import cli, meshing  # noqa: E402

# the lower-pattern Grams of each space, by `FormOperators` attribute
GRAMS = (("_upattern", ("_EPS", "_DD_u", "_PEN", "_CONS", "_GRAD")),
         ("_vpattern", ("_M_v", "_DD_v")))


def grams(label: str, mesh) -> dict:
    """Lower-pattern and free-dof data of every Gram of the bdm1 and
    p1cvec operators on `mesh`, as gram.<family>.<label>.<Gram>.lower
    and .free."""
    out = {}
    for family in ("bdm1", "p1cvec"):
        ops = bf.FormOperators(mesh, (family, "rt0", "p0"))
        for pattern, names in GRAMS:
            for name in names:
                low = getattr(ops, name)
                key = f"gram.{family}.{label}.{name[1:]}"
                out[key + ".lower"] = low
                out[key + ".free"] = getattr(ops, pattern).free(low).data
    return out


def grid_points(n: int, points) -> dict:
    """Direct solution, multiplier, `error_norms` and paper beta0 of the
    manufactured problem at each of `points` on structured n, stacked in
    grid order."""
    ops = bf.FormOperators(bf.structured_mesh(n))
    rows = {"x": [], "multiplier": [], "error_norms": [], "beta0": []}
    for pr in points:
        case = bf.manufactured_case(pr)
        system = ops.block_system(pr, f=case.f, g=case.g)
        x, mult = bf.solve_direct(system)
        rows["x"].append(x)
        rows["multiplier"].append(mult)
        rows["error_norms"].append(bf.error_norms(system, x, case))
        rows["beta0"].append(bf.infsup_constant(
            system, ops.norm_blocks(pr)).beta0)
    return {f"grid.structured{n}.{name}": np.array(values)
            for name, values in rows.items()}


def minres_points(n: int, points) -> dict:
    """MINRES iteration counts, residual histories (concatenated) and
    iterates of the manufactured problem at each of `points` on
    structured n, solved in order through one `FormOperators`."""
    ops = bf.FormOperators(bf.structured_mesh(n))
    rows = {"iterations": [], "residual_history": [], "x": []}
    for pr in points:
        case = bf.manufactured_case(pr)
        system = ops.block_system(pr, f=case.f, g=case.g)
        x, report = bf.minres_solve(
            system, bf.build_preconditioner(ops.norm_blocks(pr), system))
        rows["iterations"].append(report.iterations)
        rows["residual_history"].extend(report.residual_history)
        rows["x"].append(x)
    return {f"minres.structured{n}.{name}": np.array(values)
            for name, values in rows.items()}


def timestep(cfg) -> dict:
    """`cli.timestep_drive`'s step records, one array per key, and its
    final state."""
    records, state = cli.timestep_drive(cfg)
    out = {f"timestep.{key}": np.array([rec[key] for rec in records])
           for key in records[0]}
    out["timestep.u_prev"] = state.u_prev
    out["timestep.p_prev"] = state.p_prev
    return out


# the README's command lines, then a solve that writes every other artifact
ARTIFACT_RUNS = {
    "infsup": "infsup --n 2 --triple bdm1-rt0-p0 --lambda 1 --rp-inv 1 "
              "--alpha-p 0",
    "infsup_natural": "infsup --n 4 --triple p1cvec-rt0-p0 --norms natural "
                      "--lambda-list 1 --rp-inv-list 1,1e6 --alpha-p-list 0",
    "solve_minres": "solve --n 8 --lambda 1e8 --rp-inv 1e-8 --alpha-p 1 "
                    "--method minres",
    "sweep": "sweep --n 8 --with-condition",
    "convergence": "convergence --n-list 4,8,16 --lambda 1 --rp-inv 1 "
                   "--alpha-p 0",
    "timestep": "timestep --n 4 --mu 0.5 --lambda-phys 2 --alpha 1 "
                "--K 1e-2 --tau 0.25 --c-pp 0.05 --steps 8",
    "solve_dump": "solve --n 2 --lambda 1 --rp-inv 1 --alpha-p 0 "
                  "--source zero --dump-mesh --export-blocks",
}
# the measured time and the directory differ from run to run
VARYING = (re.compile(rb'("wall_time": )[^,\n]*'),
           re.compile(rb"(?m)^(output_dir = ).*$"))


def artifacts(runs: dict) -> dict:
    """The bytes of every file each command line of `runs` writes, as
    artifact.<run>.<file>, with the VARYING values blanked."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run, argv in runs.items():
            folder = Path(tmp) / run
            if cli.main(argv.split() + ["--out", str(folder)]) != 0:
                raise RuntimeError(f"biotfem {argv} failed")
            for path in sorted(folder.iterdir()):
                data = path.read_bytes()
                for pattern in VARYING:
                    data = pattern.sub(rb"\1", data)
                out[f"artifact.{run}.{path.name}"] = np.frombuffer(
                    data, np.uint8)
    return out


def fixed_set() -> dict:
    from perfbench import workloads

    out = {}
    for n in (4, 8):
        out.update(grams(f"structured{n}", bf.structured_mesh(n)))
    out.update(grams("perturbed8", meshing.from_arrays(
        *workloads.perturbed_mesh_arrays(8, 1, 0))))
    # lambda-major, as `analysis.minres_sweep` visits the grid
    points = [bf.ReducedParams(lam, rp, ap) for lam in workloads.LAM_GRID
              for rp in workloads.RP_GRID for ap in workloads.AP_GRID]
    out.update(grid_points(4, points))
    out.update(minres_points(4, points))
    out.update(timestep(workloads.TimeStep(workloads.TimeStep.FULL,
                                           seed=1).cfg))
    out.update(artifacts(ARTIFACT_RUNS))
    return out


def _entry(a: np.ndarray) -> dict:
    return {"dtype": str(a.dtype), "shape": list(a.shape),
            "sha256": hashlib.sha256(a.tobytes()).hexdigest(),
            "max_abs": float(np.abs(a).max()) if a.size else 0.0}


def write(out, arrays: dict) -> str:
    """Save `arrays` to out.npz and their entries to out.json; return
    the digest of the whole set."""
    arrays = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
    entries = {name: _entry(arrays[name]) for name in sorted(arrays)}
    digest = hashlib.sha256("".join(
        f"{name} {e['dtype']} {e['shape']} {e['sha256']}\n"
        for name, e in entries.items()).encode()).hexdigest()
    np.savez(f"{out}.npz", **arrays)
    Path(f"{out}.json").write_text(json.dumps(
        {"digest": digest, "arrays": entries}, indent=1) + "\n")
    return digest


def compare(a, b) -> list:
    """(name, difference, note) of every entry of the fingerprints a and
    b, worst first: difference None where the two are bitwise equal, inf
    where the entry is missing from one or differs in dtype or shape,
    else the largest |a - b| over the larger magnitude of a and b."""
    with np.load(f"{a}.npz") as fa, np.load(f"{b}.npz") as fb:
        A, B = dict(fa), dict(fb)
    rows = []
    for name in sorted(A.keys() | B.keys()):
        if name not in A or name not in B:
            rows.append((name, np.inf, f"only in {a if name in A else b}"))
            continue
        x, y = A[name], B[name]
        if x.dtype != y.dtype or x.shape != y.shape:
            rows.append((name, np.inf, f"{x.dtype}{list(x.shape)} against "
                                       f"{y.dtype}{list(y.shape)}"))
        elif x.tobytes() == y.tobytes():
            rows.append((name, None, "bitwise equal"))
        else:
            x, y = x.astype(float), y.astype(float)
            scale = max(np.abs(x).max(), np.abs(y).max())
            diff = float(np.abs(x - y).max() / scale)
            rows.append((name, np.inf if np.isnan(diff) else diff,
                         f"largest relative difference {diff:.3e}"))
    rows.sort(key=lambda row: -1.0 if row[1] is None else row[1],
              reverse=True)
    return rows


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "write":
        print(f"digest {write(argv[1], fixed_set())}")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        rows = compare(argv[1], argv[2])
        for name, _, note in rows:
            print(f"{name}: {note}")
        equal = sum(diff is None for _, diff, _ in rows)
        print(f"{equal} of {len(rows)} entries bitwise equal")
        return 0 if equal == len(rows) else 1
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
