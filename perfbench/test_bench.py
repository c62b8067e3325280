"""Self-test of the benchmark at toy sizes (n=4, 2 steps, a 2-point grid).

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that an op or a task that raises is counted without ending the run, that a
result the library drops counts as a wrong answer, that conservation is
checked on the solutions the convergence study itself computed, that the
perturbed meshes are what README.md says, and that the benchmark refuses to run
without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in SPEC["workloads"]]


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", GATED)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, report = run.run(workload, seed=3, seconds=0.01, trace=trace,
                             size="TOY")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == _units(section)
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0, \
        report["failures"]


def test_a_raising_op_is_counted_and_the_run_goes_on(monkeypatch):
    real = workloads.bf.minres_solve

    def flaky(system, *args, **kwargs):
        if system.params.rp_inv == 1e-4:
            raise RuntimeError("injected")
        return real(system, *args, **kwargs)

    monkeypatch.setattr(workloads.bf, "minres_solve", flaky)
    result, report = run.run("sweep", seed=3, seconds=0.01, trace=False,
                             size="TOY")
    assert report["failures"] == {"raised RuntimeError": report["tasks"]}
    assert result["failed"] == report["tasks"]
    assert result["attempted"] == 2 * report["tasks"]
    assert result["correct"] is True
    assert result["metrics"]["verified_ratio"]["value"] == 0.5


def test_a_raising_task_fails_all_its_ops(monkeypatch):
    def broken(cfg):
        raise FloatingPointError("injected")

    monkeypatch.setattr(workloads.cli, "timestep_drive", broken)
    result, report = run.run("timestep", seed=3, seconds=0.01, trace=False,
                             size="TOY")
    steps = workloads.TimeStep.TOY["steps"] * report["tasks"]
    assert result["failed"] == result["attempted"] == steps
    assert report["failures"] == {"raised FloatingPointError": steps}


def test_a_dropped_result_is_a_wrong_answer(monkeypatch):
    real = workloads.analysis.infsup_sweep
    monkeypatch.setattr(workloads.analysis, "infsup_sweep",
                        lambda *args, **kwargs: real(*args, **kwargs)[:-1])
    result, report = run.run("infsup", seed=3, seconds=0.01, trace=False,
                             size="TOY")
    assert result["correct"] is False
    assert report["failures"] == {"result missing": report["tasks"]}


def test_conservation_is_checked_on_the_studys_own_solves(monkeypatch):
    analysis = workloads.analysis
    real_solve, real_study = analysis.solve_direct, analysis.convergence_study

    def leaky_solve(system):
        x, mult = real_solve(system)
        return x + 1e-6, mult

    def leaky_study(*args, **kwargs):  # leaks only inside the study
        analysis.solve_direct = leaky_solve
        try:
            return real_study(*args, **kwargs)
        finally:
            analysis.solve_direct = real_solve

    monkeypatch.setattr(analysis, "convergence_study", leaky_study)
    result, report = run.run("convergence", seed=3, seconds=0.01,
                             trace=False, size="TOY")
    levels = len(workloads.Convergence.TOY["n_list"]) * report["tasks"]
    assert result["correct"] is False
    assert report["failures"] == {"conservation over budget": levels}


def test_sweep_perturbed_counts_every_point():
    result, report = run.run("sweep_perturbed", seed=3, seconds=0.01,
                             trace=False, size="TOY")
    assert result["attempted"] == 2 * report["tasks"]
    assert sum(report["failures"].values()) == result["failed"]


def test_perturbed_meshes_follow_the_seed():
    n = 6
    v, c = workloads.perturbed_mesh_arrays(n, 11, 0)
    v2, c2 = workloads.perturbed_mesh_arrays(n, 11, 0)
    v3, c3 = workloads.perturbed_mesh_arrays(n, 11, 1)
    assert np.array_equal(v, v2) and np.array_equal(c, c2)
    assert not np.array_equal(v, v3)
    xs = np.linspace(0.0, 1.0, n + 1)
    grid = np.column_stack([a.ravel() for a in np.meshgrid(xs, xs)])
    shift = np.linalg.norm(v - grid, axis=1)
    on_boundary = np.any((grid == 0.0) | (grid == 1.0), axis=1)
    assert np.all(shift[on_boundary] == 0.0)
    assert shift.max() <= 0.2 / n and shift[~on_boundary].min() > 0.0
    mesh = workloads.meshing.from_arrays(v, c)  # raises on a flipped cell
    assert mesh.num_cells == 2 * n * n


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", GATED[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
