"""`tools/fingerprint.py` on a toy set: the Grams of structured n=2.

Two writes in two processes must compare bitwise equal, and a one-ulp
change to one Gram must be reported under that Gram's name, worst first.
"""
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

import biotfem

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "fingerprint.py"
WRITE_TOY = ("import runpy, sys; from biotfem import structured_mesh; "
             "fp = runpy.run_path(sys.argv[1]); "
             "print(fp['write'](sys.argv[2], "
             "fp['grams']('structured2', structured_mesh(2))))")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(biotfem.__file__).parents[1])]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _run(*args):
    return subprocess.run([sys.executable, *map(str, args)], env=ENV,
                          capture_output=True, text=True, timeout=120)


def _compare(a, b):
    out = _run(TOOL, "compare", a, b)
    return out.returncode, out.stdout.splitlines()


def test_two_writes_compare_bitwise_and_a_planted_ulp_is_named(tmp_path):
    digests = []
    for name in ("a", "b"):
        out = _run("-c", WRITE_TOY, TOOL, tmp_path / name)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
    status, lines = _compare(tmp_path / "a", tmp_path / "b")
    assert status == 0
    assert lines[-1] == "28 of 28 entries bitwise equal"

    with np.load(tmp_path / "a.npz") as fa:
        arrays = dict(fa)
    planted = "gram.bdm1.structured2.PEN.free"
    gram = arrays[planted].copy()
    gram[3] = np.nextafter(gram[3], np.inf)
    arrays[planted] = gram
    runpy.run_path(str(TOOL))["write"](tmp_path / "c", arrays)
    status, lines = _compare(tmp_path / "a", tmp_path / "c")
    assert status == 1
    assert lines[0].startswith(f"{planted}: largest relative difference ")
    assert float(lines[0].rsplit(" ", 1)[1]) <= 2 * np.finfo(float).eps
    assert all(line.endswith(": bitwise equal") for line in lines[1:-1])
    assert lines[-1] == "27 of 28 entries bitwise equal"
