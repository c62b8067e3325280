"""Every dense eigenvalue problem in the package goes through one helper.

`solver._dense_pencil` takes one symmetric matrix, which its callers
have whitened, runs LAPACK's tridiagonal reduction dsytrd in panels of
the width measured fastest (`solver._PANEL`), computes by bisection only
the eigenvalues its callers read, rejects non-finite input and turns
every LAPACK failure into `LinAlgError`, which the callers map to their
own errors.  scipy's `eigh` and its siblings reduce at the width their
workspace gives and compute every eigenvalue, so a second call site
would quietly be the slow path.
The check parses the source, so it also covers imports and calls that no
other test reaches.
"""
import ast
import re
from pathlib import Path

import biotfem

SOURCES = sorted(Path(biotfem.__file__).parent.glob("*.py"))
# scipy.linalg's dense eigen solvers (numpy.linalg's share the names)
EIGEN_NAMES = {"eig", "eigh", "eigvals", "eigvalsh", "eig_banded",
               "eigvals_banded", "eigh_tridiagonal", "eigvalsh_tridiagonal"}
# LAPACK eigen drivers, e.g. dsyevd, dsygvd, zheevr, dgeev, dggev, dstev,
# and the tridiagonal eigen routines, e.g. dstebz, dsterf, dstemr, dstein;
# their *_lwork workspace queries and the reduction dsytrd are not drivers
LAPACK_DRIVER = re.compile(r"[sdcz]((sy|he|sp|hp|sb|hb|st|ge|gg)(ev|gv)[a-z]*"
                           r"|st(ebz|erf|emr|ein|eqr|edc|egr))")
HELPER = ("solver.py", "_dense_pencil")


def _is_eigen(name):
    return name in EIGEN_NAMES or bool(LAPACK_DRIVER.fullmatch(name or ""))


def _eigen_uses(path):
    """(enclosing function name or None, line) of each import of, call of
    or reference to an eigen solver."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            name = (child.attr if isinstance(child, ast.Attribute) else
                    child.id if isinstance(child, ast.Name) else
                    child.name.rpartition(".")[2]
                    if isinstance(child, ast.alias) else None)
            if _is_eigen(name):
                yield owner, child.lineno
            yield from visit(child, owner)

    yield from visit(tree, None)


def test_driver_pattern_names_drivers_only():
    assert all(_is_eigen(name) for name in (
        "dsyevd", "dsygvd", "dsygv", "dsyevr", "zheevx", "dgeev", "dggev",
        "dstev", "dsbevd", "dstebz", "dsterf", "dstemr", "dstein", "eigh"))
    assert not any(_is_eigen(name) for name in (
        "dsytrd_lwork", "dsygvd_lwork", "dsytrd", "dpotrf", "dsygst",
        "eigenvalues", None))


def test_sources_contain_the_helper_driver():
    # guards against a vacuous pass if the package moves or the helper is
    # renamed
    owners = {(path.name, owner) for path in SOURCES
              for owner, _ in _eigen_uses(path)}
    assert HELPER in owners


def test_eigen_solvers_used_only_inside_the_helper():
    stray = [f"{path.name}:{line} in {owner}" for path in SOURCES
             for owner, line in _eigen_uses(path)
             if (path.name, owner) != HELPER]
    assert not stray, f"eigen solver outside solver._dense_pencil: {stray}"
