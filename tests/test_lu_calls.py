"""Every sparse LU factorization in the package goes through one helper.

`solver._factor` factors every matrix in SuperLU's symmetric mode with
static diagonal pivots and certifies each kind of matrix: an SPD block
(the elasticity operator, a norm block) by equal row and column orders and
positive pivots, the shifted bordered saddle point of the direct solver by
equal orders alone.  It also turns SuperLU's errors into
`FactorizationFailure`.  A second call site would bypass both.  The check
parses the source, so it covers calls that no other test reaches.
"""
import ast
from pathlib import Path

import biotfem

SOURCES = sorted(Path(biotfem.__file__).parent.glob("*.py"))
LU_NAMES = {"splu", "factorized"}
HELPER = ("solver.py", "_factor")


def _lu_calls(path):
    """(enclosing function name or None, line) of each LU call."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None)
                if name in LU_NAMES:
                    yield owner, child.lineno
            yield from visit(child, owner)

    yield from visit(tree, None)


def test_sources_contain_lu_calls():
    # guards against a vacuous pass if the package moves or the helper is
    # renamed
    owners = {(path.name, owner) for path in SOURCES
              for owner, _ in _lu_calls(path)}
    assert HELPER in owners


def test_lu_called_only_inside_the_helper():
    stray = [f"{path.name}:{line} in {owner}" for path in SOURCES
             for owner, line in _lu_calls(path)
             if (path.name, owner) != HELPER]
    assert not stray, f"sparse LU called outside solver._factor: {stray}"
