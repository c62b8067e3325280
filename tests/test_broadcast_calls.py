"""Basis derivatives are read once per cell, never broadcast over points.

Every family here is affine on a cell, so `FESpace` stores each basis
gradient and divergence once per cell (`cell_grad`, `cell_div`) and reads
field derivatives per cell (`cell_gradient`, `cell_divergence`).  A
tabulation that broadcasts those arrays over quadrature points only hands
callers copies of one value to collapse again.  In `elements.py`,
`np.broadcast_to` is called only by `FESpace._build_cell_coeff`, for the
identity coefficients of the nodal families.  The check parses the source,
so it covers code that no other test reaches.
"""
import ast
from pathlib import Path

import biotfem

SOURCE = Path(biotfem.__file__).parent / "elements.py"
ALLOWED = {"FESpace._build_cell_coeff"}


def _calls(node, owner=()):
    """(dotted owner, line) of each call of `*.broadcast_to` below `node`;
    the owner is the chain of enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _calls(child, owner + (child.name,))
            continue
        func = child.func if isinstance(child, ast.Call) else None
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        if name == "broadcast_to":
            yield ".".join(owner), child.lineno
        yield from _calls(child, owner)


def _all_calls():
    return list(_calls(ast.parse(SOURCE.read_text(), filename=str(SOURCE))))


def test_allowed_site_calls_broadcast_to():
    # guards against a vacuous pass if the name or the site is renamed
    assert {owner for owner, _ in _all_calls()} >= ALLOWED


def test_no_broadcast_over_points():
    stray = [f"elements.py:{line} in {owner or 'module scope'}"
             for owner, line in _all_calls() if owner not in ALLOWED]
    assert not stray, f"np.broadcast_to outside {sorted(ALLOWED)}: {stray}"
