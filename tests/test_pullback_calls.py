"""Basis values come from each cell's affine field, not from a pull-back.

Every family here is affine on a cell, so `FESpace` evaluates each basis
value as cell_val0 + cell_grad (x - x0).  Mapping physical points back to
the reference cell through Jinv and re-evaluating the generators there is
a second, per-point path to the same numbers.  In `src/`, `Jinv` is read
only in `FESpace.cell_grad` (the chain rule), and the generators
`_gen_eval` only by `_dof_matrices` and `RefBasis`, which work on the
reference cell.  The check parses the source, so it covers code that no
other test reaches.
"""
import ast
from pathlib import Path

import biotfem

SOURCES = sorted(Path(biotfem.__file__).parent.glob("*.py"))
ALLOWED = {
    "Jinv": {"FESpace.cell_grad"},
    "_gen_eval": {"_dof_matrices", "RefBasis"},
}


def _reads(node, owner=()):
    """(dotted owner, name, line) of each read of a guarded name below
    `node`; the owner is the chain of enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _reads(child, owner + (child.name,))
            continue
        name = (child.id if isinstance(child, ast.Name) else
                child.attr if isinstance(child, ast.Attribute) else None)
        if name in ALLOWED and isinstance(child.ctx, ast.Load):
            yield ".".join(owner), name, child.lineno
        yield from _reads(child, owner)


def _all_reads():
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, name, line in _reads(tree):
            yield path.name, owner, name, line


def _allowed(owner, name):
    return any(owner == site or owner.startswith(site + ".")
               for site in ALLOWED[name])


def test_allowed_sites_read_their_names():
    # guards against a vacuous pass if the names or the sites are renamed
    found = {(owner, name) for _, owner, name, _ in _all_reads()}
    assert ("FESpace.cell_grad", "Jinv") in found
    assert ("_dof_matrices", "_gen_eval") in found
    assert any(owner.startswith("RefBasis.") and name == "_gen_eval"
               for owner, name in found)


def test_no_per_point_pull_back():
    stray = [f"{path}:{line} {name} in {owner or 'module scope'}"
             for path, owner, name, line in _all_reads()
             if not _allowed(owner, name)]
    assert not stray, f"basis values pulled back to the reference: {stray}"
