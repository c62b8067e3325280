"""The block layout of the monolithic matrices is decided in one place.

`assembly.block_matrix` (through `_layout`, `BlockLayout` and `_stack`)
places the five blocks of the saddle matrix, bordered or not, and
`assembly.block_diagonal` the norm and preconditioner blocks.  A `bmat`,
`block_diag`, `hstack` or `vstack` elsewhere in the package would build a
second layout, convert every block through COO on each call and could
drift from the first.  The check parses the source, so it covers calls
that no other test reaches.
"""
import ast
from pathlib import Path

import biotfem

SOURCES = sorted(Path(biotfem.__file__).parent.glob("*.py"))
STACK_NAMES = {"bmat", "block_diag", "hstack", "vstack"}
HELPERS = {("assembly.py", name) for name in
           ("_stack", "BlockLayout", "block_matrix", "_layout",
            "block_diagonal")}


def _stack_calls(path):
    """(enclosing top-level definition or None, line) of each call to a
    block-stacking routine."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for top in tree.body:
        owner = (top.name if isinstance(top, (ast.FunctionDef,
                                              ast.AsyncFunctionDef,
                                              ast.ClassDef)) else None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None)
                if name in STACK_NAMES:
                    yield owner, node.lineno


def test_layout_helpers_exist():
    # guards against a vacuous pass if the package moves or the helpers
    # are renamed
    defined = {(path.name, node.name) for path in SOURCES
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert HELPERS <= defined


def test_blocks_stacked_only_inside_the_layout_helper():
    stray = [f"{path.name}:{line} in {owner}" for path in SOURCES
             for owner, line in _stack_calls(path)
             if (path.name, owner) not in HELPERS]
    assert not stray, f"blocks stacked outside assembly's layout: {stray}"
