"""Every public name of the package is used outside the tests.

A name in `biotfem.__all__` that only tests reach is code nothing needs.
Each one must be read somewhere in the package outside `__init__.py`, in
`demos/` or in `perfbench/`, or be named in README.md.
"""
import ast
import re
import types
from pathlib import Path

import biotfem

ROOT = Path(__file__).resolve().parents[1]


def _read_names(path: Path) -> set:
    """Names and attributes the module at `path` reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_outside_the_tests():
    sources = [p for p in sorted((ROOT / "src" / "biotfem").glob("*.py"))
               if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*map(_read_names, sources))
    readme = (ROOT / "README.md").read_text()
    unused = [name for name in biotfem.__all__
              if not isinstance(getattr(biotfem, name), types.ModuleType)
              and name not in read
              and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unused == []
