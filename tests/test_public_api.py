"""Every public name and member of the package is used outside the tests.

A name in `biotfem.__all__` that only tests reach is code nothing needs.
Each one must be read somewhere in the package outside `__init__.py`, in
`demos/` or in `perfbench/`, or be named in README.md.  The same holds for
every public method, property and class-level attribute (dataclass fields
included) of the package's classes, except that README prose does not
count for them and a read inside the member's own definition does not
count either.  Members are matched by name alone, so the scan cannot
see a member whose name is read on another object: a field `step`,
`tau` or `cfg` would pass on any `x.step`, `x.tau` or `x.cfg` read.
"""
import ast
import re
import types
from pathlib import Path

import biotfem

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "biotfem").glob("*.py"))
USERS = sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _loads(tree):
    """(line, name) of each name and attribute read below `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.lineno, node.attr


def _read_names(path: Path) -> set:
    """Names and attributes the module at `path` reads."""
    return {name for _, name in _loads(_parse(path))}


def test_every_public_name_is_used_outside_the_tests():
    sources = [p for p in PACKAGE if p.name != "__init__.py"] + USERS
    read = set().union(*map(_read_names, sources))
    readme = (ROOT / "README.md").read_text()
    unused = [name for name in biotfem.__all__
              if not isinstance(getattr(biotfem, name), types.ModuleType)
              and name not in read
              and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unused == []


def _member_reads(tree):
    """(line, name) of each member read below `tree`: attributes and
    string constants, since `getattr` reads members by name (as
    `ManufacturedCase.at` reads its fields).  A bare name is a local or
    global variable, not a member read, so it does not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                          ast.Load):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def _members(path: Path, tree):
    """(owner.member, lines of its definition) of each public method,
    property and class-level attribute of the classes in `tree`."""
    for top in tree.body:
        if not isinstance(top, ast.ClassDef):
            continue
        for node in top.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    yield (f"{top.name}.{name}",
                           (path, range(node.lineno, node.end_lineno + 1)))


def test_every_public_member_is_used_outside_the_tests():
    trees = {path: _parse(path) for path in PACKAGE + USERS}
    reads = {}  # name -> {(path, line)}
    for path, tree in trees.items():
        for line, name in _member_reads(tree):
            reads.setdefault(name, set()).add((path, line))
    members = [member for path in PACKAGE
               for member in _members(path, trees[path])]
    # guards against a vacuous pass if the scan finds no members
    assert {"FormOperators.ah_matrix", "ConvergenceTable.rows",
            "ReducedParams.gamma", "AffineLoad.coeffs"} <= {
                member for member, _ in members}
    unused = [member for member, (own, lines) in members
              if all(path == own and line in lines for path, line in
                     reads.get(member.rsplit(".", 1)[1], ()))]
    assert unused == []
