"""Per-mesh memos live on the `FormOperators` that owns them.

The solvers' factors and whitenings (`FormOperators._factors`) and the
saddle layout (`FormOperators._saddle`) are held by the operators whose
blocks they stand in for, and reached through the blocks' provenance
(`BlockSystem.ops`, `NormBlocks.source`).  A module-level registry in
`solver` or `assembly` would be a second way to recognise the operators'
blocks, one that outlives no mesh but repeats what provenance knows.  The
check parses the source, so it covers code that no other test reaches.
"""
import ast
from pathlib import Path

import biotfem

MODULES = ("solver.py", "assembly.py")
MEMO_TYPES = {"dict", "WeakKeyDictionary", "WeakValueDictionary"}


def _builds_memo(node) -> bool:
    """Whether the expression `node` builds a dict or a weak mapping."""
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        return name in MEMO_TYPES
    return False


def _module_memos(path):
    """(line, target) of each module-level assignment that builds one."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, (ast.Assign, ast.AnnAssign)) and top.value \
                is not None and _builds_memo(top.value):
            targets = top.targets if isinstance(top, ast.Assign) \
                else [top.target]
            yield top.lineno, ", ".join(ast.unparse(t) for t in targets)


def test_no_module_level_memo_in_solver_or_assembly():
    package = Path(biotfem.__file__).parent
    found = [(name, line, target) for name in MODULES
             for line, target in _module_memos(package / name)]
    assert found == []


def test_the_check_sees_a_module_level_memo(tmp_path):
    path = tmp_path / "memo.py"
    path.write_text("import weakref\n"
                    "_A = weakref.WeakKeyDictionary()\n"
                    "_B: dict = {}\n"
                    "_C = dict()\n"
                    "_D = 1e-6\n"
                    "def f():\n"
                    "    local = {}\n")
    assert list(_module_memos(path)) == [(2, "_A"), (3, "_B"), (4, "_C")]
