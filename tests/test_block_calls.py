"""The block layout of the monolithic matrices is decided in one place,
and every CSR pattern is laid out by one counting-sort helper.

`assembly.block_matrix` (through `BlockLayout`) places the five blocks of
the saddle matrix, bordered or not, and `assembly.block_diagonal` the norm
and preconditioner blocks.  A `bmat`, `block_diag`, `hstack` or `vstack`
elsewhere in the package would build a second layout, convert every block
through COO on each call and could drift from the first.

`BlockLayout` and `GramPattern`, its lower and its free-dof pattern
alike, sort their coordinates through `assembly._sorted_csr`, the one
caller of scipy's private `coo_tocsr` and `csr_sort_indices` kernels and
the one place besides its import that touches `_sparsetools`.  A second
caller would be a second place to mend when that private API changes.
The checks parse the source, so they cover calls that no other test
reaches.
"""
import ast
from pathlib import Path

import biotfem

SOURCES = sorted(Path(biotfem.__file__).parent.glob("*.py"))
STACK_NAMES = {"bmat", "block_diag", "hstack", "vstack"}
HELPERS = {("assembly.py", name) for name in
           ("BlockLayout", "block_matrix", "block_diagonal")}
SORT_KERNELS = {"coo_tocsr", "csr_sort_indices"}
# (file, enclosing top-level definition, use) allowed to touch _sparsetools
KERNEL_SITES = {("assembly.py", None, "import"),
                ("assembly.py", "_sorted_csr", "coo_tocsr"),
                ("assembly.py", "_sorted_csr", "csr_sort_indices")}


def _tops(path):
    """(enclosing top-level definition or None, node) of each top-level
    statement."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        yield (top.name if isinstance(top, (ast.FunctionDef,
                                            ast.AsyncFunctionDef,
                                            ast.ClassDef)) else None), top


def _called(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)


def _stack_calls(path):
    """(enclosing top-level definition or None, line) of each call to a
    block-stacking routine."""
    for owner, top in _tops(path):
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _called(node) in STACK_NAMES:
                yield owner, node.lineno


def _kernel_uses(path):
    """(enclosing top-level definition or None, use, line) of each mention
    of `_sparsetools` and each call to a sorting kernel: an import, a
    kernel read from `_sparsetools` or called by name, or anything else
    ("_sparsetools")."""
    for owner, top in _tops(path):
        named = set()  # the `_sparsetools` names a kernel is read from
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                if any("_sparsetools" in name for name in names):
                    yield owner, "import", node.lineno
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "_sparsetools"):
                named.add(node.value)
                yield owner, node.attr, node.lineno
            elif (isinstance(node, ast.Call)
                  and _called(node) in SORT_KERNELS
                  and not (isinstance(node.func, ast.Attribute)
                           and isinstance(node.func.value, ast.Name)
                           and node.func.value.id == "_sparsetools")):
                yield owner, _called(node), node.lineno
        for node in ast.walk(top):
            if (node not in named and (
                    isinstance(node, ast.Name) and node.id == "_sparsetools"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "_sparsetools")):
                yield owner, "_sparsetools", node.lineno


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


def test_sorting_kernels_called_only_inside_the_csr_helper():
    uses = [(path.name, owner, use, line) for path in SOURCES
            for owner, use, line in _kernel_uses(path)]
    stray = [f"{name}:{line} {use} in {owner}"
             for name, owner, use, line in uses
             if (name, owner, use) not in KERNEL_SITES]
    assert not stray, f"_sparsetools used outside _sorted_csr: {stray}"
    # one call site each, which also guards against a vacuous pass
    for kernel in sorted(SORT_KERNELS):
        assert [u[:3] for u in uses if u[2] == kernel] == [
            ("assembly.py", "_sorted_csr", kernel)]
