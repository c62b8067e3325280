"""Every Gram takes the one shared-pattern path.

`assembly.GramPattern` lays out one symmetric CSR pattern per space.  Each
Gram is one bincount onto its lower part, and every matrix handed out on
all dofs or on the free dofs is one gather over its shared index arrays.
A COO conversion, a `sum_duplicates` or a chained fancy index such as
`mat[rows][:, cols]` in the code that builds Grams or in the free-dof
helpers would bring back a second, per-matrix index path that sorts on
every call and drops the shared pattern.  The check parses the source, so
it covers code that no other test reaches.
"""
import ast
from pathlib import Path

import biotfem

ASSEMBLY = Path(biotfem.__file__).parent / "assembly.py"
BANNED_CALLS = {"coo_matrix", "coo_array", "tocoo", "sum_duplicates"}
GUARDED = {
    "GramPattern": None,  # every method
    "FormOperators": {"_cell_gram", "_build_volume", "_build_faces", "_GRAD",
                      "_DD_v", "_ah", "_grad_jumps", "ah_full", "ah_matrix",
                      "h_norm_gram", "grad_norm_gram", "_B_up_free",
                      "_B_vp_free", "block_system", "norm_blocks",
                      "natural_norm_blocks", "_norms", "_flux_shape"},
}


def _guarded_functions():
    """(class name, method) of every guarded method."""
    for top in ast.parse(ASSEMBLY.read_text(), filename=str(ASSEMBLY)).body:
        if isinstance(top, ast.ClassDef) and top.name in GUARDED:
            names = GUARDED[top.name]
            for node in top.body:
                if (isinstance(node, ast.FunctionDef)
                        and (names is None or node.name in names)):
                    yield top.name, node


def _offences(func):
    """(line, what) of each banned call or chained subscript."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else (
                f.id if isinstance(f, ast.Name) else None)
            if name in BANNED_CALLS:
                yield node.lineno, name
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.value, ast.Subscript)):
            yield node.lineno, "chained subscript"


def test_guarded_functions_exist():
    # guards against a vacuous pass if the helpers are renamed
    found = {(owner, func.name) for owner, func in _guarded_functions()}
    want = {("FormOperators", name) for name in GUARDED["FormOperators"]}
    assert want <= found
    assert {("GramPattern", name) for name in ("lower", "full", "free")} \
        <= found


def test_grams_take_the_shared_pattern_path():
    stray = [f"assembly.py:{line} {what} in {owner}.{func.name}"
             for owner, func in _guarded_functions()
             for line, what in _offences(func)]
    assert not stray, f"a Gram path bypasses the shared pattern: {stray}"
