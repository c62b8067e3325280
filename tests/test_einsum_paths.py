"""Every einsum in the package contracts along an optimized path.

Without `optimize`, numpy runs a multi-operand einsum as one nested loop
over every index; the five-operand Hessian Piola map then costs seconds at
n = 64 instead of a fraction of one.  The check parses the source, so it
covers calls that no other test reaches.
"""
import ast
from pathlib import Path

import pytest

import biotfem

SOURCES = sorted(Path(biotfem.__file__).parent.glob("*.py"))


def _einsum_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name == "einsum":
                yield node


def _optimized(call):
    return any(k.arg == "optimize" and isinstance(k.value, ast.Constant)
               and k.value.value is True for k in call.keywords)


def test_sources_contain_einsum_calls():
    # guards against a vacuous pass if the package moves or stops using einsum
    assert sum(1 for path in SOURCES for _ in _einsum_calls(path)) > 0


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_einsum_passes_optimize_true(path):
    bad = [call.lineno for call in _einsum_calls(path)
           if not _optimized(call)]
    assert not bad, (f"{path.name}: einsum without optimize=True "
                     f"at lines {bad}")
