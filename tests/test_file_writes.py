"""Every file the package writes is written by `output`.

The artifacts of a run (report.json, the CSV tables, the mesh listing,
the Matrix Market blocks) are its results; one module that writes them
states their formats, the 17-digit float among them, once.  The check
parses the source of every other module and fails on a call that opens,
writes or dumps a file, so it covers code that no other test reaches.
"""
import ast
from pathlib import Path

import biotfem

WRITERS = {"open", "write_text", "write_bytes", "mmwrite", "dump"}


def _file_writes(path):
    """(line, call) of each call in `path` of a name in WRITERS, `dump`
    only as `json.dump`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        if name == "dump" and ast.unparse(func) != "json.dump":
            continue
        if name in WRITERS:
            yield node.lineno, ast.unparse(func)


def test_only_output_writes_files():
    package = Path(biotfem.__file__).parent
    found = [(path.name, line, call)
             for path in sorted(package.glob("*.py"))
             if path.name != "output.py"
             for line, call in _file_writes(path)]
    assert found == []


def test_the_check_sees_a_file_write(tmp_path):
    path = tmp_path / "writer.py"
    path.write_text("import json\n"
                    "from scipy.io import mmwrite\n"
                    "def f(p, m, rec):\n"
                    "    with open(p, 'w') as fh:\n"
                    "        json.dump(rec, fh)\n"
                    "    p.write_text('x')\n"
                    "    p.write_bytes(b'x')\n"
                    "    mmwrite(str(p), m)\n"
                    "    json.dumps(rec)\n"
                    "    m.dump()\n"
                    "    p.read_text()\n")
    assert sorted(_file_writes(path)) == [
        (4, "open"), (5, "json.dump"), (6, "p.write_text"),
        (7, "p.write_bytes"), (8, "mmwrite")]
