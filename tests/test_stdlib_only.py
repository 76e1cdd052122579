"""The engine imports nothing outside the Python standard library, and a
fresh `gdtau` process imports no more of it than it needs."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gdtau"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_engine_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    seen = {name.split(".")[0] for path in sources for name in _absolute_imports(path)}
    assert seen, "no absolute import found"
    assert sorted(seen - set(sys.stdlib_module_names)) == []


def test_cli_import_stays_light():
    # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`; `json` is
    # imported only by the JSON renderers.  -S keeps site hooks out.
    heavy = ["ast", "dataclasses", "dis", "inspect", "json", "tokenize"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gdtau.cli; "
            f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
