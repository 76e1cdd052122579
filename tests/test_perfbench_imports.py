"""perfbench's stages import engine names directly; each must still exist,
so an engine change that drops one fails here and not only in a traced
benchmark run.  Its `_size` reads the `terms` views; the counts it reports
must stay the monomial counts of the operators it is given."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from gdtau import lax, rth_root
from gdtau.hierarchy import gd_flow

STAGES = Path(__file__).resolve().parents[1] / "perfbench" / "stages.py"


def _engine_imports():
    for node in ast.walk(ast.parse(STAGES.read_text(), filename=str(STAGES))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gdtau":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "gdtau")


def test_every_engine_name_perfbench_imports_exists():
    imports = sorted(_engine_imports(), key=str)
    modules = {module for module, _ in imports}
    assert {"gdtau", "gdtau.cli", "gdtau.errors", "gdtau.hierarchy",
            "gdtau.wconstraints"} <= modules
    missing = [f"{module}.{name}" for module, name in imports
               if name is not None and not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_stages_size_counts_monomials(monkeypatch):
    monkeypatch.syspath_prepend(str(STAGES.parent))  # stages imports its harness
    spec = importlib.util.spec_from_file_location("perfbench_stages", STAGES)
    stages = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, stages)
    spec.loader.exec_module(stages)
    size = stages._size
    root = rth_root(lax(4), -3)  # D + u1 D^-1 + u2 D^-2 + u3 D^-3
    assert {e: size(c) for e, c in root.coeffs.items()} == {1: 1, -1: 1, -2: 2, -3: 4}
    assert size(root) == 8 == sum(len(c.terms) for c in root.coeffs.values())
    flow = gd_flow(4, 5)
    assert {a: size(X) for a, X in flow.items()} == {1: 11, 2: 18, 3: 27}
    assert all(size(X) == len(X.terms) for X in flow.values())
