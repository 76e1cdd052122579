"""perfbench's stages import engine names directly; each must still exist,
so an engine change that drops one fails here and not only in a traced
benchmark run."""

import ast
import importlib
from pathlib import Path

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
