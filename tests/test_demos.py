"""The narrative demos: each compiles against the package, and those that finish in seconds run."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_compiles_and_its_rowgate_imports_resolve(path):
    """Covers the demos too slow to run here: each name a demo imports from rowgate exists."""
    tree = ast.parse(path.read_text(), str(path))
    compile(tree, str(path), "exec")
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "rowgate"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            if not hasattr(module, alias.name):  # a submodule, or a name that is gone
                importlib.import_module(f"{node.module}.{alias.name}")


@pytest.mark.parametrize("name", ["01_gradient_checking", "02_row_gating", "03_scene_statistics"])
def test_demo_exits_cleanly(name, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
