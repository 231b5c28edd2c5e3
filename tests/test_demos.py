"""The narrative demos: each compiles against the package, and those that finish in seconds run."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_compiles_and_its_rowgate_imports_resolve(path):
    """Covers the demos too slow to run here: each name a demo imports from rowgate exists,
    and each call to one (``name(...)`` or ``module.name(...)``) binds to its signature."""
    tree = ast.parse(path.read_text(), str(path))
    compile(tree, str(path), "exec")
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "rowgate"]
    assert imports
    bound = {}
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            if not hasattr(module, alias.name):  # a submodule, or a name that is gone
                importlib.import_module(f"{node.module}.{alias.name}")
            bound[alias.asname or alias.name] = getattr(module, alias.name)
    for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
        func = call.func
        if isinstance(func, ast.Name) and func.id in bound:
            target = bound[func.id]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in bound:
            target = getattr(bound[func.value.id], func.attr)
        else:
            continue
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{call.lineno}: {ast.unparse(func)}(...) does not bind: {exc}")


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_imports_rowgate_before_numpy(path):
    """``import rowgate`` pins BLAS to one thread, which holds only while numpy is not loaded yet."""
    roots = []  # top-level package of each module-level import, in order
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            roots.append(node.module.split(".")[0])
    assert "rowgate" in roots
    assert "numpy" not in roots[: roots.index("rowgate")]


@pytest.mark.parametrize("name", ["01_gradient_checking", "02_row_gating", "03_scene_statistics"])
def test_demo_exits_cleanly(name, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
