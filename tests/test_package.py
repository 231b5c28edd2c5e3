"""The package namespace."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import rowgate


def test_submodules_are_not_shadowed():
    for info in pkgutil.iter_modules(rowgate.__path__):
        importlib.import_module(f"rowgate.{info.name}")
        assert isinstance(getattr(rowgate, info.name), types.ModuleType), info.name


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads_after_import(**preset) -> list[str]:
    """The BLAS thread variables a fresh interpreter reads after ``import rowgate``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env.update(preset)
    code = f"import os, rowgate; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_pins_blas_to_one_thread_unless_set():
    assert blas_threads_after_import() == ["1", "1", "1"]
    assert blas_threads_after_import(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
