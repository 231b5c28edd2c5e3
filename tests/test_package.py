"""The package namespace."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rowgate


def test_submodules_are_not_shadowed():
    for info in pkgutil.iter_modules(rowgate.__path__):
        importlib.import_module(f"rowgate.{info.name}")
        assert isinstance(getattr(rowgate, info.name), types.ModuleType), info.name


# What importing the modules that fan out must not do: start a process, or
# load a module that a fresh interpreter would otherwise not (set-up time).
IMPORT_ONLY = """
import os, sys
import rowgate.train, rowgate.metrics, rowgate.gradcheck
try:
    os.waitpid(-1, os.WNOHANG)
    print("child")
except ChildProcessError:
    pass
print("loaded:", *(m for m in ("multiprocessing", "concurrent.futures", "subprocess", "selectors", "signal")
                   if m in sys.modules))
"""


def test_importing_the_fan_out_starts_no_process_and_loads_no_process_module():
    assert run_fresh(IMPORT_ONLY, ()) == ["loaded:"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_env(unset: tuple[str, ...] = (), **preset) -> dict[str, str]:
    """This environment with ``unset`` cleared, ``preset`` set and this checkout's src/ first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env.update(preset)
    return env


def run_fresh(code: str, unset: tuple[str, ...], **preset) -> list[str]:
    """The words ``code`` prints in a fresh interpreter, with ``unset`` cleared and then ``preset`` set."""
    result = subprocess.run([sys.executable, "-c", code], env=fresh_env(unset, **preset),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def blas_threads_after_import(**preset) -> list[str]:
    """The BLAS thread variables a fresh interpreter reads after ``import rowgate``."""
    code = f"import os, rowgate; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    return run_fresh(code, BLAS_VARS, **preset)


def test_import_pins_blas_to_one_thread_unless_set():
    assert blas_threads_after_import() == ["1", "1", "1"]
    assert blas_threads_after_import(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]


MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")

# Minor page faults of the CLI-default model, in one process: each of 10
# no_grad forwards of one 96x48 image after 3 warm-up forwards, then one
# 4-image train step after two warm-up steps.
PAGE_FAULTS = """
import os, resource
os.sched_getaffinity = lambda pid: {0}
import numpy as np
from rowgate import config
from rowgate.data import synth_banded
from rowgate.net import ToySegModel
from rowgate.tensor import no_grad
from rowgate.train import train

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

values = config.resolve(None, ["train.max_iteration=1"])
model = ToySegModel.build(config.build_model_config(values))
image = np.random.default_rng(0).random((3, 96, 48))
counts = []
with no_grad():
    for i in range(13):
        before = faults()
        model.forward(image, training=False)
        if i >= 3:
            counts.append(faults() - before)
data = synth_banded(seed=0, n_images=4, height=96, width=48)
settings, rng = config.build_train_config(values), np.random.default_rng(0)
for _ in range(2):
    train(model, data, settings, rng)
before = faults()
train(model, data, settings, rng)
print(*counts, faults() - before)
"""


def glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not glibc(), reason="the malloc thresholds are glibc's")
class TestMallocThresholds:
    def test_freed_memory_is_not_faulted_in_again(self):
        *forwards, step = map(int, run_fresh(PAGE_FAULTS, MALLOC_VARS))
        assert max(forwards) < 50, forwards
        assert step < 600, step

    def test_threshold_already_set_wins(self):
        *forwards, _ = map(int, run_fresh(PAGE_FAULTS, MALLOC_VARS, MALLOC_TRIM_THRESHOLD_="131072"))
        assert min(forwards) > 200, forwards
