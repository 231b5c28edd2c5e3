"""Row-wise channel gating for height-structured images.

The package bundles four things: a small float64 tensor engine with
reverse-mode differentiation and finite-difference verification, the
row-gating attention module itself, a toy encoder-decoder segmentation
network with five gate attachment points plus its trainer and evaluator,
and a label-statistics toolkit for the height/entropy analysis that
motivates gating by vertical position.  Each name is imported from the
module that defines it, e.g. ``from rowgate.net import ToySegModel``.
"""

import os

# fork_map already runs one process per CPU, so more BLAS threads in each only
# oversubscribe the CPUs.  Set before numpy loads; a value already set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _pin_malloc_thresholds() -> None:
    """Keep freed arrays in glibc's heap, so the next pass does not fault their pages in again.

    The mmap threshold goes to 32 MiB, the ceiling of glibc's own dynamic
    threshold, and the trim threshold to twice that, as its dynamic rule
    sets it.  A threshold already set in the environment wins; forked
    workers inherit the setting.
    """
    if ("CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {})
            or "MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()
