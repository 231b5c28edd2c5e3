"""Test-session set-up: BLAS on one thread, pinned before numpy is imported.

A multi-threaded BLAS buys the small products here nothing, and beside
another busy process it slows training several-fold, enough to fail a
wall-clock budget of a correct run.  Child processes (the CLI and demo
tests) inherit the setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
