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
