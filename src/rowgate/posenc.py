"""Positional information for row-indexed features.

Provides the fixed sinusoidal table, a learnable alternative, train-time
row-index jitter, and the additive injection of table rows into a
(channels x positions) feature map.  A table is a (positions x channels)
``Tensor``: a constant when fixed, a parameter when learnable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, node, parameter, tensor

# Frequency base of the sinusoid family: position p, channel pair i maps to
# sin(p / BASE^(2i/C)) and cos(p / BASE^(2i/C)).
PE_BASE = 100.0


def sinusoidal_table(positions: int, channels: int) -> Tensor:
    """Fixed sine/cosine table over row indices 0 .. positions-1."""
    if channels < 2:
        raise ConfigError(f"sinusoidal table needs at least 2 channels, got {channels}")
    if positions < 1:
        raise ConfigError(f"sinusoidal table needs at least 1 position, got {positions}")
    p = np.arange(positions, dtype=np.float64)[:, None]
    i = np.arange(0, channels, 2, dtype=np.float64)[None, :]
    angle = p / np.power(PE_BASE, i / channels)
    table = np.empty((positions, channels))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : table[:, 1::2].shape[1]])
    return tensor(table)


def learnable_table(positions: int, channels: int, rng: np.random.Generator) -> Tensor:
    """From-scratch trainable table, small uniform init."""
    bound = 1.0 / np.sqrt(channels)
    return parameter(rng.uniform(-bound, bound, size=(positions, channels)))


def jitter(positions: int, jitter_max: int, rng: Optional[np.random.Generator]) -> np.ndarray:
    """Row-index vector with independent uniform shifts in [-jitter_max, jitter_max].

    Shifts are clamped to the valid index range; jitter_max == 0 returns
    the identity indexing without consuming randomness.
    """
    if jitter_max < 0:
        raise ConfigError(f"jitter_max must be >= 0, got {jitter_max}")
    base = np.arange(positions, dtype=np.intp)
    if jitter_max == 0:
        return base
    if rng is None:
        raise ConfigError("jitter with jitter_max > 0 requires a generator")
    shift = rng.integers(-jitter_max, jitter_max + 1, size=positions)
    return np.clip(base + shift, 0, positions - 1)


@lru_cache(maxsize=None)
def _positions(length: int) -> np.ndarray:
    """The read-only identity index 0 .. length-1."""
    index = np.arange(length, dtype=np.intp)
    index.flags.writeable = False
    return index


def inject(q: Tensor, table: Tensor, index: Optional[np.ndarray] = None) -> Tensor:
    """Add table rows to a (channels x positions) map: out[:, p] += T[index[p], :].

    ``index`` defaults to the positions 0 .. L-1; either way each position
    must name a table row, and a given index must hold integers.
    """
    if q.data.ndim != 2:
        raise ShapeError(f"inject expects a rank-2 map, got {q.shape}")
    c, length = q.data.shape
    rows, channels = table.data.shape
    if channels != c:
        raise ConfigError(f"positional table has {channels} channels, feature map has {c}")
    if index is None:
        if length > rows:
            raise ShapeError(f"{length} positions exceed the positional table's {rows} rows")
        index = _positions(length)
    else:
        index = np.asarray(index)
        if index.shape != (length,):
            raise ShapeError(f"index length {index.shape} does not match {length} positions")
        if index.dtype.kind not in "iu":
            raise ShapeError(f"index must hold integers, got dtype {index.dtype}")
        if length and (index.min() < 0 or index.max() >= rows):
            raise ShapeError(f"index outside the positional table's rows [0, {rows})")
        index = index.astype(np.intp, copy=False)

    def d_table(g: np.ndarray) -> np.ndarray:
        dt = np.zeros_like(table.data)
        np.add.at(dt, index, g.T)
        return dt

    return node(q.data + table.data[index].T, "pe_inject", (q, lambda g: g), (table, d_table))
