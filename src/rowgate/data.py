"""Synthetic height-banded segmentation data.

Each image is a stack of horizontal class bands: class k occupies the
k-th band from the top.  Bands alternate between two textures, so every
even class shares one texture and every odd class the other, and any
band's immediate neighbourhood looks the same as that of every other
band with its texture.  Class identity within a texture group is then
carried by vertical position alone, which is exactly the signal a
row-gating module can supply.  The ``noise`` knob scales both the pixel
noise and the per-image jitter of band boundaries; at zero, every image
has identical bands aligned exactly with ``nominal_bands``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

IGNORE_LABEL = 255

# Base colour of each texture group (``texture_group``'s 0 and 1).
_PALETTE = np.array([[0.80, 0.30, 0.20], [0.25, 0.70, 0.40]])


@dataclass
class Sample:
    image: np.ndarray  # (3, H, W) float64
    label: np.ndarray  # (H, W) uint8


def texture_group(class_id: int) -> int:
    """Same-parity classes share one texture (the confusable groups)."""
    return class_id % 2


def nominal_bands(height: int, num_classes: int) -> list[tuple[int, int]]:
    """Row ranges [start, end) that class k occupies when noise is zero."""
    edges = [(k * height) // num_classes for k in range(num_classes + 1)]
    return [(edges[k], edges[k + 1]) for k in range(num_classes)]


def _band_edges(height: int, num_classes: int, jitter_rows: int, rng: np.random.Generator) -> np.ndarray:
    edges = np.array([0] + [end for _, end in nominal_bands(height, num_classes)])
    if jitter_rows > 0:
        shifts = rng.integers(-jitter_rows, jitter_rows + 1, size=num_classes - 1)
        for k in range(1, num_classes):
            lo = edges[k - 1] + 1
            hi = height - (num_classes - k)
            edges[k] = int(np.clip(edges[k] + shifts[k - 1], lo, hi))
    return edges


def synth_banded(
    seed: int,
    n_images: int,
    height: int,
    width: int,
    num_classes: int = 6,
    noise: float = 0.5,
) -> list[Sample]:
    """Generate a banded dataset; identical arguments give identical data."""
    if n_images < 1:
        raise ConfigError(f"need at least 1 image, got {n_images}")
    if height < 1 or width < 1:
        raise ConfigError(f"image size must be at least 1x1, got {height}x{width}")
    if num_classes < 3:
        raise ConfigError(f"need at least 3 classes, got {num_classes}")
    if num_classes > height:
        raise ConfigError(f"{num_classes} classes cannot fit {height} rows")
    if not (np.isfinite(noise) and noise >= 0):
        raise ConfigError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    jitter_rows = int(round(noise * height / (2 * num_classes)))
    sigma = 0.12 * noise
    cols = np.arange(width)

    samples: list[Sample] = []
    for _ in range(n_images):
        edges = _band_edges(height, num_classes, jitter_rows, rng)
        label = np.empty((height, width), dtype=np.uint8)
        image = np.empty((3, height, width))
        phase = rng.uniform(0.0, 2 * np.pi)
        for k in range(num_classes):
            top, bottom = edges[k], edges[k + 1]
            label[top:bottom, :] = k
            group = texture_group(k)
            period = 4 + 3 * group
            stripes = 0.15 * np.sin(2 * np.pi * cols / period + phase)
            block = _PALETTE[group][:, None, None] + stripes[None, None, :]
            image[:, top:bottom, :] = block
        if sigma > 0:
            image += rng.normal(scale=sigma, size=image.shape)
        samples.append(Sample(image=image, label=label))
    return samples


def augment(sample: Sample, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random horizontal flip; training sees whole images, so every row keeps its height."""
    image, label = sample.image, sample.label
    if rng.random() < 0.5:
        image = image[:, :, ::-1]
        label = label[:, ::-1]
    return np.ascontiguousarray(image), np.ascontiguousarray(label)
