"""Class-distribution and entropy analysis of label rasters.

Quantifies how strongly pixel-class uncertainty depends on vertical
position: per-band class probabilities, per-band entropies against the
whole-image entropy, per-row (or per-column) class distributions, and a
spread score comparing how much the distributions differ along each
axis.  All probabilities exclude the ignore sentinel (255); entropies
use natural log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import IGNORE_LABEL
from .errors import ConfigError, DataError


@dataclass
class LabelMap:
    """A (H, W) raster of class ids with an optional source name."""

    ids: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.ids = np.asarray(self.ids)
        if self.ids.ndim != 2:
            raise DataError(f"label map {self.name!r} must be 2-D, got shape {self.ids.shape}")

    @property
    def height(self) -> int:
        return self.ids.shape[0]

    @property
    def width(self) -> int:
        return self.ids.shape[1]


@dataclass
class DistributionReport:
    """Machine form of a per-band class-distribution table."""

    bands: list[tuple[float, float]]
    probabilities: np.ndarray  # (bands, classes) percent, NaN row when a band is empty
    band_entropies: np.ndarray  # nats, NaN when a band is empty
    band_masses: np.ndarray  # non-ignore pixel counts per band
    unconditional_entropy: float
    average_conditional_entropy: float  # pixel-mass weighted


def check_ids(label_map: LabelMap, num_classes: int) -> np.ndarray:
    """The map's ids; ``DataError`` names the first pixel outside ``[0, num_classes)`` and not ignore."""
    ids = label_map.ids
    bad = (ids != IGNORE_LABEL) & ((ids < 0) | (ids >= num_classes))
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataError(
            f"label map {label_map.name or '<unnamed>'}: id {int(ids[r, c])} at pixel "
            f"({int(r)}, {int(c)}) outside [0, {num_classes})"
        )
    return ids


def class_histogram(label_maps: Iterable[LabelMap], num_classes: int) -> np.ndarray:
    """Exact integer pixel counts per class, ignore pixels excluded."""
    counts = np.zeros(num_classes, dtype=np.int64)
    for label_map in label_maps:
        ids = check_ids(label_map, num_classes)
        valid = ids[ids != IGNORE_LABEL]
        counts += np.bincount(valid.astype(np.int64), minlength=num_classes)
    return counts


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with the 0 * log 0 := 0 convention."""
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0:
        raise DataError("entropy of an empty distribution is undefined")
    if np.any(p < 0):
        raise DataError("entropy: negative probabilities")
    if abs(p.sum() - 1.0) > 1e-9:
        raise DataError(f"entropy: probabilities sum to {p.sum():.12g}, not 1")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum()) + 0.0  # a certain outcome gives +0.0, not -0.0


def equal_bands(n: int) -> list[tuple[float, float]]:
    return [(i / n, (i + 1) / n) for i in range(n)]


def _validate_bands(bands: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    if not bands:
        raise ConfigError("at least one band is required")
    ordered = [(float(lo), float(hi)) for lo, hi in bands]
    if not np.all(np.isfinite(ordered)):
        raise ConfigError(f"band fractions must be finite, got {ordered}")
    if abs(ordered[0][0]) > 1e-12 or abs(ordered[-1][1] - 1.0) > 1e-12:
        raise ConfigError("bands must start at 0 and end at 1")
    for (_, hi_prev), (lo, hi) in zip(ordered, ordered[1:]):
        if abs(lo - hi_prev) > 1e-12:
            raise ConfigError("bands must be contiguous and non-overlapping")
    for lo, hi in ordered:
        if hi <= lo:
            raise ConfigError(f"band ({lo}, {hi}) is empty or reversed")
    return ordered


def band_rows(height: int, bands: Sequence[tuple[float, float]]) -> list[tuple[int, int]]:
    """Integer row ranges per band; adjacent bands share no rows.

    An edge is ``fraction * height`` rounded to 9 decimals, then floored: 0.7 of 90 is 63.
    """
    return [tuple(int(np.floor(round(f * height, 9))) for f in (lo, hi)) for lo, hi in bands]


def region_report(
    label_maps: Iterable[LabelMap],
    num_classes: int,
    bands: Sequence[tuple[float, float]],
) -> DistributionReport:
    """Pooled class distribution and entropy per horizontal band.

    Counts are accumulated over all maps (each band's rows determined by
    that map's own height), then normalized.  The average conditional
    entropy weights each band's entropy by its share of non-ignore pixels.
    """
    bands = _validate_bands(bands)
    if num_classes < 1:
        raise ConfigError(f"class count must be >= 1, got {num_classes}")
    counts = np.zeros((len(bands), num_classes), dtype=np.int64)
    for label_map in label_maps:
        ids = check_ids(label_map, num_classes)
        for b, (top, bottom) in enumerate(band_rows(label_map.height, bands)):
            chunk = ids[top:bottom]
            valid = chunk[chunk != IGNORE_LABEL]
            counts[b] += np.bincount(valid.astype(np.int64), minlength=num_classes)

    masses = counts.sum(axis=1)
    total = counts.sum(axis=0)
    if total.sum() == 0:
        raise DataError("no labelled pixels in any map")

    probabilities = np.full((len(bands), num_classes), np.nan)
    band_entropies = np.full(len(bands), np.nan)
    for b in range(len(bands)):
        if masses[b] > 0:
            frac = counts[b] / masses[b]
            probabilities[b] = 100.0 * frac
            band_entropies[b] = entropy(frac)
    unconditional = entropy(total / total.sum())
    weights = masses / masses.sum()
    occupied = masses > 0
    average = float((weights[occupied] * band_entropies[occupied]).sum())
    return DistributionReport(
        bands=bands,
        probabilities=probabilities,
        band_entropies=band_entropies,
        band_masses=masses,
        unconditional_entropy=unconditional,
        average_conditional_entropy=average,
    )


def axis_distribution(
    label_maps: Iterable[LabelMap],
    num_classes: int,
    axis: str = "height",
    bins: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Class distribution per positional bin along one axis.

    Returns (per_bin, per_class): ``per_bin`` rows are distributions over
    classes (each row sums to 1 where occupied); ``per_class`` columns
    are each class's distribution over position bins.
    """
    if axis not in ("height", "width"):
        raise ConfigError(f"axis must be 'height' or 'width', got {axis!r}")
    if num_classes < 1:
        raise ConfigError(f"class count must be >= 1, got {num_classes}")
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    counts = np.zeros((bins, num_classes), dtype=np.int64)
    for label_map in label_maps:
        ids = check_ids(label_map, num_classes)
        grid = ids if axis == "height" else ids.T
        extent = grid.shape[0]
        for pos in range(extent):
            b = min(bins - 1, (pos * bins) // extent)
            row = grid[pos]
            valid = row[row != IGNORE_LABEL]
            counts[b] += np.bincount(valid.astype(np.int64), minlength=num_classes)

    per_bin = np.zeros((bins, num_classes))
    occupied = counts.sum(axis=1) > 0
    per_bin[occupied] = counts[occupied] / counts[occupied].sum(axis=1, keepdims=True)
    per_class = np.zeros((bins, num_classes))
    class_totals = counts.sum(axis=0)
    nonzero = class_totals > 0
    per_class[:, nonzero] = counts[:, nonzero] / class_totals[nonzero]
    return per_bin, per_class


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in nats; ln 2 for disjoint supports."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = 0.5 * (p + q)

    def kl(a, b):
        nz = a > 0
        return float((a[nz] * np.log(a[nz] / b[nz])).sum())

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def distribution_divergence(height_dist: np.ndarray, width_dist: np.ndarray) -> tuple[float, float]:
    """Mean pairwise JS divergence of bin distributions within each axis.

    Larger spread means position along that axis carries more class
    information; on height-banded data the height spread dominates.
    Empty bins (all-zero rows) do not enter the pairing.
    """

    def spread(dist: np.ndarray) -> float:
        rows = [r for r in np.asarray(dist) if r.sum() > 0]
        if len(rows) < 2:
            return 0.0
        pairs = [
            js_divergence(rows[i], rows[j])
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
        ]
        return float(np.mean(pairs))

    return spread(height_dist), spread(width_dist)


def render_report_text(report: DistributionReport) -> str:
    """Aligned text table: one row per band plus the whole-image row."""
    k = report.probabilities.shape[1]
    header = ["band", *(f"c{i}" for i in range(k)), "entropy"]
    rows: list[list[str]] = []
    total_mass = report.band_masses.sum()
    pooled = np.zeros(k)
    for b in range(len(report.bands)):
        if report.band_masses[b] > 0:
            pooled += report.probabilities[b] * report.band_masses[b] / total_mass
    rows.append(["image", *(f"{v:.3f}" for v in pooled), f"{report.unconditional_entropy:.3f}"])
    for b, (lo, hi) in enumerate(report.bands):
        label = f"{lo:.2f}-{hi:.2f}"
        if report.band_masses[b] == 0:
            rows.append([label, *(["-"] * k), "-"])
        else:
            rows.append(
                [label, *(f"{v:.3f}" for v in report.probabilities[b]), f"{report.band_entropies[b]:.3f}"]
            )
    rows.append(["avg-cond", *([""] * k), f"{report.average_conditional_entropy:.3f}"])
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    lines = ["  ".join(str(v).rjust(w) for v, w in zip(row, widths)) for row in [header, *rows]]
    return "\n".join(lines)


def report_to_csv_rows(report: DistributionReport) -> list[list[str]]:
    k = report.probabilities.shape[1]
    rows = [["band_lo", "band_hi", "mass", *(f"p_class{i}_pct" for i in range(k)), "entropy_nats"]]
    for b, (lo, hi) in enumerate(report.bands):
        rows.append(
            [
                f"{lo:.6g}",
                f"{hi:.6g}",
                str(int(report.band_masses[b])),
                *(f"{v:.6g}" for v in report.probabilities[b]),
                f"{report.band_entropies[b]:.6g}",
            ]
        )
    rows.append(
        ["unconditional", "", "", *[""] * k, f"{report.unconditional_entropy:.6g}"]
    )
    rows.append(
        ["average_conditional", "", "", *[""] * k, f"{report.average_conditional_entropy:.6g}"]
    )
    return rows
