"""Quantify how much vertical position says about pixel class.

Generates height-banded labels, prints the per-band probability table,
and compares conditional against unconditional entropy, plus the
height- versus width-wise distribution spread.
"""

# rowgate before numpy: importing it pins BLAS to one thread, which holds only if numpy is not loaded yet
from rowgate.data import synth_banded
from rowgate.stats import (
    LabelMap,
    axis_distribution,
    distribution_divergence,
    equal_bands,
    region_report,
    render_report_text,
)

import numpy as np

data = synth_banded(seed=5, n_images=40, height=96, width=48, num_classes=6, noise=0.5)
maps = [LabelMap(ids=s.label, name=f"img{i}") for i, s in enumerate(data)]

report = region_report(maps, num_classes=6, bands=equal_bands(3))
print("class probabilities (%) per horizontal third:\n")
print(render_report_text(report))

reduction = report.unconditional_entropy - report.average_conditional_entropy
print(f"\nknowing the band removes {reduction:.3f} nats of uncertainty "
      f"({report.unconditional_entropy:.3f} -> {report.average_conditional_entropy:.3f})")

h_bins, _ = axis_distribution(maps, 6, axis="height", bins=12)
w_bins, _ = axis_distribution(maps, 6, axis="width", bins=12)
h_spread, w_spread = distribution_divergence(h_bins, w_bins)
print(f"\nheight-wise distribution spread: {h_spread:.4f} nats (mean pairwise JSD)")
print(f"width-wise  distribution spread: {w_spread:.4f} nats")
print("rows carry class information; columns barely do" if h_spread > 5 * w_spread
      else "spreads are comparable")

print("\nheight-wise class distribution (rows = bins, columns = classes):")
for row in h_bins:
    print("  " + " ".join(f"{v:.2f}" for v in row))
