"""Train the toy segmentation model with and without row gates.

A scaled-down version of the efficacy experiment: same data protocol,
fewer images and iterations so it finishes in about two minutes.  The
banded dataset reuses one texture for all even classes and another for
all odd ones, so only vertical position can tell group members apart.
"""

import time

# rowgate before numpy: importing it pins BLAS to one thread, which holds only if numpy is not loaded yet
from rowgate.attention import GateSettings
from rowgate.data import synth_banded
from rowgate.metrics import evaluate
from rowgate.net import ToySegConfig, ToySegModel
from rowgate.train import TrainConfig, train

import numpy as np

HEIGHT, WIDTH = 96, 48
train_set = synth_banded(seed=0, n_images=80, height=HEIGHT, width=WIDTH, num_classes=6)
val_set = synth_banded(seed=1, n_images=20, height=HEIGHT, width=WIDTH, num_classes=6)
train_config = TrainConfig(max_iteration=250, batch_size=4)


def run(gate_layers):
    config = ToySegConfig(
        num_classes=6,
        gate_layers=frozenset(gate_layers),
        gate=GateSettings(coarse_height=8, reduction=2),
        seed=0,
    )
    model = ToySegModel.build(config)
    started = time.monotonic()
    log = train(model, train_set, train_config, np.random.default_rng(0))
    elapsed = time.monotonic() - started
    report = evaluate(model, val_set)
    return model, report, log, elapsed


print("training baseline (no gates)...")
_, base_report, base_log, base_time = run(())
print(f"  final loss {base_log.losses[-1]:.4f}, {base_time:.0f}s")

print("training with row gates at L1-L4...")
_, gated_report, gated_log, gated_time = run((1, 2, 3, 4))
print(f"  final loss {gated_log.losses[-1]:.4f}, {gated_time:.0f}s")

print(f"\nbaseline mIoU: {100 * base_report.miou:.2f}")
print(f"gated mIoU:    {100 * gated_report.miou:.2f}")
print(f"gain:          {100 * (gated_report.miou - base_report.miou):+.2f} points")

print("\nper-quarter mIoU (top to bottom):")
for name, report in (("baseline", base_report), ("gated", gated_report)):
    quarters = " ".join(f"{100 * v:6.2f}" for v in report.per_region_miou)
    print(f"  {name:<9s} {quarters}")
