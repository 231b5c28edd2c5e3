"""Do the learned class-logit gates track the true class bands?

Trains a model with a single gate on the class logits, averages its gate
map over the validation set, and prints where each class's gate peaks
relative to the band that generated it, next to the measured height-wise
class distribution.
"""

# rowgate before numpy: importing it pins BLAS to one thread, which holds only if numpy is not loaded yet
from rowgate.attention import GateSettings
from rowgate.data import nominal_bands, synth_banded
from rowgate.metrics import evaluate
from rowgate.net import LOGIT_STRIDE, ToySegConfig, ToySegModel
from rowgate.stats import LabelMap, axis_distribution
from rowgate.train import TrainConfig, train

import numpy as np

HEIGHT, WIDTH = 96, 48
train_set = synth_banded(seed=0, n_images=80, height=HEIGHT, width=WIDTH, num_classes=6)
val_set = synth_banded(seed=1, n_images=20, height=HEIGHT, width=WIDTH, num_classes=6)

config = ToySegConfig(
    num_classes=6,
    gate_layers=frozenset({5}),
    gate=GateSettings(coarse_height=8, reduction=2),
    seed=0,
)
model = ToySegModel.build(config)
print("training with the class-logit gate only (L5)...")
train(model, train_set, TrainConfig(max_iteration=250, batch_size=4),
      np.random.default_rng(0))
report = evaluate(model, val_set)
print(f"validation mIoU: {100 * report.miou:.2f}\n")

pooled = None
for sample in val_set:
    _, maps = model.forward(sample.image, training=False, collect_attention=True)
    pooled = maps[5] if pooled is None else pooled + maps[5]
pooled /= len(val_set)

dist, _ = axis_distribution(
    [LabelMap(ids=s.label) for s in val_set], 6, axis="height", bins=pooled.shape[1]
)

print("class  gate-peak row   generating band   in-band  height-distribution peak")
for k, (lo, hi) in enumerate(nominal_bands(HEIGHT, 6)):
    row = int(pooled[k].argmax()) * LOGIT_STRIDE  # first image row of the peak gate row
    dist_row = int(dist[:, k].argmax()) * LOGIT_STRIDE
    inside = any(lo <= r < hi for r in range(row, row + LOGIT_STRIDE))  # criterion 7's rule
    print(f"  {k}        {row:3d}          [{lo:3d}, {hi:3d})      "
          f"{'yes' if inside else ' no'}          {dist_row:3d}")
