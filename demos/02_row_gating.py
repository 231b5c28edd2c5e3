"""Walk through the row-gating pipeline stage by stage.

Pools a feature map across width, coarsens the row axis, runs the conv
stack with sinusoidal position information, expands back to full height,
and scales a second feature map row by row.  Exports the gate map as CSV
and as a grayscale heatmap.
"""

from pathlib import Path

# rowgate before numpy: importing it pins BLAS to one thread, which holds only if numpy is not loaded yet
from rowgate import attention as attn
from rowgate.rasters import write_attention_csv, write_attention_pgm
from rowgate.tensor import tensor

import numpy as np

rng = np.random.default_rng(1)
out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

config = attn.RowGateConfig(in_channels=16, out_channels=12, coarse_height=8, reduction=4)
params = attn.init_params(config, rng)

# a feature map whose statistics vary smoothly with the row index
rows = np.linspace(-1.0, 1.0, 32)[None, :, None]
x_l = tensor(rng.normal(size=(16, 32, 24)) * 0.3 + rows * np.arange(1, 17)[:, None, None] * 0.2)
x_h = tensor(rng.normal(size=(12, 32, 24)))

z = attn.width_pool(x_l, mode=config.pool_mode)
print(f"width pooling:      {tuple(x_l.shape)} -> {tuple(z.shape)}")
z_hat = attn.coarsen(z, config.coarse_height)
print(f"coarsening:         {tuple(z.shape)} -> {tuple(z_hat.shape)}")
a_hat = attn.attention_from_context(z_hat, params, config, training=False)
print(f"conv stack + gate:  {tuple(z_hat.shape)} -> {tuple(a_hat.shape)}  "
      f"range [{a_hat.data.min():.3f}, {a_hat.data.max():.3f}]")
a = attn.expand_attention(a_hat, x_h.shape[1])
print(f"height expansion:   {tuple(a_hat.shape)} -> {tuple(a.shape)}")
gated = attn.apply_gate(a, x_h)
print(f"row-wise gating:    {tuple(x_h.shape)} -> {tuple(gated.shape)}")

write_attention_csv(out_dir / "gate_map.csv", a.data)
write_attention_pgm(out_dir / "gate_map.pgm", a.data)
print(f"\ngate map written to {out_dir}/gate_map.csv and .pgm "
      f"(rows = image rows, columns = channels)")

# the one-liner equivalent
gated2, a2 = attn.forward(x_l, x_h, params, config, training=False)
assert np.array_equal(gated.data, gated2.data) and np.array_equal(a.data, a2.data)
print("forward() reproduces the staged pipeline bit-for-bit")
