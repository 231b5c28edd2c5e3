"""Verify reverse-mode gradients against central finite differences.

Draws a row-gate module and its inputs clear of every relu kink, wires
it into a mean-squared loss, and checks every parameter and both
feature-map inputs, as ``rowgate gradcheck`` does.  Also shows the
harness catching a deliberately oversized step size.
"""

# rowgate before numpy: importing it pins BLAS to one thread, which holds only if numpy is not loaded yet
from rowgate import attention as attn
from rowgate.errors import NumericalError
from rowgate.gradcheck import draw_clear, gate_case, gradcheck

import numpy as np

rng = np.random.default_rng(0)

config = attn.RowGateConfig(
    in_channels=8, out_channels=6, coarse_height=4, reduction=2,
    pe_mode="learnable", jitter_max=0, dropout_p=0.0,
)
case, margin = draw_clear(lambda: gate_case(config, rng, 12, 12, 10))
print(f"smallest |relu input|: {margin:.3e}\n")

report = gradcheck(case.f, case.params, eps=1e-5, tol=1e-4)
print(report.format())
worst = report.worst()
print(f"\nworst entry: {worst.name}{list(worst.worst_index)} "
      f"analytic {worst.analytic:+.9f} vs numeric {worst.numeric:+.9f}")

print("\nStep sizes far above 1e-3 are refused (truncation error grows as eps^2):")
try:
    gradcheck(case.f, case.params, eps=1e-1)
except NumericalError as exc:
    print(f"  NumericalError: {exc}")
