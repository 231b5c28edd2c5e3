"""Finite-difference verification of reverse-mode gradients.

``gradcheck`` evaluates a scalar-valued closure, backpropagates, and then
re-evaluates the closure with every parameter entry nudged by +/-eps to
form central differences (f(t+eps) - f(t-eps)) / (2 eps).  Entries that
fail that two-point test are re-estimated with the four-point stencil
(f(t-2eps) - 8 f(t-eps) + 8 f(t+eps) - f(t+2eps)) / (12 eps), whose
truncation error falls like eps^4 instead of eps^2, so sharp curvature
of the loss does not fail a correct gradient.  The closure must be
deterministic; pass eval-mode forward functions or disable dropout/jitter
before checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .tensor import Tensor, zero_grads

# Entries whose analytic and numeric magnitudes are both below this floor
# are compared against it instead, so float noise on a genuinely zero
# gradient does not masquerade as relative error.
_DENOMINATOR_FLOOR = 1e-4


@dataclass
class ParamCheck:
    name: str
    max_rel_error: float
    max_abs_error: float
    worst_index: tuple[int, ...]
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    epsilon: float
    tolerance: float
    params: list[ParamCheck] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((p.max_rel_error for p in self.params), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def worst(self) -> ParamCheck:
        return max(self.params, key=lambda p: p.max_rel_error)

    def format(self) -> str:
        lines = [f"gradcheck eps={self.epsilon:g} tol={self.tolerance:g}"]
        for p in self.params:
            lines.append(
                f"  {p.name:<28s} max_rel={p.max_rel_error:.3e} max_abs={p.max_abs_error:.3e}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"  => {verdict} (max relative error {self.max_rel_error:.3e})")
        return "\n".join(lines)


def _rel_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), _DENOMINATOR_FLOOR)
    return np.abs(analytic - numeric) / denom


def gradcheck(
    f: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``params`` is a sequence of (name, tensor) pairs; each tensor's data is
    perturbed in place and restored.  Raises ``NumericalError`` when the
    loss is non-finite or non-scalar.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise NumericalError(f"gradcheck epsilon {eps:g} outside [1e-7, 1e-3]")
    tensors = [t for _, t in params]
    zero_grads(tensors)
    loss = f()
    if loss.data.size != 1:
        raise NumericalError(f"gradcheck needs a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data):
        raise NumericalError("gradcheck: loss is non-finite")
    loss.backward()

    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    report = GradCheckReport(epsilon=eps, tolerance=tol)
    for (name, t), ana in zip(params, analytic):
        flat = t.data.reshape(-1)

        def probe(i: int, step: float) -> tuple[float, float]:
            """Loss with entry i moved by +step and by -step."""
            keep = flat[i]
            flat[i] = keep + step
            up = float(f().data)
            flat[i] = keep - step
            down = float(f().data)
            flat[i] = keep
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericalError(f"gradcheck: non-finite loss while perturbing {name}[{i}]")
            return up, down

        ups, downs = np.array([probe(i, eps) for i in range(flat.size)]).reshape(-1, 2).T
        num = (ups - downs) / (2.0 * eps)
        for i in np.flatnonzero(_rel_errors(ana.reshape(-1), num) >= tol):
            up2, down2 = probe(i, 2.0 * eps)
            num[i] = (down2 - 8.0 * downs[i] + 8.0 * ups[i] - up2) / (12.0 * eps)
        num = num.reshape(t.data.shape)
        rel = _rel_errors(ana, num)
        idx = np.unravel_index(int(np.argmax(rel)), rel.shape)
        report.params.append(
            ParamCheck(
                name=name,
                max_rel_error=float(rel[idx]),
                max_abs_error=float(np.max(np.abs(ana - num))),
                worst_index=tuple(int(i) for i in idx),
                analytic=float(ana[idx]),
                numeric=float(num[idx]),
            )
        )
    zero_grads(tensors)
    return report
