"""SGD with momentum, grouped weight decay, and the polynomial LR schedule."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .tensor import Tensor

MOMENTUM = 0.9
POLY_POWER = 0.9


@dataclass
class ParamGroup:
    """Named parameters sharing one weight-decay coefficient."""

    name: str
    params: list[tuple[str, Tensor]]
    weight_decay: float


@dataclass
class SGDMomentum:
    """Heavy-ball SGD: v <- MOMENTUM v + (g + wd p); p <- p - lr v."""

    groups: Sequence[ParamGroup]
    _velocity: dict[int, np.ndarray] = field(default_factory=dict)

    def step(self, lr: float) -> None:
        for group in self.groups:
            for _, p in group.params:
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                update = g + group.weight_decay * p.data
                v = self._velocity.get(id(p))
                if v is None:
                    v = np.zeros_like(p.data)
                    self._velocity[id(p)] = v
                v *= MOMENTUM
                v += update
                p.data -= lr * v


def poly_lr(iteration: int, base_lr: float, max_iteration: int) -> float:
    """base_lr * (1 - iteration / max_iteration) ** POLY_POWER."""
    if not 0 <= iteration <= max_iteration:
        raise ConfigError(f"iteration {iteration} outside [0, {max_iteration}]")
    return base_lr * (1.0 - iteration / max_iteration) ** POLY_POWER
