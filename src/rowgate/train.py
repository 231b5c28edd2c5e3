"""Training loop: SGD with momentum, polynomial LR decay, grouped weight decay."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import Sample, augment
from .errors import ConfigError, DivergenceError
from .net import ToySegModel
from .optim import ParamGroup, SGDMomentum, poly_lr
from .tensor import scale, softmax_cross_entropy


@dataclass(frozen=True)
class TrainConfig:
    max_iteration: int
    base_lr: float = 1e-2
    momentum: float = 0.9
    weight_decay_main: float = 5e-4
    weight_decay_attn: float = 1e-4
    power: float = 0.9
    batch_size: int = 4
    crop: tuple[int, int] = (64, 64)

    def __post_init__(self):
        if self.max_iteration < 0:
            raise ConfigError(f"max_iteration must be >= 0, got {self.max_iteration}")
        for name in ("base_lr", "momentum", "weight_decay_main", "weight_decay_attn"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0 < self.power <= 1:
            raise ConfigError(f"power must be in (0, 1], got {self.power}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class TrainLog:
    iterations: list[int] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)

    def append(self, iteration: int, lr: float, loss: float) -> None:
        self.iterations.append(iteration)
        self.lrs.append(lr)
        self.losses.append(loss)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "lr", "loss"])
            for row in zip(self.iterations, self.lrs, self.losses):
                writer.writerow([row[0], f"{row[1]:.10g}", f"{row[2]:.10g}"])


def make_optimizer(model: ToySegModel, config: TrainConfig) -> SGDMomentum:
    """Two weight-decay groups: the main network and the gate modules."""
    return SGDMomentum(
        groups=[
            ParamGroup("main", model.main_parameters(), config.weight_decay_main),
            ParamGroup("attn", model.gate_parameters(), config.weight_decay_attn),
        ],
        momentum=config.momentum,
    )


def train(
    model: ToySegModel,
    dataset: list[Sample],
    config: TrainConfig,
    rng: np.random.Generator,
) -> TrainLog:
    """Run the configured number of iterations; deterministic given ``rng``.

    Gradients are averaged over the mini-batch in a fixed order.  A
    non-finite batch loss aborts with a ``DivergenceError`` naming the
    iteration and learning rate.
    """
    if not dataset:
        raise ConfigError("training dataset is empty")
    optimizer = make_optimizer(model, config)
    log = TrainLog()
    for iteration in range(config.max_iteration):
        lr = poly_lr(iteration, config.base_lr, config.max_iteration, config.power)
        optimizer.zero_grad()
        indices = rng.integers(0, len(dataset), size=config.batch_size)
        batch_loss = 0.0
        for i in indices:
            image, label = augment(dataset[int(i)], config.crop, rng)
            logits = model.forward(image, training=True, rng=rng)
            loss = softmax_cross_entropy(logits, label)
            batch_loss += loss.item() / config.batch_size
            scale(loss, 1.0 / config.batch_size).backward()
        if not np.isfinite(batch_loss):
            raise DivergenceError(
                f"non-finite loss {batch_loss} at iteration {iteration} (lr={lr:g})"
            )
        optimizer.step(lr)
        log.append(iteration, lr, batch_loss)
    return log
