"""Training loop: SGD with momentum, polynomial LR decay, grouped weight decay.

Each step draws its sample indices from the caller's generator and then
spawns one child generator per image from it (``Generator.spawn``,
numpy's way to make independent streams for parallel work).  Image j's
flip, dropout and positional jitter draw only from child j, and
batch norm is per image, so an image's loss, gradients and batch
statistics are a function of the weights, its sample and its stream
alone.  The images of a step are therefore fanned out by ``fork_map``
as jobs of ``_image_step``, each carrying its sample and its generator;
the model goes with the mapped ``partial``, so a kept worker receives
the current weights at every step.  Each job backpropagates its
``loss / batch_size`` and returns its loss,
its parameter gradients and what its forward pass added to the
batch-norm running buffers, which it starts from zero, so they hold
exactly ``m * mean`` and ``m * var``.  The caller then adds the
gradients into ``p.grad`` and folds each contribution into the real
buffers with batch_norm1d's own update, ``BatchNormState.fold``, image
by image in batch order, so a step is bitwise the same for any worker
count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import Sample, augment
from .errors import ConfigError, DivergenceError
from .net import ToySegModel
from .optim import ParamGroup, SGDMomentum, poly_lr
from .parallel import fork_map
from .tensor import scale, softmax_cross_entropy, zero_grads

WEIGHT_DECAY_MAIN = 5e-4  # the main network's weight decay
WEIGHT_DECAY_ATTN = 1e-4  # the gate modules'


@dataclass(frozen=True)
class TrainConfig:
    max_iteration: int
    base_lr: float = 1e-2
    batch_size: int = 4

    def __post_init__(self):
        if self.max_iteration < 0:
            raise ConfigError(f"max_iteration must be >= 0, got {self.max_iteration}")
        if not (np.isfinite(self.base_lr) and self.base_lr >= 0):
            raise ConfigError(f"base_lr must be finite and >= 0, got {self.base_lr}")
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


def make_optimizer(model: ToySegModel) -> SGDMomentum:
    """Two weight-decay groups: the main network and the gate modules."""
    return SGDMomentum([
        ParamGroup("main", model.main_parameters(), WEIGHT_DECAY_MAIN),
        ParamGroup("attn", model.gate_parameters(), WEIGHT_DECAY_ATTN),
    ])


def _params_and_norms(model: ToySegModel) -> tuple[list, list]:
    """The model's parameters, and the batch norms of its gates in a fixed order."""
    norms = [norm for _, gate in model.gates.values() for norm in (gate.norm1, gate.norm2)]
    return [p for _, p in model.named_parameters()], norms


def _image_step(model: ToySegModel, batch_size: int, job: tuple[Sample, np.random.Generator]):
    """One image's loss, parameter gradients and running-buffer contributions.

    Leaves every ``p.grad`` at None and zeroed running buffers in the
    model; the caller puts the real buffers back.
    """
    sample, image_rng = job
    params, norms = _params_and_norms(model)
    for norm in norms:
        norm.running_mean = np.zeros_like(norm.running_mean)
        norm.running_var = np.zeros_like(norm.running_var)
    try:
        image, label = augment(sample, image_rng)
        loss = softmax_cross_entropy(model.forward(image, training=True, rng=image_rng), label)
        scale(loss, 1.0 / batch_size).backward()
        return loss.item(), [p.grad for p in params], [(n.running_mean, n.running_var) for n in norms]
    finally:
        zero_grads(params)


def train(
    model: ToySegModel,
    dataset: list[Sample],
    config: TrainConfig,
    rng: np.random.Generator,
) -> TrainLog:
    """Run the configured number of iterations; deterministic given ``rng``.

    The images of each step run through ``fork_map``, which forks its
    workers at the first step and sends them the model at every step; the
    gradients and batch-norm contributions are summed in batch order, so the result
    does not depend on the worker count.  A step that raises leaves every
    ``p.grad`` at None and the running buffers as they were before it.  A
    non-finite batch loss aborts with a ``DivergenceError`` naming the
    iteration and learning rate.
    """
    if not dataset:
        raise ConfigError("training dataset is empty")
    optimizer = make_optimizer(model)
    params, norms = _params_and_norms(model)
    step = partial(_image_step, model, config.batch_size)

    log = TrainLog()
    for iteration in range(config.max_iteration):
        lr = poly_lr(iteration, config.base_lr, config.max_iteration)
        zero_grads(params)
        indices = rng.integers(0, len(dataset), size=config.batch_size)
        jobs = [(dataset[i], g) for i, g in zip(indices.tolist(), rng.spawn(config.batch_size))]
        buffers = [(n.running_mean, n.running_var) for n in norms]
        try:
            results = list(fork_map(step, jobs, 2))
        finally:
            for norm, (mean, var) in zip(norms, buffers):
                norm.running_mean, norm.running_var = mean, var
        batch_loss = 0.0
        for loss, grads, contributions in results:
            batch_loss += loss / config.batch_size
            for p, g in zip(params, grads):
                if g is not None:
                    p.accumulate_grad(g)
            for norm, (c_mean, c_var) in zip(norms, contributions):
                norm.fold(c_mean, c_var)
        if not np.isfinite(batch_loss):
            raise DivergenceError(
                f"non-finite loss {batch_loss} at iteration {iteration} (lr={lr:g})"
            )
        optimizer.step(lr)
        log.append(iteration, lr, batch_loss)
    return log
