"""Row-wise channel gating driven by vertical position.

Given a lower-level feature map, the module pools away the width axis to
get one context vector per row, shrinks the row axis to a coarse height,
pushes the result through a three-layer 1D conv stack (with positional
encoding mixed into one layer), and squashes with a sigmoid.  The
resulting (channels x height) gate map is stretched back to the target
height and multiplied into a higher-level feature map row by row.

The conv stack runs along the height axis with replicate padding: edge
rows repeat their neighbour instead of seeing zeros, so a feature map
that is constant across rows yields a gate that is constant across rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import posenc
from .errors import ConfigError, ShapeError
from .tensor import (
    BatchNormState,
    ConvParams1D,
    Tensor,
    batch_norm1d,
    clip_open_unit,
    conv1d,
    dropout,
    mul,
    parameter,
    pool_width,
    relu,
    resample_height,
    reshape,
    sigmoid,
)

# All three 1D convolutions use this kernel size; 3 is the smallest width
# that still couples each row to its neighbours.
KERNEL_SIZE = 3


@dataclass(frozen=True)
class GateSettings:
    """Row-gate hyperparameters shared by every attachment site.

    This is the one declaration of their names, types, defaults and
    checks.  ``config.DECLARED`` maps each ``gate.*`` key to its field;
    ``config.DEFAULTS`` renders the key's default from the field's, and
    ``config.build_gate_settings`` parses the value as the field's type.
    """

    coarse_height: int = 8
    reduction: int = 2
    pool_mode: str = "avg"
    pe_mode: str = "sinusoidal"  # none | sinusoidal | learnable
    pe_layer: int = 2
    jitter_max: int = 2
    dropout_p: float = 0.1

    def __post_init__(self):
        if self.coarse_height < 2:  # one row batch-normalizes to a constant gate with zero gradient
            raise ConfigError(f"coarse_height must be >= 2, got {self.coarse_height}")
        if self.reduction < 1:
            raise ConfigError(f"reduction must be >= 1, got {self.reduction}")
        if self.pool_mode not in ("avg", "max"):
            raise ConfigError(f"unknown pool_mode {self.pool_mode!r}")
        if self.pe_mode not in ("none", "sinusoidal", "learnable"):
            raise ConfigError(f"unknown pe_mode {self.pe_mode!r}")
        if self.pe_layer not in (1, 2, 3):
            raise ConfigError(f"pe_layer must be 1, 2 or 3, got {self.pe_layer}")
        if self.jitter_max < 0:
            raise ConfigError(f"jitter_max must be >= 0, got {self.jitter_max}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")


@dataclass(frozen=True, kw_only=True)
class RowGateConfig(GateSettings):
    """The settings of one gate at one site, with its channel counts."""

    in_channels: int
    out_channels: int

    def __post_init__(self):
        super().__post_init__()
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("channel counts must be positive")
        if self.in_channels // self.reduction < 1:
            raise ConfigError(
                f"reduction {self.reduction} collapses {self.in_channels} channels to zero"
            )

    @property
    def mid_channels(self) -> int:
        return self.in_channels // self.reduction

    @property
    def pe_channels(self) -> int:
        """Channel count at the input of the conv layer receiving the encoding."""
        return {1: self.in_channels, 2: self.mid_channels, 3: 2 * self.mid_channels}[self.pe_layer]


@dataclass
class RowGateParams:
    conv1: ConvParams1D  # C_l -> C_l/r
    conv2: ConvParams1D  # C_l/r -> 2*C_l/r
    conv3: ConvParams1D  # 2*C_l/r -> C_h
    norm1: BatchNormState
    norm2: BatchNormState
    pe_table: Optional[Tensor] = None  # (coarse_height, channels); a parameter when learnable

    def named(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        """Trainable tensors with stable names, for optimizers and checkpoints."""
        out = [
            (f"{prefix}conv1.kernel", self.conv1.kernel),
            (f"{prefix}conv1.bias", self.conv1.bias),
            (f"{prefix}conv2.kernel", self.conv2.kernel),
            (f"{prefix}conv2.bias", self.conv2.bias),
            (f"{prefix}conv3.kernel", self.conv3.kernel),
            (f"{prefix}conv3.bias", self.conv3.bias),
            (f"{prefix}norm1.gamma", self.norm1.gamma),
            (f"{prefix}norm1.beta", self.norm1.beta),
            (f"{prefix}norm2.gamma", self.norm2.gamma),
            (f"{prefix}norm2.beta", self.norm2.beta),
        ]
        if self.pe_table is not None and self.pe_table.requires_grad:
            out.append((f"{prefix}pe_table", self.pe_table))
        return out

    def running_stats(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return [
            (f"{prefix}norm1.running_mean", self.norm1.running_mean),
            (f"{prefix}norm1.running_var", self.norm1.running_var),
            (f"{prefix}norm2.running_mean", self.norm2.running_mean),
            (f"{prefix}norm2.running_var", self.norm2.running_var),
        ]


def _init_conv1d(out_channels: int, in_channels: int, rng: np.random.Generator) -> ConvParams1D:
    bound = np.sqrt(6.0 / (in_channels * KERNEL_SIZE))
    kernel = rng.uniform(-bound, bound, size=(out_channels, in_channels, KERNEL_SIZE))
    return ConvParams1D(kernel=parameter(kernel), bias=parameter(np.zeros(out_channels)))


def init_params(config: RowGateConfig, rng: np.random.Generator) -> RowGateParams:
    """Fan-in scaled uniform kernels, zero biases, identity norms."""
    m = config.mid_channels
    params = RowGateParams(
        conv1=_init_conv1d(m, config.in_channels, rng),
        conv2=_init_conv1d(2 * m, m, rng),
        conv3=_init_conv1d(config.out_channels, 2 * m, rng),
        norm1=BatchNormState.create(m),
        norm2=BatchNormState.create(2 * m),
    )
    if config.pe_mode == "sinusoidal":
        params.pe_table = posenc.sinusoidal_table(config.coarse_height, config.pe_channels)
    elif config.pe_mode == "learnable":
        params.pe_table = posenc.learnable_table(config.coarse_height, config.pe_channels, rng)
    return params


def param_count(config: RowGateConfig) -> int:
    """Closed-form trainable parameter count of one gate module."""
    m = config.mid_channels
    k = KERNEL_SIZE
    count = (
        m * config.in_channels * k + m
        + 2 * m * m * k + 2 * m
        + config.out_channels * 2 * m * k + config.out_channels
        + 2 * m  # norm1 gamma/beta
        + 4 * m  # norm2 gamma/beta
    )
    if config.pe_mode == "learnable":
        count += config.coarse_height * config.pe_channels
    return count


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def width_pool(x_l: Tensor, mode: str = "avg") -> Tensor:
    """Squeeze (C, H, W) to the per-row context matrix (C, H)."""
    pooled = pool_width(x_l, mode=mode)
    return reshape(pooled, pooled.shape[:2])


def coarsen(z: Tensor, coarse_height: int) -> Tensor:
    """Adaptive-average the (C, H) context down to (C, coarse_height)."""
    if z.data.ndim != 2:
        raise ShapeError(f"coarsen expects a rank-2 context, got {z.shape}")
    if coarse_height > z.shape[1]:
        raise ConfigError(
            f"coarse height {coarse_height} exceeds context height {z.shape[1]}"
        )
    return resample_height(z, coarse_height)


def attention_from_context(
    z_hat: Tensor,
    params: RowGateParams,
    config: RowGateConfig,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Coarse gate map (C_out, coarse_height) from pooled context.

    Pipeline: dropout -> conv1 -> norm1 -> relu -> conv2 -> norm2 -> relu
    -> conv3 -> sigmoid, with the positional table added to the input of
    the configured conv layer.  Row indices of the table are jittered in
    training mode only.
    """
    if z_hat.shape != (config.in_channels, config.coarse_height):
        raise ShapeError(
            f"context shape {z_hat.shape} does not match "
            f"({config.in_channels}, {config.coarse_height})"
        )

    layer = 0 if config.pe_mode == "none" else config.pe_layer  # 0: no encoding
    table = params.pe_table
    if layer and table is None:
        raise ConfigError("positional mode set but no table was initialized")

    q = dropout(z_hat, config.dropout_p, rng, training)
    # drawn after dropout's mask, as no op before the injection draws
    index = None
    if layer and training and config.jitter_max > 0:
        index = posenc.jitter(config.coarse_height, config.jitter_max, rng)
    if layer == 1:
        q = posenc.inject(q, table, index)
    q = relu(batch_norm1d(conv1d(q, params.conv1), params.norm1, training))
    if layer == 2:
        q = posenc.inject(q, table, index)
    q = relu(batch_norm1d(conv1d(q, params.conv2), params.norm2, training))
    if layer == 3:
        q = posenc.inject(q, table, index)
    q = sigmoid(conv1d(q, params.conv3))
    return clip_open_unit(q)


def expand_attention(a_hat: Tensor, height: int) -> Tensor:
    """Stretch the coarse gate map to the target height by linear interpolation."""
    if height < a_hat.shape[1]:
        raise ShapeError(
            f"target height {height} below coarse height {a_hat.shape[1]}"
        )
    return resample_height(a_hat, height)


def apply_gate(attention: Tensor, x_h: Tensor) -> Tensor:
    """Scale each row of (C, H, W) features by its per-channel gate."""
    if x_h.data.ndim != 3:
        raise ShapeError(f"apply_gate expects rank-3 features, got {x_h.shape}")
    if attention.shape != x_h.shape[:2]:
        raise ShapeError(
            f"gate map {attention.shape} does not match feature map {x_h.shape}"
        )
    return mul(attention, x_h)


def forward(
    x_l: Tensor,
    x_h: Tensor,
    params: RowGateParams,
    config: RowGateConfig,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Tensor, Tensor]:
    """Full pass: returns (gated x_h, full-height attention map)."""
    z = width_pool(x_l, mode=config.pool_mode)
    z_hat = coarsen(z, config.coarse_height)
    a_hat = attention_from_context(z_hat, params, config, training=training, rng=rng)
    attention = expand_attention(a_hat, x_h.shape[1])
    return apply_gate(attention, x_h), attention
