"""A small encoder-decoder segmentation network with five gate attachment points.

The encoder downsamples twice (total stride 4), a three-branch dilated
context block widens the receptive field, and the decoder fuses an
upsampled context map with a stride-2 skip before classifying.  Row
gates can be attached at five depths:

  L1  gates the encoder output, pooling context from that same map
  L2  gates the concatenated context-block output
  L3  gates the fused decoder features
  L4  gates the pre-classifier features
  L5  gates the class logits (gate channels == classes)

Each gate pools its context from the feature map feeding the stage it
gates.  Logits are produced at stride 2 and upsampled linearly to the
input resolution, so row boundaries at any pixel row stay learnable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import attention as attn
from .errors import ConfigError, ShapeError
from .tensor import Tensor, concat_channels, conv2d, parameter, relu, tensor, upsample2d

GATE_SITES = (1, 2, 3, 4, 5)
TOTAL_STRIDE = 4
LOGIT_STRIDE = 2  # stride of the decoder, the logits and the L5 gate rows

# Each random stream of a run draws from its own child of SeedSequence(seed).
CONV_STREAM, GATE_STREAM, TRAIN_STREAM, GRADCHECK_STREAM = range(4)


def seed_stream(seed: int, child: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(child,)))


@dataclass(frozen=True)
class ToySegConfig:
    num_classes: int
    in_channels: int = 3
    widths: tuple[int, int, int] = (16, 32, 32)
    gate_layers: frozenset[int] = frozenset({1, 2, 3, 4})
    gate: attn.GateSettings = attn.GateSettings()
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if len(self.widths) != 3 or any(w < 1 for w in self.widths):
            raise ConfigError(f"widths must be three positive ints, got {self.widths}")
        if self.widths[1] % 2 != 0:
            raise ConfigError(f"encoder width must be even for the context branches, got {self.widths[1]}")
        extra = set(self.gate_layers) - set(GATE_SITES)
        if extra:
            raise ConfigError(f"unknown gate layers {sorted(extra)}; valid sites are 1..5")

    def gate_config(self, site: int) -> attn.RowGateConfig:
        """The gate at an attachment site: shared settings, that site's channel counts."""
        w1, w2, w3 = self.widths
        ctx_out = 3 * (w2 // 2)
        in_channels, out_channels = {
            1: (w2, w2),
            2: (w2, ctx_out),
            3: (ctx_out, w3),
            4: (w3, w3),
            5: (w3, self.num_classes),
        }[site]
        return attn.RowGateConfig(**asdict(self.gate), in_channels=in_channels, out_channels=out_channels)


@dataclass
class ConvLayer:
    weight: Tensor
    bias: Tensor
    stride: int = 1
    dilation: int = 1

    def __call__(self, x: Tensor) -> Tensor:
        # replicate padding: edge rows look like their neighbours, so the
        # convolutional stream carries no absolute-position beacon and the
        # gates' positional encoding is the only explicit position pathway
        return conv2d(x, self.weight, self.bias, stride=self.stride, dilation=self.dilation)

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


def _init_conv(out_channels: int, in_channels: int, rng: np.random.Generator, stride: int = 1, dilation: int = 1) -> ConvLayer:
    bound = np.sqrt(6.0 / (in_channels * 9))  # He-scaled uniform for relu stacks
    w = parameter(rng.uniform(-bound, bound, size=(out_channels, in_channels, 3, 3)))
    return ConvLayer(weight=w, bias=parameter(np.zeros(out_channels)), stride=stride, dilation=dilation)


@dataclass
class ToySegModel:
    config: ToySegConfig
    layers: dict[str, ConvLayer] = field(default_factory=dict)
    gates: dict[int, tuple[attn.RowGateConfig, attn.RowGateParams]] = field(default_factory=dict)

    @staticmethod
    def build(config: ToySegConfig) -> "ToySegModel":
        """Seeded construction; identical configs yield identical weights."""
        conv_rng, gate_rng = seed_stream(config.seed, CONV_STREAM), seed_stream(config.seed, GATE_STREAM)
        w1, w2, w3 = config.widths
        ctx_out = 3 * (w2 // 2)
        model = ToySegModel(config=config)
        model.layers = {
            "stem": _init_conv(w1, config.in_channels, conv_rng),
            "down1": _init_conv(w1, w1, conv_rng, stride=2),
            "enc": _init_conv(w2, w1, conv_rng),
            "down2": _init_conv(w2, w2, conv_rng, stride=2),
            "ctx1": _init_conv(w2 // 2, w2, conv_rng, dilation=1),
            "ctx2": _init_conv(w2 // 2, w2, conv_rng, dilation=2),
            "ctx4": _init_conv(w2 // 2, w2, conv_rng, dilation=4),
            "dec": _init_conv(w3, ctx_out + w1, conv_rng),
            "head": _init_conv(w3, w3, conv_rng),
            "cls": _init_conv(config.num_classes, w3, conv_rng),
        }
        for site in sorted(config.gate_layers):
            gate_config = config.gate_config(site)
            model.gates[site] = (gate_config, attn.init_params(gate_config, gate_rng))
        return model

    # -- parameter bookkeeping ------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for name, layer in self.layers.items():
            out.extend(layer.named(name))
        for site in sorted(self.gates):
            _, params = self.gates[site]
            out.extend(params.named(prefix=f"gate.L{site}."))
        return out

    def main_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, p) for n, p in self.named_parameters() if not n.startswith("gate.")]

    def gate_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, p) for n, p in self.named_parameters() if n.startswith("gate.")]

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every array needed to reproduce eval behaviour bit-for-bit."""
        out = [(name, p.data) for name, p in self.named_parameters()]
        for site in sorted(self.gates):
            _, params = self.gates[site]
            out.extend(params.running_stats(prefix=f"gate.L{site}."))
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        own = self.state_arrays()
        own_names = [n for n, _ in own]
        if set(own_names) != set(arrays):
            missing = set(own_names) - set(arrays)
            extra = set(arrays) - set(own_names)
            raise ShapeError(f"state mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
        for name, dst in own:
            src = arrays[name]
            if src.shape != dst.shape:
                raise ShapeError(f"state {name}: shape {src.shape} != {dst.shape}")
            np.copyto(dst, src)

    # -- forward ---------------------------------------------------------------

    def _gate(self, site: int, x_l: Tensor, x_h: Tensor, training: bool, rng, maps: Optional[dict]) -> Tensor:
        gate_config, params = self.gates[site]
        gated, amap = attn.forward(x_l, x_h, params, gate_config, training=training, rng=rng)
        if maps is not None:
            maps[site] = amap.data
        return gated

    def forward(
        self,
        image: np.ndarray,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
        collect_attention: bool = False,
    ):
        """Class logits (num_classes, H, W); optionally the gate maps per site."""
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 3 or image.shape[0] != self.config.in_channels:
            raise ShapeError(
                f"expected ({self.config.in_channels}, H, W) input, got {image.shape}"
            )
        h, w = image.shape[1:]
        if not h or not w or h % TOTAL_STRIDE or w % TOTAL_STRIDE:
            raise ShapeError(f"input extents must be positive multiples of {TOTAL_STRIDE}, got {h}x{w}")
        maps: Optional[dict[int, np.ndarray]] = {} if collect_attention else None
        ly = self.layers

        x = relu(ly["stem"](tensor(image)))
        x = relu(ly["down1"](x))
        skip = x
        x = relu(ly["enc"](x))
        x = relu(ly["down2"](x))
        if 1 in self.gates:
            x = self._gate(1, x, x, training, rng, maps)

        ctx = concat_channels([relu(ly[k](x)) for k in ("ctx1", "ctx2", "ctx4")])
        if 2 in self.gates:
            ctx = self._gate(2, x, ctx, training, rng, maps)

        up = upsample2d(ctx, h // LOGIT_STRIDE, w // LOGIT_STRIDE)
        fused = relu(ly["dec"](concat_channels([up, skip])))
        if 3 in self.gates:
            fused = self._gate(3, ctx, fused, training, rng, maps)

        head = relu(ly["head"](fused))
        if 4 in self.gates:
            head = self._gate(4, fused, head, training, rng, maps)

        logits = ly["cls"](head)
        if 5 in self.gates:
            logits = self._gate(5, head, logits, training, rng, maps)

        full = upsample2d(logits, h, w)
        if collect_attention:
            return full, maps
        return full
