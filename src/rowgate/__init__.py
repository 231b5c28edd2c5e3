"""Row-wise channel gating for height-structured images.

The package bundles four things: a small float64 tensor engine with
reverse-mode differentiation and finite-difference verification, the
row-gating attention module itself, a toy encoder-decoder segmentation
network with five gate attachment points plus its trainer and evaluator,
and a label-statistics toolkit for the height/entropy analysis that
motivates gating by vertical position.
"""

from . import attention, checkpoint, config, data, metrics, net, posenc, rasters, stats
from .attention import RowGateConfig, RowGateParams, init_params
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    NumericalError,
    RowGateError,
    ShapeError,
)
from .gradcheck import GradCheckReport
from .net import GateSettings, ToySegConfig, ToySegModel
from .optim import ParamGroup, SGDMomentum, poly_lr
from .tensor import Tensor, parameter
from .train import TrainConfig, TrainLog

__all__ = [
    "attention", "checkpoint", "config", "data", "metrics", "net", "posenc",
    "rasters", "stats",
    "RowGateConfig", "RowGateParams", "init_params",
    "ConfigError", "DataError", "DivergenceError", "NumericalError",
    "RowGateError", "ShapeError",
    "GradCheckReport",
    "GateSettings", "ToySegConfig", "ToySegModel",
    "ParamGroup", "SGDMomentum", "poly_lr",
    "Tensor", "parameter",
    "TrainConfig", "TrainLog",
]
