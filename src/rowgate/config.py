"""Plain key=value run configuration.

One ``key=value`` per line, ``#`` comments, flag overrides on top of
file values, unknown keys rejected; ``resolve`` is the one way a run
setting gets in, and no key restates another.  Each default is written
once: ``DEFAULTS`` renders it from the dataclass or function that
declares it (``DECLARED``), and only keys with no library default are
literal.  ``render`` emits a canonical sorted form that re-parses to the
identical mapping; ``render_model`` renders only the keys that shape the
model, the text checkpoint digests are computed from.  A setting with one
value in use is a constant where it is used, and what the input fixes
(crop, input channels) is no key: runs train on whole RGB images.
"""

from __future__ import annotations

import inspect
import math
from pathlib import Path

from .attention import GateSettings
from .data import synth_banded
from .errors import ConfigError
from .gradcheck import gradcheck
from .net import ToySegConfig
from .train import TrainConfig

# Each key whose default the library declares: the class or function that
# declares it and the parameter the key sets.  DEFAULTS renders the
# owner's own default, and the builders parse each value as its type.
DECLARED: dict[str, tuple[object, str]] = {
    "seed": (ToySegConfig, "seed"),
    "model.widths": (ToySegConfig, "widths"),
    "model.gate_layers": (ToySegConfig, "gate_layers"),
    "model.num_classes": (synth_banded, "num_classes"),
    "gate.coarse_height": (GateSettings, "coarse_height"),
    "gate.reduction": (GateSettings, "reduction"),
    "gate.pool": (GateSettings, "pool_mode"),
    "gate.pe": (GateSettings, "pe_mode"),
    "gate.pe_layer": (GateSettings, "pe_layer"),
    "gate.jitter": (GateSettings, "jitter_max"),
    "gate.dropout": (GateSettings, "dropout_p"),
    "train.lr": (TrainConfig, "base_lr"),
    "train.batch_size": (TrainConfig, "batch_size"),
    "data.noise": (synth_banded, "noise"),
    "gradcheck.epsilon": (gradcheck, "eps"),
    "gradcheck.tolerance": (gradcheck, "tol"),
}
_LIBRARY_DEFAULTS = {
    key: inspect.signature(owner).parameters[name].default for key, (owner, name) in DECLARED.items()
}


def _as_text(value) -> str:
    if isinstance(value, frozenset):
        value = tuple(sorted(value))
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


# Every known key with its default (as text).  A run's resolved config is
# this table overlaid with file values and flag overrides.
DEFAULTS: dict[str, str] = {
    **{key: _as_text(default) for key, default in _LIBRARY_DEFAULTS.items()},
    "train.max_iteration": "400",
    "data.dir": "",  # empty: synthesize data.* images of model.num_classes classes
    "data.seed": "0",
    "data.n_train": "200",
    "data.n_val": "50",
    "data.height": "96",
    "data.width": "48",
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def resolve(path=None, overrides: list[str] | None = None) -> dict[str, str]:
    """Defaults, overlaid by the config file, overlaid by key=value flags."""
    resolved = dict(DEFAULTS)
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: config is not UTF-8: {exc.reason} at byte {exc.start}") from None
        file_values = parse_config_text(text, source=str(path))
        _reject_unknown(file_values, str(path))
        resolved.update(file_values)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        _reject_unknown({key: value}, "override")
        resolved[key] = value.strip()
    return resolved


def _reject_unknown(values: dict[str, str], source: str) -> None:
    unknown = sorted(set(values) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"{source}: unknown keys {unknown}")


def render(values: dict[str, str]) -> str:
    lines = ["# resolved run configuration"]
    lines += [f"{key}={values[key]}" for key in sorted(values)]
    return "\n".join(lines) + "\n"


def render_model(values: dict[str, str]) -> str:
    """Canonical text of ``seed``, ``model.*`` and ``gate.*``: what shapes the model."""
    return render({k: v for k, v in values.items() if k == "seed" or k.startswith(("model.", "gate."))})


# -- typed getters -----------------------------------------------------------


def get_int(values: dict[str, str], key: str) -> int:
    try:
        return int(values[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected integer, got {values[key]!r}") from exc


def get_seed(values: dict[str, str], key: str) -> int:
    seed = get_int(values, key)
    if seed < 0:
        raise ConfigError(f"{key}: expected a non-negative integer, got {values[key]!r}")
    return seed


def get_float(values: dict[str, str], key: str) -> float:
    try:
        return float(values[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected number, got {values[key]!r}") from exc


def get_positive(values: dict[str, str], key: str) -> float:
    value = get_float(values, key)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{key}: expected a finite number > 0, got {values[key]!r}")
    return value


def get_ints(values: dict[str, str], key: str) -> list[int]:
    text = values[key].strip()
    try:
        return [int(v) for v in text.split(",")] if text else []
    except ValueError as exc:
        raise ConfigError(f"{key}: expected integers separated by ',', got {text!r}") from exc


# -- builders ----------------------------------------------------------------


def _parse(values: dict[str, str], key: str):
    """A declared key's value, parsed as its default's type."""
    if key == "seed":
        return get_seed(values, key)
    default = _LIBRARY_DEFAULTS[key]
    if isinstance(default, (tuple, frozenset)):
        return type(default)(get_ints(values, key))
    return {int: get_int, float: get_float, str: lambda v, k: v[k]}[type(default)](values, key)


def _fields(values: dict[str, str], owner) -> dict:
    """The parameters of ``owner`` that keys set, keyed by parameter name."""
    return {name: _parse(values, key) for key, (o, name) in DECLARED.items() if o is owner}


def build_model_config(values: dict[str, str]) -> ToySegConfig:
    return ToySegConfig(
        num_classes=get_int(values, "model.num_classes"),
        gate=build_gate_settings(values),
        **_fields(values, ToySegConfig),
    )


def build_gate_settings(values: dict[str, str]) -> GateSettings:
    return GateSettings(**_fields(values, GateSettings))


def build_train_config(values: dict[str, str]) -> TrainConfig:
    return TrainConfig(max_iteration=get_int(values, "train.max_iteration"), **_fields(values, TrainConfig))
