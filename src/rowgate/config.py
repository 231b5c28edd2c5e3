"""Plain key=value run configuration.

One ``key=value`` per line, ``#`` comments, flag overrides on top of
file values, unknown keys rejected; ``resolve`` is the one way a run
setting gets in, and no key restates another.  ``render`` emits a
canonical sorted form that re-parses to the identical mapping;
``render_model`` renders only the keys that shape the model, the text
checkpoint digests are computed from.
"""

from __future__ import annotations

from pathlib import Path

from .attention import GateSettings
from .errors import ConfigError
from .net import ToySegConfig
from .train import TrainConfig

# Each gate.* key and the GateSettings field it sets.  The defaults are
# the dataclass's own, and each value parses as its default's type.
GATE_KEYS: dict[str, str] = {
    "gate.coarse_height": "coarse_height",
    "gate.reduction": "reduction",
    "gate.pool": "pool_mode",
    "gate.pe": "pe_mode",
    "gate.pe_layer": "pe_layer",
    "gate.jitter": "jitter_max",
    "gate.dropout": "dropout_p",
}
_GATE_DEFAULTS = GateSettings()

# Every known key with its default (as text).  A run's resolved config is
# this table overlaid with file values and flag overrides.
DEFAULTS: dict[str, str] = {
    "seed": "0",
    "model.in_channels": "3",
    "model.widths": "16,32,32",
    "model.num_classes": "6",
    "model.gate_layers": "1,2,3,4",
    **{key: str(getattr(_GATE_DEFAULTS, name)) for key, name in GATE_KEYS.items()},
    "train.max_iteration": "400",
    "train.lr": "1e-2",
    "train.momentum": "0.9",
    "train.weight_decay_main": "5e-4",
    "train.weight_decay_attn": "1e-4",
    "train.power": "0.9",
    "train.batch_size": "4",
    "train.crop": "96x48",
    "data.dir": "",  # empty: synthesize data.* images of model.num_classes classes
    "data.seed": "0",
    "data.n_train": "200",
    "data.n_val": "50",
    "data.height": "96",
    "data.width": "48",
    "data.noise": "0.5",
    "gradcheck.epsilon": "1e-5",
    "gradcheck.tolerance": "1e-4",
    "gradcheck.model_tolerance": "1e-3",
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


def get_int_set(values: dict[str, str], key: str) -> frozenset[int]:
    text = values[key].strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{key}: expected comma-separated integers, got {text!r}") from exc


def get_int_tuple(values: dict[str, str], key: str, sep: str = ",") -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in values[key].split(sep))
    except ValueError as exc:
        raise ConfigError(f"{key}: expected integers separated by {sep!r}") from exc


# -- builders ----------------------------------------------------------------


def build_model_config(values: dict[str, str]) -> ToySegConfig:
    widths = get_int_tuple(values, "model.widths")
    if len(widths) != 3:
        raise ConfigError(f"model.widths: expected three values, got {values['model.widths']!r}")
    return ToySegConfig(
        num_classes=get_int(values, "model.num_classes"),
        in_channels=get_int(values, "model.in_channels"),
        widths=widths,  # type: ignore[arg-type]
        gate_layers=get_int_set(values, "model.gate_layers"),
        gate=build_gate_settings(values),
        seed=get_seed(values, "seed"),
    )


def build_gate_settings(values: dict[str, str]) -> GateSettings:
    getters = {int: get_int, float: get_float, str: lambda v, key: v[key]}
    return GateSettings(**{
        name: getters[type(getattr(_GATE_DEFAULTS, name))](values, key)
        for key, name in GATE_KEYS.items()
    })


def build_train_config(values: dict[str, str]) -> TrainConfig:
    crop = get_int_tuple(values, "train.crop", sep="x")
    if len(crop) != 2:
        raise ConfigError(f"train.crop: expected HxW, got {values['train.crop']!r}")
    return TrainConfig(
        max_iteration=get_int(values, "train.max_iteration"),
        base_lr=get_float(values, "train.lr"),
        momentum=get_float(values, "train.momentum"),
        weight_decay_main=get_float(values, "train.weight_decay_main"),
        weight_decay_attn=get_float(values, "train.weight_decay_attn"),
        power=get_float(values, "train.power"),
        batch_size=get_int(values, "train.batch_size"),
        crop=(crop[0], crop[1]),
    )
