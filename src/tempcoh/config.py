"""Configuration schema, presets, file parsing, and precedence resolution.

Config files are INI-style: `[section]` headers over flat `key = value`
lines (`#` or `;` comments). Every hyperparameter has a named key and a
built-in default; the `desk` and `paper` presets bundle scale-dependent
overrides. Precedence, highest first: command-line flag (including
`--set section.key=value`), config file, preset, built-in default. A
config file has no `[DEFAULT]` section and no `%` interpolation, and every
float value must be finite.

The stage dataclasses own the keys and defaults of their sections: each
`int` or `float` field is a key, converted with its own type. Only the
model shape and `sampler.delta_seconds` are written here. The latter
defaults to the pretraining method's own value (`training.PRETRAIN_METHODS`)
and therefore resolves to None until a method is known.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import typing
from pathlib import Path

from .errors import DataFormatError, UsageError
from .losses import LossConfig
from .sampling import SamplerConfig
from .synthetic import SynthConfig
from .training import PRETRAIN_METHODS, FinetuneConfig, PretrainConfig


def _to_float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _to_optional_float(s: str):
    if s.strip().lower() in ("", "none"):
        return None
    return _to_float(s)


def _to_int_list(s: str) -> list[int]:
    s = s.strip()
    if not s:
        return []
    return [int(part) for part in s.split(",")]


def _keys(cls, skip: tuple[str, ...] = ()) -> dict[str, tuple]:
    """key -> (converter, default) for each int or float field of `cls`."""
    hints = typing.get_type_hints(cls)
    converters = {int: int, float: _to_float}
    return {f.name: (converters[hints[f.name]], f.default)
            for f in dataclasses.fields(cls)
            if hints[f.name] in converters and f.name not in skip}


# section -> key -> (converter from config-file string, built-in default).
# `sampler.fps` is not a key: the frame rate comes from the dataset.
SCHEMA = {
    "synth": _keys(SynthConfig),
    "sampler": {
        "delta_seconds": (_to_optional_float, None),
        **_keys(SamplerConfig, skip=("delta_seconds", "fps")),
    },
    "loss": _keys(LossConfig),
    "model": {
        "hidden_sizes": (_to_int_list, [64]),
        "embedding_dim": (int, 32),
        "lstm_hidden": (int, 64),
    },
    "pretrain": _keys(PretrainConfig),
    "finetune": _keys(FinetuneConfig),
}

DEFAULTS = {section: {key: default for key, (_, default) in keys.items()}
            for section, keys in SCHEMA.items()}

PRESETS = {
    "desk": {},
    "paper": {
        ("model", "hidden_sizes"): [],
        ("model", "embedding_dim"): 4096,
        ("model", "lstm_hidden"): 512,
        ("pretrain", "lr"): 1e-4,
        ("finetune", "lr"): 1e-4,
    },
}

def _check_key(section: str, key: str, where: str, error=UsageError) -> None:
    if section not in SCHEMA:
        raise error(f"{where}: unknown config section [{section}]; "
                    f"expected one of {sorted(SCHEMA)}")
    if key not in SCHEMA[section]:
        raise error(f"{where}: unknown key {key!r} in section "
                    f"[{section}]; expected one of {sorted(SCHEMA[section])}")


def _convert(section: str, key: str, raw: str, where: str):
    try:
        return SCHEMA[section][key][0](raw)
    except ValueError as exc:
        raise UsageError(f"{where}: bad value {raw!r} for "
                         f"{section}.{key}: {exc}") from exc


def parse_config_file(path) -> dict[tuple[str, str], object]:
    """Read and type-check a config file into {(section, key): value}."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file {path} not found")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise UsageError(f"config file {path}: {exc}") from exc
    out: dict[tuple[str, str], object] = {}
    # `parser.items()` yields `[DEFAULT]` first, so its keys are refused as
    # an unknown section's before another section shows them as its own.
    for section, values in parser.items():
        for key, raw in values.items():
            _check_key(section, key, str(path))
            out[(section, key)] = _convert(section, key, raw, str(path))
    return out


def parse_set_flag(text: str) -> tuple[tuple[str, str], object]:
    """Parse one --set SECTION.KEY=VALUE override."""
    where = f"--set {text!r}"
    if "=" not in text:
        raise UsageError(f"{where}: expected SECTION.KEY=VALUE")
    dotted, raw = text.split("=", 1)
    if "." not in dotted:
        raise UsageError(f"{where}: expected SECTION.KEY=VALUE")
    section, key = dotted.split(".", 1)
    section, key = section.strip(), key.strip()
    _check_key(section, key, where)
    return (section, key), _convert(section, key, raw.strip(), where)


def resolve_config(preset: str = "desk", config_file=None,
                   set_flags: list[str] | None = None) -> dict[str, dict[str, object]]:
    """Apply precedence and return the full nested configuration."""
    if preset not in PRESETS:
        raise UsageError(f"unknown preset {preset!r}; expected one of "
                         f"{sorted(PRESETS)}")
    resolved = {section: dict(keys) for section, keys in DEFAULTS.items()}
    for (section, key), value in PRESETS[preset].items():
        resolved[section][key] = value
    if config_file is not None:
        for (section, key), value in parse_config_file(config_file).items():
            resolved[section][key] = value
    for text in set_flags or []:
        (section, key), value = parse_set_flag(text)
        resolved[section][key] = value
    return resolved


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return is_int(value) or isinstance(value, float)


# converter -> (test that a resolved value has the converter's type, its name).
_VALUE_TYPES = {
    int: (is_int, "an integer"),
    _to_float: (_is_number, "a number"),
    _to_optional_float: (lambda v: v is None or _is_number(v), "a number or null"),
    _to_int_list: (lambda v: isinstance(v, list) and all(map(is_int, v)),
                   "a list of integers"),
}


def check_resolved_config(resolved: dict, where: str) -> None:
    """Raise DataFormatError unless `resolved` holds exactly SCHEMA's keys,
    each with a finite value of its converter's type."""
    for section, keys in resolved.items():
        if not isinstance(keys, dict):
            raise DataFormatError(f"{where}: config section [{section}] is "
                                  f"not an object")
        for key, value in keys.items():
            _check_key(section, key, where, DataFormatError)
            has_type, type_name = _VALUE_TYPES[SCHEMA[section][key][0]]
            if not has_type(value):
                raise DataFormatError(f"{where}: config value {section}.{key} "
                                      f"= {value!r} is not {type_name}")
            if isinstance(value, float) and not math.isfinite(value):
                raise DataFormatError(f"{where}: config value {section}.{key} "
                                      f"= {value!r} is not finite")
    for section, keys in SCHEMA.items():
        missing = sorted(set(keys) - set(resolved.get(section, {})))
        if missing:
            raise DataFormatError(f"{where}: config section [{section}] "
                                  f"lacks {missing}")


def resolve_delta_seconds(resolved: dict, method: str) -> float:
    """Fill in the method-dependent delta default; explicit values win."""
    value = resolved["sampler"]["delta_seconds"]
    if value is not None:
        return float(value)
    if method not in PRETRAIN_METHODS:
        raise UsageError(f"unknown pretraining method {method!r}")
    return PRETRAIN_METHODS[method][1]
