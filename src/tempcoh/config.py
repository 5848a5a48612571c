"""Configuration schema, presets, file parsing, and precedence resolution.

Config files are INI-style: `[section]` headers over flat `key = value`
lines (`#` or `;` comments). Every hyperparameter has a named key and a
built-in default; the `desk` and `paper` presets bundle scale-dependent
overrides. Precedence, highest first: command-line flag (including
`--set section.key=value`), config file, preset, built-in default. A
config file has no `[DEFAULT]` section and no `%` interpolation. Every
value must be one numpy can hold: an integer within int64, a float finite.

The stage dataclasses own the keys, defaults and ranges of their sections:
each `int`, `float` or `list[int]` field is a key, converted with its own
type. Only `sampler.delta_seconds` is written here. It defaults to the
pretraining method's own value (`training.PRETRAIN_METHODS`) and therefore
resolves to None until a method is known. `check_ranges` builds every stage
that needs no dataset, so a command refuses an out-of-range value before
it runs; the sampler needs the dataset's frame rate and is checked when
its stage builds it. `check_resolved_config` checks a run manifest's
`resolved_config` through `data_io.json_value`: each key present, with a
value its converter could have returned.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import typing
from pathlib import Path

from .data_io import is_int, is_number, is_object, json_value
from .errors import DataFormatError, UsageError
from .losses import LossConfig
from .models import ModelConfig
from .sampling import SamplerConfig
from .synthetic import SynthConfig
from .training import (PRETRAIN_METHODS, FinetuneConfig, PretrainConfig,
                       check_method)


_INT64 = range(-2**63, 2**63)


def _to_int(s: str) -> int:
    """`int(s)`, refused outside int64."""
    value = int(s)
    if value not in _INT64:
        raise ValueError("outside the int64 range")
    return value


def _to_float(s) -> float:
    """`float(s)`, refused unless finite; `s` is a string or a number."""
    try:
        value = float(s)
    except OverflowError:
        raise ValueError("too large for a float") from None
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
    return [_to_int(part) for part in s.split(",")]


def _keys(cls, skip: tuple[str, ...] = ()) -> dict[str, tuple]:
    """key -> (converter, default) for each int, float or list[int] field
    of `cls`; the default is the field's value in `cls()`, so a
    `default_factory` gives it too."""
    hints, default = typing.get_type_hints(cls), cls()
    converters = {int: _to_int, float: _to_float, list[int]: _to_int_list}
    return {f.name: (converters[hints[f.name]], getattr(default, f.name))
            for f in dataclasses.fields(cls)
            if hints[f.name] in converters and f.name not in skip}


# section -> the stage dataclass that owns its keys.
STAGES = {"synth": SynthConfig, "loss": LossConfig, "model": ModelConfig,
          "pretrain": PretrainConfig, "finetune": FinetuneConfig}

# section -> key -> (converter from config-file string, built-in default).
# `sampler.fps` is not a key: the frame rate comes from the dataset.
SCHEMA = {section: _keys(cls) for section, cls in STAGES.items()}
SCHEMA["sampler"] = {"delta_seconds": (_to_optional_float, None),
                     **_keys(SamplerConfig, skip=("delta_seconds", "fps"))}

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
    """Read and type-check a config file into {(section, key): value}; a
    UsageError naming the file for one that cannot be read, is not UTF-8 or
    does not parse."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file {path} not found")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
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


def _is_float(value) -> bool:
    """Whether `value` is a JSON number that `_to_float` takes."""
    if not is_number(value):
        return False
    try:
        _to_float(value)
    except ValueError:
        return False
    return True


def _is_int64(value) -> bool:
    return is_int(value) and value in _INT64


# converter -> (test that a resolved value is one the converter returns,
# what such a value is), for `json_value`.
_VALUE_TYPES = {
    _to_int: (_is_int64, "an integer within int64"),
    _to_float: (_is_float, "a finite float"),
    _to_optional_float: (lambda v: v is None or _is_float(v),
                         "a finite float or null"),
    _to_int_list: (lambda v: isinstance(v, list) and all(map(_is_int64, v)),
                   "a list of integers within int64"),
}


def check_resolved_config(resolved: dict, where) -> None:
    """Raise DataFormatError unless `resolved`, the `resolved_config` of the
    run manifest `where`, holds exactly SCHEMA's sections and keys, each
    value one its key's converter returns."""
    for section, keys in SCHEMA.items():
        values = json_value(resolved, section, where, is_object, "an object",
                            "resolved_config")
        for key, (convert, _) in keys.items():
            json_value(values, key, where, *_VALUE_TYPES[convert],
                       f"resolved_config.{section}")
    for section, values in resolved.items():
        # `_check_key` refuses an unknown section before it reads the key.
        for key in values if section in SCHEMA else [""]:
            _check_key(section, key, where, DataFormatError)


def build_stage(section: str, cls, **values):
    """`cls(**values)`; its ValueError is raised again prefixed `[section] `."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"[{section}] {exc}") from exc


def check_ranges(resolved: dict) -> None:
    """Raise a ValueError naming the section of the first value in
    `resolved` out of its stage's range; every STAGES dataclass is built."""
    for section, cls in STAGES.items():
        build_stage(section, cls, **resolved[section])


def resolve_delta_seconds(resolved: dict, method: str) -> float:
    """Fill in the method-dependent delta default; explicit values win. A
    ValueError from `training.check_method` for an unknown method."""
    value = resolved["sampler"]["delta_seconds"]
    if value is not None:
        return float(value)
    check_method(method)
    return PRETRAIN_METHODS[method][1]
