"""One validator for every config section.

A config dataclass states each rule on its field: the annotation gives the
type (a `Union` takes any of its types), and `field(metadata={...})` the
bounds `min`, `max`, `gt` (exclusive) and `choices`. `check_fields` is the
class's `__post_init__`; `build` makes one from a config mapping.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields, is_dataclass
from functools import lru_cache
from typing import Iterable, Tuple, Union, get_args, get_origin, get_type_hints

_hints = lru_cache(maxsize=None)(get_type_hints)


class ConfigError(ValueError):
    pass


def unique_keys(pairs: Iterable[Tuple[str, object]]) -> dict:
    """A mapping of `pairs`, such as json's `object_pairs_hook` passes; a key
    given twice is a ConfigError."""
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise ConfigError(f"key {key!r} given twice")
        mapping[key] = value
    return mapping


def check_value(name: str, tp, value, meta) -> None:
    """Check one value against a field's type and metadata."""
    def fail(kind: str):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")

    if get_origin(tp) in (list, frozenset):
        if not (isinstance(value, (list, tuple, set, frozenset))
                and all(isinstance(item, str) for item in value)):
            fail("a list of str")
    elif is_dataclass(tp):
        if not isinstance(value, tp):
            fail(f"a mapping of {tp.__name__} fields")
    # bool is an int subclass; a float field also takes an int; a Union, any of its arms
    elif not (isinstance(value, (int, float) if tp is float else get_args(tp) or tp)
              and (tp is bool or not isinstance(value, bool))):
        fail(" or ".join(arm.__name__ for arm in get_args(tp) or (tp,)))
    if "choices" in meta and value not in meta["choices"]:
        fail(f"one of {meta['choices']}")
    low, gt, high = meta.get("min"), meta.get("gt"), meta.get("max")
    if low is None and gt is None and high is None:
        return
    if not math.isfinite(value):
        fail("finite")
    if ((low is not None and value < low) or (gt is not None and value <= gt)
            or (high is not None and value > high)):
        lower = f"({gt}" if gt is not None else f"[{low}" if low is not None else "(-inf"
        fail(f"in {lower}, {'inf)' if high is None else f'{high}]'}")


def check_fields(obj) -> None:
    """Check every field of dataclass `obj` against its annotation and metadata."""
    hints = _hints(type(obj))
    for f in fields(obj):
        value, tp = getattr(obj, f.name), hints[f.name]
        if get_origin(tp) is Union and type(None) in get_args(tp):  # Optional[X]
            if value is None:
                continue
            tp = get_args(tp)[0]
        check_value(f.name, tp, value, f.metadata)
        if get_origin(tp) is frozenset:
            object.__setattr__(obj, f.name, frozenset(value))


def build(cls, mapping, path: str = ""):
    """Build dataclass `cls` from a config mapping, and its dataclass fields
    from theirs; unknown keys are rejected and errors name the key path."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path or 'config'} must be a mapping, got {mapping!r}")
    unknown = set(mapping) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {path or 'config'} keys: {sorted(unknown)}")
    prefix, hints = f"{path}." if path else "", _hints(cls)
    for f in fields(cls):  # a required field has neither default nor default_factory
        if f.name not in mapping and f.default is f.default_factory is MISSING:
            raise ConfigError(f"{prefix}{f.name} is required")
    values = {key: build(hints[key], value, prefix + key)
              if is_dataclass(hints[key]) and isinstance(value, dict) else value
              for key, value in mapping.items()}
    try:
        return cls(**values)
    except ConfigError as e:
        raise ConfigError(prefix + str(e)) from e
