from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, List, Optional, Union

import pytest

from genqr.schema import ConfigError, build, check_fields


@dataclass(frozen=True)
class Inner:
    ratio: float = field(default=0.5, metadata={"gt": 0, "max": 1})
    tags: FrozenSet[str] = field(default_factory=frozenset)

    __post_init__ = check_fields


@dataclass(frozen=True)
class Outer:
    name: Optional[str] = None
    mode: str = field(default="a", metadata={"choices": ("a", "b")})
    count: int = field(default=0, metadata={"min": 0})
    names: List[str] = field(default_factory=list)
    inner: Inner = field(default_factory=Inner)

    __post_init__ = check_fields


def test_build_nested_sections_and_freezes_lists():
    built = build(Outer, {"name": "x", "names": ["p"], "inner": {"tags": ["t", "t"]}})
    assert built == Outer(name="x", names=["p"], inner=Inner(tags=frozenset({"t"})))
    assert isinstance(built.inner.tags, frozenset)


def test_optional_takes_none_and_float_takes_int():
    assert build(Outer, {"name": None, "inner": {"ratio": 1}}).inner.ratio == 1


@pytest.mark.parametrize("raw,message", [
    ({"inner": {"ratio": 0}}, "inner.ratio must be in (0, 1], got 0"),
    ({"count": -1}, "count must be in [0, inf), got -1"),
    ({"inner": {"ratio": float("inf")}}, "inner.ratio must be finite, got inf"),
    ({"inner": {"tags": "t"}}, "inner.tags must be a list of str, got 't'"),
    ({"inner": {"extra": 1}}, "unknown inner keys: ['extra']"),
    ({"inner": 3}, "inner must be a mapping of Inner fields, got 3"),
    ({"mode": "c"}, "mode must be one of ('a', 'b'), got 'c'"),
    ({"names": ["p", 1]}, "names must be a list of str, got ['p', 1]"),
    ({"name": 1}, "name must be str, got 1"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_errors_name_the_key_path(raw, message):
    with pytest.raises(ConfigError) as info:
        build(Outer, raw)
    assert str(info.value) == message


@dataclass(frozen=True)
class Source:
    path: Union[str, Path, dict]
    size: int = 0

    __post_init__ = check_fields


@pytest.mark.parametrize("path", ["a.json", Path("a.json"), {"a": 1}],
                         ids=["str", "Path", "dict"])
def test_union_takes_any_of_its_types(path):
    assert build(Source, {"path": path}).path == path


@pytest.mark.parametrize("raw,message", [
    ({"path": 5}, "source.path must be str or Path or dict, got 5"),
    ({"size": 1}, "source.path is required"),
], ids=["no-arm", "missing"])
def test_union_and_required_errors_name_the_key_path(raw, message):
    with pytest.raises(ConfigError) as info:
        build(Source, raw, "source")
    assert str(info.value) == message


def test_direct_construction_is_checked():
    with pytest.raises(ConfigError, match="ratio must be in"):
        Inner(ratio=2.0)
