"""Frozen run specs built from parsed JSON, every key and value checked."""

from __future__ import annotations

import dataclasses
import types
import typing

from .errors import ValidationError


def from_json(cls, data, where):
    """cls(**data) for a JSON object data of cls's fields, each value of its
    field's annotated type: int (not bool), float (an int is stored as a
    float), str, dict, tuple[T, ...] given as a list of T, or T | None. A
    missing field without a default, an unknown key or a value of another type
    raises ValidationError naming where and the key."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object, got {data!r}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")
    missing = [f.name for f in dataclasses.fields(cls)
               if f.init and f.name not in data
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValidationError(f"{where}: missing keys {missing}")
    values = {}
    for key, value in data.items():
        tp = hints[key]
        try:
            values[key] = _typed(tp, value)
        except TypeError:
            raise ValidationError(
                f"{where}: {key} must be {_name(tp)}, got {value!r}") from None
    return cls(**values)


def _name(tp):
    if isinstance(tp, types.UnionType):
        return " or ".join(map(_name, typing.get_args(tp)))
    if typing.get_origin(tp) is tuple:
        return f"a list of {_name(typing.get_args(tp)[0])}"
    return "null" if tp is types.NoneType else tp.__name__


def _typed(tp, value):
    if isinstance(tp, types.UnionType):
        for arm in typing.get_args(tp):
            try:
                return _typed(arm, value)
            except TypeError:
                pass
        raise TypeError(tp)
    if typing.get_origin(tp) is tuple and type(value) in (list, tuple):
        return tuple(_typed(typing.get_args(tp)[0], v) for v in value)
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:
        raise TypeError(tp)
    return value
