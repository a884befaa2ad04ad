"""Frozen run specs built from parsed JSON, every key and value checked."""

from __future__ import annotations

import typing

from .errors import ValidationError


def from_json(cls, data, where):
    """cls(**data) for a JSON object data of cls's fields, each value of its
    field's annotated type: int (not bool), float (an int is stored as a
    float), str, dict, or tuple[T, ...] given as a list of T. Anything else
    raises ValidationError naming where and the key."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object, got {data!r}")
    types = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")
    values = {}
    for key, value in data.items():
        tp = types[key]
        try:
            values[key] = _typed(tp, value)
        except TypeError:
            name = (f"a list of {typing.get_args(tp)[0].__name__}"
                    if typing.get_origin(tp) else tp.__name__)
            raise ValidationError(f"{where}: {key} must be {name}, got {value!r}") from None
    return cls(**values)


def _typed(tp, value):
    if typing.get_origin(tp) is tuple and type(value) in (list, tuple):
        return tuple(_typed(typing.get_args(tp)[0], v) for v in value)
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:
        raise TypeError(tp)
    return value
