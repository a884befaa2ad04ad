"""JSON object files and the frozen run specs built from them, all checked."""

from __future__ import annotations

import dataclasses
import json
import typing

from .errors import ValidationError


def read_object(path, what):
    """The JSON object in the file at path. A file that cannot be read, is not
    JSON or holds another value raises ValidationError naming what and path."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ValidationError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object, got {data!r}")
    return data


def from_json(cls, data, where):
    """cls(**data) for a dict data of cls's fields (a read_object result or a
    dict-typed field of one), each value of its field's annotated type: int
    (not bool), float (an int is stored as a float), str, dict, or
    tuple[T, ...] given as a list of T. A missing field without a default, an
    unknown key or a value of another type raises ValidationError naming
    where and the key."""
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
    if typing.get_origin(tp) is tuple:
        return f"a list of {_name(typing.get_args(tp)[0])}"
    return tp.__name__


def _typed(tp, value):
    if typing.get_origin(tp) is tuple and type(value) in (list, tuple):
        return tuple(_typed(typing.get_args(tp)[0], v) for v in value)
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:
        raise TypeError(tp)
    return value
