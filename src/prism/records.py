"""JSON records: dataclasses whose dict form and input checks derive from
their fields.

A record's dataclass is the only place its field names are listed.
:meth:`Record.to_dict` and :meth:`Record.from_dict` walk
``dataclasses.fields``, and :func:`field_value` decides from a field's type
what a JSON value may become: bools are not numbers, floats must be finite
and ints must fit in int64, so a value that numpy or a later JSON reader
cannot take is rejected where it is read.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import MISSING, fields
from functools import cache
from typing import Union, get_args, get_origin, get_type_hints

from .errors import ValidationError

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and _INT64_MIN <= value <= _INT64_MAX


def _is_float(value) -> bool:
    return (isinstance(value, float) and math.isfinite(value)) or _is_int(value)


# The test an element of a number array must pass, so a long array is
# checked in one loop without dispatching on its element type per item.
_NUMBER_TESTS = {float: _is_float, int: _is_int}


def field_value(kind, value):
    """``value`` as a field of type ``kind`` holds it; ValueError if it may not.

    ``kind`` is ``str``, ``bool``, ``int``, ``float``, ``dict`` (any JSON
    object), ``Optional[X]``, ``tuple[X, ...]``, ``list[X]``,
    ``Mapping[str, X]`` or a :class:`Record` class. Bools are not numbers,
    an int must fit in int64, a float must be finite and a ``float`` field
    also takes an int. An array becomes the field's tuple or list and a JSON
    object its record."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:  # Optional[X]
        return None if value is None else field_value(args[0], value)
    if origin in (tuple, list):
        if isinstance(value, (tuple, list)):
            test = _NUMBER_TESTS.get(args[0])
            if test is None:
                return origin(field_value(args[0], item) for item in value)
            if all(map(test, value)):
                return origin(value)
            raise ValueError(f"not a {args[0]}")
    elif origin is Mapping:
        if isinstance(value, dict) and all(isinstance(key, str) for key in value):
            return {key: field_value(args[1], item) for key, item in value.items()}
    elif issubclass(kind, Record) and isinstance(value, dict):
        return kind.from_dict(value)
    elif kind in _NUMBER_TESTS:
        if _NUMBER_TESTS[kind](value):
            return value
    elif isinstance(value, kind):
        return value
    raise ValueError(f"not a {kind}")


@cache
def field_names(cls) -> tuple[str, ...]:
    """The field names of a record class, in order."""
    return tuple(f.name for f in fields(cls))


@cache
def _kinds(cls) -> dict:
    """Each field's resolved type and annotation text."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.type) for f in fields(cls)}


def _json(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    return value


class Record:
    """Base of a dataclass whose fields hold JSON values."""

    def to_dict(self) -> dict:
        """The fields by name as JSON values: tuples become lists and
        nested records dicts."""
        return {name: _json(getattr(self, name)) for name in field_names(type(self))}

    @classmethod
    def from_dict(cls, doc: Mapping):
        """The record of a :meth:`to_dict` form. A field with a default may
        be left out. Raises ValidationError on a ``doc`` that is not an
        object, an unknown key, a missing key or a value its field may not
        hold."""
        if not isinstance(doc, Mapping):
            raise ValidationError(f"a {cls.__name__} must be a JSON object, got {type(doc).__name__}")
        unknown = doc.keys() - _kinds(cls).keys()
        if unknown:
            raise ValidationError(f"unknown {cls.__name__} keys: {sorted(map(str, unknown))}")
        missing = [
            f.name for f in fields(cls)
            if f.name not in doc and f.default is MISSING and f.default_factory is MISSING
        ]
        if missing:
            raise ValidationError(f"{cls.__name__} keys missing: {missing}")
        return cls(**{name: cls._field(name, value) for name, value in doc.items()})

    def check_fields(self) -> None:
        """Raise ValidationError unless every field holds a value its type
        allows, as that type: a tuple field must hold a tuple."""
        for name in _kinds(type(self)):
            self._field(name, getattr(self, name), exact=True)

    @classmethod
    def _field(cls, name: str, value, exact: bool = False):
        kind, text = _kinds(cls)[name]
        try:
            held = field_value(kind, value)
            if exact and type(held) is not type(value):
                raise ValueError(f"not a {type(held).__name__}")
        except ValueError:
            raise ValidationError(f"{cls.__name__} field {name} must be {text}, got {value!r}") from None
        return held
