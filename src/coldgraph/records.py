"""One JSON codec for the package's frozen config and spec dataclasses.

:class:`Record` derives ``to_dict``, ``from_dict`` and ``from_json_file``
from a dataclass's field annotations: nested records, ``tuple[X, ...]``,
``Optional[X]``, ``int`` (never a bool), ``float`` (an int is valid),
``str`` and ``Any`` (any JSON value, kept as it is).  Decoding raises
``ValueError`` naming the offending value's path, such as
``ExperimentConfig.model.epochs``; range rules stay in each class's
``__post_init__``.  Each class's schema is resolved once and cached.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from pathlib import Path

__all__ = ["Record"]

# scalar field type -> (exact value types accepted, so no bools; expectation)
_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
            str: ((str,), "a string")}


def _path(where: str, key) -> str:
    return f"{where}[{key}]" if type(key) is int else f"{where}.{key}"


def _reject(path: str, want: str, value) -> typing.NoReturn:
    raise ValueError(f"{path}: expected {want}, got {json.dumps(value, default=repr)[:60]}")


def _decoder(tp):
    """``decode(value, where, key)`` for one field type; ``where`` is the path
    of the record or array holding ``value`` at ``key``."""
    if tp is typing.Any:
        return lambda v, where, key: v
    if tp in _SCALARS:
        types, want = _SCALARS[tp]
        return lambda v, where, key: v if type(v) in types else _reject(_path(where, key), want, v)
    if isinstance(tp, type) and issubclass(tp, Record):
        return lambda v, where, key: tp._decode(v, _path(where, key))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and args[1:] == (type(None),):  # Optional[X]
        inner = _decoder(args[0])
        return lambda v, where, key: None if v is None else inner(v, where, key)
    if origin is tuple and args[1:] == (Ellipsis,):  # tuple[X, ...]
        item = _decoder(args[0])

        def array(value, where, key):
            here = _path(where, key)
            if type(value) is not list:
                _reject(here, "an array", value)
            return tuple([item(v, here, i) for i, v in enumerate(value)])
        return array
    raise TypeError(f"no JSON decoder for field type {tp!r}")


@functools.cache
def _schema(cls) -> tuple:
    """(field name -> decoder, names of the fields without a default)."""
    hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
    required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}
    return {f.name: _decoder(hints[f.name]) for f in fields}, frozenset(required)


def _encode(value):
    if isinstance(value, Record):
        return value.to_dict()
    return [_encode(v) for v in value] if isinstance(value, tuple) else value


class Record:
    """Mixin for a dataclass whose dict form is its fields, by name."""

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d):
        return cls._decode(d, cls.__name__)

    @classmethod
    def from_json_file(cls, path):
        try:
            blob = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(blob)

    @classmethod
    def _decode(cls, d, where: str):
        if type(d) is not dict:
            _reject(where, "an object", d)
        decoders, required = _schema(cls)
        for key in d:
            if key not in decoders:
                raise ValueError(f"{where}: unknown key {key!r}")
        missing = required.difference(d)
        if missing:
            raise ValueError(f"{where}: missing key {min(missing)!r}")
        kw = {key: decoders[key](value, where, key) for key, value in d.items()}
        try:
            return cls(**kw)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
