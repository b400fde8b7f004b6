"""Declared config fields: each field states its type and constraint once.

A spec-built config class is a frozen dataclass whose annotations give each
field's type and whose :func:`param` declarations give its constraint.  Its
``__post_init__`` calls :func:`settle`, the one function that enforces those
declarations at construction (see :mod:`repro.sim.specio` for the rule), so
a direct constructor call and a spec build fail the same way.  It also
settles each value into its canonical form: a list becomes a tuple, a
mapping given for a tuple of entries becomes its items, and the spec form
of a nested config becomes the object, through :func:`build`.  :func:`build` and :func:`to_spec` are the codec over these
declarations.  The spec aliases they consult first — preset names, profile
strings, tagged unions — are registered with :func:`alias` and
:func:`union` by the module that owns each table; the spec-only ones live in
:mod:`repro.sim.specio`, so use the codec through that module.

The annotations are strings (``from __future__ import annotations``); each
class resolves them once, the first time one of its objects is settled.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import typing
from collections.abc import Mapping
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

from .exceptions import ParameterError

__all__ = [
    "Decl",
    "Seed",
    "param",
    "settle",
    "converter",
    "alias",
    "union",
    "build",
    "build_fields",
    "to_spec",
    "fields_spec",
    "spec_fields",
]

#: A scenario or campaign seed; bytes travel as ``{"bytes": hex}``.
Seed = Union[int, str, bytes, None]

_MISSING = dataclasses.MISSING


class Decl(NamedTuple):
    """One field's constraint (see :func:`param`)."""

    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    lt: Optional[float] = None
    choices: Optional[tuple] = None
    keys: Optional[str] = None
    shorthand: bool = False
    to_float: bool = False


_PLAIN = Decl()


def param(default: object = _MISSING, *, spec: bool = True, **constraint: object):
    """A dataclass field with its constraint declared once.

    ``ge`` / ``gt`` / ``le`` / ``lt`` bound every number in the value and
    ``choices`` lists the values allowed; ``to_float`` stores an int as a
    float.  For a tuple of entries, ``keys`` names its mapping form: a key
    holds an entry's leading items, joined by the pattern's separator
    (``"tier"``, ``"tierA:tierB"``, ``"nodeA|nodeB"``), and :func:`to_spec`
    emits that mapping, so two entries with the same key are rejected;
    ``shorthand`` lets a bare name stand for the entry ``(name, name)``.
    ``spec=False`` keeps a field out of specs.
    """
    return dataclasses.field(
        default=default, metadata={"spec": Decl(**constraint) if spec else None}
    )


class Field(NamedTuple):
    """A resolved spec field: its type, constraint and converter."""

    name: str
    type: object
    decl: Decl
    default: object
    convert: Callable[[object], object]


class _WrongType(ParameterError):
    """The value is not of the declared type (a union tries its next member).

    The message is formatted only when shown: a union raises and catches
    one of these for every member it skips.
    """

    def __str__(self) -> str:
        name, expected, value = self.args
        if not isinstance(expected, str):
            expected = _type_name(expected)
        return f"{name} must be {expected}, got {value!r}"


_FIELDS: Dict[type, Dict[str, Field]] = {}
#: Annotations that need no evaluation.
_SIMPLE = {"float": float, "int": int, "str": str, "bool": bool, "object": object, "tuple": tuple}


def spec_fields(cls: type) -> Dict[str, Field]:
    """``cls``'s spec fields by name, resolved on first use."""
    fields = _FIELDS.get(cls)
    if fields is None:
        fields = _FIELDS[cls] = {}
        for f in dataclasses.fields(cls):
            decl = f.metadata.get("spec", _PLAIN)
            if decl is None or not f.init:
                continue
            # Evaluated where the field is declared (a subclass may live elsewhere).
            owner = next(k for k in cls.__mro__ if f.name in vars(k).get("__annotations__", {}))
            tp = f.type if not isinstance(f.type, str) else _SIMPLE.get(f.type) or eval(
                f.type, vars(sys.modules[owner.__module__])
            )
            fields[f.name] = Field(f.name, tp, decl, f.default, converter(tp, f.name, decl))
    return fields


def settle(obj: object) -> None:
    """Enforce ``obj``'s field declarations and settle each value's form.

    The one construction-time check: every spec-built class calls it first
    thing in ``__post_init__``; cross-field checks follow it as code.
    """
    for field in spec_fields(type(obj)).values():
        value = getattr(obj, field.name)
        settled = field.convert(value)
        if settled is not value:
            object.__setattr__(obj, field.name, settled)


# ---------------------------------------------------------------- converters
def _type_name(tp: object) -> str:
    if typing.get_origin(tp) is Union:
        return " or ".join(_type_name(arg) for arg in typing.get_args(tp))
    return "None" if tp is type(None) else getattr(tp, "__name__", str(tp))


def _separator(keys: str) -> str:
    return next((char for char in keys if char in ":|"), "")


def _key_parts(key: object, keys: Optional[str]) -> list:
    """The leading entry items a mapping key holds (``[]`` if not a string)."""
    if not isinstance(key, str):
        return []
    separator = _separator(keys or "")
    return key.split(separator) if separator else [key]


def converter(tp: object, name: str, decl: Decl = _PLAIN):
    """The function that checks and settles one value declared as ``tp``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union:
        return _union(args, name, decl)
    if tp is float or tp is int:
        return _number(tp, name, decl)
    if tp is str or tp is bool or tp is Mapping or origin is Mapping:
        return _instance(origin or tp, name, decl.choices)
    if tp is object:
        return lambda value: value
    if tp is tuple or origin is tuple:
        return _tuple(args, name, decl)
    return _config(tp, name)


def _union(args, name: str, decl: Decl):
    optional = type(None) in args
    members = [arg for arg in args if arg is not type(None)]
    options = [converter(arg, name, decl) for arg in members]
    # A value of exactly a member's JSON type goes straight to that member.
    direct = {arg: option for arg, option in zip(members, options) if arg in (int, float, str, bool, bytes)}
    union = Union[tuple(args)]

    def convert(value):
        if value is None and optional:
            return None
        option = direct.get(type(value))
        if option is not None:
            return option(value)
        for option in options:
            try:
                return option(value)
            except _WrongType:
                if len(options) == 1:
                    raise
        raise _WrongType(name, union, value)

    return convert


def _number(kind: type, name: str, decl: Decl):
    accepted = (int, float) if kind is float else int
    ge, gt, le, lt, to_float = decl.ge, decl.gt, decl.le, decl.lt, decl.to_float
    bounds = ((">=", ge), (">", gt), ("<=", le), ("<", lt))
    text = " and ".join(f"{op} {bound:g}" for op, bound in bounds if bound is not None)

    def convert(value):
        if type(value) is bool or not isinstance(value, accepted):
            raise _WrongType(name, kind, value)
        if type(value) is float and not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
        if (
            (ge is not None and not value >= ge)
            or (gt is not None and not value > gt)
            or (le is not None and not value <= le)
            or (lt is not None and not value < lt)
        ):
            raise ParameterError(f"{name} must be {text}, got {value!r}")
        return float(value) if to_float else value

    return convert


def _instance(kind: type, name: str, choices: Optional[tuple]):
    def convert(value):
        if not isinstance(value, kind):
            raise _WrongType(name, kind, value)
        if choices is not None and value not in choices:
            raise ParameterError(f"{name} must be one of {list(choices)}, got {value!r}")
        return value

    return convert


def _config(cls: type, name: str):
    def convert(value):
        if isinstance(value, cls):
            return value
        if value is None:
            raise _WrongType(name, cls, value)
        return build(cls, value)

    return convert


def _tuple(args, name: str, decl: Decl):
    if args and args[-1] is not Ellipsis:
        return _entry(args, name, decl)
    item = args[0] if args else object
    width = len(typing.get_args(item)) if typing.get_origin(item) is tuple else 0
    convert_item = converter(item, name, decl._replace(shorthand=False))
    separator = _separator(decl.keys or "")

    def convert(value):
        if isinstance(value, Mapping) and width:
            entries = []
            for key, item_value in value.items():
                parts = _key_parts(key, decl.keys)
                if len(parts) != width - 1:
                    raise ParameterError(f"{name} keys are {decl.keys!r}, got {key!r}")
                entries.append((*parts, item_value))
            value = entries
        elif isinstance(value, str) or not isinstance(value, (list, tuple)):
            raise _WrongType(name, "a list", value)
        if decl.shorthand:
            value = [(entry, entry) if isinstance(entry, str) else entry for entry in value]
        settled = tuple(convert_item(entry) for entry in value)
        if decl.keys is not None:
            keys = [separator.join(entry[:-1]) for entry in settled]
            if len(set(keys)) < len(keys):
                raise ParameterError(f"{name} names must be unique, got {keys}")
        return settled

    return convert


def _entry(args, name: str, decl: Decl):
    items = [converter(arg, name, decl) for arg in args]
    heads = _key_parts(decl.keys, decl.keys) or ["name"]
    shape = f"({', '.join(heads + ['spec'])}) {'pairs' if len(items) == 2 else 'entries'}"

    def convert(value):
        if isinstance(value, str) or not isinstance(value, (list, tuple)) or len(value) != len(items):
            raise _WrongType(f"{name} entries", shape, value)
        return tuple(convert_item(part) for convert_item, part in zip(items, value))

    return convert


# -------------------------------------------------------------------- codec
_ALIASES: Dict[type, Tuple[Optional[Callable], Optional[Callable]]] = {}


def alias(cls: type, *, decode: Optional[Callable] = None, encode: Optional[Callable] = None) -> None:
    """Register ``cls``'s spec aliases; subclasses without their own inherit them.

    ``decode(spec)`` returns the object an alias spec names, or
    ``NotImplemented`` for a plain field mapping; ``encode(obj)`` returns
    the alias spec, or ``NotImplemented`` for the field mapping.  A later
    call keeps the side it does not give.
    """
    old_decode, old_encode = _ALIASES.get(cls, (None, None))
    _ALIASES[cls] = (decode or old_decode, encode or old_encode)


def _alias(cls: type, which: int) -> Optional[Callable]:
    for klass in cls.__mro__:
        entry = _ALIASES.get(klass)
        if entry is not None:
            return entry[which]
    return None


def union(base: type, tag: str, members: Mapping[str, type], where: str) -> None:
    """Register a tagged union: the spec ``{tag: name, **fields}`` builds ``members[name]``.

    ``where`` names the tag in error messages (``"schedule.kind"``).
    """
    names = {cls: name for name, cls in members.items()}

    def decode(spec):
        if not isinstance(spec, Mapping):
            return NotImplemented
        spec = dict(spec)
        name = spec.pop(tag, None)
        if not isinstance(name, str) or name not in members:
            raise ParameterError(f"{where} must be one of {sorted(members)}, got {name!r}")
        return build(members[name], spec)

    def encode(obj):
        if type(obj) not in names:
            raise ParameterError(f"{type(obj).__name__} is not spec-serializable")
        return {tag: names[type(obj)], **fields_spec(obj)}

    alias(base, decode=decode, encode=encode)
    for cls in members.values():
        alias(cls, encode=encode)


def _label(cls: type) -> str:
    name = cls.__name__
    for suffix in ("Config", "Spec"):
        if name.endswith(suffix) and name != suffix:
            name = name[: -len(suffix)]
    return "".join(f" {c.lower()}" if c.isupper() else c for c in name).strip()


def build(cls: type, spec: object):
    """The ``cls`` object ``spec`` describes (``None`` passes through).

    Aliases come first; anything else must be a mapping of ``cls``'s
    declared fields (see :func:`build_fields`).
    """
    if spec is None or isinstance(spec, cls):
        return spec
    decode = _alias(cls, 0)
    if decode is not None:
        built = decode(spec)
        if built is not NotImplemented:
            return built
    return build_fields(cls, spec)


def build_fields(cls: type, spec: object):
    """Build ``cls`` from a mapping of its declared fields."""
    if not isinstance(spec, Mapping) or not hasattr(cls, "__dataclass_fields__"):
        raise _WrongType(f"a {_label(cls)} spec", "a mapping", spec)
    fields = spec_fields(cls)
    unknown = spec.keys() - fields.keys()
    if unknown:
        raise ParameterError(f"unknown {_label(cls)} spec keys: {sorted(map(str, unknown))}")
    missing = [name for name, f in fields.items() if f.default is _MISSING and name not in spec]
    if missing:
        raise ParameterError(f"a {_label(cls)} spec needs {missing}")
    return cls(**spec)


def to_spec(obj: object):
    """The spec of ``obj``: the JSON-able form :func:`build` turns back into it."""
    if obj is None:
        return None
    encode = _alias(type(obj), 1)
    if encode is not None:
        spec = encode(obj)
        if spec is not NotImplemented:
            return spec
    return fields_spec(obj)


def fields_spec(obj: object, *, sparse: bool = False, keep: Tuple[str, ...] = ()) -> Dict[str, object]:
    """``obj``'s declared fields as a spec mapping.

    ``sparse`` leaves out the fields at their default, except those in ``keep``.
    """
    if not dataclasses.is_dataclass(obj):
        raise ParameterError(f"{type(obj).__name__} is not spec-serializable")
    spec: Dict[str, object] = {}
    for field in spec_fields(type(obj)).values():
        value = getattr(obj, field.name)
        if sparse and field.name not in keep and field.default is not _MISSING and value == field.default:
            continue
        spec[field.name] = _encode(value, field.decl.keys)
    return spec


def _encode(value: object, keys: Optional[str] = None) -> object:
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, Mapping):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        if keys is not None:
            separator = _separator(keys)
            return {separator.join(entry[:-1]): _encode(entry[-1]) for entry in value}
        return [_encode(item) for item in value]
    return to_spec(value)
