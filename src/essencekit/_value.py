"""The value classes, and indices, successors and checked fields of
their instances.

``value`` makes a class a frozen dataclass without ``dataclasses``. It
records each field from the class's annotations and attributes, gives
the class one compiled ``__init__``, the frozen dataclass's body, and
shares this module's ``__eq__``, ``__hash__``, ``__repr__``,
``__setattr__`` and ``__delattr__``, which read the field names it
stores on the class. ``__dataclass_fields__`` and
``__dataclass_params__`` are made on first read, by ``dataclass`` on a
copy of the class body, so ``fields``, ``replace``, ``is_dataclass``
and ``asdict`` work as on any dataclass, while importing the library
loads neither ``dataclasses`` nor ``inspect``. Only plain fields are
taken, each with a default, this module's ``field`` or neither: a
dataclass base, a ``ClassVar``, an ``InitVar``, a field after
``KW_ONLY`` and a ``dataclasses.field`` are refused, as the compiled
``__init__`` would not make them as the stdlib does. ``remade`` makes a
value's successor with its constructor, as ``dataclasses.replace``
does.

Every container builds its indices when it is made. A kernel builds its
name indices in ``__post_init__``; an assessment or a description model
feeds its entries through its load builder, which checks each entry as
a file's entry is checked and fills every index. So a container holds
only what a project file holds, and every index is keyed by text.
Lookups by name or id go through ``find``, as a caller's key may not be
hashable. The load builders fill their indices a list at a time
through ``add_new``.
An operation builds the successor's changed fields and an updated copy
of each changed field's index, and ``derive`` lays them over the
parent's instance dict, so the indices of the unchanged fields carry
over. Pickles and copies call the constructor on the fields
(``by_fields``), which builds the indices again.
"""

from __future__ import annotations

import sys
from _thread import allocate_lock
from collections.abc import Iterable
from enum import Enum
from operator import attrgetter
from reprlib import recursive_repr
from typing import Any

_MISSING = object()  # no default and no factory, as ``dataclasses.MISSING``


class _Factory:
    """The default of a parameter whose field has a ``default_factory``."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


class field:
    """A field's default factory, and whether the hash shows it, as
    ``dataclasses.field`` takes them; a plain default is the class
    attribute itself."""

    __slots__ = ("default_factory", "hash")

    def __init__(self, *, default_factory: Any = _MISSING,
                 hash: bool | None = None) -> None:
        self.default_factory, self.hash = default_factory, hash


_PLAIN = field()  # the spec of a field given by a default or by nothing


def value(cls: type) -> type:
    """Make ``cls`` a frozen dataclass, as ``@dataclass(frozen=True)``
    would; a method the class defines itself is kept. A dataclass base,
    and a field that is not plain, are refused."""
    rows, given = _fields(cls)
    own = vars(cls)
    for name in given:  # a field has no default: dataclass deletes the attribute
        delattr(cls, name)
    names = tuple(name for name, _, _, _ in rows)
    cls.__value_fields__ = names
    cls.__value_compare__ = _getter(list(names))
    cls.__value_hash__ = _getter([name for name, _, _, spec in rows
                                  if spec.hash is not False])
    if "__match_args__" not in own:
        cls.__match_args__ = names
    for name in ("__dataclass_fields__", "__dataclass_params__"):
        setattr(cls, name, _Deferred(cls, name, given))
    if own.get("__hash__", _MISSING) is None and "__eq__" in own:
        del cls.__hash__
    methods = [("__init__", _init(cls, rows)), ("__repr__", _repr),
               ("__eq__", _eq), ("__hash__", _hash),
               ("__setattr__", _setattr), ("__delattr__", _delattr)]
    if sys.version_info >= (3, 13):  # dataclass adds it for copy.replace
        methods.append(("__replace__", remade))
    for name, method in methods:
        if name not in own:
            setattr(cls, name, method)
    return cls


def _fields(cls: type) -> tuple[list, dict]:
    """The fields of ``cls``, each ``(name, annotation, default, field)``,
    and the class attributes that are fields, by name; refused as
    ``value`` says, and as ``dataclass`` would refuse them."""
    for base in cls.__mro__[1:]:
        if "__dataclass_fields__" in vars(base):
            raise TypeError(f"value {cls.__qualname__}: base "
                            f"{base.__qualname__} is a dataclass")
    own = vars(cls)
    annotations = own.get("__annotations__", {})
    # A class body can only hold a stdlib field once it imported dataclasses.
    std = sys.modules.get("dataclasses")
    given = {}
    for name, attr in own.items():
        if std is not None and isinstance(attr, std.Field):
            raise TypeError(f"value {cls.__qualname__}: {name!r} is a "
                            "stdlib field: use _value.field")
        if attr.__class__ is field:
            if name not in annotations:
                raise TypeError(f"{name!r} is a field but has no type annotation")
            given[name] = attr
    rows, refused, keyword = [], [], False
    for name, kind in annotations.items():
        text = str(kind)
        if "KW_ONLY" in text:
            keyword = True
            continue
        default = own.get(name, _MISSING)
        if keyword or "InitVar" in text or "ClassVar" in text:
            refused.append(name)
        elif name in given:
            rows.append((name, kind, _MISSING, given[name]))
        elif default.__class__.__hash__ is None:
            raise ValueError(f"mutable default {type(default)} for field "
                             f"{name} is not allowed: use default_factory")
        else:
            rows.append((name, kind, default, _PLAIN))
    if refused:
        raise TypeError(f"value {cls.__qualname__}: unsupported fields {refused}")
    return rows, given


_RECORDING = allocate_lock()


class _Deferred:
    """The ``dataclasses`` attribute ``name`` of the value class ``cls``
    until one of them is first read: then ``_record`` sets both, under a
    lock, so that concurrent first reads get the same ones."""

    def __init__(self, cls: type, name: str, given: dict) -> None:
        self.cls, self.name, self.given = cls, name, given

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        with _RECORDING:
            if vars(self.cls)[self.name] is self:
                _record(self.cls, self.given)
        return vars(self.cls)[self.name]


def _record(cls: type, given: dict) -> None:
    """Set ``__dataclass_fields__`` and ``__dataclass_params__`` on ``cls``
    as ``@dataclass(frozen=True)`` sets them. They are made on a copy of
    the body that ``value`` found: its annotations, its defaults and, as
    stdlib fields, the ``field``s the class gave."""
    from dataclasses import dataclass, field as std_field

    own = vars(cls)
    annotations = own.get("__annotations__", {})
    body = {name: own[name] for name in annotations if name in own}
    for name, spec in given.items():
        body[name] = std_field(**{key: got for key in field.__slots__
                                  if (got := getattr(spec, key)) is not _MISSING})
    body.update(__module__=cls.__module__, __qualname__=cls.__qualname__,
                __doc__=cls.__doc__, __annotations__=dict(annotations))
    made = dataclass(frozen=True)(type(cls.__name__, (), body))
    cls.__dataclass_params__ = made.__dataclass_params__
    cls.__dataclass_fields__ = made.__dataclass_fields__


def _init(cls: type, rows: list) -> Any:
    """The frozen dataclass's ``__init__`` of ``cls``: each field set
    with ``object.__setattr__``, then ``__post_init__``. Writing through
    the instance dict instead would make every attribute read slower."""
    space = {"__name__": cls.__module__, "__set": object.__setattr__,
             "__factory": _FACTORY}
    params, body = ["self"], []
    for name, _, default, spec in rows:
        given = name
        if default is not _MISSING:
            space[f"__default_{name}"] = default
            params.append(f"{name}=__default_{name}")
        elif spec.default_factory is not _MISSING:
            space[f"__make_{name}"] = spec.default_factory
            params.append(f"{name}=__factory")
            given = f"__make_{name}() if {name} is __factory else {name}"
        else:
            params.append(name)
        body.append(f"__set(self, {name!r}, {given})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n " + "\n ".join(body), space)
    init = space["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{name: kind for name, kind, _, _ in rows},
                            "return": None}
    return init


def _getter(names: list[str]) -> Any:
    """A value's fields ``names`` as a tuple, as the dataclass methods
    compare and hash them; one C call for two fields or more."""
    if len(names) > 1:
        return attrgetter(*names)
    return staticmethod(lambda item: tuple([getattr(item, n) for n in names]))


def _eq(self: Any, other: Any) -> Any:
    if other.__class__ is self.__class__:
        key = self.__value_compare__
        return key(self) == key(other)
    return NotImplemented


def _hash(self: Any) -> int:
    return hash(self.__value_hash__(self))


@recursive_repr()
def _repr(self: Any) -> str:
    text = ", ".join([f"{name}={getattr(self, name)!r}"
                      for name in self.__value_fields__])
    return f"{self.__class__.__qualname__}({text})"


def _setattr(self: Any, name: str, new: Any) -> None:
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self: Any, name: str) -> None:
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def remade(value: Any, /, **changes: Any) -> Any:
    """A value of ``value``'s class with its fields and ``changes``, made
    by the constructor, which checks them as ``dataclasses.replace``'s
    call would; the class's ``__replace__`` on Python 3.13 and later."""
    return type(value)(**{**{name: getattr(value, name)
                             for name in value.__value_fields__}, **changes})


def find(index: dict, key: Any) -> Any:
    """The item ``index`` holds for ``key``, or None: a key that cannot
    be hashed, such as a list, names nothing."""
    try:
        return index.get(key)
    except TypeError:
        return None


def add_new(index: dict, items: list, key: str) -> bool:
    """Add each of ``items`` to ``index`` under its ``key``, if no two
    share one and ``index`` holds none of them; else False, ``index``
    untouched."""
    keys = list(map(attrgetter(key), items))
    if len(set(keys)) < len(keys) or not index.keys().isdisjoint(keys):
        return False
    index.update(zip(keys, items))
    return True


def derive(value: Any, **changes: Any) -> Any:
    """A copy of a frozen dataclass value with these fields and indices
    replaced; ``__init__`` does not run, so nothing is rebuilt."""
    successor = object.__new__(type(value))
    successor.__dict__.update(value.__dict__, **changes)
    return successor


def by_fields(value: Any) -> tuple:
    """``__reduce__`` of a container: pickled and copied as the call of its
    class on its fields, so the copy builds its indices again."""
    held = vars(value)
    return type(value), tuple([held[name] for name in value.__value_fields__])


def member(value: Any, enum: type[Enum], error: type, what: str) -> Enum:
    """``value`` as a member of ``enum``: a member as it is, a member's
    value as that member; anything else is ``error`` BAD_ENUM."""
    if value.__class__ is enum:
        return value
    try:
        return enum(value)
    except ValueError:
        names = ", ".join(m.value for m in enum)
        raise error("BAD_ENUM", f"{what} {value!r} is not one of {names}") from None


def unsupported(error: type, what: str, kind: str, value: Any,
                path: str | None = None) -> Exception:
    """``error`` UNSUPPORTED_VALUE at ``path``: ``what`` must be ``kind``,
    as a project file holds it, and ``value`` is not."""
    return error("UNSUPPORTED_VALUE",
                 f"{what} must be {kind}, not {type(value).__name__}", path=path)


def noun(kind: type) -> str:
    """How a refusal names a value of class ``kind``."""
    if kind is str:
        return "text"
    name = kind.__name__
    return f"{'an' if name[0] in 'aeiouAEIOU' else 'a'} {name}"


def tuple_fields(value: Any, error: type, *rows: tuple[str, type, str]) -> None:
    """Make each ``(field, item class, item name)`` field of the frozen
    dataclass ``value`` a tuple of such items: ``error``
    UNSUPPORTED_VALUE when it cannot be iterated or, at ``field[i]``,
    holds another."""
    for name, item, what in rows:
        items = getattr(value, name)
        if not isinstance(items, Iterable):
            plural = "texts" if item is str else f"{item.__name__}s"
            raise unsupported(error, name, f"a sequence of {plural}", items)
        items = tuple(items)
        if not {item}.issuperset(map(type, items)):
            for i, x in enumerate(items):
                if not isinstance(x, item):
                    raise unsupported(error, what, noun(item), x, f"{name}[{i}]")
        object.__setattr__(value, name, items)
