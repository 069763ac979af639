"""The value classes, and indices, successors and checked fields of
their instances.

``value`` makes a class a frozen dataclass without generating its
methods. ``dataclasses`` records its fields, so ``fields``, ``replace``,
``is_dataclass`` and ``__match_args__`` work as on any dataclass; each
class gets one compiled ``__init__``, the frozen dataclass's body, and
shares this module's ``__eq__``, ``__hash__``, ``__repr__``,
``__setattr__`` and ``__delattr__``, which read the field names the
decorator stores on the class. A field outside ``__init__``, a
keyword-only field and an ``InitVar`` are refused, as the compiled
``__init__`` would not make them as the stdlib does.

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

from collections.abc import Iterable
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum
from inspect import get_annotations
from operator import attrgetter
from reprlib import recursive_repr
from typing import Any


class _Factory:
    """The default of a parameter whose field has a ``default_factory``."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def value(cls: type) -> type:
    """Make ``cls`` a frozen dataclass, as ``@dataclass(frozen=True)``
    would; a method the class defines itself is kept. A field outside
    ``__init__`` or keyword-only, and an ``InitVar``, are refused."""
    dataclass(init=False, repr=False, eq=False)(cls)
    rows = fields(cls)
    names = [f.name for f in rows]
    refused = [f.name for f in rows if not f.init or f.kw_only] + [
        name for name, kind in get_annotations(cls).items()
        if name not in names and "InitVar" in str(kind)]
    if refused:
        raise TypeError(f"value {cls.__qualname__}: unsupported fields {refused}")
    cls.__value_fields__ = tuple(names)
    cls.__value_repr__ = tuple(f.name for f in rows if f.repr)
    cls.__value_compare__ = _getter([f.name for f in rows if f.compare])
    cls.__value_hash__ = _getter([f.name for f in rows if (
        f.compare if f.hash is None else f.hash)])
    own = vars(cls)
    if own.get("__hash__", MISSING) is None and "__eq__" in own:
        del cls.__hash__
    for name, method in (("__init__", _init(cls, rows)), ("__repr__", _repr),
                         ("__eq__", _eq), ("__hash__", _hash),
                         ("__setattr__", _setattr), ("__delattr__", _delattr)):
        if name not in own:
            setattr(cls, name, method)
    return cls


def _init(cls: type, rows: tuple) -> Any:
    """The frozen dataclass's ``__init__`` of ``cls``: each field set
    with ``object.__setattr__``, then ``__post_init__``. Writing through
    the instance dict instead would make every attribute read slower."""
    space = {"__name__": cls.__module__, "__set": object.__setattr__,
             "__factory": _FACTORY}
    params, body = ["self"], []
    for f in rows:
        given = f.name
        if f.default is not MISSING:
            space[f"__default_{f.name}"] = f.default
            params.append(f"{f.name}=__default_{f.name}")
        elif f.default_factory is not MISSING:
            space[f"__make_{f.name}"] = f.default_factory
            params.append(f"{f.name}=__factory")
            given = f"__make_{f.name}() if {f.name} is __factory else {f.name}"
        else:
            params.append(f.name)
        body.append(f"__set(self, {f.name!r}, {given})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n " + "\n ".join(body), space)
    init = space["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in rows}, "return": None}
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
                      for name in self.__value_repr__])
    return f"{self.__class__.__qualname__}({text})"


def _setattr(self: Any, name: str, new: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


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
