"""Indices, successors and checked fields of immutable values.

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
from dataclasses import fields
from enum import Enum
from operator import attrgetter
from typing import Any


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
    return type(value), tuple(value.__dict__[f.name] for f in fields(value))


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
