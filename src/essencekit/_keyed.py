"""Tuple fields of immutable values, looked up by key in constant time.

A ``KeyedTuple`` is the default of a tuple-valued field of a frozen
dataclass. Reading the field gives a plain tuple; ``get`` finds an
item by key without scanning it, and ``put`` gives the field's value
for a successor with one item added or replaced. The value's equality,
hash and repr see only the tuple.

Behind the field sits a ``Log``: an append-only list of items plus the
position of each key. Values built from one another by ``put`` share
one log and each sees the first ``n`` items of it, so adding an item to
the latest value costs O(1) and its tuple is built only when read. A
put on any other value works on a copy of that value's prefix. A log is
built from the tuple at most once per value, the first time a value
made by ``__init__`` (or ``dataclasses.replace``) is looked up.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import fields
from functools import cache
from typing import Any, Callable, Hashable


class Log:
    """Items in insertion order and the position of each item's key.

    Duplicate keys in the initial items resolve to the first occurrence,
    or to the last with ``last_wins``. ``put`` and ``prefix`` are for the
    log's owner: a builder, or ``KeyedTuple.put`` under the lock.
    """

    __slots__ = ("key", "items", "positions", "lock")

    def __init__(self, key: Callable[[Any], Hashable], items=(), *,
                 last_wins: bool = False):
        self.key = key
        self.items = list(items)
        order = range(len(self.items))
        # A later assignment in the comprehension wins.
        self.positions = {key(self.items[i]): i
                          for i in (order if last_wins else reversed(order))}
        self.lock = threading.Lock()

    def get(self, key: Hashable, n: int = sys.maxsize) -> Any:
        """The item with this key among the first n, or None."""
        pos = self.positions.get(key)
        return self.items[pos] if pos is not None and pos < n else None

    def put(self, item: Any) -> None:
        """Append item, or replace the item that has its key."""
        items = self.items
        pos = self.positions.setdefault(self.key(item), len(items))
        if pos == len(items):
            items.append(item)
        else:
            items[pos] = item

    def prefix(self, n: int) -> Log:
        """A new log holding the first n items."""
        log = Log(self.key)
        log.items = self.items[:n]
        log.positions = self.positions.copy()
        # Items past n were appended with keys new to the first n.
        for item in self.items[n:]:
            del log.positions[self.key(item)]
        return log


class _Slice:
    """What one value stores for a keyed field: the first n items of a log."""

    __slots__ = ("log", "n", "items")

    def __init__(self, log: Log | None, n: int, items: tuple | None = None):
        self.log = log
        self.n = n
        self.items = items

    def tuple(self) -> tuple:
        if self.items is None:
            self.items = tuple(self.log.items[:self.n])
        return self.items

    def __reduce__(self):
        # Pickle and copy the tuple, not the shared log and its lock.
        return (_Slice, (None, self.n, self.tuple()))


class KeyedTuple:
    """Data descriptor for a tuple field whose items have a key.

    Assign it as the field's default in a frozen dataclass. ``__init__``
    accepts a tuple (any iterable), a ``Log`` that the new value takes
    over, or what ``put`` returned.
    """

    def __init__(self, key: Callable[[Any], Hashable], *,
                 last_wins: bool = False):
        self.key = key
        self.last_wins = last_wins

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: type | None = None) -> tuple:
        if obj is None:
            return ()  # the dataclass reads this as the field's default
        return obj.__dict__[self.name].tuple()

    def __set__(self, obj: Any, value: Any) -> None:
        if isinstance(value, Log):
            value = _Slice(value, len(value.items))
        elif not isinstance(value, _Slice):
            value = tuple(value)
            value = _Slice(None, len(value), value)
        obj.__dict__[self.name] = value

    def get(self, obj: Any, key: Hashable) -> Any:
        """The item of obj's field with this key, or None."""
        part = obj.__dict__[self.name]
        return self._log(part).get(key, part.n)

    def put(self, obj: Any, item: Any) -> _Slice:
        """The field for a successor of obj with item added or replaced."""
        part = obj.__dict__[self.name]
        log = self._log(part)
        key = self.key(item)
        with log.lock:
            if len(log.items) == part.n and key not in log.positions:
                log.put(item)
                return _Slice(log, part.n + 1)
            log = log.prefix(part.n)
        log.put(item)
        return _Slice(log, len(log.items))

    def _log(self, part: _Slice) -> Log:
        if part.log is None:
            part.log = Log(self.key, part.items, last_wins=self.last_wins)
        return part.log


def evolve(value: Any, **changes: Any) -> Any:
    """``dataclasses.replace`` that passes keyed fields on without
    building their tuples; a keyed change is what ``put`` returned."""
    state = value.__dict__
    for name in _field_names(type(value)):
        changes.setdefault(name, state[name])
    return type(value)(**changes)


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))
