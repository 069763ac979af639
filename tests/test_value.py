"""``_value.value`` against the stdlib: each class here is declared twice,
once with ``@value`` and once, as ``Std<name>``, with
``@dataclass(frozen=True)``, and every pair must behave alike: repr,
equality, hash, frozen fields, argument errors, signature, fields,
``replace``, copies and pickles. A ``@value`` class gives its fields
with ``_value.field``, its twin with the stdlib's ``field``; the fields
``value`` does not make as the stdlib does are refused when the class
is made, and so is a stdlib ``field``. The dataclass
metadata is made on first read, and that first read, through any of
the stdlib's functions, gives the twin's answer.

Runs under pytest, or as a plain script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_value.py
"""

from __future__ import annotations

import copy
import inspect
import pickle
import sys
import threading
from dataclasses import (KW_ONLY, FrozenInstanceError, InitVar, asdict, astuple,
                         dataclass, field, fields, is_dataclass, replace)
from typing import ClassVar

from essencekit._value import field as value_field
from essencekit._value import remade, value


@value
class Point:
    """Defaults, a default factory and a normalising ``__post_init__``."""

    x: int
    y: int = 0
    tags: tuple[str, ...] = value_field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(self.tags))


@dataclass(frozen=True)
class StdPoint:
    """Defaults, a default factory and a normalising ``__post_init__``."""

    x: int
    y: int = 0
    tags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(self.tags))


@value
class Entry:
    """A field compared but left out of the hash."""

    key: str
    notes: dict = value_field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class StdEntry:
    """A field compared but left out of the hash."""

    key: str
    notes: dict = field(default_factory=dict, hash=False)


@value
class Single:
    """One field, hashed and compared as a one-item tuple."""

    name: str


@dataclass(frozen=True)
class StdSingle:
    """One field, hashed and compared as a one-item tuple."""

    name: str


def _node_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self.label == other.label


def _node_hash(self):
    return hash(self.label)


def _node_repr(self):
    return f"<{self.label}: {len(self.children)}>"


@value
class Node:
    """Its own equality, hash and repr, which ``value`` keeps."""

    label: str
    children: tuple = ()

    __eq__, __hash__, __repr__ = _node_eq, _node_hash, _node_repr


@dataclass(frozen=True, eq=False)
class StdNode:
    """Its own equality, hash and repr, which ``value`` keeps."""

    label: str
    children: tuple = ()

    __eq__, __hash__, __repr__ = _node_eq, _node_hash, _node_repr


def _pair_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return (self.left, self.right) == (other.left, other.right)


@value
class Pair:
    """Its own equality but no hash: hashed by its fields, as the stdlib's."""

    left: int
    right: int = 0

    __eq__ = _pair_eq


@dataclass(frozen=True)
class StdPair:
    """Its own equality but no hash: hashed by its fields, as the stdlib's."""

    left: int
    right: int = 0

    __eq__ = _pair_eq


# Each pair, with argument lists that make values of both classes.
CASES = [
    (Point, StdPoint, [((1,), {}), ((1, 2), {}), ((1,), {"tags": ["a", "b"]}),
                       ((), {"x": 1, "y": 2, "tags": ("a", "b")}), ((2, 2), {})]),
    (Entry, StdEntry, [(("a",), {}), (("a", {"n": 1}), {}), (("a",), {"notes": {"n": 2}}),
                       (("b",), {})]),
    (Single, StdSingle, [(("a",), {}), ((), {"name": "a"}), (("b",), {})]),
    (Node, StdNode, [(("a",), {}), (("a", (1,)), {}), (("b",), {"children": (1, 2)})]),
    (Pair, StdPair, [((1,), {}), ((1, 0), {}), ((1, 2), {}), ((), {"left": 2})]),
]


def pairs():
    """Each argument list's value of each class of a pair, side by side."""
    for ours, theirs, calls in CASES:
        yield ours, theirs, [(ours(*args, **kwargs), theirs(*args, **kwargs))
                             for args, kwargs in calls]


def named(text: str) -> str:
    """Text about a stdlib twin, with the twin's class name as ours."""
    return text.replace("Std", "")


def error(call) -> tuple[type, str]:
    try:
        call()
    except Exception as exc:
        return type(exc), named(str(exc))
    raise AssertionError("no error raised")


def test_repr_is_the_dataclass_text():
    for _, _, made in pairs():
        for a, b in made:
            assert repr(a) == named(repr(b))


def test_a_value_that_holds_itself_has_the_recursive_repr():
    a, b = Point(1), StdPoint(1)
    object.__setattr__(a, "y", a)
    object.__setattr__(b, "y", b)
    assert repr(a) == named(repr(b)) == "Point(x=1, y=..., tags=())"


def test_equality_and_hash_agree_with_the_stdlib():
    for _, _, made in pairs():
        for a, b in made:
            for c, d in made:
                assert (a == c) is (b == d)
                assert (a != c) is (b != d)
                if a == c:
                    assert hash(a) == hash(c)
            assert hash(a) == hash(b)
            assert a.__eq__(b) is NotImplemented and b.__eq__(a) is NotImplemented
            assert a.__eq__(1) is b.__eq__(1) is NotImplemented
            assert (a == b) is False and (a != b) is True


def test_a_field_left_out_of_the_hash_is_ignored():
    notes = [Entry("a", {"n": 1}), Entry("a", {"n": 2}), Entry("a")]
    assert len({hash(entry) for entry in notes}) == 1
    assert notes[0] != notes[1]
    assert hash(Single("a")) == hash(("a",)) == hash(StdSingle("a"))


def test_own_methods_are_kept_and_a_bare_eq_gets_the_field_hash():
    assert Node.__eq__ is StdNode.__eq__ is _node_eq
    assert Node.__hash__ is StdNode.__hash__ is _node_hash
    assert Node.__repr__ is StdNode.__repr__ is _node_repr
    assert Pair.__eq__ is StdPair.__eq__ is _pair_eq
    assert hash(Pair(1, 2)) == hash((1, 2)) == hash(StdPair(1, 2))


def declare(decorator, body: str) -> type:
    """A class ``Odd`` with a field ``x`` and then ``body``, made by
    ``decorator``."""
    space: dict = {}
    exec("@decorator\nclass Odd:\n    \"\"\"Odd.\"\"\"\n\n    x: int\n" + body,
         {**globals(), "decorator": decorator}, space)
    return space["Odd"]


def test_fields_value_does_not_make_are_refused():
    for body in ("    _: KW_ONLY\n    y: int = 0\n",
                 "    y: InitVar[int] = 0\n",
                 "    y: ClassVar[int] = 0\n"):
        got = error(lambda: declare(value, body))
        assert got == (TypeError, "value Odd: unsupported fields ['y']"), body
    declare(value, "    _: KW_ONLY\n")


def test_a_stdlib_field_is_refused():
    """Even one that ``value_field`` could give: it is never taken as a
    plain default."""
    for body in ("    y: int = field(default=0, init=False)\n",
                 "    y: tuple = field(default_factory=tuple)\n"):
        got = error(lambda: declare(value, body))
        assert got == (TypeError, "value Odd: 'y' is a stdlib field: "
                       "use _value.field"), body


def test_a_class_the_stdlib_refuses_is_refused_alike():
    stdlib = dataclass(frozen=True)
    for body in ("    y = value_field(default_factory=int)\n",
                 "    y: list = []\n"):
        got = error(lambda: declare(value, body))
        assert got == error(lambda: declare(stdlib, body.replace(
            "value_field", "field"))), body
        assert got[0] in (TypeError, ValueError)


def test_a_subclass_of_a_value_or_a_dataclass_is_refused():
    for base in (Point, StdPoint):
        got = error(lambda: value(type("Sub", (base,), {"__doc__": "Sub."})))
        assert got == (TypeError, "value Sub: base Point is a dataclass")


def test_fields_are_frozen_with_the_stdlib_error():
    for _, _, made in pairs():
        for a, b in made:
            for name in (fields(a)[0].name, "other"):
                assert error(lambda: setattr(a, name, 1)) == error(
                    lambda: setattr(b, name, 1))
                assert error(lambda: delattr(a, name)) == error(
                    lambda: delattr(b, name))
            assert error(lambda: setattr(a, "x", 1))[0] is FrozenInstanceError


def test_argument_errors_are_the_stdlib_type_errors():
    calls = [((), {}), ((1, 2, 3, 4), {}), ((1,), {"x": 2}), ((1,), {"z": 2}),
             ((), {"y": 2})]
    for ours, theirs, _ in CASES:
        for args, kwargs in calls:
            got = error(lambda: ours(*args, **kwargs))
            assert got == error(lambda: theirs(*args, **kwargs))
            assert got[0] is TypeError


def test_signatures_fields_and_match_args_are_the_stdlib_ones():
    for ours, theirs, _ in CASES:
        assert str(inspect.signature(ours)) == str(inspect.signature(theirs))
        assert str(inspect.signature(ours.__init__)) == str(
            inspect.signature(theirs.__init__))
        mine, stdlib = inspect.signature(ours), inspect.signature(theirs)
        assert [(p.name, p.kind, p.annotation) for p in mine.parameters.values()] == [
            (p.name, p.kind, p.annotation) for p in stdlib.parameters.values()]
        assert ours.__init__.__qualname__ == f"{ours.__qualname__}.__init__"
        assert [(f.name, f.type, f.default, f.default_factory, f.init, f.repr,
                 f.hash, f.compare) for f in fields(ours)] == [
            (f.name, f.type, f.default, f.default_factory, f.init, f.repr,
             f.hash, f.compare) for f in fields(theirs)]
        assert ours.__match_args__ == theirs.__match_args__
        assert ours.__doc__ == theirs.__doc__
        assert hasattr(ours, "__replace__") is hasattr(theirs, "__replace__")


def test_post_init_normalises_and_each_call_runs_the_factory():
    assert Point(1, tags=["a"]).tags == ("a",) == StdPoint(1, tags=["a"]).tags
    assert Entry("a").notes == {} and Entry("a").notes is not Entry("a").notes


def test_replace_copies_and_pickles_round_trip():
    for _, _, made in pairs():
        for a, b in made:
            first = fields(a)[0].name
            for again, twin in ((replace(a), replace(b)),
                                (copy.copy(a), copy.copy(b)),
                                (copy.deepcopy(a), copy.deepcopy(b)),
                                (pickle.loads(pickle.dumps(a)),
                                 pickle.loads(pickle.dumps(b)))):
                assert type(again) is type(a) and again == a
                assert repr(again) == repr(a) == named(repr(twin))
            changed = replace(a, **{first: getattr(a, first) * 2})
            assert repr(changed) == named(repr(replace(b, **{
                first: getattr(b, first) * 2})))
            assert error(lambda: replace(a, nothing=1)) == error(
                lambda: replace(b, nothing=1))


def test_remade_is_replace_through_the_constructor():
    for _, _, made in pairs():
        for a, b in made:
            first = fields(a)[0].name
            again = remade(a)
            assert type(again) is type(a) and again == a and again is not a
            assert repr(again) == named(repr(replace(b)))
            assert remade(a, **{first: getattr(a, first) * 2}) == replace(
                a, **{first: getattr(a, first) * 2})
            assert error(lambda: remade(a, nothing=1)) == error(
                lambda: replace(b, nothing=1))
    assert remade(Point(1), tags=["a"]) == Point(1, tags=("a",))


def fresh() -> type:
    """A new value class, whose dataclass metadata nothing has read yet,
    with the fields of ``StdFresh``."""

    @value
    class Fresh:
        """A field left out of the hash, a plain default and a factory."""

        key: str
        notes: dict = value_field(hash=False)
        y: int = 0
        tags: tuple = value_field(default_factory=tuple)

    assert not isinstance(vars(Fresh)["__dataclass_fields__"], dict)
    return Fresh


@dataclass(frozen=True)
class StdFresh:
    """A field left out of the hash, a plain default and a factory."""

    key: str
    notes: dict = field(hash=False)
    y: int = 0
    tags: tuple = field(default_factory=tuple)


def described(rows) -> list[tuple]:
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr,
             f.hash, f.compare, f.kw_only, f.metadata) for f in rows]


# The stdlib's ways to read a class's dataclass metadata, each given the
# class and a value of it.
FIRST_READS = {
    "fields": lambda cls, made: described(fields(cls)),
    "fields of a value": lambda cls, made: described(fields(made)),
    "replace": lambda cls, made: vars(replace(made, y=2)),
    "is_dataclass": lambda cls, made: (is_dataclass(cls), is_dataclass(made)),
    "asdict": lambda cls, made: asdict(made),
    "astuple": lambda cls, made: astuple(made),
    "params": lambda cls, made: repr(cls.__dataclass_params__),
    "match_args": lambda cls, made: cls.__match_args__,
}
if sys.version_info >= (3, 13):
    FIRST_READS["copy.replace"] = lambda cls, made: vars(copy.replace(made, y=2))


def test_the_first_read_of_the_metadata_gives_the_stdlib_answer():
    theirs = StdFresh("k", {"n": [1]}, 1, ("a",))
    for name, read in FIRST_READS.items():
        cls = fresh()
        made = cls("k", {"n": [1]}, 1, ("a",))
        assert read(cls, made) == read(StdFresh, theirs), name
        assert fields(cls)[0] is cls.__dataclass_fields__["key"]


def test_class_attributes_are_the_defaults_the_stdlib_leaves():
    """``read_entry`` takes a field's default from its class attribute."""
    cls = fresh()
    for name in ("key", "notes", "y", "tags"):
        assert hasattr(cls, name) is hasattr(StdFresh, name), name
        assert getattr(cls, name, None) == getattr(StdFresh, name, None)
    assert not isinstance(vars(cls)["__dataclass_fields__"], dict)


def test_concurrent_first_reads_make_the_metadata_once():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            cls, got = fresh(), []
            start = threading.Barrier(6)

            def read(first: str, then: str) -> None:
                start.wait(timeout=10)
                got.append((first, getattr(cls, first)))
                got.append((then, getattr(cls, then)))

            threads = [threading.Thread(target=read, args=names) for names in (
                ("__dataclass_fields__", "__dataclass_params__"),
                ("__dataclass_params__", "__dataclass_fields__")) * 3]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(got) == 12
            for name, seen in got:
                assert seen is vars(cls)[name], name
    finally:
        sys.setswitchinterval(interval)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
