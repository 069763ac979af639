"""``_value.value`` against the stdlib: each class here is declared twice,
once with ``@value`` and once, as ``Std<name>``, with
``@dataclass(frozen=True)``, and every pair must behave alike: repr,
equality, hash, frozen fields, argument errors, signature, fields,
``replace``, copies and pickles. The fields ``value`` does not make as
the stdlib does are refused when the class is made.

Runs under pytest, or as a plain script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_value.py
"""

from __future__ import annotations

import copy
import inspect
import pickle
from dataclasses import (KW_ONLY, FrozenInstanceError, InitVar, dataclass, field,
                         fields, replace)

from essencekit._value import value


@value
class Point:
    """Defaults, a default factory and a normalising ``__post_init__``."""

    x: int
    y: int = 0
    tags: tuple[str, ...] = field(default_factory=tuple)

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
    notes: dict = field(default_factory=dict, hash=False)


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


def test_fields_value_does_not_make_are_refused():
    def unsupported(body):
        exec("@value\nclass Odd:\n    \"\"\"Odd.\"\"\"\n\n    x: int\n" + body,
             globals(), {})
    for body in ("    y: int = field(default=0, init=False)\n",
                 "    y: int = field(default=0, kw_only=True)\n",
                 "    _: KW_ONLY\n    y: int = 0\n",
                 "    y: InitVar[int] = 0\n"):
        got = error(lambda: unsupported(body))
        assert got == (TypeError, "value Odd: unsupported fields ['y']"), body
    unsupported("    _: KW_ONLY\n")


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


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
