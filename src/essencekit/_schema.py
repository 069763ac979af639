"""Shape checks shared by the kernel, project, breakdown tree and DCC
table readers.

Every reader takes the caller's error class, so a bad kernel document
raises ``KernelError``, a bad project ``ProjectError`` and a bad DCC
table ``DesignationError``; the code is ``SCHEMA_ERROR`` unless stated.

Paths follow one convention. The document root has no path (``None``).
A missing or unknown key names the map that should or should not hold
it; a value of the wrong type names the value itself, as
``a.b[i].key``. Paths of bad values are built only when raising, so
reading a well-formed document costs no string formatting here.

An entry class states its fields once, in its ``_FIELDS`` table: an
``(attribute, file key, kind, what)`` row per dataclass field, in field
order, ``what`` naming the field in a refusal. Its key set, readers,
writer and the operations' type checks all come from the table: the
column reader ``read_columns`` reads a whole list of instances,
records, elements or realization nodes, and ``read_entry`` any other
entry. The writer trusts the constructors, which check each entry
against the table: a kind's ``dump`` checks no type again, and refuses
only a value that fits but that no file holds.

``emit`` and ``encode`` write what ``json.dumps(doc, indent=2,
ensure_ascii=False)`` would, through ``json.dumps`` itself but for the
values in a document's maps that write themselves: ``Rows``, from its
columns, and breakdown trees, whose format only ``designation`` knows.
This module imports no library module but ``_value`` and ``errors``.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring as _quote
from operator import attrgetter

from ._value import noun, unsupported
from .errors import EssenceError

_MISSING = object()


def decode(data: bytes | str, error: type[EssenceError], what: str) -> dict:
    """The JSON map in text or bytes ``data``, else UNSUPPORTED_VALUE;
    PARSE_ERROR when it is not JSON, or nests or weighs more than the
    decoder can take."""
    if not isinstance(data, (str, bytes, bytearray)):
        raise unsupported(error, what, "text or bytes", data)
    try:
        doc = json.loads(data)
    except (ValueError, UnicodeDecodeError, RecursionError,
            MemoryError) as exc:
        raise error("PARSE_ERROR", f"invalid {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error("SCHEMA_ERROR", f"{what} must be a map")
    if _may_hold_surrogates(data):
        path = _first_path(doc, _lone_surrogate)
        if path is not _MISSING:
            raise error("SCHEMA_ERROR", _LONE_SURROGATE, path=path)
    return doc


def get(doc: dict, key: str, kind: type, path: str | None,
        error: type[EssenceError], default: object = _MISSING):
    """``doc[key]``, which must be a ``kind``; a bool is not an int."""
    if key not in doc:
        if default is _MISSING:
            raise error("SCHEMA_ERROR", f"missing key {key!r}", path=path)
        return default
    value = doc[key]
    if (isinstance(value, bool) and kind is not bool) or not isinstance(value, kind):
        raise error("SCHEMA_ERROR", f"key {key!r} must be {kind.__name__}",
                    path=_at(path, key))
    return value


def nonempty(doc: dict, key: str, path: str | None,
             error: type[EssenceError], default: object = _MISSING) -> str:
    """``doc[key]`` as text with at least one character."""
    value = get(doc, key, str, path, error, default)
    if not value:
        raise error("SCHEMA_ERROR", f"key {key!r} must be nonempty",
                    path=_at(path, key))
    return value


def entries(doc: dict, key: str, kind: type, path: str | None,
            error: type[EssenceError], default: object = _MISSING) -> list:
    """The list under ``key``; every entry must be a ``kind`` (dict or list)."""
    values = get(doc, key, list, path, error, default)
    if {kind}.issuperset(map(type, values)):  # one test for the whole list
        return values
    for i, value in enumerate(values):
        if not isinstance(value, kind):
            noun = "map" if kind is dict else "list"
            raise error("SCHEMA_ERROR", f"entry must be a {noun}",
                        path=f"{_at(path, key)}[{i}]")
    return values


def enum_of(value: str, enum_type: type, path: str | None,
            error: type[EssenceError]):
    """The member of ``enum_type`` whose value is ``value``."""
    try:
        return enum_type(value)
    except ValueError:
        raise error("SCHEMA_ERROR",
                    f"{value!r} is not a valid {enum_type.__name__}",
                    path=path) from None


def check_keys(doc: dict, allowed: frozenset[str], path: str | None,
               error: type[EssenceError]) -> None:
    """Refuse the first key of ``doc`` that ``allowed`` does not hold."""
    for key in doc:
        if key not in allowed:
            raise error("SCHEMA_ERROR", f"unknown key {key!r}", path=path)


def nested(error: type[EssenceError], path: str, op, *args):
    """``op(*args)``, its errors reported as ``error`` at ``path``.

    An error of another class becomes SCHEMA_ERROR "<code>: <message>",
    its own path, if any, appended to ``path``. An ``error`` passes
    through: the reader that raised it has already placed it.
    """
    try:
        return op(*args)
    except error:
        raise
    except EssenceError as exc:
        raise error("SCHEMA_ERROR", f"{exc.code}: {exc.message}",
                    path=_at(path, exc.path)) from exc


class Kind:
    """What an entry field holds: ``value``s, which a project file holds
    as JSON ``raw``s; with an ``empty`` code, text of one character or
    more. A bool is no other kind's value."""

    omit = False  # True: a file leaves out a key whose value is empty

    def __init__(self, value: type, raw: type | None = None,
                 empty: str | None = None) -> None:
        self.value, self.raw, self.empty = value, raw or value, empty
        # The class whose values fit, and a file holds, as they are; with
        # an ``empty`` code, those that are not empty.
        self.plain = value if raw is None else None

    def fits(self, value: object) -> bool:
        return isinstance(value, self.value) and (
            value.__class__ is not bool or self.value is bool)

    def check(self, value, what: str, error: type[EssenceError]) -> None:
        """Refuse, UNSUPPORTED_VALUE, a value that a file cannot hold."""
        if not self.fits(value):
            raise unsupported(error, what, noun(self.value), value)
        if self.empty and not value:
            raise error(self.empty, f"{what} is empty")

    def load(self, raw, path: str, key: str, error: type[EssenceError]):
        """The value that ``raw``, a ``self.raw`` at ``path.key``, holds."""
        if self.empty and not raw:
            raise error("SCHEMA_ERROR", f"key {key!r} must be nonempty",
                        path=_at(path, key))
        return raw

    def column(self, raws: list, classes: set, error: type[EssenceError]):
        """The values that ``raws``, of the ``classes``, hold, as ``load``
        makes them; None when ``load`` would not take or would refuse one.
        One class test covers the column; a kind that is not plain loads
        each raw."""
        if classes <= {self.plain} and (not self.empty or all(raws)):
            return raws
        if not classes <= {self.raw}:
            return None
        try:
            return [self.load(raw, None, None, error) for raw in raws]
        except EssenceError:
            return None

    def dump(self, values: list, path: str | None, key: str,
             error: type[EssenceError]) -> list:
        """The file values of ``values``, the field ``key`` of each entry
        of the list at ``path``. The save trusts the constructors: each
        value fits its kind, as ``check`` has made sure, so only a kind
        whose file holds fewer values than fit may refuse."""
        return values


TEXT, BOOL, INT = Kind(str), Kind(bool), Kind(int)


class Member(Kind):
    """A member of the enum ``value``, which a file holds as its value."""

    def load(self, raw, path, key, error):
        return enum_of(raw, self.value, _at(path, key), error)

    def dump(self, values, path, key, error):
        return [member.value for member in values]


class Texts(Kind):
    """A tuple of text, held as a list; ``item`` names an item in an
    operation's refusal, ``message`` words a file's non-text item."""

    def __init__(self, item: str, message: str, omit: bool = False) -> None:
        super().__init__(tuple, list)
        self.item, self.message, self.omit = item, message, omit

    def check(self, value, what, error):
        if value.__class__ is not tuple:
            super().check(value, what, error)
        for item in value:
            if not isinstance(item, str):
                raise unsupported(error, self.item, "text", item)

    def load(self, raw, path, key, error):
        for i, item in enumerate(raw):
            if item.__class__ is not str:
                raise error("SCHEMA_ERROR", self.message,
                            path=f"{_at(path, key)}[{i}]")
        return tuple(raw)

    def column(self, raws, classes, error):
        if classes <= {list} and {str}.issuperset(map(type, chain.from_iterable(raws))):
            return list(map(tuple, raws))
        return None

    def dump(self, values, path, key, error):
        return list(map(list, values))


class Entries(Kind):
    """A tuple of ``cls`` entries, which a file holds as a list of maps."""

    def __init__(self, cls: type, omit: bool = False) -> None:
        super().__init__(tuple, list)
        self.cls, self.omit = cls, omit

    def load(self, raw, path, key, error):
        at = _at(path, key)
        for i, item in enumerate(raw):
            if item.__class__ is not dict:
                raise error("SCHEMA_ERROR", "entry must be a map", path=f"{at}[{i}]")
        return tuple(read_entry(self.cls, item, f"{at}[{i}]", error)
                     for i, item in enumerate(raw))

    def dump(self, values, path, key, error):  # no kind of a nested entry refuses
        return [entry_docs(value, None, error) for value in values]


def read_entry(cls: type, item: dict, path: str, error: type[EssenceError]):
    """The ``cls`` entry that the map ``item`` at ``path`` holds."""
    values = []
    for attr, key, kind, _ in cls._FIELDS:
        raw = item.get(key, _MISSING)
        if raw.__class__ is kind.plain and (raw or not kind.empty):
            values.append(raw)
        elif raw.__class__ is kind.raw:
            values.append(kind.load(raw, path, key, error))
        elif raw is _MISSING and hasattr(cls, attr):  # a dataclass default
            values.append(getattr(cls, attr))
        else:
            get(item, key, kind.raw, path, error)  # raises the shape error
    return cls(*values)


def read_columns(cls: type, items: list[dict], error: type[EssenceError]):
    """The ``cls`` entries that the maps ``items`` hold, as ``read_entry``
    reads them, or None when it would refuse one or a key is left out:
    field by field, each field's column of raw values taken at once and
    tested by its kind. The constructor makes each entry:
    one made from an instance dict, as ``_value.derive`` makes one,
    takes more than twice the memory."""
    keys = frozenset(row[1] for row in cls._FIELDS)
    if not keys.issuperset(set().union(*items)):
        return None
    columns = []
    for _, key, kind, _ in cls._FIELDS:
        raws = list(map(dict.get, items, repeat(key), repeat(_MISSING)))
        column = kind.column(raws, set(map(type, raws)), error)
        if column is None:
            return None
        columns.append(column)
    return list(map(cls, *columns))


def entry_docs(values: tuple, path: str | None,
               error: type[EssenceError]) -> list[dict]:
    """The maps that a file holds for ``values``, the entries of one class
    of the list at ``path``; with no ``path``, one entry at the root."""
    return entry_rows(values, path, error).doc()


def entry_rows(values: tuple, path: str | None,
               error: type[EssenceError]) -> Rows:
    """``values``, the entries of one class of the list at ``path``, as
    ``Rows``: each field is dumped for all entries at once."""
    fields = values[0]._FIELDS if values else ()
    return Rows(fields, [kind.dump(list(map(attrgetter(attr), values)), path,
                                   key, error) for attr, key, kind, _ in fields])


def text_lists(lists: list) -> Rows:
    """The tuples of text ``lists``, an id list, as ``Rows``."""
    return Rows(None, [list(map(list, lists))])


class Rows:
    """A list that a file holds, dumped ahead of ``emit``: a column of
    file values per field of ``fields`` or, with no ``fields``, the
    column of its items."""

    __slots__ = ("fields", "columns")

    def __init__(self, fields: tuple | None, columns: list[list]) -> None:
        self.fields, self.columns = fields, columns

    def doc(self) -> list:
        """The list itself: its items, or a map per entry."""
        if self.fields is None:
            return self.columns[0]
        return [{key: raw for (_, key, kind, _), raw in zip(self.fields, row)
                 if raw or not kind.omit} for row in zip(*self.columns)]

    def _write_json(self, write, depth: int) -> None:
        """Write the list as ``emit`` does at ``depth``: each entry made by
        one %-template from the texts of its fields' values."""
        if self.fields is None:
            rows = _value_texts(self.columns[0], depth + 1)
        else:
            template, wraps = _template(self.fields, depth + 1)
            columns = []
            for wrap, column in zip(wraps, self.columns):
                if wrap is None:
                    columns.append(_value_texts(column, depth + 2))
                    continue
                head, tail = wrap  # an omit field: a left-out value writes nothing
                texts = iter(_value_texts(list(filter(None, column)), depth + 2))
                columns.append([head + next(texts) + tail if value else ""
                                for value in column])
            rows = map(template.__mod__, zip(*columns))
        indent = "\n" + "  " * (depth + 1)
        body = ("," + indent).join(rows)
        if body:  # written as it is, not copied into the brackets' text
            write("[" + indent)
            write(body)
            write("\n" + "  " * depth + "]")
        else:
            write("[]")


_SCALAR_TEXTS = {str: _quote, bool: {True: "true", False: "false"}.__getitem__,
                 int: int.__repr__}


def _value_texts(values: list, depth: int):
    """The text of each of ``values`` as ``emit`` writes it at ``depth``:
    one C-level step for a column of one scalar class, one join for
    each list of text or map of text to text."""
    classes = set(map(type, values))
    cls = classes.pop() if len(classes) == 1 else None
    if cls in _SCALAR_TEXTS:
        return map(_SCALAR_TEXTS[cls], values)
    newline = "\n" + "  " * depth
    sep = "," + newline + "  "
    if cls is list and {str}.issuperset(map(type, chain.from_iterable(values))):
        brackets = "[]"
        bodies = [sep.join(map(_quote, items)) for items in values]
    elif cls is dict and {str}.issuperset(map(type, chain.from_iterable(
            chain.from_iterable(map(dict.items, values))))):
        brackets = "{}"
        bodies = [sep.join(map(": ".join, zip(map(_quote, pairs),
                                               map(_quote, pairs.values()))))
                  for pairs in values]
    else:
        return [_dumps(value, depth) for value in values]
    return [f"{brackets[0]}{sep[1:]}{body}{newline}{brackets[1]}" if body
            else brackets for body in bodies]


@lru_cache(maxsize=64)
def _template(fields: tuple, depth: int) -> tuple[str, tuple]:
    """The %-template of an entry map of ``fields`` at ``depth``, and per
    field ``None`` or, for an omit field, the texts around its value: it
    writes its own separator, after it if no field that is not omit
    comes before it. A table has a field that is not omit."""
    indent = "\n" + "  " * (depth + 1)
    parts, wraps, first = ["{"], [], True
    for _, key, kind, _ in fields:
        head = indent + _quote(key) + ": "
        if kind.omit:
            parts.append("%s")
            wraps.append((head, ",") if first else ("," + head, ""))
        else:
            parts.append(("" if first else ",") + head + "%s")
            wraps.append(None)
            first = False
    return "".join(parts) + "\n" + "  " * depth + "}", tuple(wraps)


def check_fields(entry: object, cls: type, error: type[EssenceError]) -> None:
    """Refuse an ``entry`` that is no ``cls``, and each field as its kind does."""
    if entry.__class__ is not cls:
        raise unsupported(error, "entry", noun(cls), entry)
    for attr, _, kind, what in cls._FIELDS:
        value = getattr(entry, attr)
        if value.__class__ is not kind.plain or kind.empty and not value:
            kind.check(value, what, error)


def encode(value: object, error: type[EssenceError]) -> bytes:
    """``emit(value)`` as UTF-8 with a final newline: a saved document.

    Text that UTF-8 cannot hold, a lone surrogate, is UNSUPPORTED_VALUE
    at the path of the first string that holds one.
    """
    text = emit(value, error) + "\n"
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        path = _first_path(value, _lone_surrogate)
        raise error("UNSUPPORTED_VALUE", _LONE_SURROGATE,
                    path=None if path is _MISSING else path) from None


def emit(value: object, error: type[EssenceError]) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, maps walked.

    The document, or a value of one of its maps, may write itself: it
    has a ``_write_json(write, depth)`` method, as ``Rows`` has. What
    ``json.dumps`` cannot write is UNSUPPORTED_VALUE at its path, and a
    map with a key that is not text at the map's path; a value that
    writes itself may refuse, with ``_Refused``, to be written. No
    document holds itself: every caller builds fresh maps from checked
    values, so neither walk keeps a visited set.
    """
    parts: list[str] = []
    try:
        _write(value, 0, parts.append)
    except _Refused as refused:
        item, refusal = refused.args
        path = _first_path(value, lambda found: found is item)
        raise refusal(error, path) from None
    except TypeError:  # a key that the quoting or json.dumps cannot write
        path = _first_path(value, _keys_not_text)
        if path is _MISSING:
            raise
        raise error("UNSUPPORTED_VALUE", "map keys must be text", path=path) from None
    return "".join(parts)


def _keys_not_text(value: object) -> bool:
    return isinstance(value, dict) and not all(isinstance(key, str) for key in value)


class _Refused(Exception):
    """``(value, refusal)``: ``emit`` raises ``refusal(error, path of value)``."""


def _refuse(value: object):  # json.dumps's hook for what it cannot write
    raise _Refused(value, lambda error, path: error(
        "UNSUPPORTED_VALUE", f"type {type(value).__name__} cannot be saved",
        path=path))


def _dumps(value: object, depth: int) -> str:
    """``value`` as ``json.dumps`` writes it, indented to ``depth``: a
    line break left is its own, as it escapes those in text."""
    text = json.dumps(value, indent=2, ensure_ascii=False, default=_refuse)
    return text.replace("\n", "\n" + "  " * depth)


def _write(item: object, depth: int, write) -> None:
    """Write ``item`` at ``depth`` as ``emit`` does: a map walked, a
    value that writes itself by its own writer, any other by
    ``json.dumps``."""
    if isinstance(item, dict) and item:
        indent = "\n" + "  " * (depth + 1)
        sep = "{" + indent
        for key, inner in item.items():
            write(sep + _quote(key) + ": ")
            _write(inner, depth + 1, write)
            sep = "," + indent
        write("\n" + "  " * depth + "}")
    elif hasattr(item, "_write_json"):
        item._write_json(write, depth)
    else:
        write(_dumps(item, depth))


_LONE_SURROGATE = "text holds a lone surrogate"
_SURROGATE = re.compile("[\ud800-\udfff]")
# A surrogate as a \u escape, and in UTF-8, which json.loads decodes
# from bytes with "surrogatepass".
_ESCAPED_SURROGATE = re.compile(rb"\\u[dD][89a-fA-F]")
_ENCODED_SURROGATE = re.compile(rb"\xed[\xa0-\xbf]")


def _may_hold_surrogates(data: bytes | str) -> bool:
    """False when no string decoded from ``data`` can hold a lone
    surrogate. One-byte searches gate the regular expressions; a false
    positive costs only the walk."""
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError:  # the text holds a surrogate itself
            return True
    elif not json.detect_encoding(data).startswith("utf-8"):
        return True
    return ((b"\\" in data and _ESCAPED_SURROGATE.search(data) is not None)
            or (b"\xed" in data and _ENCODED_SURROGATE.search(data) is not None))


def _first_path(doc: object, hit) -> object:
    """The path of the first value in ``doc``, in document order, for
    which ``hit`` is true, a key counting as its map; ``_MISSING`` if
    there is none. Only maps, lists, tuples and ``Rows`` are entered."""
    stack: list[tuple[object, str | None]] = [(doc, None)]
    while stack:
        value, path = stack.pop()
        if hit(value) or isinstance(value, dict) and any(map(hit, value)):
            return path
        if isinstance(value, dict):
            stack.extend((item, _at(path, key))
                         for key, item in reversed(value.items()))
        elif isinstance(value, (list, tuple)):
            stack.extend((item, f"{path or ''}[{i}]")
                         for i, item in reversed(list(enumerate(value))))
        elif value.__class__ is Rows:
            stack.append((value.doc(), path))
    return _MISSING


def _lone_surrogate(value: object) -> bool:
    """Text that holds a lone surrogate. Decoded JSON joins an escaped
    pair into one character, so any surrogate left is lone."""
    return (isinstance(value, str) and not value.isascii()
            and _SURROGATE.search(value) is not None)


def _at(path: str | None, key: str | None) -> str | None:
    if path is None:
        return key
    return path if key is None else f"{path}.{key}"
