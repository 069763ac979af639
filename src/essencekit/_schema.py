"""Shape checks shared by the kernel, project and DCC table readers.

Every reader takes the caller's error class, so a bad kernel document
raises ``KernelError``, a bad project ``ProjectError`` and a bad DCC
table ``DesignationError``; the code is ``SCHEMA_ERROR`` unless stated.

Paths follow one convention. The document root has no path (``None``).
A missing or unknown key names the map that should or should not hold
it; a value of the wrong type names the value itself, as
``a.b[i].key``. Paths of bad values are built only when raising, so
reading a well-formed document costs no string formatting here.
"""

from __future__ import annotations

import json

from .errors import EssenceError

_MISSING = object()


def decode(data: bytes | str, error: type[EssenceError], what: str) -> dict:
    """The JSON map in ``data``; PARSE_ERROR when it is not JSON."""
    try:
        doc = json.loads(data)
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise error("PARSE_ERROR", f"invalid {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error("SCHEMA_ERROR", f"{what} must be a map")
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
    for i, value in enumerate(values):
        if not isinstance(value, kind):
            noun = "map" if kind is dict else "list"
            raise error("SCHEMA_ERROR", f"entry must be a {noun}",
                        path=f"{_at(path, key)}[{i}]")
    return values


def texts(doc: dict, key: str, path: str | None, error: type[EssenceError],
          message: str, default: object = _MISSING) -> list:
    """The list of text under ``key``; ``message`` words a non-text entry."""
    values = doc.get(key)
    if values.__class__ is not list:  # missing or mistyped: get() decides
        values = get(doc, key, list, path, error, default)
    for i, value in enumerate(values):
        if not isinstance(value, str):
            raise error("SCHEMA_ERROR", message, path=f"{_at(path, key)}[{i}]")
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


def _at(path: str | None, key: str | None) -> str | None:
    if path is None:
        return key
    return path if key is None else f"{path}.{key}"
