"""Successors of immutable values, made without rebuilding their indices.

Assessments and description models index each tuple field in a
``cached_property``. An operation builds the successor's changed
fields and an updated copy of each changed field's index, and
``derive`` lays them over the parent's instance dict, so the indices of
the unchanged fields carry over, built or not. Pickles and copies
carry the fields only (``fields_state``); a copy builds its indices
again on first use.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any


def derive(value: Any, **changes: Any) -> Any:
    """A copy of a frozen dataclass value with these fields and indices
    replaced; ``__init__`` does not run, so nothing is rebuilt."""
    successor = object.__new__(type(value))
    successor.__dict__.update(value.__dict__, **changes)
    return successor


def fields_state(value: Any) -> dict[str, Any]:
    """The pickle state of a dataclass value: its fields, no index."""
    return {f.name: value.__dict__[f.name] for f in fields(value)}
