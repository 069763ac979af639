"""Successors of immutable values, made without rebuilding their indices.

Assessments and description models index each tuple field in a
``cached_property``. An operation builds the successor's changed
fields and an updated copy of each changed field's index, and
``derive`` lays them over the parent's instance dict, so the indices of
the unchanged fields carry over, built or not.
"""

from __future__ import annotations

from typing import Any


def derive(value: Any, **changes: Any) -> Any:
    """A copy of a frozen dataclass value with these fields and indices
    replaced; ``__init__`` does not run, so nothing is rebuilt."""
    successor = object.__new__(type(value))
    successor.__dict__.update(value.__dict__, **changes)
    return successor
