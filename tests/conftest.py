"""Test-session setup shared by every test module."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def child_interpreters_import_src():
    """Interpreters the tests start import essencekit from this checkout.

    pytest's ``pythonpath`` setting reaches only its own process, so the
    children get ``src`` through PYTHONPATH.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        yield
