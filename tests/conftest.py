"""Shared test set-up."""

import os
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_checkout():
    """Put this checkout's `src/` first on PYTHONPATH for the whole session,
    so a `python -m ineq_forge` child runs the code under test, as the tests
    themselves do (pyproject's `pythonpath`), without an install."""
    patch = pytest.MonkeyPatch()
    patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    yield
    patch.undo()
