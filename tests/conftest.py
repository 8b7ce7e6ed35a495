"""Shared test set-up."""

import dataclasses
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


@pytest.fixture
def halved_moore(monkeypatch):
    """moore-1.9 with the center |<y,z>| of its conclusion halved, as the
    complex-premise experiment reads it: every sample's ratio falls below
    the first bound at small eps, so the experiment reports a finding."""
    from ineq_forge import falsifier
    from ineq_forge.catalog import StackedResult

    original = falsifier.verify_moore

    def halved(*args, **kwargs):
        result = original(*args, **kwargs)
        (link,) = result.links
        return StackedResult((dataclasses.replace(link, center=link.center / 2),), result.premises_hold)

    monkeypatch.setattr(falsifier, "verify_moore", halved)
