"""Shared test setup.

Tests that run `python -m linbins.cli` start the child in a temporary working
directory, where a relative PYTHONPATH entry such as `src` no longer points
at the package.  Prepend the absolute source directory for the whole session
so those children import the same code as the tests.
"""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def absolute_src_on_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield
