"""Fixtures shared by the test modules: the compiled library, and the
Python references alone."""

import pytest

from satlab import _native


@pytest.fixture(scope="module")
def kernel():
    """The compiled library; the test is skipped without a C compiler."""
    if _native._compiler() is None:
        pytest.skip("no C compiler on PATH, so only the Python references run")
    lib = _native.load()
    assert lib is not None, "a C compiler exists but the compiled library did not build or load"
    return lib


@pytest.fixture
def reference_only(monkeypatch):
    """Every module runs its Python reference: the loader returns None."""
    monkeypatch.setattr(_native, "load", lambda: None)
