"""Fixtures shared by the test modules."""

import pytest

from qtrunc import _memo


@pytest.fixture(autouse=True)
def clear_memos():
    """Start every test with every memo of the package empty. A running sum
    is extended, not rebuilt, by the next request at its key, and reads its
    reciprocal only on a new key, so a list built from a rigged side would
    otherwise reach a later test; a warm memo would also hide the builds
    that a timing-free gate counts."""
    _memo.clear_all()
