"""Fixtures shared by the test modules."""

import pytest

from qtrunc import trunclab


@pytest.fixture
def fresh_running_memos():
    """Clear trunclab's running k-sums before and after a test that rigs a
    side they read. A running list is extended, not rebuilt, by the next
    request at the same (R, S, N) and reciprocal: a list built from a rigged
    lambert_diff would otherwise reach a later test's d_series."""
    memos = [m for m in vars(trunclab).values() if isinstance(m, trunclab._RunningSum)]
    for memo in memos:
        memo.clear()
    yield
    for memo in memos:
        memo.clear()
