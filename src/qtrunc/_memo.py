"""The package's memo registry: ``clear_all`` empties every registered memo."""

_clears: list = []


def register(memo):
    """Register memo (an ``lru_cache`` wrapper or a memo with ``clear()``) and return it."""
    _clears.append(getattr(memo, "cache_clear", None) or memo.clear)
    return memo


def clear_all() -> None:
    for clear in _clears:
        clear()
