"""The memo registry: every memo that a module of the package keeps in a
global is registered in ``qtrunc._memo``, nothing else is, and one call of
``clear_all`` empties them all."""

import importlib
import pkgutil

import qtrunc
from qtrunc import _memo
from qtrunc.partitions import _Grown, m_k, set_a_size
from qtrunc.trunclab import (
    TruncParams,
    _RunningSum,
    conjecture_check,
    decomposition_check,
    gz_series,
    index_weighted_sums,
)


def module_memos() -> dict:
    """Every lru_cache wrapper, running sum and grown table bound to a
    global of a module of the package, by "module.name", each once."""
    memos = {}
    for info in pkgutil.iter_modules(qtrunc.__path__):
        module = importlib.import_module(f"qtrunc.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") or isinstance(value, (_RunningSum, _Grown)):
                memos.setdefault(id(value), (f"{info.name}.{name}", value))
    return dict(memos.values())


def clear_of(memo):
    return getattr(memo, "cache_clear", None) or memo.clear


def is_empty(memo) -> bool:
    if hasattr(memo, "cache_info"):
        return memo.cache_info().currsize == 0
    if isinstance(memo, _Grown):
        return memo.table == []
    return memo._key is None


def test_every_module_memo_is_registered_and_nothing_else():
    """The gate: a memo in a module global that is not registered (a bare
    ``functools.lru_cache``) fails it, and so does a registration that no
    global holds, such as a memo made per call, which would grow the
    registry without bound."""
    memos = module_memos()
    assert [name for name, memo in memos.items() if clear_of(memo) not in _memo._clears] == []
    assert len(_memo._clears) == len(memos)
    # lru_cache: _triple, _inv_triple, _m_k_counts; four running sums; the
    # p list and the rank table
    assert len(memos) == 9


def test_clear_all_empties_every_memo():
    assert conjecture_check(TruncParams(5, 2, 2, 60)).passed
    assert decomposition_check(TruncParams(5, 2, 1, 40)).passed
    gz_series(2, 60)
    index_weighted_sums(60, 2)
    m_k(2, 12)
    set_a_size(2, 0, 12)
    memos = module_memos()
    assert [name for name, memo in memos.items() if is_empty(memo)] == []
    _memo.clear_all()
    assert [name for name, memo in memos.items() if not is_empty(memo)] == []
