"""The public value classes behave as plain frozen records.

Pins what callers see of ``Partition``, ``IndexedPartition``,
``TruncParams``, ``Violation`` and ``CheckReport``: construction (positional,
keyword and default), validation messages, ``repr``, equality within and
across types, hashing, frozenness, and a ``pickle`` round trip under every
protocol. The worker pool pickles reports and their violations, so a class
that does not survive the round trip breaks ``QTRUNC_WORKERS`` runs.
"""

import pickle

import pytest

from qtrunc import (
    CheckReport,
    IndexedPartition,
    IntSeries,
    Partition,
    TruncParams,
    Violation,
    divisor_diff,
    psi,
    set_a,
    set_a_size,
    trunclab,
    verify_phi,
)


def _examples():
    lam = Partition((3, 1, 1))
    report = CheckReport("gz", {"k": 2, "N": 10})
    report.add(5, ">= 0", -1)
    report.add({"partition": [2, 1], "j": 1, "check": "rank"}, None, [2, 1])
    return [
        Partition(),
        lam,
        IndexedPartition(lam, 0, 5),
        IndexedPartition(Partition((2,)), -1, 3),
        TruncParams(5, 2, 3, 100),
        Violation(5, ">= 0", -1),
        Violation({"partition": [1], "j": -1}, [1, 2], None),
        CheckReport("pentagonal", {"R": 3, "S": 1, "N": 40}),
        report,
    ]


def _hash(value):
    """hash(value), or None when it raises TypeError, as it does for a record
    with an unhashable field and for the mutable CheckReport."""
    try:
        return hash(value)
    except TypeError:
        return None


def test_reprs():
    assert repr(Partition()) == "Partition(parts=())"
    assert repr(Partition([3, 1])) == "Partition(parts=(3, 1))"
    assert (repr(IndexedPartition(Partition((2,)), -1, 3))
            == "IndexedPartition(lam=Partition(parts=(2,)), j=-1, n=3)")
    assert repr(TruncParams(5, 2, 3, 100)) == "TruncParams(R=5, S=2, k=3, N=100)"
    assert repr(Violation(5, ">= 0", -1)) == "Violation(witness=5, expected='>= 0', actual=-1)"
    report = CheckReport("gz", {"k": 2})
    assert repr(report) == "CheckReport(suite='gz', params={'k': 2}, violations=[])"
    report.add(5, 0, -1)
    assert repr(report) == ("CheckReport(suite='gz', params={'k': 2}, "
                            "violations=[Violation(witness=5, expected=0, actual=-1)])")


def test_construction_by_keyword_and_default():
    point = {"R": 5, "S": 2, "k": 3, "N": 100}
    params = TruncParams(**point)
    assert (params.R, params.S, params.k, params.N) == (5, 2, 3, 100)
    assert params == TruncParams(5, 2, 3, 100)
    assert Partition(parts=[2, 2]).parts == (2, 2)
    assert Partition().parts == () and Partition().weight == 0
    assert IndexedPartition(lam=Partition((1,)), j=1, n=3).lam == Partition((1,))
    assert Violation(witness=1, expected=2, actual=3).actual == 3
    report = CheckReport(suite="mao", params={"k": 1})
    assert report.violations == [] and report.passed
    # the default list is fresh per report
    report.add(1, 0, -1)
    assert CheckReport("mao", {"k": 1}).violations == []


def test_validation_messages():
    with pytest.raises(ValueError, match=r"^parts must be non-increasing, got \(1, 2\)$"):
        Partition((1, 2))
    with pytest.raises(ValueError, match=r"^parts must be positive, got 0$"):
        Partition((2, 0))
    with pytest.raises(ValueError,
                       match=r"^weight 4 does not match n - gpn\(j\) = 5$"):
        IndexedPartition(Partition((3, 1)), 0, 5)
    with pytest.raises(ValueError, match=r"^need 1 <= S < R, got R=0, S=1$"):
        TruncParams(0, 1, 2, 10)
    with pytest.raises(ValueError, match=r"^N must be nonnegative, got -1$"):
        TruncParams(3, 1, 2, -1)


def test_equality_and_hashing():
    values = _examples()
    for a, b in zip(values, _examples()):
        assert a == b and not a != b
    hashes = [_hash(v) for v in values]
    assert hashes == [_hash(v) for v in _examples()]
    unhashable = [v for v, h in zip(values, hashes) if h is None]
    assert unhashable == [values[6], values[7], values[8]]
    # a record hashes as the tuple of its fields
    assert hash(Partition((3, 1))) == hash(((3, 1),))
    assert hash(TruncParams(5, 2, 3, 100)) == hash((5, 2, 3, 100))
    assert len({Partition((2, 1)), Partition([2, 1]), Partition((3,))}) == 2
    # unequal values, and equal fields across different types
    assert Partition((2, 1)) != Partition((3,))
    assert TruncParams(5, 2, 3, 100) != TruncParams(5, 2, 3, 101)
    assert Violation(1, 2, 3) != Violation(1, 2, 4)
    assert Partition((1,)) != (1,) and (1,) != Partition((1,))
    assert Partition((1,)).__eq__(((1,),)) is NotImplemented
    assert TruncParams(2, 1, 1, 1) != (2, 1, 1, 1)
    assert Violation(1, 2, 3) != (1, 2, 3)
    assert CheckReport("gz", {}) != ("gz", {}, [])
    lam = Partition((2,))
    assert IndexedPartition(lam, -1, 3) != IndexedPartition(lam, 0, 2)
    assert IndexedPartition(lam, 0, 2) != lam


@pytest.mark.parametrize("attr", ["parts", "weight", "other"])
def test_partition_is_frozen(attr):
    lam = Partition((2, 1))
    with pytest.raises(AttributeError):
        setattr(lam, attr, (5,))
    assert lam.parts == (2, 1) and lam.weight == 3


def test_frozen_fields():
    cases = [
        (IndexedPartition(Partition((2,)), -1, 3), ("lam", "j", "n")),
        (TruncParams(5, 2, 3, 100), ("R", "S", "k", "N")),
        (Violation(5, 0, -1), ("witness", "expected", "actual")),
    ]
    for value, fields in cases:
        for name in fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, 7)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before


def test_check_report_stays_mutable():
    report = CheckReport("gz", {"k": 1})
    report.params = {"k": 2}
    assert report.params == {"k": 2}
    report.add(3, 0, -1)
    assert not report.passed
    assert report.violations == [Violation(3, 0, -1)]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    for value in _examples():
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value and repr(back) == repr(value)
        assert _hash(back) == _hash(value)
        if isinstance(value, CheckReport):
            assert back.to_json() == value.to_json()
    lam = pickle.loads(pickle.dumps(Partition((4, 2, 1)), protocol))
    assert (lam.weight, lam.rank, lam.conjugate()) == (7, 1, Partition((3, 2, 1, 1)))



def test_positivity_messages():
    """Every single-value positivity check of the library raises through
    ``qseries._require_positive`` with the message it has always had."""
    one = IntSeries.one(5)
    cases = [
        ("exponent", 0, lambda: one.times_one_minus(0)),
        ("exponent", -1, lambda: one.div_one_minus(-1)),
        ("k", 0, lambda: trunclab.am_lhs(0, 5)),
        ("k", 0, lambda: trunclab.am_rhs(0, 5)),
        ("k", -2, lambda: trunclab.gz_series(-2, 5)),
        ("k", 0, lambda: psi(Partition((1, 1, 1)), 0)),
        ("m", 0, lambda: trunclab.wang_yee_rhs(3, 1, 0, 5)),
        ("nmax", 0, lambda: trunclab.recurrence_check(0)),
        ("base exponent", 0, lambda: trunclab._product_sum_f(3, 0, 5)),
        ("n", 0, lambda: verify_phi(0)),
        ("n", 0, lambda: set_a(1, 0, 0)),
        ("n", -3, lambda: set_a_size(2, 0, -3)),
        ("n", 0, lambda: divisor_diff(0, 3, 1)),
    ]
    for name, value, call in cases:
        with pytest.raises(ValueError, match=rf"^{name} must be positive, got {value}$"):
            call()
