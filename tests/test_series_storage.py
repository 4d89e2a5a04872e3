"""IntSeries on its one storage, a list of order + 1 coefficients.

The dict-backed class it replaced is kept in ``tests/dict_series.py`` as
the oracle: every operation must give the same coefficients, the same
order and the same error message. The gates check that the package reads
no series through the ``coeffs`` view, which rebuilds a dict on each read,
and that every series it builds holds exactly order + 1 coefficients.
"""

import contextlib
import io
import os
import re
from operator import gt, lt, ne

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dict_series import DictSeries
from qtrunc import CheckReport, cli
from qtrunc.qseries import IntSeries
from qtrunc.trunclab import _bounded, _mismatches

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "qtrunc")

coefficients = st.one_of(st.integers(-3, 3), st.integers(-2**80, 2**80))
# degrees run past the order, and the map holds zero entries, so the
# constructor's dropping is exercised; sorted, so the oracle's dict order
# (which picks the degree its shift error names) is ascending
coeff_maps = st.dictionaries(st.integers(0, 30), coefficients, max_size=12).map(
    lambda m: dict(sorted(m.items())))
orders = st.integers(0, 25)


def outcome(f, *args):
    """The result of f(*args), or the type and text of its ValueError."""
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def same(new, old) -> bool:
    if isinstance(old, tuple):  # an error
        return new == old
    return (type(new) is IntSeries and new.order == old.order
            and new.coeffs == old.coeffs and new.dense() == old.dense()
            and repr(new) == repr(old))


def pair(coeffs: dict, order: int) -> tuple[IntSeries, DictSeries]:
    return IntSeries(coeffs, order), DictSeries(coeffs, order)


@given(coeff_maps, orders)
@settings(max_examples=200, deadline=None)
@example({0: 5, 3: 0, 9: 7}, 4)
def test_constructor_drops_zeros_and_degrees_past_the_order(coeffs, order):
    new, old = pair(coeffs, order)
    assert same(new, old)
    assert new.coeffs == {d: c for d, c in coeffs.items() if c and d <= order}
    assert len(new.dense()) == order + 1


@pytest.mark.parametrize("coeffs, order", [
    ({0: True}, 2), ({1: False}, 2), ({True: 1}, 2), ({0: 1, 2: 0.5}, 4),
    ({1.0: 1}, 2), ({-2: 1}, 5), ({0: 1}, -1), ({0: 1, 9: True}, 3),
])
def test_constructor_rejects_what_the_oracle_rejects(coeffs, order):
    new = outcome(IntSeries, coeffs, order)
    assert new == outcome(DictSeries, coeffs, order)
    assert new[0] is ValueError


@given(coeff_maps, orders, coeff_maps, orders,
       st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)))
@settings(max_examples=300, deadline=None)
@example({1: 2}, 5, {1: -2, 4: 1}, 3, 0)
def test_arithmetic_matches_the_dict_oracle(ca, oa, cb, ob, c):
    a, da = pair(ca, oa)
    b, db = pair(cb, ob)
    assert same(a + b, da + db)
    assert same(a - b, da - db)
    assert same(b - a, db - da)
    assert same(-a, -da)
    assert same(a.scale(c), da.scale(c))
    assert same(a.scale(0), da.scale(0))
    assert same(a * c, da * c)
    assert same(a * b, da * db)
    assert same(b * a, db * da)
    assert outcome(a.scale, True) == outcome(da.scale, True)
    assert (a == b) == (da == db)
    assert (a == a.truncate(oa)) and not (a == a.shifted(1))
    if a == b:
        assert hash(a) == hash(b)
    assert hash(a) == hash(IntSeries(ca, oa))


@given(coeff_maps, orders)
@settings(max_examples=300, deadline=None)
@example({0: 1, 2: 3}, 4)
@example({3: 1}, 5)
@example({1: 4, 3: 1}, 6)
def test_reads_shifts_and_cuts_match_the_dict_oracle(coeffs, order):
    new, old = pair(coeffs, order)
    for n in range(-1, order + 2):
        assert outcome(new.coeff, n) == outcome(old.coeff, n)
        assert same(outcome(new.truncate, n), outcome(old.truncate, n))
    assert new.dense() == old.dense()
    # downward past the order, over a nonzero coefficient, and upward
    for e in range(-order - 3, 6):
        assert same(outcome(new.shifted, e), outcome(old.shifted, e))


@given(coeff_maps, orders, st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_invert_matches_the_dict_oracle(coeffs, order, c0):
    coeffs = {**coeffs, 0: c0}
    new, old = pair(coeffs, order)
    assert same(new.invert(), old.invert())
    assert (new * new.invert()) == IntSeries.one(order)
    broken = {**coeffs, 0: 2}
    assert outcome(IntSeries(broken, order).invert) == \
        outcome(DictSeries(broken, order).invert)


def dict_degrees(a: IntSeries, b: IntSeries, n0: int = 0, differ=ne) -> list[int]:
    """The degrees from n0 up to the smaller order where differ holds for
    the coefficients of a and b, from the two coefficient maps, as the dict
    storage computed them. Both coefficients of a degree outside the maps
    are 0, and differ is strict, so the maps' keys are enough."""
    n = min(a.order, b.order)
    ac, bc = a.coeffs, b.coeffs
    return sorted({d for d in ac.keys() | bc.keys()
                   if n0 <= d <= n and differ(ac.get(d, 0), bc.get(d, 0))})


def scanned(scan, *args, **kwargs) -> list[tuple]:
    """The (witness, expected, actual) triples one scan adds to a report."""
    report = CheckReport("scan", {})
    scan(report, *args, **kwargs)
    return [(v.witness, v.expected, v.actual) for v in report.violations]


@given(coeff_maps, orders, coeff_maps, orders, st.integers(0, 2), st.booleans())
@settings(max_examples=200, deadline=None)
@example({5: 1}, 5, {}, 5, 0, False)
@example({}, 7, {5: -1}, 5, 1, False)
@example({2: 3}, 4, {2: 5, 3: -1, 6: -2}, 6, 1, True)
def test_scans_match_the_coefficient_maps(ca, oa, cb, ob, n0, upper):
    """The equality scan reports where a and b differ; the sign scan where
    b is below 0, and where it is below a, or above a with upper. Each
    reports from n0 up to the shorter list's end, lowest degree first."""
    a, b = IntSeries(ca, oa), IntSeries(cb, ob)
    ac, bc = a.coeffs, b.coeffs
    assert scanned(_mismatches, a.dense(), b.dense(), n0=n0) == [
        (d, bc.get(d, 0), ac.get(d, 0)) for d in dict_degrees(a, b, n0)]
    assert scanned(_bounded, b.dense(), n0) == [
        (d, ">= 0", bc[d]) for d in dict_degrees(b, IntSeries({}, ob), n0, lt)]
    claim, differ = ("<=", gt) if upper else (">=", lt)
    assert scanned(_bounded, b.dense(), n0, a.dense(), upper) == [
        (d, f"{claim} {ac.get(d, 0)}", bc.get(d, 0))
        for d in dict_degrees(b, a, n0, differ)]


def test_the_package_reads_no_series_through_the_coeffs_view(monkeypatch):
    """Timing-free gate: every suite's verify and table run, at their
    defaults, with the coeffs view raising and every built list's length
    checked against its order."""

    def forbidden(self):
        raise AssertionError("IntSeries.coeffs read inside the package")

    wrong_length = []
    from_list = IntSeries._from_list

    def checked_from_list(cls, dense, order):
        if len(dense) != order + 1:
            wrong_length.append((len(dense), order))
        return from_list(dense, order)

    monkeypatch.setattr(IntSeries, "coeffs", property(forbidden))
    monkeypatch.setattr(IntSeries, "_from_list", classmethod(checked_from_list))
    for name, suite in cli.SUITES.items():
        for command in ["verify"] + (["table"] if suite.table else []):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, name])
            assert code == 0, (command, name)
    assert wrong_length == []


def test_no_module_in_the_package_names_the_coeffs_view():
    """The static half of the gate, for code the suites' defaults do not
    reach: no source line under src/qtrunc reads ``.coeffs``."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                assert not re.search(r"\.coeffs\b", fh.read()), name
