"""The slice kernels against the per-coefficient loops they replaced.

The schoolbook product, the geometric step, the divisor sieve of
lambert_diff and the index-weighted partition sums each do one C-level
slice operation per sparse term, residue class or block, divisor or
cofactor, or index j. The loops they replaced, one Python step per
coefficient, are kept as the reference, below and, for the divisor sieve,
as reference.nested_lambert_diff: every result must be equal, element for
element. The running-quotient walker behind the q-series sums is checked
against the per-element division of the uncut list. The
timing-free gates count p(n) reads at the benchmark's points, the product
kernels and geometric steps of the triple product, the one inversion of
each reciprocal, which route the geometric step takes, and how many
series the memos keep.
"""

from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrunc import cli, partitions, qseries, trunclab
from qtrunc.partitions import gpn, p_euler
from qtrunc.qseries import (
    _div_one_minus_list,
    _mul_lists,
    _quotients,
    _schoolbook_mul,
    lambert_diff,
    triple_product,
)
from qtrunc.trunclab import corollary14_report, index_weighted_sums, recurrence_check
from reference import nested_lambert_diff, record


def loop_schoolbook(sparse: list, dense: list, n: int) -> list:
    """The schoolbook loop of IntSeries.__mul__: every nonzero term of
    sparse times every nonzero coefficient of dense, one addition each, over
    both lists padded with zeros to n + 1 coefficients."""
    bd = (dense + [0] * (n + 1))[:n + 1]
    out = [0] * (n + 1)
    for da, ca in enumerate(sparse):
        if not ca or da > n:
            continue
        for db in range(n - da + 1):
            cb = bd[db]
            if cb:
                out[da + db] += ca * cb
    return out


def loop_div_one_minus(dense: list, e: int) -> list:
    """Division by (1 - q^e) one element at a time, on a copy."""
    out = list(dense)
    for d in range(e, len(out)):
        out[d] += out[d - e]
    return out


def per_n_index_weighted_sum(n: int, k: int | None = None) -> int:
    """One entry of index_weighted_sums, by its own outward j-walk."""
    total = 0
    for j, step in ((0, 1), (-1, -1)):
        while k is None or -k <= j < k:
            g = gpn(j)
            if g > n:
                break
            total += (1 if j % 2 == 0 else -1) * j * p_euler(n - g)
            j += step
    return total


# zeros, +-1, small and very wide coefficients, each equally likely
coefficients = st.one_of(st.just(0), st.sampled_from((1, -1)),
                         st.integers(min_value=-3, max_value=3),
                         st.integers(min_value=-(2 ** 400), max_value=2 ** 400))


@given(st.integers(min_value=0, max_value=40),
       st.lists(coefficients, min_size=1, max_size=45),
       st.lists(coefficients, min_size=1, max_size=45))
@settings(max_examples=300, deadline=None)
@example(0, [1], [5])
@example(0, [0, -1], [2 ** 400])
@example(9, [0, 0, -1], [3] * 10)
@example(12, [1, 0, -1, 2 ** 300], [1] * 3)
def test_schoolbook_mul_matches_per_coefficient_loop(n, sparse, dense):
    """Order 0, operands shorter and longer than n + 1, and each branch of
    the slice update (+1, -1, any other coefficient)."""
    expected = loop_schoolbook(sparse, dense, n)
    assert _schoolbook_mul(sparse, dense, n) == expected
    assert _mul_lists(sparse, dense, n) == expected
    assert _mul_lists(dense, sparse, n) == expected


@given(st.lists(st.integers(min_value=-(2 ** 70), max_value=2 ** 70), max_size=70),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=300, deadline=None)
def test_div_one_minus_list_matches_per_element_loop(dense, e):
    expected = loop_div_one_minus(dense, e)
    _div_one_minus_list(dense, e)
    assert dense == expected


def test_div_one_minus_list_edges_and_route(monkeypatch):
    """e = 1, e >= len, len 0 and 1, and both sides of 16 e: the residue
    path takes one accumulate per class, exactly when the list holds at
    least 16 coefficients per class."""
    calls = record(monkeypatch, qseries, "accumulate")
    for e in range(1, 8):
        for length in sorted({0, 1, e - 1, e, e + 1, 16 * e - 1, 16 * e, 16 * e + 1}):
            dense = [(-1) ** i * (i * i + 3) for i in range(length)]
            expected = loop_div_one_minus(dense, e)
            calls.clear()
            _div_one_minus_list(dense, e)
            assert dense == expected, (e, length)
            assert len(calls) == (e if length >= 16 * e else 0), (e, length)


# nondecreasing shifts as running sums of gaps, 0-2 exponents per term
walks = st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                           st.lists(st.integers(min_value=1, max_value=12), max_size=2)),
                 max_size=12)


@given(st.lists(st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
                min_size=1, max_size=81),
       walks)
@settings(max_examples=300, deadline=None)
@example([5], [(0, [1]), (0, [])])
@example([1, -2, 3], [(4, [1]), (0, [2])])
@example([1, 2, 3, 4], [(0, []), (3, [2, 1]), (0, [1]), (1, [3])])
def test_quotients_match_uncut_per_element_division(base, walk):
    """Order 0, a first shift of 0 and one past the order, and a shift equal
    to the order. Each yielded list is base divided by every factor so far,
    uncut and one element at a time, then cut to the order - e + 1
    coefficients that survive the shift e; each step divides a list
    already cut; the walk reads no term past the first shift beyond the
    order, and base is unchanged."""
    order = len(base) - 1
    terms = [(e, tuple(exponents))
             for e, (_, exponents) in zip(accumulate(gap for gap, _ in walk), walk)]
    expected, expected_steps, uncut, walked = [], [], list(base), 0
    for e, exponents in terms:
        if e > order:
            break
        for f in exponents:
            uncut = loop_div_one_minus(uncut, f)
            expected_steps.append((f, order - e + 1))
        expected.append((e, uncut[:order - e + 1]))
        walked += 1
    steps = []

    def recording(dense, f):
        steps.append((f, len(dense)))
        _div_one_minus_list(dense, f)

    original = list(base)
    remaining = iter(terms)
    with mock.patch.object(qseries, "_div_one_minus_list", recording):
        got = [(e, list(quotient)) for e, quotient in _quotients(base, remaining)]
    assert got == expected
    assert all(len(quotient) == order - e + 1 for e, quotient in got)
    assert steps == expected_steps
    assert list(remaining) == terms[walked + 1:]
    assert base == original


def test_lambert_diff_matches_nested_divisor_loops():
    """Every order up to 40 puts sqrt(order), and the least divisor above
    it in each class, on both sides of each residue."""
    for R in range(2, 8):
        for S in range(1, R):
            for order in [*range(41), 97, 100, 2000]:
                assert (lambert_diff(R, S, order).dense()
                        == nested_lambert_diff(R, S, order)), (R, S, order)


def test_index_weighted_sums_match_per_n_walk_and_full_scan():
    """Each entry against its own outward j-walk and against the scan over
    every j in [-n-1, n+1] (or -k <= j < k)."""
    for k in (1, 2, 5, None):
        sums = index_weighted_sums(300, k)
        assert len(sums) == 301
        assert sums == [per_n_index_weighted_sum(n, k) for n in range(301)], k
        assert index_weighted_sums(0, k) == [0]
        for n in range(301):
            js = range(-n - 1, n + 2) if k is None else range(-k, k)
            full = sum((j if j % 2 == 0 else -j) * p_euler(n - gpn(j)) for j in js)
            assert sums[n] == full, (n, k)


def test_index_weighted_sums_rejects_negative_nmax():
    with pytest.raises(ValueError, match="nmax must be nonnegative"):
        index_weighted_sums(-1)


def test_index_sums_read_each_partition_count_once(monkeypatch):
    """Timing-free gate: at the benchmark's points, corollary14_report and
    recurrence_check each read p(0..nmax) from the p(n) memo once, as one
    table, and form one series product, the index-weighted theta sum times
    that table, instead of one p(n) read and one slice update per (n, j)."""
    reads = record(monkeypatch, partitions._p_table, "upto")
    products = record(monkeypatch, qseries, "_mul_lists")
    runs = [(2000, lambda k=k: corollary14_report(k, 2000)) for k in range(1, 7)]
    runs.append((1200, lambda: recurrence_check(1200)))
    for nmax, run in runs:
        reads.clear()
        products.clear()
        assert run().passed, nmax
        assert reads == [(nmax,)]
        assert len(products) == 1


def euler_sum_steps(a: int, step: int, order: int) -> list:
    """The geometric steps of Euler's sum for (q^a; q^step)_inf to the
    given order: term k >= 1 sits at e = a k + step k(k-1)/2 and divides by
    (1 - q^(step k)) a list cut to the order - e + 1 coefficients that
    survive its shift."""
    steps = []
    k, e = 1, a
    while e <= order:
        steps.append((step * k, order - e + 1))
        e += a + step * k
        k += 1
    return steps


def test_triple_product_forms_no_series_product(monkeypatch):
    """Timing-free gate: the triple product is three chained Euler sums,
    (q^R; q^R) first, then (q^(R-S); q^R), then (q^S; q^R), at the
    benchmark's order. It calls no product kernel, and its geometric steps
    are exactly those of the three sums, each on a list cut to the
    coefficients that survive its shift."""
    products = {name: record(monkeypatch, qseries, name)
                for name in ("_kronecker_mul", "_schoolbook_mul", "_mul_lists")}
    steps = record(monkeypatch, qseries, "_div_one_minus_list",
                   lambda dense, e: (e, len(dense)))
    N = 3000
    for R, S in [(3, 1), (5, 2), (7, 5)]:
        steps.clear()
        triple_product(R, S, N)
        assert all(calls == [] for calls in products.values()), (R, S)
        assert steps == (euler_sum_steps(R, R, N) + euler_sum_steps(R - S, R, N)
                         + euler_sum_steps(S, R, N)), (R, S)


def test_reciprocals_invert_once_and_form_no_product(monkeypatch, capsys):
    """Timing-free gate: each reciprocal, by which every theta quotient and
    gz multiply their numerators, is one call of IntSeries.invert on a
    sparse theta-type sum (the bilateral theta sum, the Jacobi cube) at the
    benchmark's orders. It expands no triple product and calls no product
    kernel; a conjecture sweep fills the memo of the reciprocal, inverts
    once, and leaves the triple product's memo empty."""
    forbidden = {name: record(monkeypatch, qseries, name)
                 for name in ("_kronecker_mul", "_schoolbook_mul", "_mul_lists",
                              "triple_product")}
    forbidden["trunclab.triple_product"] = record(monkeypatch, trunclab,
                                                  "triple_product")
    inverted = record(monkeypatch, qseries.IntSeries, "invert",
                      lambda series: series.dense())
    cases = [(trunclab._inv_triple, (R, S, 3000), qseries.bilateral_theta(R, S, 3000))
             for R, S in [(5, 1), (7, 2), (4, 2)]]
    cases.append((trunclab._inv_euler_cubed, (2500,), partitions.jacobi_cube(2500)))
    for reciprocal, args, denominator in cases:
        reciprocal.cache_clear()
        inverted.clear()
        reciprocal(*args)
        assert all(calls == [] for calls in forbidden.values()), args
        assert inverted == [denominator.dense()], args
    monkeypatch.delenv("QTRUNC_WORKERS", raising=False)
    trunclab._triple.cache_clear()
    trunclab._inv_triple.cache_clear()
    inverted.clear()
    assert cli.main(["verify", "conjecture", "--R", "5", "--S", "2", "--kmax", "3",
                     "--N", "300"]) == 0
    capsys.readouterr()
    assert trunclab._inv_triple.cache_info().currsize == 1
    assert trunclab._triple.cache_info().currsize == 0
    # the sweep multiplies each numerator by the one memoized reciprocal,
    # and expands nothing
    assert len(inverted) == 1
    for name in ("triple_product", "trunclab.triple_product"):
        assert forbidden[name] == [], name


@pytest.mark.parametrize("suite, memo", [("conjecture", "_inv_triple"),
                                         ("decomposition", "_triple"),
                                         ("gz", "_inv_euler_cubed")])
def test_memos_keep_one_entry_across_sweeps(suite, memo, monkeypatch, capsys):
    """A CLI sweep holds (R, S, N) fixed, so each memo misses once per
    sweep; three sweeps at three orders in one process leave one entry."""
    monkeypatch.delenv("QTRUNC_WORKERS", raising=False)
    cache = getattr(trunclab, memo)
    cache.cache_clear()
    window = [] if suite == "gz" else ["--R", "5", "--S", "2"]
    for sweeps, N in enumerate((100, 200, 300), 1):
        assert cli.main(["verify", suite, *window, "--kmax", "3", "--N", str(N)]) == 0
        capsys.readouterr()
        info = cache.cache_info()
        assert (info.currsize, info.misses) == (1, sweeps), N
