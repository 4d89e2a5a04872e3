"""IntSeries arithmetic checked against naive oracles.

The oracles are deliberately dumb: quadratic convolution on plain lists
(`naive_mul`), and the q-Pochhammer and triple products expanded, or
divided out, one (1 - q^e) factor at a time (`factor_steps`,
`factor_divisions`). Every fast path in qseries must agree with them
exactly. lambert_diff's divisor sieve is checked in test_slice_kernels.py.
"""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrunc import cli, qseries, trunclab
from qtrunc import (
    IntSeries,
    bilateral_theta,
    lambert_diff,
    pochhammer,
    triple_product,
)
from qtrunc.partitions import enumerate_partitions, jacobi_cube
from reference import factor_steps, naive_mul, record

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=10)

# Signed coefficients up to a few hundred bits, with zeros mixed in, and
# lengths from a monomial up to dozens of nonzero terms.
wide_coeff_lists = st.lists(
    st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
              st.integers(min_value=-(2 ** 400), max_value=2 ** 400)),
    min_size=1, max_size=48,
)


def series_of(xs: list) -> IntSeries:
    """The series whose coefficients of q^0..q^(len(xs) - 1) are xs, by the
    dict constructor, so the constructor's checks apply."""
    return IntSeries(dict(enumerate(xs)), len(xs) - 1)


def test_constructor_drops_zero_and_overflow_entries():
    s = IntSeries({0: 1, 1: 0, 5: 9}, 3)
    assert s.coeffs == {0: 1}
    assert s.order == 3


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        IntSeries({0: 1}, -1)
    with pytest.raises(ValueError):
        IntSeries({-2: 1}, 5)


def test_constructors_reject_non_int_coefficients():
    # a float coefficient used to be kept, and squaring gave [1, 0, 1.0, 0, 0.25]
    with pytest.raises(ValueError):
        IntSeries({0: 1, 2: 0.5}, 4)
    with pytest.raises(ValueError):
        series_of([1, 0, 2.0])
    # bool is an int subclass, but a bool coefficient is a leaked comparison
    with pytest.raises(ValueError):
        IntSeries({0: True}, 2)
    with pytest.raises(ValueError):
        IntSeries({1.0: 1}, 2)
    with pytest.raises(ValueError):
        series_of([1, 2]).scale(0.5)


def test_coeff_beyond_order_raises():
    s = series_of([1, 2, 3])
    assert s.coeff(2) == 3
    with pytest.raises(ValueError):
        s.coeff(3)
    with pytest.raises(ValueError):
        s.coeff(-1)


def test_add_sub_shrink_to_common_window():
    a = series_of([1, 1, 1, 1, 1])
    b = series_of([0, 2, 0])
    assert (a + b).order == 2
    assert (a + b).dense() == [1, 3, 1]
    assert (a - b).dense() == [1, -1, 1]
    assert (-b).dense() == [0, -2, 0]


@given(coeff_lists, coeff_lists)
@settings(max_examples=200, deadline=None)
def test_mul_matches_naive_convolution(xs, ys):
    order = min(len(xs), len(ys)) - 1
    a = series_of(xs)
    b = series_of(ys)
    assert (a * b).dense() == naive_mul(xs, ys, order)
    assert (a * b) == (b * a)


@given(wide_coeff_lists, wide_coeff_lists)
@settings(max_examples=300, deadline=None)
@example([0] * 40, [2 ** 300] * 40)
@example([0], [0])
@example([-(2 ** 200) + 1], [2 ** 200 - 1])
@example([1] * 17, [-1] * 30)
def test_kronecker_kernel_matches_naive_convolution(xs, ys):
    order = min(len(xs), len(ys)) - 1
    expected = naive_mul(xs, ys, order)
    # the kernel alone, with operands of unequal length
    assert qseries._kronecker_mul(xs, ys, order) == expected
    # through __mul__, by the schoolbook pass
    a = series_of(xs)
    b = series_of(ys)
    assert (a * b).dense() == expected
    assert (a * b) == (b * a)


# One small point of every suite's verify and of every table.
SMALL_VERIFY = {
    "pentagonal": "--R 5 --S 2 --N 40",
    "jacobi-cube": "--N 60",
    "am-identity": "--kmax 2 --N 40",
    "theorem12": "--nmax 8 --kmax 2",
    "mk-identity": "--nmax 8 --kmax 2",
    "phi": "--n 8",
    "psi": "--nmax 6 --kmax 2",
    "conjecture": "--R 5 --S 2 --kmax 2 --N 60",
    "theorem13": "--R 5 --S 3 --kmax 2 --N 60",
    "corollary14": "--kmax 2 --nmax 60",
    "gz": "--kmax 2 --N 40",
    "mao": "--R 5 --S 2 --kmax 2 --N 50",
    "decomposition": "--R 5 --S 2 --kmax 2 --N 60",
    "wang-yee": "--R 3 --S 1 --m 2 --N 40",
    "recurrence117": "--nmax 60",
}
SMALL_TABLE = {
    "pentagonal": "--R 5 --S 2 --N 30",
    "jacobi-cube": "--N 40",
    "am-identity": "--k 2 --N 30",
    "theorem12": "--n 8 --k 2",
    "mk-identity": "--n 8 --k 2",
    "conjecture": "--R 5 --S 1 --k 2 --N 40",
    "theorem13": "--R 5 --S 2 --k 2 --N 40",
    "corollary14": "--k 2 --nmax 30",
    "gz": "--k 1 --N 30",
    "recurrence117": "--nmax 30",
}


def test_products_take_the_kernel_of_their_call_site(monkeypatch, capsys):
    """Timing-free route gate: at one small point of every suite's verify
    and of every table, _kronecker_mul is called only by the Euler cube,
    twice per jacobi-cube point, and every series product through
    IntSeries.__mul__ reaches _schoolbook_mul once, with the operand of
    fewer nonzero terms as the sparse side."""
    assert set(SMALL_VERIFY) == set(cli.SUITES)
    assert set(SMALL_TABLE) == {name for name, suite in cli.SUITES.items() if suite.table}
    monkeypatch.delenv("QTRUNC_WORKERS", raising=False)
    # frame 0 is the view, 1 the recorder, 2 the kernel's caller
    kronecker = record(monkeypatch, qseries, "_kronecker_mul",
                       lambda a, b, n: sys._getframe(2).f_code.co_name)
    schoolbook = record(monkeypatch, qseries, "_schoolbook_mul",
                        lambda sparse, dense, n: (sparse, dense))
    products = record(monkeypatch, IntSeries, "__mul__",
                      lambda a, b: isinstance(b, IntSeries))
    runs = [("verify", name, args) for name, args in SMALL_VERIFY.items()]
    runs += [("table", name, args) for name, args in SMALL_TABLE.items()]
    for command, name, args in runs:
        for calls in (kronecker, schoolbook, products):
            calls.clear()
        assert cli.main([command, name, *args.split(), "--format", "csv"]) == 0, name
        capsys.readouterr()
        assert kronecker == ["_euler_cubed"] * 2 * (name == "jacobi-cube"), name
        assert len(schoolbook) == products.count(True), name
        for sparse, dense in schoolbook:
            assert len(sparse) - sparse.count(0) <= len(dense) - dense.count(0), name
    # the dense operand on the left: the sparse theta sum is still the sparse side
    dense = pochhammer(1, 1, 60).invert()
    sparse = bilateral_theta(5, 2, 60)
    schoolbook.clear()
    product = dense * sparse
    assert schoolbook == [(sparse.dense(), dense.dense())]
    assert product.dense() == naive_mul(dense.dense(), sparse.dense(), 60)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=100, deadline=None)
def test_ring_laws(xs, ys, zs):
    a = series_of(xs)
    b = series_of(ys)
    c = series_of(zs)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_int_multiplication_is_scaling():
    s = series_of([1, -2, 4])
    assert (3 * s).dense() == [3, -6, 12]
    assert (s * 3) == (3 * s) == s.scale(3)


def test_pow():
    s = series_of([1, 1, 0, 0])
    assert (s ** 0) == IntSeries.one(3)
    assert (s ** 3).dense() == [1, 3, 3, 1]
    with pytest.raises(ValueError):
        s ** -1


@given(coeff_lists, st.sampled_from([1, -1]))
@settings(max_examples=150, deadline=None)
def test_invert_roundtrip(xs, unit):
    xs = [unit] + xs
    s = series_of(xs)
    assert (s * s.invert()) == IntSeries.one(s.order)


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        series_of([2, 1]).invert()
    with pytest.raises(ValueError):
        series_of([0, 1]).invert()


def test_inverse_euler_product_counts_partitions():
    """1/(q;q) coefficients must equal the brute-force enumeration count."""
    inv = pochhammer(1, 1, 12).invert()
    assert inv.dense() == [len(enumerate_partitions(n)) for n in range(13)]


@given(coeff_lists, st.integers(min_value=0, max_value=6))
@settings(max_examples=150, deadline=None)
def test_shift_roundtrip(xs, e):
    s = series_of(xs)
    up = s.shifted(e)
    assert up.order == s.order + e
    assert up.shifted(-e) == s


def test_shift_down_requires_zero_low_coefficients():
    s = series_of([0, 0, 5, 1])
    assert s.shifted(-2).dense() == [5, 1]
    assert s.shifted(-2).order == 1
    with pytest.raises(ValueError):
        s.shifted(-3)
    with pytest.raises(ValueError):
        series_of([1]).shifted(-2)


def test_truncate_cannot_extend():
    s = series_of([1, 2, 3])
    assert s.truncate(1).dense() == [1, 2]
    with pytest.raises(ValueError):
        s.truncate(4)


@given(coeff_lists, st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_one_minus_factor_roundtrip(xs, e):
    s = series_of(xs)
    assert s.times_one_minus(e).div_one_minus(e) == s
    assert s.div_one_minus(e).times_one_minus(e) == s


@given(coeff_lists, st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_times_one_minus_matches_naive(xs, e):
    s = series_of(xs)
    factor = [0] * (s.order + 1)
    factor[0] = 1
    if e <= s.order:
        factor[e] = -1
    assert s.times_one_minus(e).dense() == naive_mul(xs, factor, s.order)


def test_equality_and_hash():
    a = IntSeries({0: 1, 2: 3}, 4)
    b = series_of([1, 0, 3, 0, 0])
    assert a == b and hash(a) == hash(b)
    assert a != IntSeries({0: 1, 2: 3}, 5)
    assert a != "not a series"


def test_repr_mentions_leading_terms():
    s = series_of([1, -2])
    assert "+1q^0" in repr(s) and "-2q^1" in repr(s)
    assert repr(IntSeries({}, 3)) == "IntSeries(0, order=3)"


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=200))
@example(1, 1, 200)
@settings(max_examples=80, deadline=None)
def test_pochhammer_matches_naive_product(a, step, order):
    assert pochhammer(a, step, order).dense() == factor_steps((a,), step, order)


def test_pochhammer_matches_factor_steps():
    # a = step and a != step; order 0 and a - 1 leave no factor at all
    for a in range(1, 7):
        for step in range(1, 7):
            for order in sorted({0, 1, a - 1, a, 40, 151}):
                assert (pochhammer(a, step, order).dense()
                        == factor_steps((a,), step, order)), (a, step, order)


def test_pochhammer_frozen_values():
    # order-12 Euler product: 1 - q - q^2 + q^5 + q^7 - q^12 - ...
    assert pochhammer(1, 1, 12).dense() == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    # (q^2; q^2) to order 6: the q^6 terms of -q^6 and +q^2*q^4 cancel
    assert pochhammer(2, 2, 6).dense() == [1, 0, -1, 0, -1, 0, 0]
    assert pochhammer(9, 1, 5).dense() == [1, 0, 0, 0, 0, 0]


def test_pochhammer_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pochhammer(0, 1, 5)
    with pytest.raises(ValueError):
        pochhammer(1, 0, 5)
    with pytest.raises(ValueError):
        pochhammer(1, 1, -1)


# signed bases of orders 0-80, with zeros, small and beyond-64-bit entries
euler_bases = st.lists(
    st.one_of(st.just(0), st.integers(min_value=-5, max_value=5),
              st.integers(min_value=-(2 ** 100), max_value=2 ** 100)),
    min_size=1, max_size=81)


@given(st.integers(min_value=1, max_value=90), st.integers(min_value=1, max_value=8),
       euler_bases)
@settings(max_examples=200, deadline=None)
@example(3, 3, [1] + [0] * 40)  # a = step
@example(50, 2, [2 ** 70, -3, 0, 1] * 10)  # a > order
@example(1, 1, [-(2 ** 90)] * 81)
@example(4, 7, [5])  # order 0
def test_euler_sum_multiplies_base_by_factor_steps(a, step, base):
    """base (q^a; q^step)_inf by Euler's sum, against base times the
    factor-by-factor expansion; base itself is left as it was."""
    order = len(base) - 1
    before = list(base)
    expected = naive_mul(base, factor_steps((a,), step, order), order)
    assert qseries._euler_sum(a, step, base) == expected
    assert base == before


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=80))
@settings(max_examples=120, deadline=None)
@example(1, 1, 80)  # R = 2S: two chained sums share their exponents
@example(3, 3, 61)
@example(4, 1, 3)  # order below the first factor
def test_chained_triple_product_matches_factor_steps(S, gap, order):
    """The three chained Euler sums of triple_product at R = S + gap against
    the factor-by-factor expansion; gap = S gives R = 2S."""
    R = S + gap
    assert (triple_product(R, S, order).dense()
            == factor_steps((S, R - S, R), R, order)), (R, S, order)


def factor_divisions(a: int, step: int, base: list) -> list:
    """base divided by prod_i (1 - q^(a + i*step)) one factor at a time,
    each factor one geometric step over the whole list: the O(order^2)
    reference for the reciprocals of trunclab."""
    out = list(base)
    for e in range(a, len(base), step):
        qseries._div_one_minus_list(out, e)
    return out


def test_inverse_triple_product_matches_inverted_triple_product():
    """The inverted theta sum against the triple product inverted one
    coefficient at a time. R = 2S puts two factors on the same exponents;
    orders 0 and below R leave (q^R; q^R) with a single coefficient."""
    for R in range(2, 10):
        for S in range(1, R):
            for order in sorted({0, 1, S, R - 1, R, 2 * R + 1, 97}):
                assert (trunclab._inv_triple(R, S, order)
                        == triple_product(R, S, order).invert()), (R, S, order)


def test_reciprocals_match_factor_divisions():
    """The reciprocal triple product and the reciprocal Euler cube against
    1 divided by one (1 - q^e) factor at a time."""
    for order in (0, 1, 7, 60):
        one = [1] + [0] * order
        for R in range(2, 7):
            for S in range(1, R):
                expected = factor_divisions(
                    S, R, factor_divisions(R - S, R, factor_divisions(R, R, one)))
                assert trunclab._inv_triple(R, S, order).dense() == expected, (R, S, order)
        expected = factor_divisions(1, 1, factor_divisions(1, 1, factor_divisions(1, 1, one)))
        assert jacobi_cube(order).invert().dense() == expected, order


def test_inverse_triple_product_times_triple_product_is_one_at_large_order():
    for R, S in [(3, 1), (5, 2)]:
        product = trunclab._inv_triple(R, S, 12000) * triple_product(R, S, 12000)
        assert product == IntSeries.one(12000), (R, S)


def test_inverse_triple_product_rejects_bad_window():
    for R, S in [(3, 0), (3, 3), (2, 5), (1, 1)]:
        with pytest.raises(ValueError):
            trunclab._inv_triple(R, S, 10)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        trunclab._inv_triple(3, 1, -1)


def test_triple_product_matches_bilateral_theta_at_large_order():
    """Regression at an order where the two dense partial products, joined
    by one wide Kronecker product, took seconds."""
    for R, S in [(3, 1), (5, 2)]:
        assert triple_product(R, S, 12000) == bilateral_theta(R, S, 12000), (R, S)


def test_triple_product_is_product_of_three_pochhammers():
    for R, S in [(2, 1), (3, 1), (4, 3), (7, 2)]:
        expected = (pochhammer(S, R, 30) * pochhammer(R - S, R, 30)
                    * pochhammer(R, R, 30))
        assert triple_product(R, S, 30) == expected


def test_triple_product_matches_naive_factor_product():
    # R = 2S puts the factors with exponents S and R - S on the same terms
    for R, S in [(2, 1), (4, 2), (6, 3), (3, 1), (5, 2), (7, 3), (8, 1)]:
        for order in (0, 1, 13, 61):
            expected = [1] + [0] * order
            for base in (S, R - S, R):
                for e in range(base, order + 1, R):
                    factor = [1] + [0] * order
                    factor[e] = -1
                    expected = naive_mul(expected, factor, order)
            assert triple_product(R, S, order).dense() == expected, (R, S, order)


def test_triple_product_matches_factor_steps():
    # R = 2S at (2, 1), (4, 2) and (6, 3) gives two bases the same exponents;
    # order min(S, R - S) - 1 lies below the first factor
    for R, S in [(2, 1), (4, 2), (6, 3), (3, 1), (5, 2), (7, 5), (8, 3), (9, 1)]:
        for order in sorted({0, 1, min(S, R - S) - 1, 40, 151}):
            assert (triple_product(R, S, order).dense()
                    == factor_steps((S, R - S, R), R, order)), (R, S, order)


def test_product_expansions_match_factor_steps_at_benchmark_order():
    # the heaviest expansions of the sign theorems: the Euler product of
    # jacobi-cube and the triple products of conjecture, theorem13 and gz
    N = 3000
    assert pochhammer(1, 1, N).dense() == factor_steps((1,), 1, N)
    for R, S in [(3, 1), (5, 2), (7, 5)]:
        assert (triple_product(R, S, N).dense()
                == factor_steps((S, R - S, R), R, N)), (R, S)


def test_product_expansions_take_no_factor_steps(monkeypatch, capsys):
    """Timing-free route gate: the product expansions, and the two suites
    that certify them, never apply a (1 - q^e) factor to a whole list."""
    def no_factor_steps(dense, e):
        raise AssertionError(f"factor step (1 - q^{e}) taken")

    monkeypatch.setattr(qseries, "_times_one_minus_list", no_factor_steps)
    monkeypatch.delenv("QTRUNC_WORKERS", raising=False)
    assert pochhammer(1, 1, 120).dense() == factor_steps((1,), 1, 120)
    assert triple_product(5, 2, 120).dense() == factor_steps((2, 3, 5), 5, 120)
    for argv in (["verify", "pentagonal", "--N", "120"],
                 ["verify", "pentagonal", "--R", "6", "--S", "3", "--N", "120"],
                 ["verify", "jacobi-cube", "--N", "120"]):
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == ""


def test_pochhammer_takes_sqrt_many_geometric_steps(monkeypatch):
    """Timing-free cost gate: (q; q)_inf to order N takes one geometric step
    per term k >= 1 of Euler's sum, so O(sqrt N) steps, not one per factor.
    Step k divides by (1 - q^k) a list cut to the N - k(k+1)/2 + 1
    coefficients that survive the shift of term k, and no longer."""
    steps = record(monkeypatch, qseries, "_div_one_minus_list",
                   lambda dense, e: (e, len(dense)))
    for N in (0, 1, 2, 100, 3000):
        steps.clear()
        pochhammer(1, 1, N)
        assert len(steps) <= math.isqrt(2 * N) + 1, (N, len(steps))
        assert steps == [(k, N - k * (k + 1) // 2 + 1)
                         for k in range(1, len(steps) + 1)], N
    assert len(steps) == 76


def test_triple_product_frozen_values():
    # (q, q, q^2; q^2) to order 4: the square of (q; q^2) times (q^2; q^2)
    assert triple_product(2, 1, 4).dense() == [1, -2, 0, 0, 2]
    # at (3, 1) the residue classes cover everything: plain Euler product
    assert triple_product(3, 1, 20) == pochhammer(1, 1, 20)


def test_triple_product_rejects_bad_window():
    for R, S in [(3, 0), (3, 3), (2, 5), (1, 1)]:
        with pytest.raises(ValueError):
            triple_product(R, S, 10)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        triple_product(3, 1, -1)


def test_bilateral_theta_equals_triple_product():
    for R in range(2, 9):
        for S in range(1, R):
            assert bilateral_theta(R, S, 80) == triple_product(R, S, 80)


def test_bilateral_theta_accumulates_colliding_exponents():
    # R = 2S makes the j and -j-1 exponents coincide pairwise
    theta = bilateral_theta(2, 1, 12)
    assert theta.dense() == triple_product(2, 1, 12).dense()
    assert theta.coeff(1) == -2


def test_lambert_diff_constant_term_is_zero():
    assert lambert_diff(3, 1, 8).coeff(0) == 0


def test_lambert_diff_rejects_negative_order():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        lambert_diff(3, 1, -1)
