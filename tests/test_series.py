"""IntSeries arithmetic checked against naive oracles.

The oracles here are deliberately dumb: quadratic convolution on plain
lists, literal product expansion for the Pochhammer factors, a full
divisor scan for the Lambert coefficients. Every fast path in qseries
must agree with them exactly.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrunc import qseries
from qtrunc import (
    IntSeries,
    bilateral_theta,
    lambert_diff,
    pochhammer,
    triple_product,
)
from qtrunc.partitions import enumerate_partitions


def naive_mul(a: list, b: list, order: int) -> list:
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= order:
                out[i + j] += x * y
    return out


def naive_pochhammer(a: int, step: int, order: int) -> list:
    """Expand prod (1 - q^(a + i*step)) by repeated naive multiplication."""
    out = [1] + [0] * order
    e = a
    while e <= order:
        factor = [0] * (order + 1)
        factor[0] = 1
        factor[e] = -1
        out = naive_mul(out, factor, order)
        e += step
    return out


def scan_divisor_diff(n: int, R: int, S: int) -> int:
    count = 0
    for d in range(1, n + 1):
        if n % d == 0:
            if d % R == S % R:
                count += 1
            elif d % R == (R - S) % R:
                count -= 1
    return count


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=10)

# Signed coefficients up to a few hundred bits, with zeros mixed in, and
# lengths that put the sparser operand on either side of the schoolbook
# crossover.
wide_coeff_lists = st.lists(
    st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
              st.integers(min_value=-(2 ** 400), max_value=2 ** 400)),
    min_size=1, max_size=3 * qseries._SCHOOLBOOK_MAX_TERMS,
)


def test_from_dense_roundtrip():
    s = IntSeries.from_dense([1, 0, -2, 3])
    assert s.order == 3
    assert s.dense() == [1, 0, -2, 3]
    assert s.coeffs == {0: 1, 2: -2, 3: 3}


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
        IntSeries.from_dense([1, 0, 2.0])
    # bool is an int subclass, but a bool coefficient is a leaked comparison
    with pytest.raises(ValueError):
        IntSeries({0: True}, 2)
    with pytest.raises(ValueError):
        IntSeries({1.0: 1}, 2)
    with pytest.raises(ValueError):
        IntSeries.from_dense([1, 2]).scale(0.5)


def test_coeff_beyond_order_raises():
    s = IntSeries.from_dense([1, 2, 3])
    assert s.coeff(2) == 3
    with pytest.raises(ValueError):
        s.coeff(3)
    with pytest.raises(ValueError):
        s.coeff(-1)
    with pytest.raises(ValueError):
        s.dense(upto=4)


def test_add_sub_shrink_to_common_window():
    a = IntSeries.from_dense([1, 1, 1, 1, 1])
    b = IntSeries.from_dense([0, 2, 0])
    assert (a + b).order == 2
    assert (a + b).dense() == [1, 3, 1]
    assert (a - b).dense() == [1, -1, 1]
    assert (-b).dense() == [0, -2, 0]


@given(coeff_lists, coeff_lists)
@settings(max_examples=200, deadline=None)
def test_mul_matches_naive_convolution(xs, ys):
    order = min(len(xs), len(ys)) - 1
    a = IntSeries.from_dense(xs)
    b = IntSeries.from_dense(ys)
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
    # through __mul__, whichever kernel the crossover picks
    a = IntSeries.from_dense(xs)
    b = IntSeries.from_dense(ys)
    assert (a * b).dense() == expected
    assert (a * b) == (b * a)


def test_mul_switches_kernel_above_crossover(monkeypatch):
    calls = []
    kernel = qseries._kronecker_mul

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(qseries, "_kronecker_mul", counting)
    limit = qseries._SCHOOLBOOK_MAX_TERMS
    dense = list(range(1, 3 * limit))
    for terms, used in ((limit, False), (limit + 1, True)):
        calls.clear()
        xs = [(-1) ** i * (i + 1) for i in range(terms)] + [0] * (len(dense) - terms)
        product = IntSeries.from_dense(xs) * IntSeries.from_dense(dense)
        assert product.dense() == naive_mul(xs, dense, len(dense) - 1)
        assert bool(calls) is used


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=100, deadline=None)
def test_ring_laws(xs, ys, zs):
    a = IntSeries.from_dense(xs)
    b = IntSeries.from_dense(ys)
    c = IntSeries.from_dense(zs)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_int_multiplication_is_scaling():
    s = IntSeries.from_dense([1, -2, 4])
    assert (3 * s).dense() == [3, -6, 12]
    assert (s * 3) == (3 * s) == s.scale(3)


def test_pow():
    s = IntSeries.from_dense([1, 1, 0, 0])
    assert (s ** 0) == IntSeries.one(3)
    assert (s ** 3).dense() == [1, 3, 3, 1]
    with pytest.raises(ValueError):
        s ** -1


@given(coeff_lists, st.sampled_from([1, -1]))
@settings(max_examples=150, deadline=None)
def test_invert_roundtrip(xs, unit):
    xs = [unit] + xs
    s = IntSeries.from_dense(xs)
    assert (s * s.invert()) == IntSeries.one(s.order)


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        IntSeries.from_dense([2, 1]).invert()
    with pytest.raises(ValueError):
        IntSeries.from_dense([0, 1]).invert()


def test_inverse_euler_product_counts_partitions():
    """1/(q;q) coefficients must equal the brute-force enumeration count."""
    inv = pochhammer(1, 1, 12).invert()
    assert inv.dense() == [len(enumerate_partitions(n)) for n in range(13)]


@given(coeff_lists, st.integers(min_value=0, max_value=6))
@settings(max_examples=150, deadline=None)
def test_shift_roundtrip(xs, e):
    s = IntSeries.from_dense(xs)
    up = s.shifted(e)
    assert up.order == s.order + e
    assert up.shifted(-e) == s


def test_shift_down_requires_zero_low_coefficients():
    s = IntSeries.from_dense([0, 0, 5, 1])
    assert s.shifted(-2).dense() == [5, 1]
    assert s.shifted(-2).order == 1
    with pytest.raises(ValueError):
        s.shifted(-3)
    with pytest.raises(ValueError):
        IntSeries.from_dense([1]).shifted(-2)


def test_truncate_cannot_extend():
    s = IntSeries.from_dense([1, 2, 3])
    assert s.truncate(1).dense() == [1, 2]
    with pytest.raises(ValueError):
        s.truncate(4)


@given(coeff_lists, st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_one_minus_factor_roundtrip(xs, e):
    s = IntSeries.from_dense(xs)
    assert s.times_one_minus(e).div_one_minus(e) == s
    assert s.div_one_minus(e).times_one_minus(e) == s


@given(coeff_lists, st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_times_one_minus_matches_naive(xs, e):
    s = IntSeries.from_dense(xs)
    factor = [0] * (s.order + 1)
    factor[0] = 1
    if e <= s.order:
        factor[e] = -1
    assert s.times_one_minus(e).dense() == naive_mul(xs, factor, s.order)


def test_equality_and_hash():
    a = IntSeries({0: 1, 2: 3}, 4)
    b = IntSeries.from_dense([1, 0, 3, 0, 0])
    assert a == b and hash(a) == hash(b)
    assert a != IntSeries({0: 1, 2: 3}, 5)
    assert a != "not a series"


def test_repr_mentions_leading_terms():
    s = IntSeries.from_dense([1, -2])
    assert "+1q^0" in repr(s) and "-2q^1" in repr(s)
    assert repr(IntSeries.zero(3)) == "IntSeries(0, order=3)"


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=25))
@settings(max_examples=80, deadline=None)
def test_pochhammer_matches_naive_product(a, step, order):
    assert pochhammer(a, step, order).dense() == naive_pochhammer(a, step, order)


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


def test_triple_product_is_product_of_three_pochhammers():
    for R, S in [(2, 1), (3, 1), (4, 3), (7, 2)]:
        expected = (pochhammer(S, R, 30) * pochhammer(R - S, R, 30)
                    * pochhammer(R, R, 30))
        assert triple_product(R, S, 30) == expected


def test_triple_product_frozen_values():
    # (q, q, q^2; q^2) to order 4: the square of (q; q^2) times (q^2; q^2)
    assert triple_product(2, 1, 4).dense() == [1, -2, 0, 0, 2]
    # at (3, 1) the residue classes cover everything: plain Euler product
    assert triple_product(3, 1, 20) == pochhammer(1, 1, 20)


def test_triple_product_rejects_bad_window():
    for R, S in [(3, 0), (3, 3), (2, 5), (1, 1)]:
        with pytest.raises(ValueError):
            triple_product(R, S, 10)


def test_bilateral_theta_equals_triple_product():
    for R in range(2, 9):
        for S in range(1, R):
            assert bilateral_theta(R, S, 80) == triple_product(R, S, 80)


def test_bilateral_theta_accumulates_colliding_exponents():
    # R = 2S makes the j and -j-1 exponents coincide pairwise
    theta = bilateral_theta(2, 1, 12)
    assert theta.dense() == triple_product(2, 1, 12).dense()
    assert theta.coeff(1) == -2


def test_lambert_diff_matches_divisor_scan():
    for R, S in [(3, 1), (4, 1), (5, 2), (6, 5)]:
        series = lambert_diff(R, S, 60)
        for n in range(1, 61):
            assert series.coeff(n) == scan_divisor_diff(n, R, S), (R, S, n)


def test_lambert_diff_constant_term_is_zero():
    assert lambert_diff(3, 1, 8).coeff(0) == 0
