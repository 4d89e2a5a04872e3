"""The one sparse theta-sum builder against the six loops it replaced.

Each oracle below is a former hand-written quadratic-exponent loop, kept
verbatim in substance: bilateral_theta, d_series' weighted numerator, mao's
alternating sum, the I1-I4 blocks, the Jacobi cube and the gz numerator.
Every route through ``_theta_sum`` is compared with its oracle on R <= 8,
every 1 <= S < R, k in 1..6 and N in 0..60. That grid includes R = 2S,
where the two tails' exponents collide.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtrunc import trunclab
from qtrunc.bijections import IndexedPartition, theorem12_check, verify_psi
from qtrunc.partitions import (
    Partition,
    divisor_diff,
    enumerate_partitions,
    gpn,
    jacobi_cube,
    m_k,
    p_euler,
    set_a,
    set_a_size,
)
from qtrunc.qseries import IntSeries, _theta_sum, bilateral_theta, lambert_diff, pochhammer
from qtrunc.trunclab import (
    TruncParams,
    am_lhs,
    d_series,
    gz_series,
    i_series,
    index_weighted_sums,
    mao_check,
    mk_identity_check,
    pentagonal_check,
    wang_yee_check,
)

ORDERS = range(61)
WINDOW = [(R, S) for R in range(2, 9) for S in range(1, R)]


def _sign(j):
    return 1 if j % 2 == 0 else -1


def oracle_bilateral_theta(R, S, order):
    coeffs = {}
    for j, step in ((0, 1), (-1, -1)):
        while True:
            e = R * j * (j + 1) // 2 - S * j
            if e > order:
                break
            coeffs[e] = coeffs.get(e, 0) + _sign(j)
            j += step
    return IntSeries(coeffs, order)


def oracle_d_numerator(R, S, k, N):
    coeffs = {}
    for j in range(-k, k):
        e = R * j * (j + 1) // 2 - S * j
        if j != 0 and e <= N:
            coeffs[e] = coeffs.get(e, 0) + _sign(j) * j
    return IntSeries(coeffs, N)


def oracle_mao_theta(R, A, N):
    coeffs = {}
    j = 1
    while True:
        e = R * j * (j - 1) // 2 + A * j
        if e > N:
            break
        coeffs[e] = coeffs.get(e, 0) + _sign(j + 1)
        j += 1
    return IntSeries(coeffs, N)


def oracle_i_series(idx, R, S, k, N):
    plus = idx in (2, 4)
    linear = R * k + S if plus else R * k - S
    offset = S * (2 * k + 1) if plus else 0
    coeffs = {}
    j = 0
    while True:
        e = R * j * (j + 1) // 2 + linear * j + offset
        if e > N:
            break
        c = j + 1 if idx in (3, 4) else 1
        coeffs[e] = coeffs.get(e, 0) + _sign(j) * c
        j += 1
    return IntSeries(coeffs, N)


def oracle_jacobi_cube(order):
    coeffs = {}
    j = 0
    while True:
        e = j * (j + 1) // 2
        if e > order:
            break
        coeffs[e] = (2 * j + 1) * _sign(j)
        j += 1
    return IntSeries(coeffs, order)


def oracle_gz_numerator(k, N):
    coeffs = {}
    for j in range(k + 1):
        e = j * (j + 1) // 2
        if e <= N:
            coeffs[e] = _sign(j) * (2 * j + 1)
    return IntSeries(coeffs, N)


def test_bilateral_theta_matches_former_loop():
    for R, S in WINDOW:
        for N in ORDERS:
            assert bilateral_theta(R, S, N) == oracle_bilateral_theta(R, S, N), (R, S, N)


def test_d_series_numerator_matches_former_loop(monkeypatch):
    # with a unit denominator and no divisor series, d_series is its numerator
    monkeypatch.setattr(trunclab, "_inv_triple", lambda R, S, N: IntSeries.one(N))
    monkeypatch.setattr(trunclab, "lambert_diff", lambda R, S, N: IntSeries({}, N))
    for R, S in WINDOW:
        for N in ORDERS:
            for k in range(1, 7):
                got = d_series(TruncParams(R, S, k, N))
                assert got == oracle_d_numerator(R, S, k, N), (R, S, N, k)
                if R == 2 * S:
                    # the terms j and -j share q^(S j^2) with opposite
                    # weights, so only the term j = -k survives the cut
                    e = S * k * k
                    assert got.coeffs == ({e: _sign(k - 1) * k} if e <= N else {})


def test_mao_sum_matches_former_loop(monkeypatch):
    for R, S in WINDOW:
        for k in range(1, 7):
            for A in (R * k - S, R * k + S):
                for N in ORDERS:
                    assert _theta_sum(R, A, A, N) == oracle_mao_theta(R, A, N)
    # mao_check passes exactly when its theta side is the former sum
    monkeypatch.setattr(trunclab, "_product_sum_f",
                        lambda R, A, N: IntSeries.one(N) - oracle_mao_theta(R, A, N))
    for R, S in WINDOW:
        for k in (1, 2, 3):
            assert mao_check(TruncParams(R, S, k, 60)).passed, (R, S, k)


def test_i_series_matches_former_loop():
    for R, S in WINDOW:
        for k in range(1, 7):
            for N in ORDERS:
                P = TruncParams(R, S, k, N)
                for idx in (1, 2, 3, 4):
                    assert i_series(idx, P) == oracle_i_series(idx, R, S, k, N), \
                        (idx, R, S, k, N)


def test_jacobi_cube_and_gz_numerator_match_former_loops(monkeypatch):
    for N in range(201):
        assert jacobi_cube(N) == oracle_jacobi_cube(N), N
    # a unit cube makes gz's reciprocal 1, so gz_series is its numerator
    monkeypatch.setattr(trunclab, "jacobi_cube", lambda N: IntSeries.one(N))
    for N in ORDERS:
        for k in range(1, 7):
            want = oracle_gz_numerator(k, N).scale(_sign(k))
            assert gz_series(k, N) == want, (k, N)


@settings(max_examples=300, deadline=None)
@given(R=st.integers(0, 9), b=st.integers(-9, 12), c=st.integers(0, 30),
       order=st.integers(0, 120), u=st.integers(-3, 3))
def test_theta_sum_matches_brute_force(R, b, c, order, u):
    assume(R + b >= 1)
    # the exponent grows by at least 1 per step, so j <= order covers it
    coeffs = {}
    for j in range(order + 1):
        e = R * j * (j + 1) // 2 + b * j + c
        if e <= order:
            coeffs[e] = coeffs.get(e, 0) + _sign(j) * (u * j + 1)
    assert _theta_sum(R, b, c, order, u) == IntSeries(coeffs, order)


def test_theta_sum_rejects_nonincreasing_or_negative_exponents():
    for R, b, c in [(3, -3, 0), (1, -1, 5), (0, 0, 0), (2, -5, 1),
                    (3, 1, -1), (1, 0, -2), (-1, 3, 0)]:
        with pytest.raises(ValueError):
            _theta_sum(R, b, c, 40)
    with pytest.raises(ValueError):
        _theta_sum(1, 0, 0, -1)


def test_negative_truncation_depth_is_an_error():
    """A negative depth used to be read as the empty sum, a zero series;
    depth 0 is still the empty sum."""
    with pytest.raises(ValueError, match="truncation depth must be nonnegative"):
        index_weighted_sums(10, -2)
    assert index_weighted_sums(10, 0) == [0] * 11


@pytest.mark.parametrize("call", [
    pytest.param(lambda: TruncParams(5, 2, 2.5, 30), id="TruncParams-k-2.5"),
    pytest.param(lambda: TruncParams(5, 2, True, 30), id="TruncParams-k-True"),
    pytest.param(lambda: TruncParams(5.0, 2, 1, 30), id="TruncParams-R-5.0"),
    pytest.param(lambda: TruncParams(5, 2, 1, 30.0), id="TruncParams-N-30.0"),
    pytest.param(lambda: gz_series(2.5, 10), id="gz_series-2.5"),
    pytest.param(lambda: gz_series(True, 10), id="gz_series-True"),
    pytest.param(lambda: am_lhs(1.5, 10), id="am_lhs-1.5"),
    pytest.param(lambda: index_weighted_sums(10, 1.5), id="index_weighted_sums-1.5"),
    pytest.param(lambda: index_weighted_sums(10, False), id="index_weighted_sums-False"),
    pytest.param(lambda: theorem12_check(5, True), id="theorem12_check-k-True"),
    pytest.param(lambda: theorem12_check(5, 2.0), id="theorem12_check-k-2.0"),
    pytest.param(lambda: mk_identity_check(1, 5, True), id="mk_identity_check-nmin-True"),
    pytest.param(lambda: verify_psi(5, True), id="verify_psi-k-True"),
    pytest.param(lambda: verify_psi(5.0, 1), id="verify_psi-n-5.0"),
    pytest.param(lambda: m_k(1, True), id="m_k-n-True"),
    pytest.param(lambda: set_a_size(True, 0, 5), id="set_a_size-variant-True"),
    pytest.param(lambda: set_a(1, True, 5), id="set_a-j-True"),
    pytest.param(lambda: pochhammer(True, 1, 5), id="pochhammer-a-True"),
    pytest.param(lambda: i_series(True, TruncParams(5, 2, 1, 10)), id="i_series-idx-True"),
    pytest.param(lambda: IntSeries({0: 1}, 5).shifted(True), id="shifted-True"),
    pytest.param(lambda: enumerate_partitions(True), id="enumerate_partitions-True"),
    pytest.param(lambda: p_euler(True), id="p_euler-True"),
    pytest.param(lambda: Partition((2.5, 1)), id="Partition-2.5"),
    pytest.param(lambda: Partition((True,)), id="Partition-True"),
    pytest.param(lambda: IndexedPartition(Partition((2, 1)), True, 5),
                 id="IndexedPartition-j-True"),
    pytest.param(lambda: IndexedPartition(Partition((2, 1)), 0, 3.0), id="IndexedPartition-n-3.0"),
    pytest.param(lambda: bilateral_theta(5.0, 2, 10), id="bilateral_theta-R-5.0"),
    pytest.param(lambda: lambert_diff(5, 2.0, 10), id="lambert_diff-S-2.0"),
    pytest.param(lambda: pentagonal_check(5.0, 2, 10), id="pentagonal_check-R-5.0"),
    pytest.param(lambda: wang_yee_check(4.0, 2, 1, 10), id="wang_yee_check-R-4.0"),
    pytest.param(lambda: divisor_diff(10, 3.0, 1), id="divisor_diff-R-3.0"),
    pytest.param(lambda: gpn(True), id="gpn-True"),
    pytest.param(lambda: gpn(3.0), id="gpn-3.0"),
])
def test_fractional_or_bool_depth_is_an_error(call):
    """A fractional or bool depth used to give a series, and a verdict:
    conjecture_check at k = 2.5 reported FAIL over 2 * 2.5 = 5 terms. So
    did a bool or float in any other int parameter, or a TypeError came
    instead of the ValueError of a bad parameter."""
    with pytest.raises(ValueError, match="must be an int"):
        call()
