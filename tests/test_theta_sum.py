"""The one sparse theta-sum builder against the seven loops it replaced.

Each oracle below is a former hand-written quadratic-exponent loop, kept
verbatim in substance: bilateral_theta, its k-term cut, d_series' weighted
numerator, mao's alternating sum, the I1-I4 blocks, the Jacobi cube and the
gz numerator. Every route through ``_theta_sum`` is compared with its
oracle on R <= 8, every 1 <= S < R, k in 0..6 or uncut, and N in 0..60.
That grid includes R = 2S, where the two tails' exponents collide.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtrunc import trunclab
from qtrunc.partitions import jacobi_cube
from qtrunc.qseries import IntSeries, _theta_sum, bilateral_theta
from qtrunc.trunclab import (
    TruncParams,
    d_series,
    gz_series,
    i_series,
    index_weighted_sums,
    mao_check,
)

ORDERS = range(61)
KS = list(range(7)) + [None]
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


def oracle_theta_numerator(R, S, k, N):
    coeffs = {}
    for j in range(k):
        e = R * j * (j + 1) // 2 - S * j
        for exp, c in ((e, _sign(j)), (e + (2 * j + 1) * S, -_sign(j))):
            if exp <= N:
                coeffs[exp] = coeffs.get(exp, 0) + c
    return IntSeries(coeffs, N)


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


def test_bilateral_theta_matches_both_former_loops():
    for R, S in WINDOW:
        for N in ORDERS:
            for k in KS:
                want = (oracle_bilateral_theta(R, S, N) if k is None
                        else oracle_theta_numerator(R, S, k, N))
                assert bilateral_theta(R, S, N, k) == want, (R, S, N, k)


def test_d_series_numerator_matches_former_loop(monkeypatch):
    # with a unit denominator and no divisor series, d_series is its numerator
    monkeypatch.setattr(trunclab, "_inv_triple", lambda R, S, N: IntSeries.one(N))
    monkeypatch.setattr(trunclab, "lambert_diff", lambda R, S, N: IntSeries.zero(N))
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
    monkeypatch.setattr(trunclab, "_inv_euler_cubed", lambda N: IntSeries.one(N))
    for N in ORDERS:
        for k in range(1, 7):
            want = oracle_gz_numerator(k, N).scale(_sign(k))
            assert gz_series(k, N) == want, (k, N)


@settings(max_examples=300, deadline=None)
@given(R=st.integers(0, 9), b=st.integers(-9, 12), c=st.integers(0, 30),
       order=st.integers(0, 120), terms=st.none() | st.integers(0, 15),
       u=st.integers(-3, 3), v=st.integers(-3, 3))
def test_theta_sum_matches_brute_force(R, b, c, order, terms, u, v):
    assume(R + b >= 1)
    # the exponent grows by at least 1 per step, so j <= order covers it
    coeffs = {}
    for j in range(order + 1 if terms is None else min(terms, order + 1)):
        e = R * j * (j + 1) // 2 + b * j + c
        if e <= order:
            coeffs[e] = coeffs.get(e, 0) + _sign(j) * (u * j + v)
    assert _theta_sum(R, b, c, order, terms, u, v) == IntSeries(coeffs, order)


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
        bilateral_theta(5, 2, 20, -3)
    with pytest.raises(ValueError, match="truncation depth must be nonnegative"):
        index_weighted_sums(10, -2)
    assert bilateral_theta(5, 2, 20, 0) == IntSeries.zero(20)
    assert index_weighted_sums(10, 0) == [0] * 11
