"""Truncated identity suites: frozen values, naive oracles, cross-checks.

The two product sums of mao, _product_sum_f and _mao_double_sum, are
rebuilt here term by term on plain lists, every factor multiplied in by
reference.naive_mul: the only check of those sums that takes no library
kernel. Their IntSeries forms, and those of am_rhs and wang_yee_rhs, are
the references of test_dense_kernels.py. The other tests run each suite
on grids, pin frozen coefficients and compare suites with each other.
"""

import pytest

from qtrunc import trunclab
from qtrunc import (
    CheckReport,
    TruncParams,
    am_check,
    am_lhs,
    am_rhs,
    conjecture_check,
    conjecture_series,
    corollary14_report,
    d_series,
    decomposition_check,
    divisor_diff,
    enumerate_partitions,
    gpn,
    gz_check,
    gz_series,
    i_series,
    i_series_closed,
    jacobi_cube_check,
    m_k,
    mao_check,
    mk_identity_check,
    p_euler,
    pentagonal_check,
    recurrence_check,
    theorem13_check,
    theorem13_series,
    wang_yee_check,
)
from qtrunc.qseries import IntSeries, pochhammer
from qtrunc.trunclab import (
    _bounded,
    _mao_double_sum,
    _product_sum_f,
    conjecture_regime,
)
from qbinomial import q_binomial
from reference import naive_mul, record


def one_minus(e, order):
    out = [1] + [0] * order
    if e <= order:
        out[e] = -1
    return out


def geometric(e, order):
    out = [0] * (order + 1)
    for d in range(0, order + 1, e):
        out[d] = 1
    return out


def naive_product_sum(R, A, order):
    """(q^A, q^R; q^R)_inf * sum_n q^(Rn) / ((q^A;q^R)_n (q^R;q^R)_n)."""
    pre = [1] + [0] * order
    for base in (A, R):
        e = base
        while e <= order:
            pre = naive_mul(pre, one_minus(e, order), order)
            e += R
    total = [0] * (order + 1)
    n = 0
    while R * n <= order:
        term = [0] * (order + 1)
        term[R * n] = 1
        for i in range(1, n + 1):
            term = naive_mul(term, geometric(R * i, order), order)
            term = naive_mul(term, geometric(A + R * (i - 1), order), order)
        total = [x + y for x, y in zip(total, term)]
        n += 1
    return naive_mul(pre, total, order)


def naive_weighted_double_sum(R, A, order):
    """Same prefactor times sum_{n,m} q^(R(2n+m)) / ((q^A;q^R)_n (q^R;q^R)_n
    (1 - q^(A+R(n+m))))."""
    pre = [1] + [0] * order
    for base in (A, R):
        e = base
        while e <= order:
            pre = naive_mul(pre, one_minus(e, order), order)
            e += R
    total = [0] * (order + 1)
    n = 0
    while 2 * R * n <= order:
        block = [0] * (order + 1)
        block[2 * R * n] = 1
        for i in range(1, n + 1):
            block = naive_mul(block, geometric(R * i, order), order)
            block = naive_mul(block, geometric(A + R * (i - 1), order), order)
        m = 0
        while 2 * R * n + R * m <= order:
            shifted = [0] * (order + 1)
            for d, c in enumerate(block):
                if c and d + R * m <= order:
                    shifted[d + R * m] = c
            term = naive_mul(shifted, geometric(A + R * (n + m), order), order)
            total = [x + y for x, y in zip(total, term)]
            m += 1
        n += 1
    return naive_mul(pre, total, order)


def test_trunc_params_validation():
    with pytest.raises(ValueError):
        TruncParams(0, 1, 1, 10)
    with pytest.raises(ValueError):
        TruncParams(3, 0, 1, 10)
    with pytest.raises(ValueError):
        TruncParams(3, 1, 0, 10)
    with pytest.raises(ValueError):
        TruncParams(3, 1, 1, -1)
    # S past R, and S = R: outside the window of the triple product
    for params in ((5, 7, 2, 40), (3, 3, 1, 10)):
        with pytest.raises(ValueError, match="need 1 <= S < R"):
            TruncParams(*params)


def test_q_binomial_counts_box_partitions():
    for n in range(8):
        for k in range(n + 1):
            series = q_binomial(n, k)
            for m in range(k * (n - k) + 1):
                fits = sum(
                    1 for lam in enumerate_partitions(m)
                    if len(lam.parts) <= k and max(lam.parts, default=0) <= n - k
                )
                assert series.coeff(m) == fits, (n, k, m)


def test_q_binomial_frozen_values():
    assert q_binomial(4, 2).dense() == [1, 1, 2, 1, 1]
    assert q_binomial(2, 5) == IntSeries({}, 0)
    assert q_binomial(5, 0).dense() == [1]


def test_q_binomial_symmetry_and_step():
    for n in range(2, 9):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)
    stepped = q_binomial(4, 2, step=3)
    assert stepped.dense() == [1, 0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 1]
    with pytest.raises(ValueError):
        q_binomial(4, 2, step=0)


def test_q_binomial_order_override():
    padded = q_binomial(4, 2, order=9)
    assert padded.order == 9
    assert padded.dense() == [1, 1, 2, 1, 1, 0, 0, 0, 0, 0]


def test_am_lhs_depth_one_counts_partition_differences():
    series = am_lhs(1, 30)
    for n in range(31):
        assert series.coeff(n) == p_euler(n) - p_euler(n - 1)


def test_am_identity_on_a_grid():
    for k in range(1, 6):
        report = am_check(k, 60)
        assert report.passed, (k, report.violations[:3])


def test_am_lhs_matches_pentagonal_sum_over_euler_product():
    """am_lhs against its definition: the k-truncated sum of (-1)^j
    (q^gpn(j) - q^(gpn(j) + 2j + 1)) times 1/(q;q), built here from gpn."""
    N = 150
    inv_euler = pochhammer(1, 1, N).invert()
    for k in range(1, 9):
        coeffs = {}
        for j in range(k):
            for e, c in ((gpn(j), (-1) ** j), (gpn(j) + 2 * j + 1, -(-1) ** j)):
                if e <= N:
                    coeffs[e] = coeffs.get(e, 0) + c
        assert am_lhs(k, N) == IntSeries(coeffs, N) * inv_euler, k


def test_negative_coeffs_reports_first_offender():
    def negative_coeffs(coeffs, n0, first=False):
        report = CheckReport("sign", {})
        _bounded(report, coeffs, n0, first=first)
        assert all(v.expected == ">= 0" for v in report.violations)
        return [(v.witness, v.actual) for v in report.violations]

    assert negative_coeffs([-5, 0, 2, 7], 1) == []
    bad = [1, 2, -3, -4]
    assert negative_coeffs(bad, 0, first=True) == [(2, -3)]
    assert negative_coeffs(bad, 0) == [(2, -3), (3, -4)]
    assert negative_coeffs(bad, 3) == [(3, -4)]
    assert negative_coeffs(bad, 3, first=True) == [(3, -4)]


def test_am_rhs_trivial_when_every_term_overshoots():
    # k(k-1)/2 + (k+1)k > N leaves only the constant 1 on both sides
    assert am_rhs(6, 10).dense() == [1] + [0] * 10
    assert am_lhs(6, 10).dense() == [1] + [0] * 10


def test_am_rejects_bad_depth():
    with pytest.raises(ValueError):
        am_lhs(0, 10)
    with pytest.raises(ValueError):
        am_rhs(0, 10)


def test_am_rhs_rejects_negative_order():
    with pytest.raises(ValueError, match="N must be nonnegative"):
        am_rhs(1, -1)


def test_mk_identity_frozen_coefficient():
    # depth 2 carries sign -1: the series coefficient at q^15 is -M_2(15)
    assert -am_lhs(2, 15).coeff(15) == m_k(2, 15) == 18


def test_mk_identity_check_grid():
    for k in (1, 2, 3):
        report = mk_identity_check(k, 20)
        assert report.passed, (k, report.violations[:3])
    with pytest.raises(ValueError):
        mk_identity_check(1, 5, nmin=6)
    with pytest.raises(ValueError):
        mk_identity_check(0, 5)


def test_pentagonal_check_passes():
    for R, S in [(3, 1), (2, 1), (5, 3), (8, 5)]:
        assert pentagonal_check(R, S, 80).passed
    with pytest.raises(ValueError):
        pentagonal_check(3, 3, 10)


def test_jacobi_cube_check_passes():
    assert jacobi_cube_check(70).passed


def test_conjecture_regime_labels():
    assert conjecture_regime(3, 1) == "conjectured (S < R/2)"
    assert conjecture_regime(7, 3) == "conjectured (S < R/2)"
    assert conjecture_regime(3, 2) == "extended (R/2 <= S < R)"
    assert conjecture_regime(2, 1) == "extended (R/2 <= S < R)"


def test_conjecture_series_reduces_to_am_lhs_at_3_1():
    # same numerator and the same quotient; conjecture_series also folds
    # in the sign (-1)^(k-1) that am_lhs leaves to its consumer
    for k in (1, 2, 3, 4):
        sign = 1 if k % 2 else -1
        assert conjecture_series(TruncParams(3, 1, k, 40)) == \
            am_lhs(k, 40).scale(sign)


def test_conjecture_check_both_regimes():
    for R, S in [(3, 1), (4, 1), (5, 2), (2, 1), (3, 2), (5, 4)]:
        for k in (1, 2, 3):
            report = conjecture_check(TruncParams(R, S, k, 60))
            assert report.passed, (R, S, k, report.violations[:3])
            assert report.params["regime"] == conjecture_regime(R, S)


def test_d_series_matches_partition_side_at_3_1():
    """At (3,1) the quotient is 1/(q;q): each theta term contributes a
    shifted copy of p, so the coefficients reduce to a pentagonal sum."""
    for k in (1, 2, 3):
        series = d_series(TruncParams(3, 1, k, 40))
        for n in range(1, 41):
            partition_side = sum(
                (1 if j % 2 == 0 else -1) * j * p_euler(n - gpn(j))
                for j in range(-k, k)
            )
            assert series.coeff(n) == partition_side - divisor_diff(n, 3, 1)


def test_theorem13_series_frozen_low_coefficients():
    series = theorem13_series(TruncParams(3, 1, 1, 12))
    assert series.dense() == [0, 0, 1, 1, 2, 5, 7, 9, 15, 21, 30, 42, 55]


def test_theorem13_check_on_a_grid():
    for R in range(2, 7):
        for S in range(1, R):
            for k in (1, 2, 3):
                report = theorem13_check(TruncParams(R, S, k, 60))
                assert report.passed, (R, S, k, report.violations[:3])


def test_corollary14_directions():
    odd = corollary14_report(1, 60)
    even = corollary14_report(2, 60)
    assert odd.passed and odd.params["direction"] == ">="
    assert even.passed and even.params["direction"] == "<="
    for k in (3, 4, 5, 6):
        assert corollary14_report(k, 60).passed
    with pytest.raises(ValueError):
        corollary14_report(0, 10)


def test_recurrence_holds_with_equality():
    assert recurrence_check(120).passed
    with pytest.raises(ValueError):
        recurrence_check(0)


def test_f_series_frozen_values():
    assert _product_sum_f(3, 3 * 1 - 1, 12).dense() == \
        [1, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]


def test_f_series_matches_naive_expansion():
    for R, S, k in [(3, 1, 1), (3, 2, 1), (4, 1, 2), (5, 2, 1)]:
        got = _product_sum_f(R, R * k - S, 30)
        assert got.dense() == naive_product_sum(R, R * k - S, 30)


def test_weighted_double_sum_matches_naive_expansion():
    for R, A in [(3, 2), (3, 4), (4, 3), (5, 3)]:
        assert _mao_double_sum(R, A, 25).dense() == \
            naive_weighted_double_sum(R, A, 25)


def test_mao_check_grid():
    for R in range(2, 7):
        for S in range(1, R):
            for k in (1, 2):
                report = mao_check(TruncParams(R, S, k, 60))
                assert report.passed, (R, S, k, report.violations[:3])


def test_mao_check_rejects_nonpositive_base():
    # the base R*k - S is -2; the window 1 <= S < R, which TruncParams
    # checks, keeps every base R*k - S >= R - S >= 1
    with pytest.raises(ValueError, match="need 1 <= S < R"):
        mao_check(TruncParams(3, 5, 1, 20))


def test_i_series_frozen_values():
    P = TruncParams(3, 1, 1, 12)
    assert i_series(1, P).coeffs == {0: 1, 5: -1}
    assert i_series(2, P).coeffs == {3: 1, 10: -1}
    assert i_series(3, P).coeffs == {0: 1, 5: -2}
    assert i_series(4, P).coeffs == {3: 1, 10: -2}
    with pytest.raises(ValueError):
        i_series(5, P)
    with pytest.raises(ValueError):
        i_series_closed(0, P)


def test_i_series_closed_forms_agree_with_direct_sums():
    for R, S in [(3, 1), (3, 2), (4, 1), (5, 2), (5, 3), (7, 2)]:
        for k in (1, 2, 3):
            P = TruncParams(R, S, k, 45)
            for idx in (1, 2, 3, 4):
                assert i_series(idx, P) == i_series_closed(idx, P), (R, S, k, idx)
    # mao's bases at N = 600: the closed forms of I1 and I2 read _product_sum_f
    for S in range(1, 5):
        for k in range(1, 5):
            P = TruncParams(5, S, k, 600)
            for idx in (1, 2):
                assert i_series(idx, P) == i_series_closed(idx, P), (S, k, idx)


def test_decomposition_check_grid():
    for R, S in [(3, 1), (3, 2), (4, 1), (5, 2), (6, 1), (7, 3)]:
        for k in (1, 2, 3):
            report = decomposition_check(TruncParams(R, S, k, 60))
            assert report.passed, (R, S, k, report.violations[:3])


def test_decomposition_reports_first_negative_degree_per_index(monkeypatch):
    """Each I-quotient with negative coefficients yields one positivity
    violation: its lowest negative degree."""
    monkeypatch.setattr(trunclab, "i_series",
                        lambda idx, P: IntSeries({0: 1, 4: -3, 7: -5}, P.N))
    monkeypatch.setattr(trunclab, "_inv_triple", lambda R, S, N: IntSeries.one(N))
    report = decomposition_check(TruncParams(3, 1, 1, 20))
    positivity = [v for v in report.violations if "positivity" in v.witness["check"]]
    assert [(v.witness, v.expected, v.actual) for v in positivity] == [
        ({"check": f"I{idx}-positivity", "degree": 4}, ">= 0", -3) for idx in (1, 2, 3, 4)
    ]


def test_gz_series_from_colored_counts():
    euler = pochhammer(1, 1, 25)
    t = (euler * euler * euler).invert().dense()  # 3-colored partitions

    def colored(n):
        return t[n] if n >= 0 else 0

    for k in (1, 2, 3, 4):
        series = gz_series(k, 25)
        sign = -1 if k % 2 else 1
        for n in range(26):
            expected = sign * sum(
                (1 if j % 2 == 0 else -1) * (2 * j + 1)
                * colored(n - j * (j + 1) // 2)
                for j in range(k + 1)
            )
            assert series.coeff(n) == expected, (k, n)


def test_gz_series_frozen_head():
    assert gz_series(1, 5).dense() == [-1, 0, 0, 5, 15, 45]
    with pytest.raises(ValueError):
        gz_series(0, 10)


def test_gz_check_grid():
    for k in range(1, 6):
        report = gz_check(k, 60)
        assert report.passed, (k, report.violations[:3])


def test_wang_yee_check_grid():
    for R, S, m in [(3, 1, 1), (3, 1, 2), (3, 1, 3), (4, 2, 1), (4, 2, 2),
                    (4, 1, 2), (5, 2, 2), (6, 3, 2)]:
        report = wang_yee_check(R, S, m, 50)
        assert report.passed, (R, S, m, report.violations[:3])


def test_wang_yee_multiply_count_gate(monkeypatch):
    """Timing-free regression gate: the number of IntSeries products that
    wang-yee makes at a fixed point. Building the pair series by geometric
    steps took it from 617 to 361; summing over plain lists, with the
    Gaussian binomial as (1 - q^j) factors, left one: the theta quotient.
    The closed side runs a recurrence over plain lists and forms no
    product. A change that raises it fails here."""
    calls = record(monkeypatch, IntSeries, "__mul__")
    assert wang_yee_check(3, 1, 1, 60).passed
    assert len(calls) <= 1


def test_wang_yee_check_at_scale():
    # coefficients far larger than any benchmark point builds
    for m in (1, 3):
        report = wang_yee_check(3, 1, m, 400)
        assert report.passed, (m, report.violations[:3])


def test_wang_yee_rejects_bad_arguments():
    with pytest.raises(ValueError):
        wang_yee_check(3, 2, 1, 20)  # needs S <= R/2
    with pytest.raises(ValueError):
        wang_yee_check(4, 2, 0, 20)
    with pytest.raises(ValueError):
        wang_yee_check(4, 2, 1, -1)


def test_wang_yee_truncation_beyond_order_is_trivial():
    # R m(m-1)/2 > N: the closed side collapses to the bare constant 1,
    # and the truncated theta quotient must agree with it to order N
    report = wang_yee_check(6, 2, 4, 20)
    assert report.params == {"R": 6, "S": 2, "m": 4, "N": 20}
    assert report.passed, report.violations[:3]


def test_corollary14_reads_one_divisor_sieve(monkeypatch):
    """The divisor side of a report comes from one lambert_diff sieve, not
    from a trial division per n; recurrence_check keeps the trial division."""
    sieves = record(monkeypatch, trunclab, "lambert_diff")

    def trial_division(n, R, S):
        raise AssertionError("corollary14_report called divisor_diff")

    monkeypatch.setattr(trunclab, "divisor_diff", trial_division)
    assert corollary14_report(3, 150).passed
    assert sieves == [(3, 1, 150)]
