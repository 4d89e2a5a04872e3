"""The dense-scratch forms of the identity suites against their IntSeries forms.

wang_yee_rhs, _product_sum_f, _mao_double_sum and am_rhs sum into plain int
lists and form no series product. wang_yee_rhs runs an order-four
recurrence over n for its inner quadruple sum, _mao_double_sum sums by
parts over n + m, and the two product-sum series take their product
factors by Euler sums. _product_sum_f sums the Heine transform of its
series, about sqrt(N / R) terms times one Euler sum; walker_product_sum_f
below keeps the untransformed sum, N / R walker terms times two Euler
sums, as its oracle. The series_* functions below are the references of
every dense form: the same sums written term by term as IntSeries
operations, with the product factors as expanded q-Pochhammer products and
every Gaussian binomial from the Pascal recurrence of qbinomial.py. Every
result must be equal, coefficient for coefficient and in its order. The
timing-free gates count the work the dense forms do at fixed points.
"""
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrunc import qseries, trunclab
from qtrunc.qseries import IntSeries, _add_shifted, _euler_sum, _quotients, pochhammer
from qtrunc.trunclab import (
    TruncParams,
    _mao_double_sum,
    _product_sum_f,
    am_rhs,
    decomposition_check,
    mao_check,
    wang_yee_rhs,
)
from qbinomial import q_binomial
from reference import record


def series_wang_yee_rhs(R: int, S: int, m: int, N: int) -> IntSeries:
    """wang_yee_rhs with the whole pair table kept and every sum an
    IntSeries sum of cut, shifted products."""
    monomial = R * m * (m - 1) // 2
    if monomial > N:
        return IntSeries.one(N)
    W = N - monomial
    nmax = W // (R - S)
    invp = [IntSeries.one(W)]
    for i in range(1, nmax + 1):
        invp.append(invp[i - 1].div_one_minus(R * i))
    pairs = {}
    for hi in range(nmax + 1):
        p = pairs[0, hi] = invp[hi]
        for lo in range(1, min(hi, nmax - hi) + 1):
            p = pairs[lo, hi] = p.div_one_minus(R * lo)

    def pair(a, b):
        return pairs[a, b] if a <= b else pairs[b, a]

    pair_g = []
    pair_h = []
    for s in range(nmax + 1):
        g = IntSeries({}, W)
        h = IntSeries({}, W)
        for a in range(s + 1):
            e = m * a * R
            if e <= W:
                g = g + pair(s - a, a).truncate(W - e).shifted(e)
            e = a * (s - a) * R + 2 * a * S
            if e <= W:
                h = h + pair(a, s - a).truncate(W - e).shifted(e)
        pair_g.append(g)
        pair_h.append(h)
    total = IntSeries({}, W)
    for n in range(m, nmax + 1):
        low = n * (R - S)
        inner = IntSeries({}, W - low)
        for t in range(n + 1):
            e = n * R - t * S
            if e <= W:
                inner = inner + (pair_g[n - t].truncate(W - e)
                                 * pair_h[t].truncate(W - e)).shifted(e - low)
        total = total + (inner * q_binomial(n - 1, m - 1, R, order=W - low)).shifted(low)
    sign = 1 if m % 2 == 1 else -1
    return IntSeries.one(N) + total.scale(sign).shifted(monomial)


def series_product_sum_f(R: int, A: int, N: int) -> IntSeries:
    acc = IntSeries({}, N)
    term = IntSeries.one(N)
    n = 0
    while R * n <= N:
        if n > 0:
            term = (term.shifted(R).truncate(N)
                    .div_one_minus(R * n)
                    .div_one_minus(A + R * (n - 1)))
        acc = acc + term
        n += 1
    return acc * pochhammer(R, R, N) * pochhammer(A, R, N)


def walker_product_sum_f(R: int, A: int, N: int) -> IntSeries:
    """_product_sum_f before Heine's transformation: one walker term
    q^(Rn) / ((q^A; q^R)_n (q^R; q^R)_n) per n <= N / R, two geometric
    steps each, times (q^R; q^R)_inf and then (q^A; q^R)_inf by two Euler
    sums."""
    acc = [1] + [0] * N
    terms = ((R * n, (R * n, A + R * (n - 1))) for n in count(1))
    for e, term in _quotients([1] + [0] * N, terms):
        _add_shifted(acc, term, e)
    return IntSeries._from_list(_euler_sum(A, R, _euler_sum(R, R, acc)), N)


def series_mao_double_sum(R: int, A: int, N: int) -> IntSeries:
    acc = IntSeries({}, N)
    base = IntSeries.one(N)
    n = 0
    while 2 * R * n <= N:
        if n > 0:
            base = (base.shifted(2 * R).truncate(N)
                    .div_one_minus(R * n)
                    .div_one_minus(A + R * (n - 1)))
        m = 0
        while 2 * R * n + R * m <= N:
            acc = acc + base.shifted(R * m).truncate(N).div_one_minus(A + R * (n + m))
            m += 1
        n += 1
    return acc * pochhammer(A, R, N) * pochhammer(R, R, N)


def series_am_rhs(k: int, N: int) -> IntSeries:
    base = k * (k - 1) // 2
    acc = IntSeries({}, N)
    inv_fact = IntSeries.one(N)
    fact_level = 0
    n = k
    while base + (k + 1) * n <= N:
        e = base + (k + 1) * n
        inv_fact = inv_fact.truncate(N - e)
        while fact_level < n:
            fact_level += 1
            inv_fact = inv_fact.div_one_minus(fact_level)
        term = q_binomial(n - 1, k - 1, order=N - e) * inv_fact
        acc = acc + term.shifted(e)
        n += 1
    return IntSeries.one(N) + acc.scale(1 if k % 2 == 1 else -1)


def test_wang_yee_rhs_matches_series_form():
    # the benchmark's two points, then small orders over both windows
    for args in [(3, 1, 1, 150), (3, 1, 2, 153)]:
        assert wang_yee_rhs(*args) == series_wang_yee_rhs(*args), args
    for R, S, m in [(3, 1, 1), (3, 1, 2), (4, 2, 1), (5, 2, 3), (6, 3, 2),
                    (4, 2, 3), (5, 1, 4)]:
        for N in (0, 5, 31, 45, 120):
            assert wang_yee_rhs(R, S, m, N) == series_wang_yee_rhs(R, S, m, N), \
                (R, S, m, N)


@st.composite
def wang_yee_points(draw):
    R = draw(st.integers(2, 9))
    return (R, draw(st.integers(1, R // 2)), draw(st.integers(1, 5)),
            draw(st.integers(0, 90)))


@settings(max_examples=60, deadline=None)
@given(wang_yee_points())
# N = R m(m-1)/2 - 1 and N = R m(m-1)/2: no term, then the n = 0 slot alone
@example((3, 1, 3, 8))
@example((3, 1, 3, 9))
# nmax = 1, 2, 3 and 3: the walk ends before the U_(n-2) or U_(n-4) term applies
@example((5, 2, 2, 8))
@example((4, 1, 2, 11))
@example((4, 1, 1, 11))
@example((2, 1, 2, 5))
def test_wang_yee_rhs_recurrence_matches_series_form(point):
    assert wang_yee_rhs(*point) == series_wang_yee_rhs(*point)


def test_product_sum_f_matches_series_form():
    # every base exponent 5k -+ S of mao at R = 5, S = 1..4, k = 1..4
    bases = sorted({5 * k + sign * S for S in range(1, 5) for k in range(1, 5)
                    for sign in (-1, 1)})
    for A in bases:
        assert _product_sum_f(5, A, 500) == series_product_sum_f(5, A, 500), A


@given(st.integers(1, 8).flatmap(
    lambda R: st.tuples(st.just(R), st.integers(1, 3 * R + 1), st.integers(0, 150))))
@settings(max_examples=80, deadline=None)
# N = 0; N < A; N < R; A = R; A = 2R
@example((5, 3, 0))
@example((3, 7, 5))
@example((8, 3, 6))
@example((4, 4, 90))
@example((3, 6, 150))
def test_heine_sum_matches_walker_sum(point):
    assert _product_sum_f(*point) == walker_product_sum_f(*point)


def test_mao_double_sum_matches_series_form():
    for R, A in [(5, 3), (5, 7), (3, 2), (4, 9)]:
        for N in (0, 7, 150):
            assert _mao_double_sum(R, A, N) == series_mao_double_sum(R, A, N), (R, A, N)
    assert _mao_double_sum(5, 3, 600) == series_mao_double_sum(5, 3, 600)


@given(st.integers(1, 8).flatmap(
    lambda R: st.tuples(st.just(R), st.integers(1, 3 * R + 1), st.integers(0, 150))))
@settings(max_examples=60, deadline=None)
def test_euler_sums_match_the_product_route(point):
    """The product factors of each sum, taken by Euler sums, against the
    bare sum (Euler sums stubbed out) times the expanded factors by series
    products: (q^A; q^R)_inf alone for the Heine sum of _product_sum_f,
    (q^R; q^R)_inf and (q^A; q^R)_inf for _mao_double_sum."""
    R, A, N = point
    for build, factors in ((_product_sum_f, [(A, R)]),
                           (_mao_double_sum, [(R, R), (A, R)])):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trunclab, "_euler_sum", lambda a, step, base: base)
            expected = build(R, A, N)
        for a, step in factors:
            expected = expected * pochhammer(a, step, N)
        assert build(R, A, N) == expected, build


def test_am_rhs_matches_series_form():
    # N = 0 and 1 leave no term at any k; N = 7 is the first term at k = 2
    for k in range(1, 6):
        for N in (0, 1, 7, 23, 60, 300):
            assert am_rhs(k, N) == series_am_rhs(k, N), (k, N)


def _count_steps(monkeypatch):
    """(e, length) of every _div_one_minus_list call, from trunclab or
    through the walker."""
    steps = []
    for owner in (qseries, trunclab):
        real = owner._div_one_minus_list

        def counting(dense, e, real=real):
            steps.append((e, len(dense)))
            real(dense, e)

        monkeypatch.setattr(owner, "_div_one_minus_list", counting)
    return steps


def test_wang_yee_rhs_forms_no_product_and_one_step_per_n(monkeypatch):
    """Timing-free gate: wang_yee_rhs reaches no product kernel, theta sum
    or reciprocal, and takes one geometric step per n of its recurrence,
    n = 1..nmax, on the W - 2n + 1 coefficients that survive the shift 2n,
    and m - 1 for its common 1/(q^R; q^R)_(m-1)."""
    targets = [(qseries, "_kronecker_mul"), (qseries, "_schoolbook_mul"),
               (qseries, "_theta_sum"), (trunclab, "_theta_sum"),
               (trunclab, "_inv_triple"), (IntSeries, "invert"),
               (IntSeries, "__mul__")]
    forbidden = [record(monkeypatch, owner, name) for owner, name in targets]
    steps = _count_steps(monkeypatch)
    for m in range(1, 5):
        steps.clear()
        wang_yee_rhs(3, 1, m, 150 + 3 * m * (m - 1) // 2)
        assert all(calls == [] for calls in forbidden), m
        assert steps == ([(3 * n, 150 - 2 * n + 1) for n in range(1, 76)]
                         + [(3 * i, 151) for i in range(1, m)]), m


def test_product_sum_f_takes_two_steps_per_heine_term(monkeypatch):
    """Timing-free gate: the Heine sum takes two walker steps per n >= 1
    while 5n^2 + 3n <= 600, n = 1..10, each on the 601 - 5n^2 - 3n
    coefficients that survive the shift: 20 steps, where the sum before
    the transformation took 240. Its Euler sum is stubbed out, so only the
    sum's own steps are counted."""
    monkeypatch.setattr(trunclab, "_euler_sum", lambda a, step, base: base)
    steps = _count_steps(monkeypatch)
    _product_sum_f(5, 3, 600)
    expected = []
    for n in range(1, 11):
        kept = 601 - 5 * n * n - 3 * n
        expected += [(5 * n, kept), (3 + 5 * (n - 1), kept)]
    assert steps == expected


def test_mao_double_sum_takes_three_steps_per_M(monkeypatch):
    """Timing-free gate: summed by parts over M = n + m, the double sum
    takes two walker steps per 1 <= M <= N // R and one step on a copy per
    M <= N // R, within 3 (N // R + 1), each on the N - RM + 1
    coefficients that survive the shift RM. The Euler sums of its two
    product factors are stubbed out, so only the sum's own steps are
    counted."""
    monkeypatch.setattr(trunclab, "_euler_sum", lambda a, step, base: base)
    steps = _count_steps(monkeypatch)
    _mao_double_sum(5, 3, 600)
    expected = [(3, 601)]
    for M in range(1, 121):
        kept = 600 - 5 * M + 1
        expected += [(5 * M, kept), (3 + 5 * (M - 1), kept), (3 + 5 * M, kept)]
    assert steps == expected


def test_mao_series_objects_do_not_grow_with_order(monkeypatch):
    """Timing-free gate: mao_check builds a fixed number of IntSeries,
    whatever N / R, because its sums run over dense scratch lists."""
    built = []
    init = IntSeries.__init__
    from_list = IntSeries._from_list

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    def counting_from_list(cls, *args):
        built.append(1)
        return from_list(*args)

    monkeypatch.setattr(IntSeries, "__init__", counting_init)
    monkeypatch.setattr(IntSeries, "_from_list", classmethod(counting_from_list))
    counts = []
    for N in (120, 480):
        built.clear()
        assert mao_check(TruncParams(5, 2, 1, N)).passed
        counts.append(len(built))
    assert counts[0] <= 16
    assert counts[1] == counts[0]


def test_decomposition_expands_its_triple_product_once(monkeypatch):
    calls = record(monkeypatch, trunclab, "triple_product")
    for k in range(1, 7):
        assert decomposition_check(TruncParams(5, 2, k, 600)).passed, k
    assert len(calls) == 1


def test_mao_takes_its_product_factors_by_euler_sums(monkeypatch):
    """Timing-free gate: every mao series at one (R, N), over all k as the
    CLI runs them, multiplies its Heine sum by (q^A; q^R)_inf by one Euler
    sum, and reaches no product kernel and no expanded product."""
    forbidden = [record(monkeypatch, qseries, name)
                 for name in ("_kronecker_mul", "_schoolbook_mul", "_mul_lists",
                              "pochhammer")]
    forbidden.append(record(monkeypatch, trunclab, "pochhammer"))
    calls = record(monkeypatch, trunclab, "_euler_sum",
                   lambda a, step, base: (a, step, len(base)))
    for k in range(1, 5):
        assert mao_check(TruncParams(5, 1, k, 500)).passed, k
    assert all(c == [] for c in forbidden)
    assert calls == [(A, 5, 501) for k in range(1, 5) for A in (5 * k - 1, 5 * k + 1)]
