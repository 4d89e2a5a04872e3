"""Truncated-series identities and sign theorems, built and checked exactly.

Every function here either constructs a truncated series (both sides of an
identity, a partial theta sum over an infinite product, a divisor-series
difference) or renders a CheckReport verdict on an equality or a
coefficientwise sign claim. All prefactor signs are folded into the named
construction so that "nonnegative" is always the literal check, and every
infinite sum is cut by an exponent bound, never by term count.

Two scans over coefficient lists write every series verdict's witnesses:
``_mismatches`` for an equality claim and ``_bounded`` for a sign claim
(a coefficient at least, or at most, a bound). The witness is the bare
degree, or the degree under the claim's tag.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress, count
from operator import add, gt, lt, ne, sub

from .partitions import _p_table, divisor_diff, jacobi_cube, m_k, set_a_size
from .qseries import (
    IntSeries,
    _div_one_minus_list,
    _euler_cubed,
    _euler_sum,
    _quotients,
    _require_nonnegative,
    _require_positive,
    _require_window,
    _theta_sum,
    _times_one_minus_list,
    bilateral_theta,
    lambert_diff,
    pochhammer,
    triple_product,
)
from .report import CheckReport, _Record


class TruncParams(_Record):
    """Parameter tuple (R, S, truncation depth k, series order N)."""

    __slots__ = _fields = ("R", "S", "k", "N")

    def __init__(self, R: int, S: int, k: int, N: int):
        if R < 1 or S < 1 or k < 1:
            raise ValueError(f"R, S, k must be positive, got R={R}, S={S}, k={k}")
        _require_nonnegative("N", N)
        self._set(R, S, k, N)


def _sign(j: int) -> int:
    return 1 if j % 2 == 0 else -1


@lru_cache(maxsize=1)
def _triple(R: int, S: int, N: int) -> IntSeries:
    """The triple product at (R, S, N): the left side of decomposition, the
    only suite that multiplies by it. One entry is enough: a CLI grid holds
    (R, S, N) fixed and sweeps only k, so every point after the first hits."""
    return triple_product(R, S, N)


@lru_cache(maxsize=1)
def _inv_triple(R: int, S: int, N: int) -> IntSeries:
    """The reciprocal triple product at (R, S, N): by Jacobi's triple
    product the product is the sparse theta sum ``bilateral_theta``, so
    this is that sum inverted, and every theta quotient is its numerator
    times this series. One entry is enough: a CLI grid holds (R, S, N)
    fixed and sweeps only k, so every point after the first hits."""
    return bilateral_theta(R, S, N).invert()


@lru_cache(maxsize=1)
def _inv_euler_cubed(N: int) -> IntSeries:
    """1/(q; q)_inf cubed: by Jacobi's identity the cube is the sparse sum
    ``jacobi_cube``, so this is that sum inverted. One entry is enough: a
    gz grid holds N fixed and sweeps only k."""
    return jacobi_cube(N).invert()


def _add_shifted(acc: list[int], src: list[int], e: int, op=add) -> None:
    """acc = op(acc, q^e * src) in place, add unless op is given, dropping
    what falls past the end of acc."""
    if e < len(acc):
        end = e + len(src)
        acc[e:end] = map(op, acc[e:end], src)


def _mismatches(report: CheckReport, actual: list[int], expected: list[int],
                tag: dict | None = None, n0: int = 0) -> None:
    """Add (witness, expected[d], actual[d]) to report for each degree d
    from n0 up to the shorter list's end where the two lists differ,
    lowest first: the scan behind every equality claim."""
    for d in compress(count(n0), map(ne, actual[n0:], expected[n0:])):
        report.add(d if tag is None else {**tag, "degree": d}, expected[d], actual[d])


def _bounded(report: CheckReport, actual: list[int], n0: int,
             bound: list[int] | None = None, upper: bool = False,
             tag: dict | None = None, first: bool = False) -> None:
    """Add (witness, ">= b", actual[d]) to report for each degree d >= n0
    where actual[d] is below its bound b, lowest first; with upper, the
    claim is <= and the offenders are above it. A missing bound is 0, and
    first stops at the first offender: the scan behind every sign claim."""
    if bound is None:
        bound = [0] * len(actual)
    claim = "<=" if upper else ">="
    for d in compress(count(n0), map(gt if upper else lt, actual[n0:], bound[n0:])):
        report.add(d if tag is None else {**tag, "degree": d},
                   f"{claim} {bound[d]}", actual[d])
        if first:
            break


# ---------------------------------------------------------------------------
# Truncated pentagonal identity and the sieve-count triangle


def am_lhs(k: int, N: int) -> IntSeries:
    """k-truncated pentagonal alternating sum divided by the Euler product:
    the theta quotient at (R, S) = (3, 1), whose triple product is (q;q)_inf."""
    _require_positive("k", k)
    return bilateral_theta(3, 1, N, k) * _inv_triple(3, 1, N)


def am_rhs(k: int, N: int) -> IntSeries:
    """Closed series form of am_lhs: 1 plus a signed sum of Gaussian-binomial
    terms q^(k(k-1)/2 + (k+1)n) [n-1, k-1] / (q;q)_n over n >= k.

    The summation is cut once the minimum exponent of a term exceeds N.
    Since [n-1, k-1] = (q;q)_(n-1) / ((q;q)_(k-1) (q;q)_(n-k)), each term is
    q^e / ((q;q)_(k-1) (q;q)_(n-k) (1 - q^n)). The sum is built over plain
    lists without a product: the walker ``qseries._quotients`` keeps the
    running 1/(q;q)_(n-k), each term takes one more geometric step for
    1/(1 - q^n) on a copy, and the common 1/(q;q)_(k-1) is applied once.
    """
    _require_positive("k", k)
    _require_nonnegative("N", N)
    base = k * (k - 1) // 2
    acc = [0] * (N + 1)
    terms = ((base + (k + 1) * n, (n - k,) if n > k else ()) for n in count(k))
    for n, (e, inv_fact) in enumerate(_quotients([1] + [0] * N, terms), k):
        term = list(inv_fact)
        _div_one_minus_list(term, n)
        _add_shifted(acc, term, e)
    for i in range(1, k):
        _div_one_minus_list(acc, i)
    sign = _sign(k - 1)
    acc = [sign * c for c in acc]
    acc[0] += 1
    return IntSeries._from_list(acc, N)


def am_check(k: int, N: int) -> CheckReport:
    """Exact coefficient equality of am_lhs and am_rhs to order N."""
    report = CheckReport("am-identity", {"k": k, "N": N})
    _mismatches(report, am_lhs(k, N).dense(), am_rhs(k, N).dense())
    return report


def mk_identity_check(k: int, nmax: int, nmin: int = 1) -> CheckReport:
    """Triangle consistency: the q^n coefficient extracted from am_lhs, the
    direct sieve count, and the rank-class cardinality difference must agree
    pairwise for nmin <= n <= nmax."""
    if k < 1 or nmax < nmin or nmin < 1:
        raise ValueError(f"need k >= 1 and 1 <= nmin <= nmax, got k={k}, "
                         f"nmin={nmin}, nmax={nmax}")
    report = CheckReport("mk-identity", {"k": k, "nmin": nmin, "nmax": nmax})
    series = am_lhs(k, nmax)
    sign = _sign(k - 1)
    for n in range(nmin, nmax + 1):
        from_series = sign * series.coeff(n)
        direct = m_k(k, n)
        from_classes = set_a_size(2, k - 1, n) - set_a_size(1, -k, n)
        if not from_series == direct == from_classes:
            report.add(
                {"n": n, "k": k},
                direct,
                {"series_coeff": from_series, "class_difference": from_classes},
            )
    return report


# ---------------------------------------------------------------------------
# Foundational identity suites


def pentagonal_check(R: int, S: int, N: int) -> CheckReport:
    """Triple product versus bilateral theta sum, coefficient by coefficient.

    The product side is expanded by Euler's distinct-parts sum (see
    ``qseries.pochhammer``), which does not go through Jacobi's triple
    product, so the two sides are independent routes. At (R, S) = (3, 1)
    the plain Euler product is compared as well, since the three residue
    classes mod 3 then cover every exponent.
    """
    _require_window(R, S)
    report = CheckReport("pentagonal", {"R": R, "S": S, "N": N})
    theta = bilateral_theta(R, S, N).dense()
    _mismatches(report, triple_product(R, S, N).dense(), theta,
                {"check": "triple-vs-theta"})
    if (R, S) == (3, 1):
        _mismatches(report, pochhammer(1, 1, N).dense(), theta,
                    {"check": "euler-vs-theta"})
    return report


def jacobi_cube_check(N: int) -> CheckReport:
    """Cubed Euler product versus its sparse odd-weighted triangular sum.

    The Euler product is expanded by Euler's distinct-parts sum (see
    ``qseries.pochhammer``) and cubed by two Kronecker products (see
    ``qseries._euler_cubed``); the other side is the theta-type sum of
    ``jacobi_cube``, so the routes are independent.
    """
    report = CheckReport("jacobi-cube", {"N": N})
    _mismatches(report, _euler_cubed(N).dense(), jacobi_cube(N).dense())
    return report


# ---------------------------------------------------------------------------
# Truncated theta quotients


def conjecture_regime(R: int, S: int) -> str:
    _require_window(R, S)
    return "conjectured (S < R/2)" if 2 * S < R else "extended (R/2 <= S < R)"


def conjecture_series(P: TruncParams) -> IntSeries:
    """Signed k-truncated theta sum divided by the triple product.

    The sign (-1)^(k-1) is folded into the sparse numerator, so
    nonnegativity of the coefficients from q^1 on is the literal claim
    under test.
    """
    _require_window(P.R, P.S)
    numerator = bilateral_theta(P.R, P.S, P.N, P.k).scale(_sign(P.k - 1))
    return numerator * _inv_triple(P.R, P.S, P.N)


def conjecture_check(P: TruncParams) -> CheckReport:
    report = CheckReport(
        "conjecture",
        {"R": P.R, "S": P.S, "k": P.k, "N": P.N,
         "regime": conjecture_regime(P.R, P.S)},
    )
    _bounded(report, conjecture_series(P).dense(), 1)
    return report


def _index_theta(R: int, S: int, N: int, k: int | None = None) -> IntSeries:
    """The index-weighted theta sum over -k <= j < k (every j when k is
    None) of (-1)^j j q^(R j(j+1)/2 - S j), to order N: the numerator of
    d_series and, at (R, S) = (3, 1), where the exponent is gpn(j), of
    index_weighted_sums."""
    # the term j = -(i+1) is (-1)^i (i+1) q^(R i(i+1)/2 + S i + S)
    return _theta_sum(R, -S, 0, N, k, u=1, v=0) + _theta_sum(R, S, S, N, k, u=1)


def d_series(P: TruncParams) -> IntSeries:
    """Index-weighted truncated theta sum (``_index_theta``) over the
    triple product, minus the divisor-difference series it approximates."""
    _require_window(P.R, P.S)
    R, S, k, N = P.R, P.S, P.k, P.N
    return _index_theta(R, S, N, k) * _inv_triple(R, S, N) - lambert_diff(R, S, N)


def theorem13_series(P: TruncParams) -> IntSeries:
    """d_series with the sign (-1)^(k-1) folded in."""
    return d_series(P).scale(_sign(P.k - 1))


def theorem13_check(P: TruncParams) -> CheckReport:
    """Coefficients of theorem13_series must be >= 0 for 1 <= n <= N.

    The constant term is exempt: the claim starts at q^1.
    """
    report = CheckReport("theorem13", {"R": P.R, "S": P.S, "k": P.k, "N": P.N})
    _bounded(report, theorem13_series(P).dense(), 1)
    return report


def index_weighted_sums(nmax: int, k: int | None = None) -> list[int]:
    """For every 0 <= n <= nmax, the sum of (-1)^j j p(n - gpn(j)) over the
    j with gpn(j) <= n, restricted to -k <= j < k when k is given (a
    negative k is a ValueError).

    That is one product: the index-weighted theta sum at (R, S) = (3, 1),
    whose exponent 3 j(j+1)/2 - j is gpn(j), times p(0..nmax) read once
    from the memo of ``partitions.p_euler``. The schoolbook pass makes one
    slice update per j, O(sqrt(nmax)) of them.
    """
    _require_nonnegative("nmax", nmax)
    p = IntSeries._from_list(_p_table.upto(nmax)[:nmax + 1], nmax)
    return (_index_theta(3, 1, nmax, k) * p).dense()


def corollary14_report(k: int, nmax: int) -> CheckReport:
    """Parity-directed comparison of the truncated index-weighted partition
    sum against the divisor difference d_{1,3}(n) - d_{2,3}(n): >= for odd k,
    <= for even k, over 1 <= n <= nmax."""
    if k < 1 or nmax < 1:
        raise ValueError(f"need k >= 1 and nmax >= 1, got k={k}, nmax={nmax}")
    direction = ">=" if k % 2 == 1 else "<="
    report = CheckReport("corollary14", {"k": k, "nmax": nmax, "direction": direction})
    _bounded(report, index_weighted_sums(nmax, k), 1, lambert_diff(3, 1, nmax).dense(),
             upper=k % 2 == 0)
    return report


def recurrence_check(nmax: int) -> CheckReport:
    """Full (untruncated) index-weighted partition sum equals the divisor
    difference d_{1,3}(n) - d_{2,3}(n) for every 1 <= n <= nmax."""
    _require_positive("nmax", nmax)
    report = CheckReport("recurrence117", {"nmax": nmax})
    # trial division from degree 1; the 0 at degree 0 is not compared
    trial = [0] + [divisor_diff(n, 3, 1) for n in range(1, nmax + 1)]
    _mismatches(report, index_weighted_sums(nmax), trial, n0=1)
    return report


# ---------------------------------------------------------------------------
# Product-sum building blocks and the decomposition


def _product_sum_f(R: int, A: int, N: int) -> IntSeries:
    """(q^A, q^R; q^R)_inf times the sum over n >= 0 of
    q^(Rn) / ((q^A; q^R)_n (q^R; q^R)_n), each term a running quotient
    of the walker ``qseries._quotients``, two geometric steps per n >= 1.
    The sum is multiplied by (q^R; q^R)_inf and then by (q^A; q^R)_inf by
    two Euler sums (``qseries._euler_sum``), as ``triple_product`` chains
    its factors, so no series product is formed."""
    _require_positive("base exponent", A)
    acc = [1] + [0] * N  # the term n = 0
    terms = ((R * n, (R * n, A + R * (n - 1))) for n in count(1))
    for e, term in _quotients([1] + [0] * N, terms):
        _add_shifted(acc, term, e)
    return IntSeries._from_list(_euler_sum(A, R, _euler_sum(R, R, acc)), N)


def mao_check(P: TruncParams) -> CheckReport:
    """1 minus each product-sum series (base exponents R*k -+ S) must equal
    the corresponding alternating theta-type sum, exactly to order N."""
    R, S, k, N = P.R, P.S, P.k, P.N
    if R * k - S < 1:
        raise ValueError(f"need R*k - S >= 1, got {R * k - S}")
    report = CheckReport("mao", {"R": R, "S": S, "k": k, "N": N})
    for label, A in (("base R*k-S", R * k - S), ("base R*k+S", R * k + S)):
        lhs = IntSeries.one(N) - _product_sum_f(R, A, N)
        # sum over j >= 1 of (-1)^(j+1) q^(R j(j-1)/2 + A j)
        rhs = _theta_sum(R, A, A, N)
        _mismatches(report, lhs.dense(), rhs.dense(), {"series": label})
    return report


def i_series(idx: int, P: TruncParams) -> IntSeries:
    """The four alternating building-block sums of the decomposition.

    Index 1: sum of (-1)^j q^(R j(j+1)/2 + (kR-S) j); index 2 shifts the
    linear coefficient to kR+S and the whole sum by S(2k+1); indices 3 and 4
    repeat 1 and 2 with an extra factor (j+1).
    """
    if idx not in (1, 2, 3, 4):
        raise ValueError(f"idx must be 1..4, got {idx}")
    _require_window(P.R, P.S)
    R, S, k, N = P.R, P.S, P.k, P.N
    plus = idx in (2, 4)
    linear = R * k + S if plus else R * k - S
    offset = S * (2 * k + 1) if plus else 0
    return _theta_sum(R, linear, offset, N, u=int(idx in (3, 4)))


def _mao_double_sum(R: int, A: int, N: int) -> IntSeries:
    """(q^A, q^R; q^R)_inf times the double sum over n, m >= 0 of
    q^(R(2n+m)) / ((q^A; q^R)_n (q^R; q^R)_n (1 - q^(A + R(n+m)))).

    Summed by parts over M = n + m, it is the sum over M >= 0 of
    q^(RM) C_M / (1 - q^(A + RM)), where C_M = C_(M-1) + q^(RM) b_M is the
    running sum of q^(Rn) b_n, b_n = 1 / ((q^A; q^R)_n (q^R; q^R)_n), and
    the walker ``qseries._quotients`` gives b_M at the shift RM. Each term
    takes its geometric step on a copy: three steps per M >= 1, O(N^2 / R).
    The two product factors are taken by Euler sums, as in ``_product_sum_f``.
    """
    acc = [0] * (N + 1)
    partial = [0] * (N + 1)  # C_M, cut to the coefficients that survive RM
    terms = ((R * M, (R * M, A + R * (M - 1)) if M else ()) for M in count())
    for e, quotient in _quotients([1] + [0] * N, terms):
        del partial[N - e + 1:]
        _add_shifted(partial, quotient, e)
        term = list(partial)
        _div_one_minus_list(term, A + e)
        _add_shifted(acc, term, e)
    return IntSeries._from_list(_euler_sum(A, R, _euler_sum(R, R, acc)), N)


def i_series_closed(idx: int, P: TruncParams) -> IntSeries:
    """Independent closed forms for the four building-block sums.

    Indices 1 and 2 come out of the product-sum series via a monomial shift
    (computed at an extended internal order so no validity is lost); indices
    3 and 4 come out of the weighted double-sum expansion.
    """
    if idx not in (1, 2, 3, 4):
        raise ValueError(f"idx must be 1..4, got {idx}")
    _require_window(P.R, P.S)
    R, S, k, N = P.R, P.S, P.k, P.N
    if idx == 1:
        down = R * k - S
        g = IntSeries.one(N + down) - _product_sum_f(R, R * k - S, N + down)
        return g.shifted(-down)
    if idx == 2:
        e = (2 * S - R) * k
        ext = max(0, -e)
        g = IntSeries.one(N + ext) - _product_sum_f(R, R * k + S, N + ext)
        return g.shifted(e).truncate(N)
    if idx == 3:
        return _mao_double_sum(R, R * k - S, N)
    return _mao_double_sum(R, R * k + S, N).shifted(S * (2 * k + 1)).truncate(N)


def decomposition_check(P: TruncParams) -> CheckReport:
    """The signed triple product times d_series must equal the monomial-
    shifted combination (k-1)I1 + kI2 + I3 + I4, exactly to order N; each
    I divided by the triple product must be coefficientwise nonnegative.
    """
    _require_window(P.R, P.S)
    R, S, k, N = P.R, P.S, P.k, P.N
    report = CheckReport("decomposition", {"R": R, "S": S, "k": k, "N": N})
    # R k^2 + (R - 2S) k = R k(k+1) - 2S k is even for every integer k
    shift = (R * k * k + (R - 2 * S) * k) // 2
    lhs = (_triple(R, S, N) * d_series(P)).scale(_sign(k - 1))
    blocks = [i_series(idx, P) for idx in (1, 2, 3, 4)]
    rhs = blocks[0].scale(k - 1) + blocks[1].scale(k) + blocks[2] + blocks[3]
    _mismatches(report, lhs.dense(), rhs.shifted(shift).dense(), {"check": "identity"})
    inv3 = _inv_triple(R, S, N)
    for idx, block in enumerate(blocks, 1):
        # only the first negative degree of each quotient is reported
        _bounded(report, (block * inv3).dense(), 0,
                 tag={"check": f"I{idx}-positivity"}, first=True)
    return report


# ---------------------------------------------------------------------------
# Cubed-product truncation and the quadruple-sum identity


def gz_series(k: int, N: int) -> IntSeries:
    """Signed k-truncated odd-weighted triangular sum over the cubed Euler
    product; the sign (-1)^k, folded into the weights of the sparse sum,
    makes nonnegativity from q^1 the literal claim."""
    _require_positive("k", k)
    sign = _sign(k)
    return _theta_sum(1, 0, 0, N, k + 1, u=2 * sign, v=sign) * _inv_euler_cubed(N)


def gz_check(k: int, N: int) -> CheckReport:
    report = CheckReport("gz", {"k": k, "N": N})
    _bounded(report, gz_series(k, N).dense(), 1)
    return report


def _require_half_window(R: int, S: int) -> None:
    """Reject (R, S) outside wang-yee's window 1 <= S, 2S <= R."""
    if not (1 <= S and 2 * S <= R):
        raise ValueError(f"need 1 <= S <= R/2, got R={R}, S={S}")


def _add_numerator_term(acc: list[int], src: list[int], e: int, R: int,
                        n: int, k: int) -> None:
    """acc += q^e * src * prod_{i<k} (1 - q^(R(n-i))) in place, dropping
    what falls past the end of acc: src times the numerator of the Gaussian
    binomial [n, k] in q^R, cut before the factor steps."""
    if e < len(acc):
        term = src[:len(acc) - e]
        for i in range(k):
            _times_one_minus_list(term, R * (n - i))
        _add_shifted(acc, term, e)


def wang_yee_rhs(R: int, S: int, m: int, N: int) -> IntSeries:
    """Closed quadruple-sum series form of the m-truncated theta quotient
    in wang_yee_check, to order N.

    It is 1 plus a signed monomial shift of
    sum_{n >= m} sum_{i+j+h+k=n} q^((mj+hk)R + (h-k)S + nR) /
    ((q^R;q^R)_i (q^R;q^R)_j (q^R;q^R)_h (q^R;q^R)_k) * [n-1, m-1] in q^R,
    cut once the minimal exponent R m(m-1)/2 + n(R-S) exceeds N.

    With p = q^R, the inner sum T_n over i+j+h+k = n has, by Euler's sum
    and the q-binomial theorem (Andrews, The Theory of Partitions, (2.2.5)
    and (2.2.1)), the generating function
    sum_n T_n x^n = (p^2 x^2; p)_inf / (p x, p^(m+1) x, q^(R-S) x, q^(R+S) x; p)_inf.
    Comparing it with its value at p x gives an order-four recurrence for
    U_n = T_n / q^(n(R-S)), with U_0 = 1 and f = (0, S, 2S, mR + S):
    (1 - q^(Rn)) U_n = sum_{k=1..4} (-1)^(k+1) e_k(q^f) U_(n-k)
    - (q^(Rn - 2(R-S)) + q^(R(n+1) - 2(R-S))) U_(n-2) + q^(R(n+1) - 4(R-S)) U_(n-4),
    where e_k(q^f) is the sum of q^(sum c) over the k-subsets c of f.
    So U_n is 18 shifted adds of the last four and one geometric step, on a
    list cut to the W - n(R-S) + 1 coefficients that survive its shift,
    and the sum forms no series product. Each term n >= m takes its
    Gaussian binomial's numerator as factor steps, and the common
    1/(q^R;q^R)_(m-1) is applied once: nmax + m - 1 geometric steps in all.
    """
    _require_half_window(R, S)
    _require_positive("m", m)
    _require_nonnegative("N", N)
    monomial = R * m * (m - 1) // 2
    if monomial > N:
        return IntSeries.one(N)
    W = N - monomial
    d = R - S
    f = (0, S, 2 * S, m * R + S)
    # (k, op, e): op q^e U_(n-k), for the terms that do not depend on n
    fixed = [(k, add if k % 2 else sub, sum(c))
             for k in range(1, 5) for c in combinations(f, k)]
    total = [0] * (W + 1)
    recent = [[1] + [0] * W]  # U_(n-4) .. U_(n-1), the newest last
    for n in range(1, W // d + 1):
        u = [0] * (W - n * d + 1)
        terms = fixed + [(2, sub, R * n - 2 * d), (2, sub, R * (n + 1) - 2 * d),
                         (4, add, R * (n + 1) - 4 * d)]
        for k, op, e in terms:
            if k <= n:
                _add_shifted(u, recent[-k], e, op)
        _div_one_minus_list(u, R * n)
        if n >= m:
            _add_numerator_term(total, u, n * d, R, n - 1, m - 1)
        recent = recent[-3:] + [u]
    for i in range(1, m):
        _div_one_minus_list(total, R * i)
    sign = _sign(m - 1)
    out = [0] * monomial + [sign * c for c in total]
    out[0] += 1
    return IntSeries._from_list(out, N)


def wang_yee_check(R: int, S: int, m: int, N: int) -> CheckReport:
    """m-truncated theta sum over the triple product versus its closed
    quadruple-sum series form (wang_yee_rhs), compared exactly to order N."""
    rhs = wang_yee_rhs(R, S, m, N).dense()
    report = CheckReport("wang-yee", {"R": R, "S": S, "m": m, "N": N})
    lhs = bilateral_theta(R, S, N, m) * _inv_triple(R, S, N)
    _mismatches(report, lhs.dense(), rhs)
    return report
