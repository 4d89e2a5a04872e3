"""Truncated-series identities and sign theorems, built and checked exactly.

Every function here either constructs a truncated series (both sides of an
identity, a partial theta sum over an infinite product, a divisor-series
difference) or renders a CheckReport verdict on an equality or a
coefficientwise sign claim. All prefactor signs are folded into the named
construction so that "nonnegative" is always the literal check, and every
infinite sum is cut by an exponent bound, never by term count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterator

from .partitions import divisor_diff, gpn, jacobi_cube, m_k, p_euler, set_a_size
from .qseries import (
    IntSeries,
    _div_one_minus_list,
    _kronecker_mul,
    _require_window,
    _theta_sum,
    _times_one_minus_list,
    bilateral_theta,
    lambert_diff,
    pochhammer,
    triple_product,
)
from .report import CheckReport


@dataclass(frozen=True)
class TruncParams:
    """Parameter tuple (R, S, truncation depth k, series order N)."""

    R: int
    S: int
    k: int
    N: int

    def __post_init__(self):
        if self.R < 1 or self.S < 1 or self.k < 1:
            raise ValueError(
                f"R, S, k must be positive, got R={self.R}, S={self.S}, k={self.k}"
            )
        if self.N < 0:
            raise ValueError(f"N must be nonnegative, got {self.N}")


def _sign(j: int) -> int:
    return 1 if j % 2 == 0 else -1


@lru_cache(maxsize=None)
def _triple(R: int, S: int, N: int) -> IntSeries:
    """The triple product, expanded once per (R, S, N): decomposition's
    left side and the denominator that _inv_triple inverts."""
    return triple_product(R, S, N)


@lru_cache(maxsize=None)
def _inv_triple(R: int, S: int, N: int) -> IntSeries:
    return _triple(R, S, N).invert()


@lru_cache(maxsize=None)
def _euler(R: int, N: int) -> IntSeries:
    """(q^R; q^R)_inf, expanded once per (R, N): the factor that every
    product-sum series at one (R, N) shares, whichever base or k."""
    return pochhammer(R, R, N)


@lru_cache(maxsize=None)
def _euler_cubed(N: int) -> IntSeries:
    e = pochhammer(1, 1, N)
    return e * e * e


@lru_cache(maxsize=None)
def _inv_euler_cubed(N: int) -> IntSeries:
    return _euler_cubed(N).invert()


def _add_shifted(acc: list[int], src: list[int], e: int) -> None:
    """acc += q^e * src in place, dropping what falls past the end of acc."""
    if e < len(acc):
        end = e + len(src)
        acc[e:end] = map(add, acc[e:end], src)


def _diff_degrees(a: IntSeries, b: IntSeries) -> list[int]:
    n = min(a.order, b.order)
    degs = set()
    for d, c in a.coeffs.items():
        if d <= n and b.coeffs.get(d, 0) != c:
            degs.add(d)
    for d, c in b.coeffs.items():
        if d <= n and a.coeffs.get(d, 0) != c:
            degs.add(d)
    return sorted(degs)


def _negative_coeffs(series: IntSeries, n0: int) -> Iterator[tuple[int, int]]:
    """(degree, coefficient) of each negative coefficient of q^n0 .. q^order,
    lowest degree first: the scan behind every sign claim."""
    for n in range(n0, series.order + 1):
        c = series.coeffs.get(n, 0)
        if c < 0:
            yield n, c


# ---------------------------------------------------------------------------
# Truncated pentagonal identity and the sieve-count triangle


def am_lhs(k: int, N: int) -> IntSeries:
    """k-truncated pentagonal alternating sum divided by the Euler product:
    the theta quotient at (R, S) = (3, 1), whose triple product is (q;q)_inf."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return bilateral_theta(3, 1, N, k) * _inv_triple(3, 1, N)


def am_rhs(k: int, N: int) -> IntSeries:
    """Closed series form of am_lhs: 1 plus a signed sum of Gaussian-binomial
    terms q^(k(k-1)/2 + (k+1)n) [n-1, k-1] / (q;q)_n over n >= k.

    The summation is cut once the minimum exponent of a term exceeds N.
    Since [n-1, k-1] = (q;q)_(n-1) / ((q;q)_(k-1) (q;q)_(n-k)), each term is
    q^e / ((q;q)_(k-1) (q;q)_(n-k) (1 - q^n)). The sum is built over plain
    lists without a product: a running 1/(q;q)_(n-k), one geometric step per
    term for 1/(1 - q^n), and the common 1/(q;q)_(k-1) applied once to the
    sum. Each term is cut to the order N - e that survives its shift.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    base = k * (k - 1) // 2
    acc = [0] * (N + 1)
    inv_fact = [1] + [0] * N  # 1/(q;q)_(n-k)
    n = k
    while base + (k + 1) * n <= N:
        # e grows with n, so the running 1/(q;q)_(n-k) can stay cut
        e = base + (k + 1) * n
        del inv_fact[N - e + 1:]
        if n > k:
            _div_one_minus_list(inv_fact, n - k)
        term = list(inv_fact)
        _div_one_minus_list(term, n)
        _add_shifted(acc, term, e)
        n += 1
    for i in range(1, k):
        _div_one_minus_list(acc, i)
    sign = _sign(k - 1)
    acc = [sign * c for c in acc]
    acc[0] += 1
    return IntSeries._from_list(acc, N)


def am_check(k: int, N: int) -> CheckReport:
    """Exact coefficient equality of am_lhs and am_rhs to order N."""
    report = CheckReport("am-identity", {"k": k, "N": N})
    lhs = am_lhs(k, N)
    rhs = am_rhs(k, N)
    for d in _diff_degrees(lhs, rhs):
        report.add(d, rhs.coeff(d), lhs.coeff(d))
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

    At (R, S) = (3, 1) the plain Euler product is compared as well, since
    the three residue classes mod 3 then cover every exponent.
    """
    _require_window(R, S)
    report = CheckReport("pentagonal", {"R": R, "S": S, "N": N})
    theta = bilateral_theta(R, S, N)
    prod = triple_product(R, S, N)
    for d in _diff_degrees(prod, theta):
        report.add({"degree": d, "check": "triple-vs-theta"},
                   theta.coeff(d), prod.coeff(d))
    if (R, S) == (3, 1):
        euler = pochhammer(1, 1, N)
        for d in _diff_degrees(euler, theta):
            report.add({"degree": d, "check": "euler-vs-theta"},
                       theta.coeff(d), euler.coeff(d))
    return report


def jacobi_cube_check(N: int) -> CheckReport:
    """Cubed Euler product versus its sparse odd-weighted triangular sum."""
    report = CheckReport("jacobi-cube", {"N": N})
    cube = _euler_cubed(N)
    sparse = jacobi_cube(N)
    for d in _diff_degrees(cube, sparse):
        report.add(d, sparse.coeff(d), cube.coeff(d))
    return report


# ---------------------------------------------------------------------------
# Truncated theta quotients


def conjecture_regime(R: int, S: int) -> str:
    _require_window(R, S)
    return "conjectured (S < R/2)" if 2 * S < R else "extended (R/2 <= S < R)"


def conjecture_series(P: TruncParams) -> IntSeries:
    """Signed k-truncated theta sum divided by the triple product.

    The sign (-1)^(k-1) is folded in, so nonnegativity of the coefficients
    from q^1 on is the literal claim under test.
    """
    _require_window(P.R, P.S)
    series = bilateral_theta(P.R, P.S, P.N, P.k) * _inv_triple(P.R, P.S, P.N)
    return series.scale(_sign(P.k - 1))


def conjecture_check(P: TruncParams) -> CheckReport:
    report = CheckReport(
        "conjecture",
        {"R": P.R, "S": P.S, "k": P.k, "N": P.N,
         "regime": conjecture_regime(P.R, P.S)},
    )
    for n, c in _negative_coeffs(conjecture_series(P), 1):
        report.add(n, ">= 0", c)
    return report


def d_series(P: TruncParams) -> IntSeries:
    """Index-weighted truncated theta sum, over -k <= j < k of
    (-1)^j j q^(R j(j+1)/2 - S j), over the triple product, minus the
    divisor-difference series it approximates."""
    _require_window(P.R, P.S)
    R, S, k, N = P.R, P.S, P.k, P.N
    # the term j = -(i+1) is (-1)^i (i+1) q^(R i(i+1)/2 + S i + S)
    numerator = (_theta_sum(R, -S, 0, N, k, u=1, v=0)
                 + _theta_sum(R, S, S, N, k, u=1))
    return numerator * _inv_triple(R, S, N) - lambert_diff(R, S, N)


def theorem13_series(P: TruncParams) -> IntSeries:
    """d_series with the sign (-1)^(k-1) folded in."""
    return d_series(P).scale(_sign(P.k - 1))


def theorem13_check(P: TruncParams) -> CheckReport:
    """Coefficients of theorem13_series must be >= 0 for 1 <= n <= N.

    The constant term is exempt: the claim starts at q^1.
    """
    report = CheckReport("theorem13", {"R": P.R, "S": P.S, "k": P.k, "N": P.N})
    for n, c in _negative_coeffs(theorem13_series(P), 1):
        report.add(n, ">= 0", c)
    return report


def index_weighted_sum(n: int, k: int | None = None) -> int:
    """Sum of (-1)^j j p(n - gpn(j)) over the j with gpn(j) <= n, restricted
    to -k <= j < k when k is given.

    gpn(j) grows with |j| on each side of 0, so j walks outward from 0 in
    both directions and stops at the first gpn(j) > n: O(sqrt(n)) terms.
    """
    total = 0
    for j, step in ((0, 1), (-1, -1)):
        while k is None or -k <= j < k:
            g = gpn(j)
            if g > n:
                break
            total += _sign(j) * j * p_euler(n - g)
            j += step
    return total


def corollary14_report(k: int, nmax: int) -> CheckReport:
    """Parity-directed comparison of the truncated index-weighted partition
    sum against the divisor difference d_{1,3}(n) - d_{2,3}(n): >= for odd k,
    <= for even k, over 1 <= n <= nmax."""
    if k < 1 or nmax < 1:
        raise ValueError(f"need k >= 1 and nmax >= 1, got k={k}, nmax={nmax}")
    direction = ">=" if k % 2 == 1 else "<="
    report = CheckReport("corollary14", {"k": k, "nmax": nmax, "direction": direction})
    diffs = lambert_diff(3, 1, nmax).dense()
    for n in range(1, nmax + 1):
        lhs = index_weighted_sum(n, k)
        rhs = diffs[n]
        if (k % 2 == 1 and lhs < rhs) or (k % 2 == 0 and lhs > rhs):
            report.add(n, f"{direction} {rhs}", lhs)
    return report


def recurrence_check(nmax: int) -> CheckReport:
    """Full (untruncated) index-weighted partition sum equals the divisor
    difference d_{1,3}(n) - d_{2,3}(n) for every 1 <= n <= nmax."""
    if nmax < 1:
        raise ValueError(f"nmax must be positive, got {nmax}")
    report = CheckReport("recurrence117", {"nmax": nmax})
    for n in range(1, nmax + 1):
        lhs = index_weighted_sum(n)
        rhs = divisor_diff(n, 3, 1)
        if lhs != rhs:
            report.add(n, rhs, lhs)
    return report


# ---------------------------------------------------------------------------
# Product-sum building blocks and the decomposition


def _product_sum_f(R: int, A: int, N: int) -> IntSeries:
    """(q^A, q^R; q^R)_inf times the sum over n >= 0 of
    q^(Rn) / ((q^A; q^R)_n (q^R; q^R)_n)."""
    if A < 1:
        raise ValueError(f"base exponent must be positive, got {A}")
    acc = [0] * (N + 1)
    # the n-th term divided by q^(Rn), kept to the N - Rn + 1 coefficients
    # that survive the shift
    term = [1] + [0] * N
    n = 0
    while R * n <= N:
        if n > 0:
            del term[N - R * n + 1:]
            _div_one_minus_list(term, R * n)
            _div_one_minus_list(term, A + R * (n - 1))
        _add_shifted(acc, term, R * n)
        n += 1
    return IntSeries._from_list(acc, N) * _euler(R, N) * pochhammer(A, R, N)


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
        for d in _diff_degrees(lhs, rhs):
            report.add({"series": label, "degree": d}, rhs.coeff(d), lhs.coeff(d))
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
    q^(R(2n+m)) / ((q^A; q^R)_n (q^R; q^R)_n (1 - q^(A + R(n+m))))."""
    acc = [0] * (N + 1)
    # the n-th base term divided by q^(2Rn), cut as in _product_sum_f
    base = [1] + [0] * N
    n = 0
    while 2 * R * n <= N:
        if n > 0:
            del base[N - 2 * R * n + 1:]
            _div_one_minus_list(base, R * n)
            _div_one_minus_list(base, A + R * (n - 1))
        m = 0
        while 2 * R * n + R * m <= N:
            shift = 2 * R * n + R * m
            term = base[:N - shift + 1]
            _div_one_minus_list(term, A + R * (n + m))
            _add_shifted(acc, term, shift)
            m += 1
        n += 1
    return IntSeries._from_list(acc, N) * pochhammer(A, R, N) * _euler(R, N)


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

    The shift exponent (R k^2 + (R - 2S) k)/2 is asserted to be an integer
    at runtime; a violation is reported, never rounded.
    """
    _require_window(P.R, P.S)
    R, S, k, N = P.R, P.S, P.k, P.N
    report = CheckReport("decomposition", {"R": R, "S": S, "k": k, "N": N})
    numerator = R * k * k + (R - 2 * S) * k
    if numerator % 2 != 0:
        report.add({"check": "prefactor-integrality"}, "even numerator", numerator)
        return report
    shift = numerator // 2
    lhs = (_triple(R, S, N) * d_series(P)).scale(_sign(k - 1))
    blocks = [i_series(idx, P) for idx in (1, 2, 3, 4)]
    combo = blocks[0].scale(k - 1) + blocks[1].scale(k) + blocks[2] + blocks[3]
    rhs = combo.shifted(shift)
    for d in _diff_degrees(lhs, rhs):
        report.add({"check": "identity", "degree": d}, rhs.coeff(d), lhs.coeff(d))
    inv3 = _inv_triple(R, S, N)
    for idx, block in enumerate(blocks, 1):
        # only the first negative degree of each quotient is reported
        for n, c in _negative_coeffs(block * inv3, 0):
            report.add({"check": f"I{idx}-positivity", "degree": n}, ">= 0", c)
            break
    return report


# ---------------------------------------------------------------------------
# Cubed-product truncation and the quadruple-sum identity


def gz_series(k: int, N: int) -> IntSeries:
    """Signed k-truncated odd-weighted triangular sum over the cubed Euler
    product; the sign (-1)^k makes nonnegativity from q^1 the literal claim."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    series = _theta_sum(1, 0, 0, N, k + 1, u=2) * _inv_euler_cubed(N)
    return series.scale(_sign(k))


def gz_check(k: int, N: int) -> CheckReport:
    report = CheckReport("gz", {"k": k, "N": N})
    for n, c in _negative_coeffs(gz_series(k, N), 1):
        report.add(n, ">= 0", c)
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

    The quadruple sum is grouped into two pair sums, pair_g[u] over i + j = u
    and pair_h[t] over h + k = t, so that with n = u + t it reads
    sum_{u+t >= m} q^(uR + t(R-S)) pair_g[u] pair_h[t] [u+t-1, m-1]. Every
    pair term needs pair(x, y) = 1/((q^R;q^R)_x (q^R;q^R)_y). These are
    streamed one anti-diagonal x + y = s at a time, without multiplying:
    pair(x, s - x) = pair(x, s - 1 - x) / (1 - q^(R(s - x))) is one geometric
    step from the diagonal before, and pair is symmetric, so only x <= s/2 is
    kept. Live memory is one diagonal, O(nmax * W) coefficients, plus the
    2m lists A_j and B_j below; pair_g[s] and pair_h[s] exist only while
    diagonal s is current.

    The convolution over n becomes m products by the q-Chu-Vandermonde
    split: in base q^R and for t >= 1,
    [u+t-1, m-1] = sum_{j<m} [u, j] [t-1, m-1-j] q^(R(u-j)(m-1-j)).
    So the rows t >= 1 sum to sum_{j<m} A_j B_j with
    A_j = sum_{u >= j} q^(uR + R(u-j)(m-1-j)) [u, j] pair_g[u] and
    B_j = sum_{t >= m-j} q^(t(R-S)) [t-1, m-1-j] pair_h[t]. The row t = 0
    has pair_h[0] = 1 and needs no product: it adds
    sum_{u >= m} q^(uR) [u-1, m-1] pair_g[u]. Each Gaussian binomial
    [n, k] = prod_{i<k} (1 - q^(R(n-i))) / (q^R;q^R)_k is applied as factor
    steps on each term for its numerator, and its denominator once on each
    A_j, each B_j and the t = 0 row. A_j and B_j are kept divided by their
    least degrees jR and (m-j)(R-S), to the order that survives the shift of
    their product, which _kronecker_mul forms; every term is cut to the
    order that survives its own shift, so no coefficient past order N is
    computed.
    """
    _require_half_window(R, S)
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    monomial = R * m * (m - 1) // 2
    if monomial > N:
        return IntSeries.one(N)
    W = N - monomial
    nmax = W // (R - S)
    lows = [j * R + (m - j) * (R - S) for j in range(m)]
    A = [[0] * (W - low + 1) for low in lows]  # empty when W < low
    B = [[0] * (W - low + 1) for low in lows]
    total = [0] * (W + 1)
    diagonal = [[1] + [0] * W]  # diagonal[x] = pair(x, s - x) for x <= s/2
    for s in range(nmax + 1):
        if s:
            if s % 2 == 0:
                # pair(s/2, s/2) = pair(s/2 - 1, s/2) / (1 - q^(R s/2))
                diagonal.append(list(diagonal[-1]))
            for x, p in enumerate(diagonal):
                # pair(x, s - x) reaches the total at q^(sR + mxR) or higher
                # through pair_g[s], and at q^(s(R-S) + x(s-x)R + 2xS) or
                # higher through pair_h[s]; later diagonals reach higher
                reach = min(s * R + m * x * R, s * (R - S) + x * (s - x) * R + 2 * x * S)
                del p[W - reach + 1:]
                _div_one_minus_list(p, R * (s - x))
        # pair(a, s - a) = pair(s - a, a) = diagonal[min(a, s - a)]
        if s * R <= W:
            # pair_g[s] divided by q^(sR), the least shift it enters at
            g = [0] * (W - s * R + 1)
            for a in range(s + 1):
                _add_shifted(g, diagonal[min(a, s - a)], m * a * R)
            for j in range(min(s, m - 1) + 1):
                _add_numerator_term(A[j], g, (s - j) * (m - j) * R, R, s, j)
            if s >= m:
                _add_numerator_term(total, g, s * R, R, s - 1, m - 1)
        if s:
            h = [0] * (W - s * (R - S) + 1)
            for a in range(s + 1):
                _add_shifted(h, diagonal[min(a, s - a)], a * (s - a) * R + 2 * a * S)
            for j in range(max(0, m - s), m):
                _add_numerator_term(B[j], h, (s - m + j) * (R - S), R, s - 1, m - 1 - j)
    for i in range(1, m):
        _div_one_minus_list(total, R * i)
    for j, low in enumerate(lows):
        for i in range(1, j + 1):
            _div_one_minus_list(A[j], R * i)
        for i in range(1, m - j):
            _div_one_minus_list(B[j], R * i)
        if low <= W:
            _add_shifted(total, _kronecker_mul(A[j], B[j], W - low), low)
    sign = _sign(m - 1)
    out = [0] * monomial + [sign * c for c in total]
    out[0] += 1
    return IntSeries._from_list(out, N)


def wang_yee_check(R: int, S: int, m: int, N: int) -> CheckReport:
    """m-truncated theta sum over the triple product versus its closed
    quadruple-sum series form (wang_yee_rhs), compared exactly to order N."""
    rhs = wang_yee_rhs(R, S, m, N)
    report = CheckReport("wang-yee", {"R": R, "S": S, "m": m, "N": N})
    lhs = bilateral_theta(R, S, N, m) * _inv_triple(R, S, N)
    for d in _diff_degrees(lhs, rhs):
        report.add(d, rhs.coeff(d), lhs.coeff(d))
    return report
