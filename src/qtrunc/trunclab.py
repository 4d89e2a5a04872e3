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
from typing import Iterator

from .partitions import divisor_diff, gpn, jacobi_cube, m_k, p_euler, set_a_size
from .qseries import (
    IntSeries,
    _require_window,
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
def _inv_triple(R: int, S: int, N: int) -> IntSeries:
    return triple_product(R, S, N).invert()


@lru_cache(maxsize=None)
def _euler_cubed(N: int) -> IntSeries:
    e = pochhammer(1, 1, N)
    return e * e * e


@lru_cache(maxsize=None)
def _inv_euler_cubed(N: int) -> IntSeries:
    return _euler_cubed(N).invert()


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


def _theta_numerator(R: int, S: int, k: int, N: int) -> IntSeries:
    """Sum of (-1)^j q^(R j(j+1)/2 - S j) over -k <= j < k, to order N: the
    bilateral theta sum cut to k terms on each side. It is built in pairs,
    term j >= 0 with term -(j+1), whose exponent is larger by (2j+1)S."""
    coeffs: dict[int, int] = {}
    for j in range(k):
        e = R * j * (j + 1) // 2 - S * j
        for exp, c in ((e, _sign(j)), (e + (2 * j + 1) * S, -_sign(j))):
            if exp <= N:
                coeffs[exp] = coeffs.get(exp, 0) + c
    return IntSeries(coeffs, N)


# ---------------------------------------------------------------------------
# Gaussian binomials


@lru_cache(maxsize=None)
def _qbin_coeffs(n: int, k: int) -> tuple[int, ...]:
    if k < 0 or n < 0 or k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    low = _qbin_coeffs(n - 1, k - 1)
    high = _qbin_coeffs(n - 1, k)
    out = [0] * (k * (n - k) + 1)
    for i, c in enumerate(low):
        out[i] += c
    for i, c in enumerate(high):
        out[i + k] += c
    return tuple(out)


def q_binomial(n: int, k: int, step: int = 1, order: int | None = None) -> IntSeries:
    """Gaussian binomial [n, k] in the variable q^step.

    Computed by the Pascal-type recurrence [n,k] = [n-1,k-1] + q^k [n-1,k],
    never by division, so coefficients are exact integers. Out-of-range
    (n, k) gives the zero polynomial. The result is a finite polynomial and
    is marked valid to its degree k(n-k)*step unless a higher order is
    requested.
    """
    if step < 1:
        raise ValueError(f"step must be positive, got {step}")
    coeffs = _qbin_coeffs(n, k)
    if order is None:
        order = (len(coeffs) - 1) * step if coeffs else 0
    return IntSeries({i * step: c for i, c in enumerate(coeffs)}, order)


# ---------------------------------------------------------------------------
# Truncated pentagonal identity and the sieve-count triangle


def am_lhs(k: int, N: int) -> IntSeries:
    """k-truncated pentagonal alternating sum divided by the Euler product:
    the theta quotient at (R, S) = (3, 1), whose triple product is (q;q)_inf."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return _theta_numerator(3, 1, k, N) * _inv_triple(3, 1, N)


def am_rhs(k: int, N: int) -> IntSeries:
    """Closed series form of am_lhs: 1 plus a signed sum of Gaussian-binomial
    terms q^(k(k-1)/2 + (k+1)n) [n-1, k-1] / (q;q)_n over n >= k.

    The summation is cut once the minimum exponent of a term exceeds N.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    base = k * (k - 1) // 2
    acc = IntSeries.zero(N)
    inv_fact = IntSeries.one(N)
    fact_level = 0
    n = k
    while base + (k + 1) * n <= N:
        # only degrees up to N - e survive the shift by e, so both factors
        # are cut there before multiplying; e grows with n, so the running
        # 1/(q;q)_n can stay cut
        e = base + (k + 1) * n
        inv_fact = inv_fact.truncate(N - e)
        while fact_level < n:
            fact_level += 1
            inv_fact = inv_fact.div_one_minus(fact_level)
        term = q_binomial(n - 1, k - 1, order=N - e) * inv_fact
        acc = acc + term.shifted(e)
        n += 1
    return IntSeries.one(N) + acc.scale(_sign(k - 1))


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
    series = _theta_numerator(P.R, P.S, P.k, P.N) * _inv_triple(P.R, P.S, P.N)
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
    """Index-weighted truncated theta sum over the triple product, minus the
    divisor-difference series it approximates."""
    _require_window(P.R, P.S)
    R, S, k, N = P.R, P.S, P.k, P.N
    coeffs: dict[int, int] = {}
    for j in range(-k, k):
        e = R * j * (j + 1) // 2 - S * j
        if j != 0 and e <= N:
            coeffs[e] = coeffs.get(e, 0) + _sign(j) * j
    quotient = IntSeries(coeffs, N) * _inv_triple(R, S, N)
    return quotient - lambert_diff(R, S, N)


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
    for n in range(1, nmax + 1):
        lhs = index_weighted_sum(n, k)
        rhs = divisor_diff(n, 3, 1)
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
    acc = IntSeries.zero(N)
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


def f_series(P: TruncParams) -> IntSeries:
    """The product-sum series with base exponent R*k - S; its constant term
    is 1, so 1 - f starts at a positive power."""
    return _product_sum_f(P.R, P.R * P.k - P.S, P.N)


def _mao_theta(R: int, A: int, N: int) -> IntSeries:
    """Sum over j >= 1 of (-1)^(j+1) q^(R j(j-1)/2 + A j)."""
    coeffs: dict[int, int] = {}
    j = 1
    while True:
        e = R * j * (j - 1) // 2 + A * j
        if e > N:
            break
        coeffs[e] = coeffs.get(e, 0) + _sign(j + 1)
        j += 1
    return IntSeries(coeffs, N)


def mao_check(P: TruncParams) -> CheckReport:
    """1 minus each product-sum series (base exponents R*k -+ S) must equal
    the corresponding alternating theta-type sum, exactly to order N."""
    R, S, k, N = P.R, P.S, P.k, P.N
    if R * k - S < 1:
        raise ValueError(f"need R*k - S >= 1, got {R * k - S}")
    report = CheckReport("mao", {"R": R, "S": S, "k": k, "N": N})
    for label, A in (("base R*k-S", R * k - S), ("base R*k+S", R * k + S)):
        lhs = IntSeries.one(N) - _product_sum_f(R, A, N)
        rhs = _mao_theta(R, A, N)
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
    coeffs: dict[int, int] = {}
    j = 0
    while True:
        e = R * j * (j + 1) // 2 + linear * j + offset
        if e > N:
            break
        c = j + 1 if idx in (3, 4) else 1
        coeffs[e] = coeffs.get(e, 0) + _sign(j) * c
        j += 1
    return IntSeries(coeffs, N)


def _mao_double_sum(R: int, A: int, N: int) -> IntSeries:
    """(q^A, q^R; q^R)_inf times the double sum over n, m >= 0 of
    q^(R(2n+m)) / ((q^A; q^R)_n (q^R; q^R)_n (1 - q^(A + R(n+m))))."""
    acc = IntSeries.zero(N)
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
    lhs = (triple_product(R, S, N) * d_series(P)).scale(_sign(k - 1))
    combo = (i_series(1, P).scale(k - 1) + i_series(2, P).scale(k)
             + i_series(3, P) + i_series(4, P))
    rhs = combo.shifted(shift)
    for d in _diff_degrees(lhs, rhs):
        report.add({"check": "identity", "degree": d}, rhs.coeff(d), lhs.coeff(d))
    inv3 = _inv_triple(R, S, N)
    for idx in (1, 2, 3, 4):
        # only the first negative degree of each quotient is reported
        for n, c in _negative_coeffs(i_series(idx, P) * inv3, 0):
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
    coeffs: dict[int, int] = {}
    for j in range(k + 1):
        e = j * (j + 1) // 2
        if e <= N:
            coeffs[e] = _sign(j) * (2 * j + 1)
    series = IntSeries(coeffs, N) * _inv_euler_cubed(N)
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


def wang_yee_rhs(R: int, S: int, m: int, N: int) -> IntSeries:
    """Closed quadruple-sum series form of the m-truncated theta quotient
    in wang_yee_check, to order N.

    It is 1 plus a signed monomial shift of
    sum_{n >= m} sum_{i+j+h+k=n} q^((mj+hk)R + (h-k)S + nR) /
    ((q^R;q^R)_i (q^R;q^R)_j (q^R;q^R)_h (q^R;q^R)_k) * [n-1, m-1] in q^R,
    cut once the minimal exponent R m(m-1)/2 + n(R-S) exceeds N.

    The quadruple sum is grouped into two pair sums, pair_g over (i, j) and
    pair_h over (h, k), whose products are then convolved over n. Every pair
    term needs pair(lo, hi) = 1/((q^R;q^R)_lo (q^R;q^R)_hi). These are built
    without multiplying: pair(0, hi) = 1/(q^R;q^R)_hi, and each step along a
    row is one geometric factor, pair(lo, hi) = pair(lo - 1, hi) / (1 - q^(R lo)).
    Each product and each shifted term is cut to the order that survives its
    shift before it is formed, so no coefficient past order N is computed.
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
    invp = [IntSeries.one(W)]
    for i in range(1, nmax + 1):
        invp.append(invp[i - 1].div_one_minus(R * i))
    # pairs[lo, hi] for lo <= hi and lo + hi <= nmax, one row per hi
    pairs: dict[tuple[int, int], IntSeries] = {}
    for hi in range(nmax + 1):
        p = pairs[0, hi] = invp[hi]
        for lo in range(1, min(hi, nmax - hi) + 1):
            p = pairs[lo, hi] = p.div_one_minus(R * lo)

    def pair(a: int, b: int) -> IntSeries:
        return pairs[a, b] if a <= b else pairs[b, a]

    pair_g = []
    pair_h = []
    for s in range(nmax + 1):
        g = IntSeries.zero(W)
        h = IntSeries.zero(W)
        for a in range(s + 1):
            e = m * a * R
            if e <= W:
                g = g + pair(s - a, a).truncate(W - e).shifted(e)
            e = a * (s - a) * R + 2 * a * S
            if e <= W:
                h = h + pair(a, s - a).truncate(W - e).shifted(e)
        pair_g.append(g)
        pair_h.append(h)
    total = IntSeries.zero(W)
    for n in range(m, nmax + 1):
        # every shift e below is at least low = n(R - S), so the inner sum
        # is built divided by q^low and multiplied at order W - low
        low = n * (R - S)
        inner = IntSeries.zero(W - low)
        for t in range(n + 1):
            e = n * R - t * S
            if e <= W:
                inner = inner + (pair_g[n - t].truncate(W - e)
                                 * pair_h[t].truncate(W - e)).shifted(e - low)
        total = total + (inner * q_binomial(n - 1, m - 1, R, order=W - low)).shifted(low)
    return IntSeries.one(N) + total.scale(_sign(m - 1)).shifted(monomial)


def wang_yee_check(R: int, S: int, m: int, N: int) -> CheckReport:
    """m-truncated theta sum over the triple product versus its closed
    quadruple-sum series form (wang_yee_rhs), compared exactly to order N."""
    rhs = wang_yee_rhs(R, S, m, N)
    report = CheckReport("wang-yee", {"R": R, "S": S, "m": m, "N": N})
    lhs = _theta_numerator(R, S, m, N) * _inv_triple(R, S, N)
    for d in _diff_degrees(lhs, rhs):
        report.add(d, rhs.coeff(d), lhs.coeff(d))
    return report
