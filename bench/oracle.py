"""Reference values computed apart from qtrunc, in plain Python lists.

Nothing here imports qtrunc, and each value comes by another route than
the one the package takes:

* p(n) from the divisor-sum recurrence n p(n) = sum sigma(k) p(n-k), where
  qtrunc uses the pentagonal recurrence and series inversion;
* Dyson rank-class sizes from the Atkin-Swinnerton-Dyer rank generating
  function, where qtrunc enumerates partitions;
* theta quotients by naive list convolution of the numerator with the
  reciprocal of the bilateral theta sum (long division by the sum side of
  Jacobi's triple product), where qtrunc expands the product side.
"""

from __future__ import annotations


def gpn(j: int) -> int:
    """Generalized pentagonal number j(3j+1)/2."""
    return j * (3 * j + 1) // 2


def sign(j: int) -> int:
    return 1 if j % 2 == 0 else -1


def partition_counts(nmax: int) -> list[int]:
    """p(0..nmax) from n p(n) = sum_{k=1}^{n} sigma(k) p(n-k)."""
    sigma = [0] * (nmax + 1)
    for d in range(1, nmax + 1):
        for mult in range(d, nmax + 1, d):
            sigma[mult] += d
    p = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        total = sum(sigma[k] * p[n - k] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError(f"divisor-sum recurrence gave a non-integer p({n})")
        p[n] = total // n
    return p


def rank_at_least(M: int, m: int, p: list[int]) -> int:
    """Partitions of m with Dyson rank >= M (rank of the empty partition is 0).

    For M >= 1 this is the q^m coefficient of
    (1/(q;q)_inf) * sum_{k>=1} (-1)^(k-1) q^(k(3k-1)/2 + M k); the symmetry
    N(r, m) = N(-r, m) gives the count for M <= 0.
    """
    if m < 0:
        return 0
    if M <= 0:
        return p[m] - rank_at_least(1 - M, m, p)
    total, k = 0, 1
    while True:
        rest = m - k * (3 * k - 1) // 2 - M * k
        if rest < 0:
            return total
        total += (1 if k % 2 else -1) * p[rest]
        k += 1


def class_size(variant: int, j: int, n: int, p: list[int]) -> int:
    """Partitions of n - gpn(j) with rank <= 3j (variant 1) or > 3j (variant 2)."""
    m = n - gpn(j)
    if m < 0:
        return 0
    high = rank_at_least(3 * j + 1, m, p)
    return p[m] - high if variant == 1 else high


def convolve(a: list[int], b: list[int], N: int) -> list[int]:
    """Coefficients 0..N of the product of two coefficient lists."""
    out = [0] * (N + 1)
    for i, x in enumerate(a[:N + 1]):
        if x:
            for j, y in enumerate(b[:N + 1 - i]):
                out[i + j] += x * y
    return out


def theta_reciprocal(R: int, S: int, N: int) -> list[int]:
    """Coefficients 0..N of 1 / sum_j (-1)^j q^(R j(j+1)/2 - S j), 1 <= S < R."""
    theta = [0] * (N + 1)
    for j in range(-N - 1, N + 2):
        e = R * j * (j + 1) // 2 - S * j
        if e <= N:
            theta[e] += sign(j)
    if theta[0] != 1:
        raise ArithmeticError("theta sum must start with 1")
    terms = [(e, c) for e, c in enumerate(theta) if c and e]
    inv = [1] + [0] * N
    for n in range(1, N + 1):
        inv[n] = -sum(c * inv[n - e] for e, c in terms if e <= n)
    return inv


def conjecture_coeffs(R: int, S: int, k: int, N: int) -> list[int]:
    """(-1)^(k-1) sum_{j<k} (-1)^j q^(R j(j+1)/2 - S j) (1 - q^((2j+1)S))
    divided by (q^S, q^(R-S), q^R; q^R)_inf, to order N."""
    num = [0] * (N + 1)
    for j in range(k):
        e = R * j * (j + 1) // 2 - S * j
        for exp, c in ((e, sign(j)), (e + (2 * j + 1) * S, -sign(j))):
            if exp <= N:
                num[exp] += c
    return [sign(k - 1) * c for c in convolve(num, theta_reciprocal(R, S, N), N)]


def am_coeffs(k: int, N: int, p: list[int]) -> list[int]:
    """Coefficients 0..N of sum_{j<k} (-1)^j (q^gpn(j) - q^gpn(-j-1)) / (q;q)_inf."""
    out = []
    for n in range(N + 1):
        total = 0
        for j in range(k):
            for e, c in ((gpn(j), sign(j)), (gpn(-j - 1), -sign(j))):
                if e <= n:
                    total += c * p[n - e]
        out.append(total)
    return out
