"""Integer partitions and their statistics.

Provides exhaustive enumeration, p(n), Dyson's rank, conjugation,
generalized pentagonal numbers, the rank-filtered sets behind the truncated
pentagonal inequalities, the sieve count M_k(n), and divisor-class counts.

p(0..M) is the inverse of the pentagonal sum (q; q)_inf, the bilateral
theta sum at (R, S) = (3, 1); ``IntSeries.invert`` runs Euler's recurrence
over its nonzero degrees. The p list and the rank table below are ``_Grown``
memos, rebuilt to twice their reach at need and emptied by ``_memo.clear_all``.

Rank-class sizes are read from a table of N(r, m) built from the
Durfee-square series, in polynomial time and without enumeration, theta
functions or p(n). What is still brute force is what visits partitions:
the enumeration itself, the classes ``set_a`` lists, the sieve count
``m_k``, and the source class of ``verify_psi``. These are the independent
side of the cross-checks they appear in.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Iterator
from functools import lru_cache
from operator import add, ge

from . import _memo
from .qseries import (
    IntSeries,
    _require_int,
    _require_nonnegative,
    _require_positive,
    _require_window,
    _theta_sum,
    bilateral_theta,
)
from .report import _Record


class Partition(_Record):
    """A non-increasing tuple of positive integers; () is the partition of 0."""

    __slots__ = ("parts", "weight")
    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        self._set(parts)
        self.__post_init__()

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not {*map(type, parts)} <= {int}:
            for p in parts:
                _require_int("parts", p)
        _require_partition(parts)
        object.__setattr__(self, "weight", sum(parts))

    @property
    def rank(self) -> int:
        """Largest part minus number of parts; 0 for the empty partition."""
        return _rank(self.parts)

    def conjugate(self) -> Partition:
        """Transpose of the Young diagram."""
        return Partition(_conjugate(self.parts))


def _require_partition(parts: tuple[int, ...]) -> None:
    """Raise the ValueError that ``Partition(parts)`` raises for int parts, if any."""
    if parts and (parts[-1] < 1 or not all(map(ge, parts, parts[1:]))):
        for i, p in enumerate(parts):
            _require_positive("parts", p)
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be non-increasing, got {parts}")


def _rank(parts: tuple[int, ...]) -> int:
    return parts[0] - len(parts) if parts else 0


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of a partition tuple: its part i (from 0) counts the parts
    above i, found by binary search in the parts reversed to ascending."""
    rev, t = parts[::-1], len(parts)
    return tuple([t - bisect_right(rev, i) for i in range(parts[0] if parts else 0)])


def _partition_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n as tuples, in lexicographically decreasing order.

    Algorithm ZS1 (Zoghbi and Stojmenovic, Int. J. Comput. Math. 70, 1998)
    on one list: ``x[:m]`` is the current partition, every entry past
    index h is 1, and each step rewrites only the tail from h on.
    """
    if n == 0:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in lexicographically decreasing order of parts."""
    _require_nonnegative("n", n)
    return [Partition(t) for t in _partition_tuples(n)]


class _Grown:
    """A memo table whose rows 0..M are built together by ``build(M)``.

    A read past the table's reach rebuilds it, under one lock, to
    max(M, twice the reach), so a sweep over rising M builds it O(log M)
    times. The table is only ever replaced by a complete one, larger or
    empty, so a reader takes one reference and needs no lock.
    """

    def __init__(self, build):
        self.build = build
        self.lock = threading.Lock()
        _memo.register(self).clear()

    def clear(self) -> None:
        self.table = []

    def upto(self, M: int) -> list:
        """The table, reaching at least row M."""
        table = self.table
        if len(table) <= M:
            with self.lock:
                if len(self.table) <= M:
                    self.table = self.build(max(M, 2 * (len(self.table) - 1)))
                table = self.table
        return table


def _pentagonal_counts(M: int) -> list[int]:
    """p(0..M) as the inverse of (q; q)_inf, the bilateral theta sum at
    (R, S) = (3, 1): ``IntSeries.invert`` runs Euler's pentagonal
    recurrence over its nonzero degrees, the generalized pentagonal numbers."""
    return bilateral_theta(3, 1, M).invert().dense()


_p_table = _Grown(_pentagonal_counts)


def p_euler(n: int) -> int:
    """p(n), read from the memoized inverse of the pentagonal sum, a list to
    at most twice the largest n read; 0 for negative n."""
    _require_int("n", n)
    return _p_table.upto(n)[n] if n >= 0 else 0


def gpn(j: int) -> int:
    """Generalized pentagonal number j(3j+1)/2, defined for all integers j."""
    if type(j) is not int:  # inline: the verifiers call gpn per element
        _require_int("j", j)
    return j * (3 * j + 1) // 2


def _durfee_ranks(M: int) -> list[list[int]]:
    """N(r, m) for every m <= M from the Durfee-square form of the rank
    generating function, sum over d >= 0 of q^(d^2) / ((zq;q)_d (z^-1 q;q)_d)
    (Dyson, Eureka 8, 1944; Garvan, Trans. AMS 305, 1988).

    A partition with Durfee square d has an arm right of the square (at most
    d parts) and a leg below it (parts at most d); its rank is the arm's
    largest part minus the leg's number of parts. ``term[w][r + w]``
    holds the z^r q^w coefficient of 1/((zq;q)_d (z^-1 q;q)_d): each d
    divides it by (1 - zq^d) and by (1 - z^-1 q^d) in place, one geometric
    step on whole rows each, then adds it at shift d^2. Rows above M - d^2
    can no longer reach the result and are dropped. O(M^2.5) additions, no
    enumeration and no theta function.
    """
    out = [[0] * (2 * m + 1) for m in range(M + 1)]
    term = [[0] * (2 * w + 1) for w in range(M + 1)]
    term[0][0] = 1
    d = 0
    while d * d <= M:
        s = d * d
        del term[M - s + 1:]
        if d:
            # 1/(1 - zq^d): row w gains row w - d with r moved up by one;
            # then 1/(1 - z^-1 q^d): the same with r moved down by one.
            for lo in (d + 1, d - 1):
                for w in range(d, len(term)):
                    src, row = term[w - d], term[w]
                    hi = lo + len(src)
                    row[lo:hi] = map(add, row[lo:hi], src)
        for w, row in enumerate(term):
            dst = out[w + s]
            dst[s:s + len(row)] = map(add, dst[s:s + len(row)], row)
        d += 1
    return out


# _rank_memo.upto(M)[m][r + m] = N(r, m) for every m <= M at least: (M + 1)^2
# ints, M at most twice the largest weight read
_rank_memo = _Grown(_durfee_ranks)


def _rank_class(variant: int, j: int, n: int) -> list[tuple[int, ...]]:
    """Partition tuples of n - gpn(j) with rank <= 3j (variant 1) or > 3j."""
    m = n - gpn(j)
    if m < 0:
        return []
    low, cut = variant == 1, 3 * j
    if m == 0:
        return [()] if (0 <= cut) == low else []
    # a partition of m > 0 is nonempty, so its rank is parts[0] - len(parts)
    return [parts for parts in _partition_tuples(m) if (parts[0] - len(parts) <= cut) == low]


def _require_class(variant: int, j: int, n: int) -> None:
    """Reject a variant other than 1 and 2, a non-int j, or a weight n below 1."""
    _require_int("variant", variant)
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    _require_int("j", j)
    _require_positive("n", n)


def set_a(variant: int, j: int, n: int) -> list[Partition]:
    """Partitions of n - gpn(j) filtered by rank: <= 3j (variant 1) or > 3j (2).

    Empty when the residual weight is negative; at residual weight 0 the
    empty partition appears and is classified by rank 0.
    """
    _require_class(variant, j, n)
    return [Partition(parts) for parts in _rank_class(variant, j, n)]


def set_a_size(variant: int, j: int, n: int) -> int:
    """|set_a(variant, j, n)| without materializing the partitions."""
    _require_class(variant, j, n)
    m = n - gpn(j)
    if m < 0:
        return 0
    row = _rank_memo.upto(m)[m]
    cut = max(0, 3 * j + m + 1)  # row[:cut] holds the ranks <= 3j
    return sum(row[:cut]) if variant == 1 else sum(row[cut:])


def m_k(k: int, n: int) -> int:
    """Partitions of n where k is the least absent positive integer and
    parts above k outnumber parts below k. Counted by direct filtering;
    this is the oracle side of the series identity it appears in.
    """
    _require_positive("k", k)
    _require_positive("n", n)
    counts = _m_k_counts(n)
    return counts[k] if k < len(counts) else 0


@_memo.register
@lru_cache(maxsize=None)
def _m_k_counts(n: int) -> tuple[int, ...]:
    """``m_k(k, n)`` at index k for every k, from one walk over the partitions
    of n (a partition's least absent part fixes its k); kept for every n read."""
    counts = [0]
    for parts in _partition_tuples(n):
        # the smallest parts sit at the end: walk up to the first gap
        k = below = 0
        for p in reversed(parts):
            if p > k + 1:
                break
            k = p
            below += 1
        k += 1
        if len(parts) > 2 * below:
            counts += [0] * (k + 1 - len(counts))
            counts[k] += 1
    return tuple(counts)


def divisor_diff(n: int, R: int, S: int) -> int:
    """Number of divisors of n congruent to S mod R, minus those congruent
    to R-S mod R."""
    _require_positive("n", n)
    _require_window(R, S)
    diff = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            for div in {d, n // d}:
                if div % R == S % R:
                    diff += 1
                if div % R == (R - S) % R:
                    diff -= 1
        d += 1
    return diff


def jacobi_cube(order: int) -> IntSeries:
    """Sum over j >= 0 of (-1)^j (2j+1) q^(j(j+1)/2), truncated."""
    return _theta_sum(1, 0, 0, order, u=2)
