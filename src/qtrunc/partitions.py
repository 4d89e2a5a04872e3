"""Integer partitions and their statistics.

Provides exhaustive enumeration, the sparse pentagonal recurrence for p(n),
Dyson's rank, conjugation, generalized pentagonal numbers, the rank-filtered
sets behind the truncated pentagonal inequalities, the sieve count M_k(n),
and divisor-class counts.

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

from .qseries import IntSeries, _require_window, _theta_sum
from .report import _Record


class Partition(_Record):
    """A non-increasing tuple of positive integers; () is the partition of 0."""

    __slots__ = ("parts", "_weight")
    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        self._set(parts)
        self.__post_init__()

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        _require_partition(parts)
        object.__setattr__(self, "_weight", sum(parts))

    @property
    def weight(self) -> int:
        return self._weight

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def largest(self) -> int:
        return self.parts[0] if self.parts else 0

    @property
    def rank(self) -> int:
        """Largest part minus number of parts; 0 for the empty partition."""
        return _rank(self.parts)

    def conjugate(self) -> Partition:
        """Transpose of the Young diagram."""
        return Partition(_conjugate(self.parts))


def _require_partition(parts: tuple[int, ...]) -> None:
    """Raise the ValueError that ``Partition(parts)`` raises, if any."""
    if parts and (parts[-1] < 1 or not all(map(ge, parts, parts[1:]))):
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
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
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return [Partition(t) for t in _partition_tuples(n)]


# p(n) memo. It is append-only, so a reader of an index already computed
# needs no lock; growing it is check-then-append, so writers take the lock.
_pcache = [1]
_pcache_lock = threading.Lock()


def p_euler(n: int) -> int:
    """p(n) via the sparse pentagonal recurrence; 0 for negative n."""
    if n < 0:
        return 0
    if n >= len(_pcache):
        with _pcache_lock:
            while len(_pcache) <= n:
                m = len(_pcache)
                total = 0
                j = 1
                while True:
                    g = j * (3 * j - 1) // 2
                    if g > m:
                        break
                    sign = 1 if j % 2 else -1
                    total += sign * _pcache[m - g]
                    g = j * (3 * j + 1) // 2
                    if g <= m:
                        total += sign * _pcache[m - g]
                    j += 1
                _pcache.append(total)
    return _pcache[n]


def gpn(j: int) -> int:
    """Generalized pentagonal number j(3j+1)/2, defined for all integers j."""
    return j * (3 * j + 1) // 2


# Rank table: _rtable[m][r + m] = N(r, m), the number of partitions of m
# with rank r, for every m < len(_rtable). It is only ever replaced by a
# complete, larger table, so a reader takes one reference and needs no lock;
# builders take the lock.
_rtable: list[list[int]] = [[1]]
_rtable_lock = threading.Lock()


def _rank_table(M: int) -> list[list[int]]:
    """Rows ``table[m][r + m] = N(r, m)`` for at least every m <= M.

    The table grows to max(M, twice its current reach), so a sweep over
    rising weights rebuilds it O(log M) times rather than at every weight.
    """
    global _rtable
    table = _rtable
    if len(table) <= M:
        with _rtable_lock:
            if len(_rtable) <= M:
                _rtable = _durfee_ranks(max(M, 2 * (len(_rtable) - 1)))
            table = _rtable
    return table


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


def set_a(variant: int, j: int, n: int) -> list[Partition]:
    """Partitions of n - gpn(j) filtered by rank: <= 3j (variant 1) or > 3j (2).

    Empty when the residual weight is negative; at residual weight 0 the
    empty partition appears and is classified by rank 0.
    """
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return [Partition(parts) for parts in _rank_class(variant, j, n)]


def set_a_size(variant: int, j: int, n: int) -> int:
    """|set_a(variant, j, n)| without materializing the partitions."""
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m = n - gpn(j)
    if m < 0:
        return 0
    row = _rank_table(m)[m]
    cut = max(0, 3 * j + m + 1)  # row[:cut] holds the ranks <= 3j
    return sum(row[:cut]) if variant == 1 else sum(row[cut:])


def m_k(k: int, n: int) -> int:
    """Partitions of n where k is the least absent positive integer and
    parts above k outnumber parts below k. Counted by direct filtering;
    this is the oracle side of the series identity it appears in.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    counts = _m_k_counts(n)
    return counts[k] if k < len(counts) else 0


@lru_cache(maxsize=None)
def _m_k_counts(n: int) -> tuple[int, ...]:
    """``m_k(k, n)`` at index k for every k, from one walk over the
    partitions of n: a partition's least absent part fixes its k."""
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
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
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
