"""Integer partitions and their statistics.

Provides exhaustive enumeration, the sparse pentagonal recurrence for p(n),
Dyson's rank, conjugation, generalized pentagonal numbers, the rank-filtered
sets behind the truncated pentagonal inequalities, the sieve count M_k(n),
and divisor-class counts. Everything here is deliberately brute-force where
a formula exists elsewhere in the package: these functions are the
independent side of every cross-check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .qseries import IntSeries, _require_window


@dataclass(frozen=True)
class Partition:
    """A non-increasing tuple of positive integers; () is the partition of 0."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be non-increasing, got {parts}")
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
        return self.largest - self.num_parts

    def conjugate(self) -> Partition:
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition(())
        return Partition(tuple(
            sum(1 for p in self.parts if p >= i)
            for i in range(1, self.parts[0] + 1)
        ))


def _partition_tuples(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


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


@lru_cache(maxsize=None)
def _rank_counts(m: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for parts in _partition_tuples(m):
        r = parts[0] - len(parts) if parts else 0
        counts[r] = counts.get(r, 0) + 1
    return counts


def set_a(variant: int, j: int, n: int) -> list[Partition]:
    """Partitions of n - gpn(j) filtered by rank: <= 3j (variant 1) or > 3j (2).

    Empty when the residual weight is negative; at residual weight 0 the
    empty partition appears and is classified by rank 0.
    """
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m = n - gpn(j)
    if m < 0:
        return []
    result = []
    for lam in enumerate_partitions(m):
        if (lam.rank <= 3 * j) == (variant == 1):
            result.append(lam)
    return result


def set_a_size(variant: int, j: int, n: int) -> int:
    """|set_a(variant, j, n)| without materializing the partitions."""
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m = n - gpn(j)
    if m < 0:
        return 0
    counts = _rank_counts(m)
    if variant == 1:
        return sum(c for r, c in counts.items() if r <= 3 * j)
    return sum(c for r, c in counts.items() if r > 3 * j)


def m_k(k: int, n: int) -> int:
    """Partitions of n where k is the least absent positive integer and
    parts above k outnumber parts below k. Counted by direct filtering;
    this is the oracle side of the series identity it appears in.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    count = 0
    for parts in _partition_tuples(n):
        present = set(parts)
        if k in present:
            continue
        if any(i not in present for i in range(1, k)):
            continue
        above = sum(1 for p in parts if p > k)
        below = sum(1 for p in parts if p < k)
        if above > below:
            count += 1
    return count


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
    coeffs = {}
    j = 0
    while True:
        e = j * (j + 1) // 2
        if e > order:
            break
        coeffs[e] = (2 * j + 1) * (1 if j % 2 == 0 else -1)
        j += 1
    return IntSeries(coeffs, order)
