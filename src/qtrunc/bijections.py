"""The pentagonal involution and the rank-shifting injection, with
exhaustive verifiers.

The involution phi acts on pairs (partition, pentagonal index j) of a fixed
ambient weight n, trading weight against the index so that
weight + gpn(j) = n is preserved while the parity of j flips. Restricted by
rank it exchanges the two halves of each rank split, which is what the
verifiers certify partition by partition.
"""

from __future__ import annotations

from .partitions import (
    Partition,
    _conjugate,
    _partition_tuples,
    _rank,
    _rank_class,
    _require_partition,
    gpn,
    p_euler,
    set_a_size,
)
from .qseries import _require_int, _require_positive, _sign
from .report import CheckReport, _Record


class IndexedPartition(_Record):
    """A partition tagged with its pentagonal index j and ambient weight n.

    Invariant: weight(lam) == n - gpn(j) >= 0.
    """

    __slots__ = _fields = ("lam", "j", "n")

    def __init__(self, lam: Partition, j: int, n: int):
        self._set(lam, j, n)
        self.__post_init__()

    def __post_init__(self):
        _require_int("j", self.j)
        _require_int("n", self.n)
        _require_weight(self.lam.weight, self.j, self.n)


def _require_weight(weight: int, j: int, n: int) -> None:
    expected = n - gpn(j)
    if weight != expected:
        raise ValueError(f"weight {weight} does not match n - gpn(j) = {expected}")


def _require_indexed(parts: tuple[int, ...], j: int, n: int) -> None:
    """Raise the ValueError that ``IndexedPartition(Partition(parts), j, n)``
    raises for int parts, j and n, if any."""
    _require_partition(parts)
    _require_weight(sum(parts), j, n)


def _phi_case(parts: tuple[int, ...], j: int) -> int:
    """Which case of the involution fires on (parts, j): 1 when
    t + 3j >= largest part, that is rank <= 3j, else 2. The empty partition
    is case 1 for j >= 1 and case 2 for j <= -1; (empty, 0) has no case."""
    if parts:
        return 1 if len(parts) + 3 * j >= parts[0] else 2
    if j == 0:
        raise ValueError("the involution is undefined on (empty, j=0)")
    return 1 if j > 0 else 2


def _phi(parts: tuple[int, ...], j: int) -> tuple[tuple[int, ...], int, int]:
    """The involution on a partition tuple: (image parts, image index, case)."""
    t = len(parts)
    if _phi_case(parts, j) == 1:
        head = t + 3 * j - 1
        rest = tuple([p - 1 for p in parts if p > 1])
        return ((head,) + rest if head else rest), j - 1, 1
    if not parts:
        return (1,) * (-3 * j - 2), j + 1, 2
    return tuple([p + 1 for p in parts[1:]]) + (1,) * (parts[0] - t - 3 * j - 1), j + 1, 2


def phi(x: IndexedPartition) -> tuple[IndexedPartition, int]:
    """Apply the involution; returns the image and which case fired (1 or 2).

    Case 1 (t + 3j >= largest part): prepend t+3j-1 and decrement every part,
    dropping zeros; index moves to j-1. Case 2: drop the largest part,
    increment the rest and pad with largest - (t+3j) - 1 ones; index moves to
    j+1. The empty partition follows the unique extension that keeps the
    involution and the weight bookkeeping valid: a single part 3j-1 for
    j >= 1, a column of -3j-2 ones for j <= -1. (empty, 0) has no image.
    """
    parts, j, case = _phi(x.lam.parts, x.j)
    return IndexedPartition(Partition(parts), j, x.n), case


def _psi(parts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """psi on a partition tuple and a positive int k, with its rank precondition."""
    rank = _rank(parts)
    if rank > -3 * k:
        raise ValueError(f"rank {rank} violates the precondition rank <= {-3 * k}")
    conj = _conjugate(parts)
    return (conj[0] + 2 * k - 1,) + conj[1:]


def psi(lam: Partition, k: int) -> Partition:
    """Conjugate, then grow the largest part by 2k-1.

    Requires rank(lam) <= -3k (so lam is nonempty); the image then has
    weight lam.weight + 2k - 1 and rank > 3(k-1), landing in the
    complementary rank class one index over.
    """
    _require_positive("k", k)
    return Partition(_psi(lam.parts, k))


def _witness(parts: tuple[int, ...], j: int, check: str) -> dict:
    return {"partition": list(parts), "j": j, "check": check}


def verify_phi(n: int) -> CheckReport:
    """Exhaustively certify the involution at ambient weight n.

    For every index j with gpn(j) <= n and every partition of n - gpn(j):
    the map must round-trip to the identity, flip index parity by one step,
    keep the weight bookkeeping (checked on every input, image and
    pre-image, and reported on failure), and exchange the rank classes
    rank <= 3j at j with rank > 3(j-1) at j-1. The parity-balanced counting
    identity across all indices is checked as a corollary. The loop runs on
    plain tuples; an input that is not a partition of n - gpn(j) raises the
    ValueError that ``IndexedPartition`` raises.

    The domain splits into orbits {x, phi(x)} of one case-1 and one case-2
    member, and ``_phi_orbits`` certifies each orbit once, from its case-1
    member x at j: every check above on x, and the round trip, whose second
    application is the map of the case-2 member phi(x) at j-1. Case-2
    elements get only the input check and the case test. Counting shows
    that the partners are all the case-2 elements: at each j the
    enumeration yields p(n - gpn(j)) strictly decreasing partitions of
    n - gpn(j), so all of them, and #case 2 at j equals #case 1 at j+1,
    which the round trip maps injectively into case 2 at j. Each element
    is thus mapped once, and nothing is stored. Only when that pass fails
    does the per-element reporter ``_phi_report`` run, so a failing report
    and a raised ValueError are the reporter's.
    """
    _require_positive("n", n)
    indices = [j for j in range(-n, n + 1) if gpn(j) <= n]
    if _phi_orbits(n, indices):
        report = CheckReport("phi", {"n": n})
    else:
        report = _phi_report(n, indices)
    even = sum(p_euler(n - gpn(j)) for j in indices if j % 2 == 0)
    odd = sum(p_euler(n - gpn(j)) for j in indices if j % 2 != 0)
    if even != odd:
        report.add({"n": n, "check": "parity-count"}, even, odd)
    return report


def _phi_orbits(n: int, indices: list[int]) -> bool:
    """True when every orbit of the involution at weight n passes, visited
    from its case-1 member; False at the first failed test of any kind."""
    case1: dict[int, int] = {}
    case2: dict[int, int] = {}
    try:
        for j in indices:
            m = n - gpn(j)
            prev = (m + 1,)  # above every partition of m
            count = count1 = 0
            for parts in _partition_tuples(m):
                _require_indexed(parts, j, n)
                if not parts < prev:
                    return False
                prev = parts
                count += 1
                if _phi_case(parts, j) == 2:
                    continue
                count1 += 1
                image, image_j, case = _phi(parts, j)
                if case != 1 or image_j != j - 1:
                    return False
                _require_indexed(image, image_j, n)
                if _rank(parts) > 3 * j or _rank(image) <= 3 * (j - 1):
                    return False
                back, back_j, back_case = _phi(image, image_j)
                if back_case != 2 or back_j != j or back != parts:
                    return False
            if count != p_euler(m):
                return False
            case1[j], case2[j] = count1, count - count1
    except ValueError:
        return False
    return all(case2[j] == case1.get(j + 1, 0) for j in indices)


def _phi_report(n: int, indices: list[int]) -> CheckReport:
    """Map every element of the domain and report each failed check; the
    oracle and the failure path of ``verify_phi``."""
    report = CheckReport("phi", {"n": n})
    for j in indices:
        for parts in _partition_tuples(n - gpn(j)):
            _require_indexed(parts, j, n)
            try:
                image, image_j, case = _phi(parts, j)
                _require_indexed(image, image_j, n)
            except ValueError as exc:
                report.add(_witness(parts, j, "apply"), "image", str(exc))
                continue
            expected_j = j - 1 if case == 1 else j + 1
            if image_j != expected_j:
                report.add(_witness(parts, j, "index"), expected_j, image_j)
            rank, image_rank = _rank(parts), _rank(image)
            if case == 1 and rank > 3 * j:
                report.add(_witness(parts, j, "case-1-rank"), f"rank <= {3 * j}", rank)
            if case == 2 and rank <= 3 * j:
                report.add(_witness(parts, j, "case-2-rank"), f"rank > {3 * j}", rank)
            if case == 1 and not image_rank > 3 * (j - 1):
                report.add(_witness(parts, j, "image-rank"), f"> {3 * (j - 1)}", image_rank)
            if case == 2 and not image_rank <= 3 * (j + 1):
                report.add(_witness(parts, j, "image-rank"), f"<= {3 * (j + 1)}", image_rank)
            try:
                back, back_j, _ = _phi(image, image_j)
                _require_indexed(back, back_j, n)
            except ValueError as exc:
                report.add(_witness(image, image_j, "apply-back"), "preimage", str(exc))
                continue
            if back != parts or back_j != j:
                report.add(
                    _witness(parts, j, "involution"),
                    {"partition": list(parts), "j": j},
                    {"partition": list(back), "j": back_j},
                )
    return report


def verify_psi(n: int, k: int) -> CheckReport:
    """Certify injectivity of psi from the low-rank class at index -k into
    the high-rank class at index k-1, for ambient weight n.

    The source class is enumerated as tuples, and each is checked to be a
    partition of the class's weight (a failure raises ``ValueError``). The
    target class is never built: an image is a member when it is a
    partition of weight n - gpn(k-1) with rank > 3(k-1), which is the
    class's definition, and ``target_size`` is its size from the rank table
    (``set_a_size``). Injectivity needs no target set either: two source
    members are compared through their images alone, in ``seen``. A bad n
    or k is a ValueError, never a violation.
    """
    _require_positive("n", n)
    _require_positive("k", k)
    source = _rank_class(1, -k, n)
    for parts in source:
        _require_indexed(parts, -k, n)
    weight, low = n - gpn(k - 1), 3 * (k - 1)
    report = CheckReport("psi", {
        "n": n, "k": k, "source_size": len(source),
        "target_size": set_a_size(2, k - 1, n),
    })
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for parts in source:
        try:
            image = _psi(parts, k)
            _require_partition(image)
        except ValueError as exc:
            report.add(_witness(parts, -k, "apply"), "image", str(exc))
            continue
        if sum(image) != weight or _rank(image) <= low:
            report.add(
                _witness(parts, -k, "membership"),
                f"member of rank class > {low} at weight {weight}",
                list(image),
            )
        if image in seen:
            report.add(
                _witness(parts, -k, "injectivity"),
                f"distinct from psi({list(seen[image])})",
                list(image),
            )
        seen[image] = parts
    return report


def theorem12_check(n: int, k: int) -> CheckReport:
    """Check the truncated pentagonal counting identity at one point (n, k).

    The alternating sum of p(n - gpn(j)) - p(n - gpn(-j-1)) over
    0 <= j <= k-1, signed by (-1)^(k-1), must equal
    |rank class 2 at k-1| - |rank class 1 at -k|; additionally the involution
    forces |class 1 at k| = |class 2 at k-1|, which dominates |class 1 at -k|.
    The two sides are independent: p comes from the pentagonal recurrence,
    the class sizes from the Durfee-square rank table (``set_a_size``).
    """
    _require_positive("n", n)
    _require_positive("k", k)
    a2 = set_a_size(2, k - 1, n)
    a1_neg = set_a_size(1, -k, n)
    a1_k = set_a_size(1, k, n)
    alt = _sign(k - 1) * sum(
        _sign(j) * (p_euler(n - gpn(j)) - p_euler(n - gpn(-j - 1)))
        for j in range(k)
    )
    report = CheckReport(
        "theorem12",
        {"n": n, "k": k, "A2_size": a2, "A1_neg_size": a1_neg, "difference": a2 - a1_neg},
    )
    if alt != a2 - a1_neg:
        report.add({"n": n, "k": k, "check": "alternating-sum"}, a2 - a1_neg, alt)
    if a1_k != a2:
        report.add({"n": n, "k": k, "check": "class-exchange"}, a2, a1_k)
    if a2 < a1_neg:
        report.add({"n": n, "k": k, "check": "dominance"}, f">= {a1_neg}", a2)
    return report
