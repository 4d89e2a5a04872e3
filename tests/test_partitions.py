"""Partition enumeration and statistics against independent counts."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrunc import partitions
from qtrunc import (
    Partition,
    divisor_diff,
    enumerate_partitions,
    gpn,
    jacobi_cube,
    m_k,
    p_euler,
    pochhammer,
    set_a,
    set_a_size,
    triple_product,
)


def count_partitions(n: int, max_part: int) -> int:
    """Textbook two-argument recursion, kept independent of the package."""
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return count_partitions(n - max_part, max_part) + count_partitions(n, max_part - 1)


# partitions as sorted tuples, drawn from unsorted part lists
partitions_st = st.lists(
    st.integers(min_value=1, max_value=9), min_size=0, max_size=9
).map(lambda parts: Partition(tuple(sorted(parts, reverse=True))))


def test_enumeration_is_exhaustive_and_valid():
    for n in range(13):
        lams = enumerate_partitions(n)
        assert len(lams) == count_partitions(n, n if n else 1)
        assert len(set(lams)) == len(lams)
        for lam in lams:
            assert lam.weight == n
            assert all(p >= 1 for p in lam.parts)
            assert all(a >= b for a, b in zip(lam.parts, lam.parts[1:]))


def test_enumeration_order_is_lexicographically_decreasing():
    lams = [lam.parts for lam in enumerate_partitions(5)]
    assert lams == sorted(lams, reverse=True)
    assert lams[0] == (5,)
    assert lams[-1] == (1, 1, 1, 1, 1)


def test_enumerate_rejects_negative_weight():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_p_euler_against_enumeration():
    for n in range(26):
        assert p_euler(n) == len(enumerate_partitions(n))


def test_p_euler_frozen_values():
    assert [p_euler(n) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert p_euler(15) == 176
    assert p_euler(50) == 204226
    assert p_euler(100) == 190569292
    assert p_euler(-3) == 0


def test_p_euler_memo_is_safe_under_concurrent_growth(monkeypatch):
    """Four threads grow the memo from empty at once, with the interpreter
    switching threads as often as it can; without the lock, two writers
    appended the same index and the table came out wrong."""
    serial = [p_euler(n) for n in range(3001)]
    monkeypatch.setattr(partitions, "_pcache", [1])
    results = []
    threads = [threading.Thread(target=lambda: results.append(p_euler(3000)))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial[3000]] * 4
    assert partitions._pcache == serial


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))
    assert Partition(()).weight == 0


def test_partition_statistics():
    lam = Partition((4, 2, 1))
    assert lam.weight == 7
    assert lam.num_parts == 3
    assert lam.largest == 4
    assert lam.rank == 1
    empty = Partition(())
    assert empty.rank == 0 and empty.largest == 0


def test_conjugate_frozen_example():
    assert Partition((4, 2, 1)).conjugate().parts == (3, 2, 1, 1)
    assert Partition(()).conjugate() == Partition(())


@given(partitions_st)
@settings(max_examples=150, deadline=None)
def test_conjugate_is_a_rank_negating_involution(lam):
    conj = lam.conjugate()
    assert conj.conjugate() == lam
    assert conj.weight == lam.weight
    assert conj.rank == -lam.rank


def test_gpn_frozen_table():
    assert [gpn(j) for j in (-3, -2, -1, 0, 1, 2, 3)] == [12, 5, 1, 0, 2, 7, 15]


def test_gpn_values_are_exhaustive_below_bound():
    values = sorted(gpn(j) for j in range(-10, 11))
    assert values[:9] == [0, 1, 2, 5, 7, 12, 15, 22, 26]


def test_set_a_matches_direct_filter():
    for n in (8, 12):
        for j in (-2, -1, 0, 1, 2):
            members = set_a(1, j, n)
            complement = set_a(2, j, n)
            pool = enumerate_partitions(n - gpn(j)) if n >= gpn(j) else []
            assert members == [lam for lam in pool if lam.rank <= 3 * j]
            assert complement == [lam for lam in pool if lam.rank > 3 * j]
            assert set_a_size(1, j, n) == len(members)
            assert set_a_size(2, j, n) == len(complement)


def test_set_a_empty_when_residual_weight_negative():
    assert set_a(1, 4, 10) == []
    assert set_a_size(2, 4, 10) == 0


def test_set_a_classifies_the_empty_partition():
    # residual weight 0: the empty partition has rank 0
    assert set_a(1, 1, 2) == [Partition(())]
    assert set_a(2, -1, 1) == [Partition(())]
    assert set_a(1, -1, 1) == []


def test_set_a_rejects_bad_arguments():
    with pytest.raises(ValueError):
        set_a(3, 1, 10)
    with pytest.raises(ValueError):
        set_a(1, 1, 0)
    with pytest.raises(ValueError):
        set_a_size(0, 1, 10)


def test_low_rank_class_frozen_example():
    expected = [
        Partition((2, 2, 1, 1, 1, 1, 1, 1)),
        Partition((2, 1, 1, 1, 1, 1, 1, 1, 1)),
        Partition((1,) * 10),
    ]
    assert set_a(1, -2, 15) == expected
    assert set_a_size(2, 1, 15) == 21


def test_m_k_frozen_values():
    # n = 5, k = 1: (5) and (3, 2) avoid 1 and have a part above 1
    assert m_k(1, 5) == 2
    # n = 7, k = 2: only (3, 3, 1) avoids 2, contains 1, and has more
    # parts above 2 than below
    assert m_k(2, 7) == 1
    assert m_k(2, 15) == 18
    assert m_k(3, 9) == 0


def test_m_k_against_independent_filter():
    def brute(k, n):
        count = 0
        for lam in enumerate_partitions(n):
            present = set(lam.parts)
            if k in present or not set(range(1, k)) <= present:
                continue
            above = sum(1 for p in lam.parts if p > k)
            below = sum(1 for p in lam.parts if p < k)
            count += above > below
        return count

    for k in (1, 2, 3):
        for n in range(1, 19):
            assert m_k(k, n) == brute(k, n)


def test_m_k_rejects_bad_arguments():
    with pytest.raises(ValueError):
        m_k(0, 5)
    with pytest.raises(ValueError):
        m_k(1, 0)


def test_divisor_diff_frozen_values():
    assert divisor_diff(1, 3, 1) == 1
    assert divisor_diff(2, 3, 1) == 0   # divisors 1 and 2 cancel
    assert divisor_diff(7, 3, 1) == 2   # 1 and 7 both are 1 mod 3
    assert divisor_diff(6, 4, 1) == 0
    with pytest.raises(ValueError):
        divisor_diff(0, 3, 1)
    with pytest.raises(ValueError):
        divisor_diff(5, 3, 3)


def test_divisor_diff_handles_perfect_squares():
    # the square-root divisor must be counted exactly once
    assert divisor_diff(16, 3, 1) == 1  # divisors 1, 4, 16 vs 2, 8
    assert divisor_diff(4, 3, 1) == 1   # divisors 1, 4 vs 2
    assert divisor_diff(49, 3, 1) == 3  # divisors 1, 7, 49


def product_counts(R: int, S: int, order: int) -> list[int]:
    """First order+1 coefficients of the reciprocal triple product."""
    return triple_product(R, S, order).invert().dense()


def test_product_counts_all_parts_case():
    assert product_counts(3, 1, 20) == [p_euler(n) for n in range(21)]


def test_product_counts_frozen_example():
    assert product_counts(4, 1, 4) == [1, 1, 1, 2, 3]


def test_product_counts_against_restricted_enumeration():
    # valid only for R != 2S: at R = 2S the class S mod R carries two
    # product factors and plain enumeration undercounts
    def allowed(R, S, part):
        return part % R in (S % R, (R - S) % R, 0)

    for R, S in [(4, 1), (5, 2), (7, 3)]:
        counts = product_counts(R, S, 14)
        for n in range(15):
            brute = sum(
                1 for lam in enumerate_partitions(n)
                if all(allowed(R, S, p) for p in lam.parts)
            )
            assert counts[n] == brute, (R, S, n)


def test_overpartition_counts_from_distinct_part_weights():
    """1/(q,q,q^2;q^2) coefficients equal sums of 2^(distinct parts)."""
    counts = product_counts(2, 1, 12)
    for n in range(13):
        weighted = sum(2 ** len(set(lam.parts)) for lam in enumerate_partitions(n))
        assert counts[n] == weighted


def test_t_counts_is_threefold_convolution():
    """Coefficients of the reciprocal cubed Euler product (3-colored
    partitions) are the threefold convolution of p(n)."""
    euler = pochhammer(1, 1, 12)
    t = (euler * euler * euler).invert().dense()
    p = [p_euler(n) for n in range(13)]
    for n in range(13):
        expected = sum(
            p[a] * p[b] * p[n - a - b]
            for a in range(n + 1) for b in range(n + 1 - a)
        )
        assert t[n] == expected


def test_jacobi_cube_frozen_values():
    assert jacobi_cube(10).dense() == [1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9]


def test_jacobi_cube_equals_cubed_euler_product():
    euler = pochhammer(1, 1, 45)
    assert (euler * euler * euler) == jacobi_cube(45)
