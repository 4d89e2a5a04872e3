"""The weight-trading involution and the rank-shifting injection."""

import pytest

from qtrunc import (
    IndexedPartition,
    Partition,
    bijections,
    enumerate_partitions,
    gpn,
    phi,
    psi,
    set_a,
    set_a_size,
    theorem12_check,
    verify_phi,
    verify_psi,
)
from reference import record


def test_indexed_partition_enforces_weight_bookkeeping():
    IndexedPartition(Partition((3, 1)), 0, 4)
    IndexedPartition(Partition(()), -1, 1)
    with pytest.raises(ValueError):
        IndexedPartition(Partition((3, 1)), 0, 5)
    with pytest.raises(ValueError):
        IndexedPartition(Partition(()), 1, 1)


def test_phi_frozen_pair():
    # (3,1) at j=0: 2 parts, 2 + 0 < 3, so the big-part case fires
    image, case = phi(IndexedPartition(Partition((3, 1)), 0, 4))
    assert case == 2
    assert image.lam == Partition((2,))
    assert image.j == 1
    back, case = phi(image)
    assert case == 1
    assert back.lam == Partition((3, 1))
    assert back.j == 0


def test_phi_empty_partition_rules():
    image, case = phi(IndexedPartition(Partition(()), 1, 2))
    assert (image.lam, image.j, case) == (Partition((2,)), 0, 1)
    image, case = phi(IndexedPartition(Partition(()), -2, 5))
    assert (image.lam, image.j, case) == (Partition((1, 1, 1, 1)), -1, 2)
    image, case = phi(IndexedPartition(Partition(()), -1, 1))
    assert (image.lam, image.j, case) == (Partition((1,)), 0, 2)
    with pytest.raises(ValueError):
        phi(IndexedPartition(Partition(()), 0, 0))


def test_phi_is_an_involution_exhaustively():
    for n in range(1, 15):
        for j in range(-n, n + 1):
            if gpn(j) > n:
                continue
            for lam in enumerate_partitions(n - gpn(j)):
                x = IndexedPartition(lam, j, n)
                if not lam.parts and j == 0:
                    continue
                y, case = phi(x)
                assert y.n == n
                assert y.j == (j - 1 if case == 1 else j + 1)
                back, back_case = phi(y)
                assert back == x
                assert {case, back_case} == {1, 2}


def test_phi_exchanges_rank_classes():
    n = 12
    for j in range(-3, 4):
        if gpn(j) > n:
            continue
        for lam in set_a(1, j, n):
            if not lam.parts and j == 0:
                continue
            y, case = phi(IndexedPartition(lam, j, n))
            assert case == 1
            assert y.lam.rank > 3 * (j - 1)


def test_verify_phi_passes_small_weights():
    for n in (1, 2, 7, 18):
        report = verify_phi(n)
        assert report.passed, report.violations[:3]
        assert report.suite == "phi"
    with pytest.raises(ValueError):
        verify_phi(0)


def test_psi_frozen_images():
    assert psi(Partition((2, 2, 1, 1, 1, 1, 1, 1)), 2) == Partition((11, 2))
    assert psi(Partition((2, 1, 1, 1, 1, 1, 1, 1, 1)), 2) == Partition((12, 1))
    assert psi(Partition((1,) * 10), 2) == Partition((13,))


def test_psi_shifts_weight_and_rank_class():
    lam = Partition((2, 2, 2, 1, 1))
    image = psi(lam, 1)
    assert image == Partition((6, 3))
    assert image.weight == lam.weight + 1
    assert image.rank > 0


def test_psi_rejects_high_rank_input():
    with pytest.raises(ValueError):
        psi(Partition((5, 1)), 1)
    with pytest.raises(ValueError):
        psi(Partition((1, 1, 1)), 1)  # rank -2 > -3
    with pytest.raises(ValueError):
        psi(Partition((1, 1, 1)), 0)


def test_verify_psi_frozen_sizes():
    report = verify_psi(15, 2)
    assert report.passed
    assert report.params["source_size"] == 3
    assert report.params["target_size"] == 21


def test_verify_psi_passes_on_a_grid():
    for n in range(1, 22):
        for k in (1, 2, 3):
            report = verify_psi(n, k)
            assert report.passed, (n, k, report.violations[:3])
    with pytest.raises(ValueError):
        verify_psi(5, 0)


@pytest.mark.parametrize("n, k", [(5, True), (5.0, 1), (5, 1.0), (5, 0), (0, 1)])
def test_verify_psi_rejects_bad_parameters_before_enumerating(n, k, monkeypatch):
    """A bad k used to be caught in the loop over the source class and
    reported: verify_psi(5, True) was a FAIL whose witness was an "apply"
    check on [1, 1, 1, 1]. A float n raised TypeError. A bad parameter is
    a ValueError, raised before the source class is enumerated."""
    calls = record(monkeypatch, bijections, "_rank_class")
    with pytest.raises(ValueError, match="must be"):
        verify_psi(n, k)
    assert calls == []


def test_theorem12_check_frozen_point():
    report = theorem12_check(15, 2)
    assert report.passed
    assert report.params == {
        "n": 15, "k": 2, "A2_size": 21, "A1_neg_size": 3, "difference": 18,
    }


def test_theorem12_check_grid():
    for n in range(1, 26):
        for k in (1, 2, 3, 4):
            report = theorem12_check(n, k)
            assert report.passed, (n, k, report.violations[:3])


def test_theorem12_dominance_is_tight_sometimes():
    # once gpn(-k) exceeds n the low-rank class is empty and the
    # difference equals the full class size
    report = theorem12_check(4, 2)
    assert report.passed
    assert report.params["A1_neg_size"] == 0
    assert report.params["A2_size"] == set_a_size(1, 2, 4)


def test_theorem12_check_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theorem12_check(0, 1)
    with pytest.raises(ValueError):
        theorem12_check(5, 0)
