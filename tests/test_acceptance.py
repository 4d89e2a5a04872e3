"""Acceptance gate: eight end-to-end criteria, exact arithmetic throughout.

Each test prints one ``criterion N: PASS`` line on success; a failure
surfaces as the usual pytest assertion with the offending report attached.
Tolerance is zero everywhere: every comparison is between exact integers.
"""

from qtrunc import (
    Partition,
    TruncParams,
    am_check,
    bilateral_theta,
    conjecture_check,
    corollary14_report,
    decomposition_check,
    gz_check,
    mao_check,
    mk_identity_check,
    pochhammer,
    psi,
    recurrence_check,
    set_a,
    set_a_size,
    theorem12_check,
    theorem13_check,
    triple_product,
    verify_phi,
    wang_yee_check,
)


def _announce(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


def test_criterion_1_pentagonal_and_theta_identities():
    """Euler product vs bilateral theta at (3,1), and triple product vs
    theta over the full window 1 <= S < R <= 8, all at order 200."""
    assert pochhammer(1, 1, 200) == bilateral_theta(3, 1, 200)
    for R in range(2, 9):
        for S in range(1, R):
            assert triple_product(R, S, 200) == bilateral_theta(R, S, 200), (R, S)
    _announce(1, "29 identities at order 200")


def test_criterion_2_worked_example_weight_15():
    """The rank-class example at n=15, k=2: three low-rank partitions, a
    21-member high-rank class, and the three injection images."""
    low = set_a(1, -2, 15)
    assert low == [
        Partition((2, 2, 1, 1, 1, 1, 1, 1)),
        Partition((2, 1, 1, 1, 1, 1, 1, 1, 1)),
        Partition((1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ]
    high = set_a(2, 1, 15)
    assert len(high) == 21
    assert set(high) == {
        Partition(p) for p in [
            (13,), (12, 1), (11, 2), (11, 1, 1), (10, 3), (10, 2, 1),
            (10, 1, 1, 1), (9, 4), (9, 3, 1), (9, 2, 2), (9, 2, 1, 1),
            (9, 1, 1, 1, 1), (8, 5), (8, 4, 1), (8, 3, 2), (8, 3, 1, 1),
            (8, 2, 2, 1), (7, 6), (7, 5, 1), (7, 4, 2), (7, 3, 3),
        ]
    }
    images = [psi(lam, 2) for lam in low]
    assert images == [Partition((11, 2)), Partition((12, 1)), Partition((13,))]
    assert all(image in set(high) for image in images)
    _announce(2, "classes and injection images at n=15, k=2")


def test_criterion_3_rank_class_counting_identity():
    """Counting identity and dominance |class2(k-1)| >= |class1(-k)| for
    all 1 <= n <= 40, 1 <= k <= 5, with the class sizes counted by the
    Durfee-square rank table."""
    for n in range(1, 41):
        for k in range(1, 6):
            report = theorem12_check(n, k)
            assert report.passed, (n, k, report.violations[:3])
            assert report.params["A2_size"] == set_a_size(1, k, n)
    _announce(3, "200 (n, k) points, exhaustive")


def test_criterion_4_involution_certified_exhaustively():
    """Round-trip, index step, rank-class exchange, and the empty-partition
    boundary rules for every ambient weight n <= 40."""
    for n in range(1, 41):
        report = verify_phi(n)
        assert report.passed, (n, report.violations[:3])
    _announce(4, "all ambient weights n <= 40")


def test_criterion_5_truncated_pentagonal_identity_and_triangle():
    """Series equality at order 100 for depths k <= 6, then the coefficient
    triangle against both the sieve count and the class difference for
    n <= 30, k <= 4."""
    for k in range(1, 7):
        report = am_check(k, 100)
        assert report.passed, (k, report.violations[:3])
    for k in range(1, 5):
        report = mk_identity_check(k, 30)
        assert report.passed, (k, report.violations[:3])
    _announce(5, "identity to order 100 and triangle n <= 30")


def test_criterion_6_sign_theorem_with_decomposition():
    """Nonnegativity of the signed difference series over the full window
    1 <= S < R <= 8, k <= 5 at order 200, with the supporting decomposition
    and product-sum equalities at order 120 on the same grid."""
    for R in range(2, 9):
        for S in range(1, R):
            for k in range(1, 6):
                report = theorem13_check(TruncParams(R, S, k, 200))
                assert report.passed, (R, S, k, report.violations[:3])
                report = decomposition_check(TruncParams(R, S, k, 120))
                assert report.passed, (R, S, k, report.violations[:3])
                report = mao_check(TruncParams(R, S, k, 120))
                assert report.passed, (R, S, k, report.violations[:3])
    _announce(6, "140 grid points, three suites each")


def test_criterion_7_parity_inequalities_and_recurrence():
    """Parity-directed divisor inequalities for k <= 6 and the exact
    recurrence, both through n = 300."""
    for k in range(1, 7):
        report = corollary14_report(k, 300)
        assert report.passed, (k, report.violations[:3])
    report = recurrence_check(300)
    assert report.passed, report.violations[:3]
    _announce(7, "n <= 300 for all seven checks")


def test_criterion_8_prior_results_reverified():
    """Sign results for the truncated theta quotient at four (R, S) points
    and the cubed-product truncation, plus the closed-form equality for the
    quadruple-sum expansion."""
    for R, S in [(3, 1), (4, 1), (2, 1), (5, 2)]:
        for k in range(1, 6):
            report = conjecture_check(TruncParams(R, S, k, 150))
            assert report.passed, (R, S, k, report.violations[:3])
    for k in range(1, 6):
        report = gz_check(k, 150)
        assert report.passed, (k, report.violations[:3])
    for R, S, ms in [(3, 1, (1, 2, 3)), (4, 2, (1, 2))]:
        for m in ms:
            report = wang_yee_check(R, S, m, 60)
            assert report.passed, (R, S, m, report.violations[:3])
    _announce(8, "quotient, cube, and quadruple-sum families")
