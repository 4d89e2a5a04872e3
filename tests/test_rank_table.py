"""Rank-class sizes from the Durfee-square rank table.

The table is checked against two routes it does not share: the enumerating
rank count it replaced, and the Atkin-Swinnerton-Dyer sum of p-values. The
gates check that the class-size suites count without walking partitions.
"""

from functools import cache

from qtrunc import cli, gpn, mk_identity_check, partitions, set_a_size, theorem12_check
from qtrunc.partitions import _durfee_ranks, _partition_tuples, _rank
from grown_memo import counting_builds, sweep_concurrently
from reference import record


@cache
def enumerated_rank_counts(m):
    """Number of partitions of m at each rank, by walking every partition."""
    counts = {}
    for parts in _partition_tuples(m):
        r = _rank(parts)
        counts[r] = counts.get(r, 0) + 1
    return counts


def euler_counts(M):
    """p(0..M) by adding one part size at a time to 1/(1 - q^s)."""
    p = [1] + [0] * M
    for s in range(1, M + 1):
        for w in range(s, M + 1):
            p[w] += p[w - s]
    return p


def asd_rank_at_least(M, m, p):
    """N(>= M, m) from the Atkin-Swinnerton-Dyer sum
    sum_{k>=1} (-1)^(k-1) p(m - k(3k-1)/2 - Mk), with N(r, m) = N(-r, m)
    for M <= 0."""
    if M <= 0:
        return p[m] - asd_rank_at_least(1 - M, m, p)
    total, k = 0, 1
    while (rest := m - k * (3 * k - 1) // 2 - M * k) >= 0:
        total += (-1) ** (k - 1) * p[rest]
        k += 1
    return total


def test_rank_table_matches_enumeration_at_every_rank():
    table = partitions._rank_memo.upto(45)
    for m in range(46):
        counts = enumerated_rank_counts(m)
        assert len(table[m]) == 2 * m + 1
        assert {r: c for r, c in zip(range(-m, m + 1), table[m]) if c} == counts, m


def test_set_a_size_matches_enumeration_filter():
    for n in range(1, 41):
        for j in range(-4, 5):
            m = n - gpn(j)
            counts = enumerated_rank_counts(m) if m >= 0 else {}
            low = sum(c for r, c in counts.items() if r <= 3 * j)
            high = sum(c for r, c in counts.items() if r > 3 * j)
            assert (set_a_size(1, j, n), set_a_size(2, j, n)) == (low, high), (n, j)


def test_rank_table_matches_asd_sum():
    p = euler_counts(400)
    table = partitions._rank_memo.upto(400)
    for m in (77, 120, 250, 400):
        assert sum(table[m]) == p[m]
        for M in range(-12, 40, 3):
            assert sum(table[m][max(0, M + m):]) == asd_rank_at_least(M, m, p), (m, M)


def test_rank_table_grows_geometrically(monkeypatch):
    builds = counting_builds(monkeypatch, partitions._rank_memo)
    for n in range(1, 201):
        set_a_size(2, 0, n)
    assert builds == [1, 2, 4, 8, 16, 32, 64, 128, 256]


def test_rank_table_is_safe_under_concurrent_growth(monkeypatch):
    """Four threads sweep rising weights from an empty table at once, each
    on its own stride, so their builds overlap. Every class size read during
    the sweeps must equal one from a single-threaded build, every table
    handed out must be complete and reach its request, and no size may be
    built twice: a builder holds the lock until its table is published."""
    serial = _durfee_ranks(320)
    builds = counting_builds(monkeypatch, partitions._rank_memo)

    def read(m):
        table = partitions._rank_memo.upto(m)
        return len(table) > m, table[m] == serial[m], set_a_size(2, 0, m)

    results = sweep_concurrently(read, 160)
    for stride, got in results.items():
        assert got == [(True, True, sum(serial[m][m + 1:]))
                       for m in range(stride, 160, stride)], stride
    table = partitions._rank_memo.table
    assert len(table) >= 160 and table == serial[:len(table)]
    assert builds == sorted(set(builds))


def test_theorem12_enumerates_no_partitions(monkeypatch):
    def refuse(n):
        raise AssertionError(f"partitions of {n} enumerated")
    monkeypatch.setattr(partitions, "_partition_tuples", refuse)
    for n in range(1, 43):
        for k in range(1, 7):
            report = theorem12_check(n, k)
            assert report.passed, (n, k, report.violations[:3])


def test_mk_identity_walks_each_weight_once(monkeypatch):
    walked = record(monkeypatch, partitions, "_partition_tuples", lambda n: n)
    for k in range(1, 5):
        report = mk_identity_check(k, 27)
        assert report.passed, (k, report.violations[:3])
    assert walked == list(range(1, 28))


def test_verify_theorem12_at_weight_200(capsys):
    code = cli.main(["verify", "theorem12", "--nmax", "200", "--kmax", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1000/1000 points passed" in out
