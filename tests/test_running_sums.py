"""The running k-sums of trunclab against the per-k route they replaced.

Every reader of a k-truncated quotient (conjecture_series, d_series,
theorem13_series, am_lhs, gz_series, index_weighted_sums and wang-yee's
left side) returns a signed copy of one running list that each request
extends by the new terms only. The per-k route, the numerator cut at k
times the reciprocal, is the oracle. Its numerators are summed term by
term from their exponents and its reciprocals inverted from the product
expansions, so it takes no route of the running sums. The hypothesis test
walks k up, down and in place, with changes of (R, S), N, reciprocal and
kind in between. Each running sum keys its reciprocal by value, (tails, N),
and reads it only on a new key.
The timing-free gates count the slice updates of a CLI sweep and of an
extension across a p-table rebuild, and the concurrency tests compare
threads and the process pool with a serial run.
"""

import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrunc import _memo, cli, qseries, trunclab
from qtrunc.partitions import p_euler
from qtrunc.qseries import IntSeries, lambert_diff, pochhammer, triple_product
from qtrunc.trunclab import (
    TruncParams,
    am_lhs,
    conjecture_series,
    d_series,
    gz_series,
    index_weighted_sums,
    theorem13_series,
    wang_yee_check,
)
from reference import record


def sign(j: int) -> int:
    return 1 if j % 2 == 0 else -1


def theta_numerator(R: int, S: int, N: int, js, weight=lambda j: 1) -> IntSeries:
    """The sum over j in js of (-1)^j weight(j) q^(R j(j+1)/2 - S j), to
    order N, one term at a time from its exponent."""
    coeffs = {}
    for j in js:
        e = R * j * (j + 1) // 2 - S * j
        if e <= N:
            coeffs[e] = coeffs.get(e, 0) + sign(j) * weight(j)
    return IntSeries(coeffs, N)


def cut(N: int, k: int | None) -> range:
    """The j of a cut at depth k, -k <= j < k; for k None, a range that
    holds every j whose exponent is at most N, which grows by at least
    1 per step away from j = 0 for R > S >= 0."""
    return range(-N - 1, N + 1) if k is None else range(-k, k)


def per_k(kind: str, R: int, S: int, N: int, k: int | None) -> list:
    """What the reader of kind returns at (R, S, N, k), computed per k: the
    numerator cut at k times a reciprocal of the product expansion."""
    if kind == "gz":
        numerator = theta_numerator(1, 0, N, range(k + 1), lambda j: 2 * j + 1)
        euler = pochhammer(1, 1, N)
        return (numerator.scale(sign(k)) * (euler * euler * euler).invert()).dense()
    if kind == "index":
        numerator = theta_numerator(3, 1, N, cut(N, k), lambda j: j)
        return (numerator * pochhammer(1, 1, N).invert()).dense()
    if kind == "am":
        R, S = 3, 1
    inverse = triple_product(R, S, N).invert()
    if kind in ("conjecture", "am"):
        signed = sign(k - 1) if kind == "conjecture" else 1
        return (theta_numerator(R, S, N, cut(N, k)).scale(signed) * inverse).dense()
    d = theta_numerator(R, S, N, cut(N, k), lambda j: j) * inverse - lambert_diff(R, S, N)
    return d.scale(sign(k - 1) if kind == "theorem13" else 1).dense()


def read(kind: str, R: int, S: int, N: int, k: int | None) -> list:
    """What the library's reader of kind returns at (R, S, N, k)."""
    if kind == "gz":
        return gz_series(k, N).dense()
    if kind == "index":
        return index_weighted_sums(N, k)
    if kind == "am":
        return am_lhs(k, N).dense()
    reader = {"conjecture": conjecture_series, "d": d_series,
              "theorem13": theorem13_series}[kind]
    return reader(TruncParams(R, S, k, N)).dense()


KINDS = ("conjecture", "d", "theorem13", "am", "gz", "index")
windows = st.integers(2, 7).flatmap(
    lambda R: st.tuples(st.just(R), st.sampled_from(range(1, R))))
requests = st.lists(st.tuples(st.sampled_from(KINDS), windows, st.sampled_from((0, 17, 40)),
                              st.none() | st.integers(0, 7), st.booleans()),
                    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(requests)
# R = 2S, where the two tails share their exponents: k rises, repeats and
# falls at one point, then the kind and the order change
@example([("conjecture", (4, 2), 40, 3, False), ("conjecture", (4, 2), 40, 5, False),
          ("conjecture", (4, 2), 40, 5, False), ("conjecture", (4, 2), 40, 2, False),
          ("theorem13", (4, 2), 40, 4, False), ("d", (6, 3), 40, 6, False),
          ("d", (6, 3), 17, 7, False), ("d", (6, 3), 17, 1, True)])
def test_running_sums_equal_the_per_k_products(requests):
    """Each request (kind, (R, S), N, k, renew) reads one running list;
    with renew, every memo is cleared first, so the same (R, S, N) builds
    its list and its reciprocal anew. k = 0 and None are the index sums'
    empty and uncut sums, and k = 1 for the other kinds."""
    for kind, (R, S), N, k, renew in requests:
        if renew:
            _memo.clear_all()
        if kind != "index":
            k = k or 1
        assert read(kind, R, S, N, k) == per_k(kind, R, S, N, k), (kind, R, S, N, k)


def test_a_cleared_memo_reads_the_new_reciprocal(monkeypatch):
    """The memo keys its reciprocal by value: at the stored (R, S, N), a
    rigged _inv_triple is not read, at a deeper or a shallower k; after
    clear_all it is the reciprocal that the next read uses."""
    conjecture_series(TruncParams(5, 2, 2, 60))
    monkeypatch.setattr(trunclab, "_inv_triple", lambda R, S, N: IntSeries.one(N))
    for k in (3, 1):
        assert conjecture_series(TruncParams(5, 2, k, 60)).dense() == \
            per_k("conjecture", 5, 2, 60, k), k
    _memo.clear_all()
    assert conjecture_series(TruncParams(5, 2, 3, 60)) == theta_numerator(5, 2, 60, cut(60, 3))


def test_index_sums_extend_across_a_rebuilt_p_table(monkeypatch):
    """The p table is the index sums' reciprocal, keyed by value: when a
    p(n) read past its reach rebuilds it as a new list, the next deeper cut
    at the same nmax still extends the running list, by the terms j = -3
    and j = 2 only, instead of rebuilding it from all five."""
    index_weighted_sums(300, 2)
    p_euler(1000)
    updates = record(monkeypatch, trunclab, "_add_shifted")
    assert index_weighted_sums(300, 3) == per_k("index", 3, 1, 300, 3)
    assert len(updates) == 2


def test_uncut_index_sums_equal_every_deeper_cut():
    """index_weighted_sums(nmax) is the full sum: it equals the per-k
    route uncut, and every cut past the last gpn(j) <= nmax, whether it is
    asked for before or after."""
    full = per_k("index", 3, 1, 300, None)
    assert index_weighted_sums(300) == full
    for k in (15, 40, 14, 16, 200, None, 3):
        assert index_weighted_sums(300, k) == per_k("index", 3, 1, 300, k), k
    assert per_k("index", 3, 1, 300, 14) == full


def test_wang_yee_reads_the_running_theta_cut():
    """wang-yee's left side is a copy of the theta cut's running list: a
    change to the stored list shows in the next check at the same (R, S, N)
    and a deeper m, and a cleared memo rebuilds the list."""
    for m in (1, 2, 3):
        assert wang_yee_check(3, 1, m, 120).passed, m
    trunclab._THETA_CUT._acc[50] += 1
    assert not wang_yee_check(3, 1, 3, 120).passed
    _memo.clear_all()
    assert wang_yee_check(3, 1, 3, 120).passed


# (verify arguments, slice updates of the sweep): 2 per k, but the term
# j = 0 of the index-weighted sum has weight 0; gz adds one term per k, on
# top of its two at k = 1
SWEEPS = [
    pytest.param("conjecture --R 5 --S 2 --kmax 8 --N 600", 2 * 8, id="conjecture-5-2"),
    pytest.param("conjecture --R 7 --S 5 --kmax 8 --N 600", 2 * 8, id="conjecture-7-5"),
    pytest.param("theorem13 --R 5 --S 2 --kmax 8 --N 600", 2 * 8 - 1, id="theorem13-5-2"),
    pytest.param("theorem13 --R 7 --S 1 --kmax 8 --N 600", 2 * 8 - 1, id="theorem13-7-1"),
    pytest.param("gz --kmax 5 --N 600", 5 + 1, id="gz"),
    pytest.param("corollary14 --kmax 6 --nmax 600", 2 * 6 - 1, id="corollary14"),
]


@pytest.mark.parametrize("argv, passes", SWEEPS)
def test_a_sweep_makes_two_slice_updates_per_k(argv, passes, monkeypatch, capsys):
    """Timing-free gate: with the reciprocal warm, a sweep k = 1..kmax adds
    each new term's multiple of the reciprocal once, one slice update, and
    forms no series product: 2 kmax updates in all, where the per-k route
    made kmax (kmax + 1). The second sweep's k = 1 is below the stored
    depth, so it restarts the running list with the stored reciprocal."""
    monkeypatch.delenv("QTRUNC_WORKERS", raising=False)
    argv = ["verify", *argv.split()]
    assert cli.main(argv) == 0  # warms the running sum's reciprocal
    capsys.readouterr()
    updates = record(monkeypatch, trunclab, "_add_shifted")
    products = record(monkeypatch, qseries, "_add_shifted")
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(updates) == passes
    assert products == []


def test_threads_sweeping_different_windows_get_the_serial_series():
    """Two threads sweep conjecture and theorem13 up and down at (5, 2) and
    (7, 3), switching as often as the interpreter can, so each request
    meets the other thread's entry and the two reciprocals evict each
    other; every series equals the serial one."""
    ks = [1, 2, 3, 4, 5, 3, 6, 1, 8, 2]
    points = {window: [TruncParams(*window, k, 300) for k in ks]
              for window in ((5, 2), (7, 3))}
    readers = (conjecture_series, theorem13_series)
    serial = {w: [[f(P).dense() for f in readers] for P in ps] for w, ps in points.items()}
    results = {}

    def sweep(window):
        results[window] = [[f(P).dense() for f in readers]
                           for _ in range(8) for P in points[window]]

    threads = [threading.Thread(target=sweep, args=(w,)) for w in points]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for window, got in results.items():
        assert got == serial[window] * 8, window


def test_clear_all_from_another_thread_leaves_every_read_whole():
    """A thread calls clear_all over and over while another sweeps conjecture
    and theorem13 up and down, switching as often as the interpreter can: a
    clear waits for the read that holds a running sum's lock, so every
    series equals the serial one."""
    points = [TruncParams(5, 2, k, 200) for k in (1, 3, 2, 5, 4, 1, 6)]
    readers = (conjecture_series, theorem13_series)
    serial = [[f(P).dense() for f in readers] for P in points]
    done = threading.Event()
    results = []

    def sweep():
        try:
            results.extend([[f(P).dense() for f in readers] for P in points]
                           for _ in range(6))
        finally:
            done.set()

    def clear():
        while not done.is_set():
            _memo.clear_all()

    threads = [threading.Thread(target=sweep), threading.Thread(target=clear)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 6


@pytest.mark.parametrize("argv", [
    ["conjecture", "--R", "5", "--S", "2", "--kmax", "6", "--N", "400"],
    ["theorem13", "--R", "4", "--S", "2", "--kmax", "6", "--N", "400"],
    ["gz", "--kmax", "6", "--N", "400"],
    ["corollary14", "--kmax", "6", "--nmax", "400"],
], ids=lambda argv: argv[0])
def test_pooled_sweeps_equal_the_serial_payload(argv, tmp_path, capsys, monkeypatch):
    """The pool's payload equals the serial one, byte for byte. Forked
    workers inherit the memos the serial run left at k = 6, so their first
    request, for a lower k, restarts the list with the inherited reciprocal;
    later ones skip the k that the other worker took."""
    serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
    monkeypatch.delenv("QTRUNC_WORKERS", raising=False)
    assert cli.main(["verify", *argv, "--format", "json", "--out", str(serial)]) == 0
    monkeypatch.setenv("QTRUNC_WORKERS", "2")
    assert cli.main(["verify", *argv, "--format", "json", "--out", str(pooled)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == pooled.read_bytes()
