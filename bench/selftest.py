"""Tests of the benchmark itself: its oracles, its output checks, and the
payload equality it assumes between serial and pooled runs.

    python3 bench/selftest.py

The oracles are checked against published values and brute force, never
against qtrunc. The pool test runs every invocation of every workload
(seed 1) once serially and once with QTRUNC_WORKERS=2 and compares bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402


def _partitions(n: int, top: int | None = None):
    """Every partition of n as a non-increasing tuple, by plain recursion."""
    top = n if top is None else min(top, n)
    if n == 0:
        yield ()
        return
    for first in range(top, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _rank(parts: tuple) -> int:
    return parts[0] - len(parts) if parts else 0


class OracleTest(unittest.TestCase):
    def test_partition_counts_match_published_values(self):
        p = oracle.partition_counts(200)
        self.assertEqual(p[:11], [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42])
        self.assertEqual(p[100], 190569292)
        self.assertEqual(p[200], 3972999029388)

    def test_rank_counts_match_brute_force(self):
        p = oracle.partition_counts(20)
        for m in range(21):
            ranks = [_rank(parts) for parts in _partitions(m)]
            for M in range(-m - 2, m + 3):
                self.assertEqual(oracle.rank_at_least(M, m, p),
                                 sum(1 for r in ranks if r >= M), (M, m))

    def test_class_sizes_match_brute_force(self):
        p = oracle.partition_counts(20)
        for n in range(1, 21):
            for j in range(-4, 4):
                m = n - oracle.gpn(j)
                ranks = [_rank(parts) for parts in _partitions(m)] if m >= 0 else []
                self.assertEqual(oracle.class_size(1, j, n, p),
                                 sum(1 for r in ranks if r <= 3 * j))
                self.assertEqual(oracle.class_size(2, j, n, p),
                                 sum(1 for r in ranks if r > 3 * j))

    def test_theta_reciprocal_inverts_the_triple_product(self):
        N = 80
        for R, S in ((2, 1), (3, 1), (5, 2), (7, 5)):
            prod = [1] + [0] * N
            for base in (S, R - S, R):
                for e in range(base, N + 1, R):
                    factor = [0] * (N + 1)
                    factor[0], factor[e] = 1, -1
                    prod = oracle.convolve(prod, factor, N)
            self.assertEqual(oracle.convolve(prod, oracle.theta_reciprocal(R, S, N), N),
                             [1] + [0] * N, (R, S))

    def test_full_pentagonal_numerator_gives_one(self):
        # Euler: the untruncated numerator is (q;q)_inf, so the quotient is 1.
        p = oracle.partition_counts(100)
        self.assertEqual(oracle.am_coeffs(12, 100, p), [1] + [0] * 100)
        # (3, 1) is Euler's product, so the k-truncations agree with am_coeffs.
        for k in (1, 2, 3):
            self.assertEqual(oracle.conjecture_coeffs(3, 1, k, 100),
                             [oracle.sign(k - 1) * c for c in oracle.am_coeffs(k, 100, p)])


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.invocations = {w: workloads.build(w, 1) for w in workloads.WORKLOADS}

    def _find(self, workload: str, prefix: str) -> workloads.Invocation:
        return next(inv for inv in self.invocations[workload] if inv.label.startswith(prefix))

    def test_verify_check_rejects_failed_or_missing_points(self):
        inv = self._find("bijection-certify", "verify theorem12")
        points = [{"params": {}, "pass": True, "violations": []}]
        doc = {"suite": "theorem12", "pass": True, "points": points}
        self.assertIsNotNone(inv.check(json.dumps(doc)))
        self.assertIsNotNone(inv.check(json.dumps(dict(doc, **{"pass": False}))))

    def test_verify_check_rejects_a_wrong_class_size(self):
        inv = self._find("bijection-certify", "verify psi")
        argv = inv.argv
        points = []
        for n in range(1, int(argv[argv.index("--nmax") + 1]) + 1):
            for k in range(1, 4):
                points.append({"params": {"n": n, "k": k, "source_size": 0, "target_size": 0},
                               "pass": True, "violations": []})
        doc = {"suite": "psi", "pass": True, "points": points}
        self.assertIn("source_size", inv.check(json.dumps(doc)))

    def test_table_check_rejects_a_changed_coefficient(self):
        inv = self._find("sign-sweep", "table conjecture")
        argv = inv.argv
        R, S, k, N = (int(argv[argv.index(f"--{f}") + 1]) for f in ("R", "S", "k", "N"))
        coeffs = oracle.conjecture_coeffs(R, S, k, N)
        good = "n,coeff\n" + "".join(f"{n},{c}\n" for n, c in enumerate(coeffs))
        self.assertIsNone(inv.check(good))
        coeffs[N // 2] += 1
        bad = "n,coeff\n" + "".join(f"{n},{c}\n" for n, c in enumerate(coeffs))
        self.assertIn(f"row {N // 2}", inv.check(bad))


def _payload(argv: list[str], workers: str | None) -> bytes:
    env = {k: v for k, v in os.environ.items() if k != "QTRUNC_WORKERS"}
    if workers is not None:
        env["QTRUNC_WORKERS"] = workers
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"),
             os.path.join(tmp, "record.json"), "0", "--", *argv],
            capture_output=True, env=env, check=True, timeout=300)
    return proc.stdout


class PoolTest(unittest.TestCase):
    def test_pooled_payload_equals_serial_payload(self):
        for workload in workloads.WORKLOADS:
            for inv in workloads.build(workload, 1):
                with self.subTest(workload=workload, invocation=inv.label):
                    serial = _payload(inv.argv, None)
                    self.assertIsNone(inv.check(serial.decode()))
                    self.assertEqual(_payload(inv.argv, "2"), serial)


if __name__ == "__main__":
    unittest.main()
