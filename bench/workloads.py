"""The benchmark's workloads: a seed picks each workload's CLI invocations,
and every invocation carries the check its output must pass.

Each workload is a fixed list of invocation slots. A slot's seed-dependent
parameters range over a family whose members cost about the same (for
example S within one regime at a fixed R, which keeps the number of product
factors fixed), so the seed changes the inputs without changing the amount
of work much. The seed also fixes the order in which the slots run.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import oracle

WORKLOADS = ("identity-dense", "sign-sweep", "bijection-certify")


@dataclass
class Invocation:
    argv: list[str]
    check: Callable[[str], str | None]  # payload -> error message, or None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _verify(suite: str, flags: dict, points: list[dict],
            point_check: Callable[[dict], str | None] = lambda params: None) -> Invocation:
    """``qtrunc verify`` in JSON: it must pass at exactly the given points,
    in order, each point's params containing the given values and passing
    ``point_check``."""
    argv = ["verify", suite, "--format", "json"]
    for key, val in flags.items():
        argv += [f"--{key}", str(val)]

    def check(payload: str) -> str | None:
        doc = json.loads(payload)
        if doc.get("suite") != suite or doc.get("pass") is not True:
            return f"document suite={doc.get('suite')!r} pass={doc.get('pass')!r}"
        got = doc.get("points", [])
        if len(got) != len(points):
            return f"{len(got)} points, expected {len(points)}"
        for point, want in zip(got, points):
            if point.get("pass") is not True or point.get("violations"):
                return f"point {point.get('params')} did not pass"
            params = point.get("params", {})
            for key, val in want.items():
                if params.get(key) != val:
                    return f"point {want}: {key} is {params.get(key)!r}"
            error = point_check(params)
            if error:
                return f"point {want}: {error}"
        return None

    return Invocation(argv, check)


def _parse_table(payload: str, fmt: str) -> dict[str, list[int]]:
    if fmt == "json":
        rows = json.loads(payload)
        return {col: [int(row[col]) for row in rows] for col in rows[0]}
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(payload)))
    else:
        lines = [line.split() for line in payload.splitlines()]
    header, body = lines[0], lines[1:]
    return {col: [int(row[i]) for row in body] for i, col in enumerate(header)}


def _table(suite: str, flags: dict, fmt: str,
           expected: dict[str, list[int]], nonneg_from: dict[str, int]) -> Invocation:
    """``qtrunc table``: each named column must equal its reference list,
    and the columns in ``nonneg_from`` must be >= 0 from that row on."""
    argv = ["table", suite, "--format", fmt]
    for key, val in flags.items():
        argv += [f"--{key}", str(val)]

    def check(payload: str) -> str | None:
        cols = _parse_table(payload, fmt)
        for col, want in expected.items():
            got = cols.get(col)
            if got != want:
                if got is None or len(got) != len(want):
                    return f"column {col}: {None if got is None else len(got)} rows, expected {len(want)}"
                row = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
                return f"column {col} row {row}: {got[row]}, expected {want[row]}"
        for col, start in nonneg_from.items():
            bad = [i for i, c in enumerate(cols[col]) if i >= start and c < 0]
            if bad:
                return f"column {col} negative at row {bad[0]}"
        return None

    return Invocation(argv, check)


def _points(keys: tuple, *ranges) -> list[dict]:
    """Points of a grid: every combination of the values, in the CLI's order."""
    out = [{}]
    for key, values in zip(keys, ranges):
        out = [dict(p, **{key: v}) for p in out for v in values]
    return out


def identity_dense(rng: random.Random) -> list[Invocation]:
    """Identity suites whose time goes to products of two dense series."""
    # m in {1, 2} at the same remaining order W = N - 3m(m-1)/2 = 150, which
    # keeps wang-yee's work and memory nearly equal across the two.
    m = rng.choice((1, 2))
    N_wy = 150 + 3 * m * (m - 1) // 2
    S_mao = rng.randint(1, 4)
    S_dec = rng.randint(1, 4)
    fmt = rng.choice(("text", "json", "csv"))
    p = oracle.partition_counts(400)
    am = oracle.am_coeffs(2, 400, p)
    return [
        _verify("wang-yee", {"R": 3, "S": 1, "m": m, "N": N_wy},
                [{"R": 3, "S": 1, "m": m, "N": N_wy}]),
        _verify("am-identity", {"kmax": 3, "N": 300},
                _points(("k", "N"), range(1, 4), (300,))),
        _verify("mao", {"R": 5, "S": S_mao, "kmax": 4, "N": 500},
                _points(("R", "S", "k", "N"), (5,), (S_mao,), range(1, 5), (500,))),
        _verify("decomposition", {"R": 5, "S": S_dec, "kmax": 6, "N": 600},
                _points(("R", "S", "k", "N"), (5,), (S_dec,), range(1, 7), (600,))),
        _table("am-identity", {"k": 2, "N": 400}, fmt,
               {"n": list(range(401)), "lhs": am, "rhs": am}, {}),
    ]


def sign_sweep(rng: random.Random) -> list[Invocation]:
    """Sign theorems over both (R, S) regimes at high order, and the p(n)
    scans; the time goes to product expansion and sparse inversion."""
    N = 3000
    out = []
    # (suite, R, S choices): S < R/2 is the conjectured regime, R/2 <= S < R
    # the extended one; each suite runs once in each regime.
    for suite, R, choices in (("conjecture", 5, (1, 2)), ("conjecture", 7, (4, 5, 6)),
                              ("theorem13", 5, (3, 4)), ("theorem13", 7, (1, 2, 3))):
        S = rng.choice(choices)
        out.append(_verify(suite, {"R": R, "S": S, "kmax": 8, "N": N},
                           _points(("R", "S", "k", "N"), (R,), (S,), range(1, 9), (N,))))
    S_tab, k_tab = rng.choice((1, 2)), rng.randint(1, 4)
    out += [
        _verify("gz", {"kmax": 5, "N": 2500}, _points(("k", "N"), range(1, 6), (2500,))),
        _verify("jacobi-cube", {"N": N}, [{"N": N}]),
        _verify("recurrence117", {"nmax": 1200}, [{"nmax": 1200}]),
        _verify("corollary14", {"kmax": 6, "nmax": 2000},
                _points(("k", "nmax"), range(1, 7), (2000,))),
        _table("conjecture", {"R": 5, "S": S_tab, "k": k_tab, "N": N}, "csv",
               {"n": list(range(N + 1)),
                "coeff": oracle.conjecture_coeffs(5, S_tab, k_tab, N)},
               {"coeff": 1}),
    ]
    return out


def bijection_certify(rng: random.Random) -> list[Invocation]:
    """Exhaustive bijection and rank-class certificates; the time goes to
    partition enumeration and partition objects, with no dense products."""
    kmax = rng.randint(4, 6)
    p = oracle.partition_counts(42)
    psi_points = [
        {"n": n, "k": k,
         "source_size": oracle.class_size(1, -k, n, p),
         "target_size": oracle.class_size(2, k - 1, n, p)}
        for n in range(1, 33) for k in range(1, 4)
    ]
    t12_points = []
    for n in range(1, 43):
        for k in range(1, kmax + 1):
            a2, a1 = oracle.class_size(2, k - 1, n, p), oracle.class_size(1, -k, n, p)
            t12_points.append({"n": n, "k": k, "A2_size": a2, "A1_neg_size": a1,
                               "difference": a2 - a1})
    return [
        _verify("phi", {"n": 33}, [{"n": 33}]),
        _verify("psi", {"nmax": 32, "kmax": 3}, psi_points),
        _verify("theorem12", {"nmax": 42, "kmax": kmax}, t12_points,
                lambda params: "A2_size < A1_neg_size" if params["difference"] < 0 else None),
        _verify("mk-identity", {"nmax": 27, "kmax": 4},
                _points(("k", "nmin", "nmax"), range(1, 5), (1,), (27,))),
    ]


_BUILDERS = {"identity-dense": identity_dense, "sign-sweep": sign_sweep,
             "bijection-certify": bijection_certify}


def build(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations for this seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    invocations = _BUILDERS[workload](rng)
    rng.shuffle(invocations)
    return invocations
