"""Command-line front end for the verification suites.

``qtrunc verify <suite>`` runs a suite over a parameter grid and gates on
the outcome: exit 0 when every point passes, 1 on any mathematical
violation (with the counterexample printed), 2 on a usage or parameter
error. ``qtrunc table <suite>`` prints coefficient tables without gating.

Output is byte-identical for identical invocations. Set QTRUNC_WORKERS to
an integer above 1 to evaluate grid points in a process pool; reports are
merged in parameter order regardless of completion order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from . import bijections, trunclab
from .partitions import divisor_diff, jacobi_cube, m_k, set_a_size
from .qseries import bilateral_theta, pochhammer, triple_product
from .report import CSV_COLUMNS, CheckReport
from .trunclab import TruncParams

SUITES = (
    "pentagonal", "jacobi-cube", "am-identity", "theorem12", "mk-identity",
    "phi", "psi", "conjecture", "theorem13", "corollary14", "gz", "mao",
    "decomposition", "wang-yee", "recurrence117",
)

_ALIASES = {"mk": "mk-identity"}


@dataclass
class SuiteSpec:
    """A resolved invocation: suite name, raw grid flags, output options."""

    suite: str
    grid: dict
    format: str = "text"
    out: str | None = None


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"--{name} must be positive, got {value}")
    return value


def _window(R: int, S: int) -> None:
    if not 1 <= S < R:
        raise ValueError(f"need 1 <= S < R, got R={R}, S={S}")


def _span(grid: dict, key: str, maxkey: str, default_max: int) -> list[int]:
    value, top = grid.get(key), grid.get(maxkey)
    if value is not None and top is not None:
        raise ValueError(f"give --{key} or --{maxkey}, not both")
    if value is not None:
        return [_positive(key, value)]
    if top is not None:
        return list(range(1, _positive(maxkey, top) + 1))
    return list(range(1, default_max + 1))


def _points(spec: SuiteSpec) -> list[tuple]:
    """Expand a spec into an ordered list of evaluation points, validating
    every parameter constraint before any computation starts."""
    g, suite = spec.grid, spec.suite
    R = 3 if g["R"] is None else g["R"]
    S = 1 if g["S"] is None else g["S"]

    def order(default: int) -> int:
        val = default if g["N"] is None else g["N"]
        if val < 0:
            raise ValueError(f"--N must be nonnegative, got {val}")
        return val

    if suite == "pentagonal":
        _window(R, S)
        return [(R, S, order(100))]
    if suite == "jacobi-cube":
        return [(order(100),)]
    if suite == "am-identity":
        N = order(100)
        return [(k, N) for k in _span(g, "k", "kmax", 6)]
    if suite == "theorem12":
        ns = _span(g, "n", "nmax", 30)
        ks = _span(g, "k", "kmax", 5)
        return [(n, k) for n in ns for k in ks]
    if suite == "mk-identity":
        ks = _span(g, "k", "kmax", 4)
        if g["n"] is not None and g["nmax"] is not None:
            raise ValueError("give --n or --nmax, not both")
        if g["n"] is not None:
            nmin = nmax = _positive("n", g["n"])
        else:
            nmin = 1
            nmax = 25 if g["nmax"] is None else _positive("nmax", g["nmax"])
        return [(k, nmax, nmin) for k in ks]
    if suite == "phi":
        return [(n,) for n in _span(g, "n", "nmax", 25)]
    if suite == "psi":
        ns = _span(g, "n", "nmax", 25)
        ks = _span(g, "k", "kmax", 3)
        return [(n, k) for n in ns for k in ks]
    if suite in ("conjecture", "theorem13"):
        _window(R, S)
        N = order(100)
        return [(R, S, k, N) for k in _span(g, "k", "kmax", 5)]
    if suite == "corollary14":
        nmax = 200 if g["nmax"] is None else _positive("nmax", g["nmax"])
        return [(k, nmax) for k in _span(g, "k", "kmax", 6)]
    if suite == "gz":
        N = order(100)
        return [(k, N) for k in _span(g, "k", "kmax", 5)]
    if suite == "mao":
        _window(R, S)
        N = order(100)
        return [(R, S, k, N) for k in _span(g, "k", "kmax", 4)]
    if suite == "decomposition":
        _window(R, S)
        N = order(100)
        return [(R, S, k, N) for k in _span(g, "k", "kmax", 3)]
    if suite == "wang-yee":
        if not (1 <= S and 2 * S <= R):
            raise ValueError(f"need 1 <= S <= R/2, got R={R}, S={S}")
        m = 1 if g["m"] is None else _positive("m", g["m"])
        return [(R, S, m, order(100))]
    if suite == "recurrence117":
        nmax = 200 if g["nmax"] is None else _positive("nmax", g["nmax"])
        return [(nmax,)]
    raise ValueError(f"unknown suite {suite!r}")


def _evaluate(suite: str, point: tuple) -> CheckReport:
    if suite == "pentagonal":
        return trunclab.pentagonal_check(*point)
    if suite == "jacobi-cube":
        return trunclab.jacobi_cube_check(*point)
    if suite == "am-identity":
        return trunclab.am_check(*point)
    if suite == "theorem12":
        return bijections.theorem12_check(*point)
    if suite == "mk-identity":
        k, nmax, nmin = point
        return trunclab.mk_identity_check(k, nmax, nmin)
    if suite == "phi":
        return bijections.verify_phi(*point)
    if suite == "psi":
        return bijections.verify_psi(*point)
    if suite == "conjecture":
        return trunclab.conjecture_check(TruncParams(*point))
    if suite == "theorem13":
        return trunclab.theorem13_check(TruncParams(*point))
    if suite == "corollary14":
        return trunclab.corollary14_report(*point)
    if suite == "gz":
        return trunclab.gz_check(*point)
    if suite == "mao":
        return trunclab.mao_check(TruncParams(*point))
    if suite == "decomposition":
        return trunclab.decomposition_check(TruncParams(*point))
    if suite == "wang-yee":
        return trunclab.wang_yee_check(*point)
    if suite == "recurrence117":
        return trunclab.recurrence_check(*point)
    raise ValueError(f"unknown suite {suite!r}")


def _evaluate_star(item: tuple) -> CheckReport:
    return _evaluate(*item)


def _worker_count() -> int:
    raw = os.environ.get("QTRUNC_WORKERS", "")
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"QTRUNC_WORKERS must be an integer, got {raw!r}") from None


def _run_points(suite: str, points: list[tuple]) -> list[CheckReport]:
    workers = _worker_count()
    if workers > 1 and len(points) > 1:
        # imported here: the pool module pulls in multiprocessing, socket,
        # pickle and subprocess, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
            return list(pool.map(_evaluate_star, [(suite, p) for p in points]))
    return [_evaluate(suite, p) for p in points]


def _summary_line(reports: list[CheckReport]) -> str:
    passed = sum(1 for r in reports if r.passed)
    return f"{passed}/{len(reports)} points passed"


def _render_verify(spec: SuiteSpec, reports: list[CheckReport]) -> str:
    if spec.format == "json":
        doc = {
            "suite": spec.suite,
            "pass": all(r.passed for r in reports),
            "points": [r.to_dict() for r in reports],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if spec.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for r in reports:
            writer.writerows(r.csv_rows())
        return buf.getvalue()
    lines = []
    for r in reports:
        params = " ".join(f"{key}={val}" for key, val in r.params.items())
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.suite} {params}")
        for v in r.violations[:20]:
            lines.append(
                "    witness=%s expected=%s actual=%s"
                % (
                    json.dumps(v.witness, sort_keys=True),
                    json.dumps(v.expected, sort_keys=True),
                    json.dumps(v.actual, sort_keys=True),
                )
            )
        hidden = len(r.violations) - 20
        if hidden > 0:
            lines.append(f"    ... {hidden} more violations")
    lines.append(_summary_line(reports))
    return "\n".join(lines) + "\n"


def _emit(spec: SuiteSpec, payload: str, summary: str) -> None:
    if spec.out:
        with open(spec.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        print(summary)
    else:
        sys.stdout.write(payload)


def run(spec: SuiteSpec) -> int:
    """Evaluate a verify invocation; returns the process exit code."""
    points = _points(spec)
    reports = _run_points(spec.suite, points)
    _emit(spec, _render_verify(spec, reports), _summary_line(reports))
    return 0 if all(r.passed for r in reports) else 1


def _table_rows(spec: SuiteSpec) -> tuple[list[str], list[tuple]]:
    g, suite = spec.grid, spec.suite
    R = 3 if g["R"] is None else g["R"]
    S = 1 if g["S"] is None else g["S"]

    def order(default: int) -> int:
        val = default if g["N"] is None else g["N"]
        if val < 0:
            raise ValueError(f"--N must be nonnegative, got {val}")
        return val

    def single(key: str, default: int) -> int:
        val = g.get(key)
        return default if val is None else _positive(key, val)

    if suite == "pentagonal":
        _window(R, S)
        N = order(100)
        prod = triple_product(R, S, N)
        theta = bilateral_theta(R, S, N)
        return ["n", "product", "theta"], [
            (n, prod.coeff(n), theta.coeff(n)) for n in range(N + 1)
        ]
    if suite == "jacobi-cube":
        N = order(100)
        euler = pochhammer(1, 1, N)
        cube = euler * euler * euler
        sparse = jacobi_cube(N)
        return ["n", "cube", "sparse_sum"], [
            (n, cube.coeff(n), sparse.coeff(n)) for n in range(N + 1)
        ]
    if suite == "am-identity":
        k = single("k", 2)
        N = order(100)
        lhs = trunclab.am_lhs(k, N)
        rhs = trunclab.am_rhs(k, N)
        return ["n", "lhs", "rhs"], [
            (n, lhs.coeff(n), rhs.coeff(n)) for n in range(N + 1)
        ]
    if suite == "theorem12":
        ns = _span(g, "n", "nmax", 30)
        ks = _span(g, "k", "kmax", 5)
        rows = []
        for n in ns:
            for k in ks:
                a2 = set_a_size(2, k - 1, n)
                a1 = set_a_size(1, -k, n)
                rows.append((n, k, a2, a1, a2 - a1))
        return ["n", "k", "A2_size", "A1_neg_size", "difference"], rows
    if suite == "mk-identity":
        ns = _span(g, "n", "nmax", 15)
        ks = _span(g, "k", "kmax", 4)
        rows = [(n, k, m_k(k, n)) for n in ns for k in ks]
        return ["n", "k", "m_k"], rows
    if suite in ("conjecture", "theorem13"):
        _window(R, S)
        params = TruncParams(R, S, single("k", 1), order(100))
        if suite == "conjecture":
            series = trunclab.conjecture_series(params)
        else:
            series = trunclab.theorem13_series(params)
        return ["n", "coeff"], [(n, series.coeff(n)) for n in range(params.N + 1)]
    if suite == "corollary14":
        k = single("k", 1)
        nmax = single("nmax", 30)
        rows = []
        for n in range(1, nmax + 1):
            rows.append((n, trunclab.index_weighted_sum(n, k), divisor_diff(n, 3, 1)))
        return ["n", "partial_sum", "divisor_diff"], rows
    if suite == "gz":
        k = single("k", 1)
        N = order(100)
        series = trunclab.gz_series(k, N)
        return ["n", "coeff"], [(n, series.coeff(n)) for n in range(N + 1)]
    if suite == "recurrence117":
        nmax = single("nmax", 30)
        rows = []
        for n in range(1, nmax + 1):
            rows.append((n, trunclab.index_weighted_sum(n), divisor_diff(n, 3, 1)))
        return ["n", "lhs", "divisor_diff"], rows
    raise ValueError(f"table output is not available for suite {suite!r}")


def _render_table(spec: SuiteSpec, columns: list[str], rows: list[tuple]) -> str:
    if spec.format == "json":
        doc = [dict(zip(columns, row)) for row in rows]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if spec.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [
        max(len(str(col)), *(len(str(row[i])) for row in rows)) if rows else len(str(col))
        for i, col in enumerate(columns)
    ]
    lines = ["  ".join(str(col).rjust(w) for col, w in zip(columns, widths))]
    for row in rows:
        lines.append("  ".join(str(val).rjust(w) for val, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def table(spec: SuiteSpec) -> int:
    """Evaluate a table invocation; returns the process exit code."""
    columns, rows = _table_rows(spec)
    _emit(spec, _render_table(spec, columns, rows), f"{len(rows)} rows")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtrunc",
        description="Exact verification of truncated q-series identities "
                    "and partition inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("verify", "run a suite over a parameter grid and gate on the result"),
        ("table", "print coefficient tables without pass/fail gating"),
    )
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("suite", help="one of: " + ", ".join(SUITES))
        p.add_argument("--R", type=int, help="modulus parameter")
        p.add_argument("--S", type=int, help="residue parameter")
        p.add_argument("--k", type=int, help="single truncation depth")
        p.add_argument("--kmax", type=int, help="sweep truncation depths 1..kmax")
        p.add_argument("--m", type=int, help="truncation depth for wang-yee")
        p.add_argument("--n", type=int, help="single weight")
        p.add_argument("--nmax", type=int, help="sweep weights 1..nmax")
        p.add_argument("--N", type=int, help="series order")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write the report to this path")
    return parser


def _spec_from_args(args: argparse.Namespace) -> SuiteSpec:
    suite = _ALIASES.get(args.suite, args.suite)
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {args.suite!r}; choose from: " + ", ".join(SUITES)
        )
    grid = {key: getattr(args, key) for key in ("R", "S", "k", "kmax", "m", "n", "nmax", "N")}
    return SuiteSpec(suite=suite, grid=grid, format=args.format, out=args.out)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if args.command == "verify":
            return run(spec)
        return table(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
