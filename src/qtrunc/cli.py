"""Command-line front end for the verification suites.

``qtrunc verify <suite>`` runs a suite over a parameter grid and gates on
the outcome: exit 0 when every point passes, 1 on any mathematical
violation (with the counterexample printed), 2 on a usage or parameter
error or an unwritable destination. ``qtrunc table <suite>`` prints
coefficient tables without gating.

Output is byte-identical for identical invocations, and goes to stdout or
the --out file only once every point has run: CSV and text row by row as
they are rendered, JSON as one json.dumps. Set QTRUNC_WORKERS to
an integer above 1 to evaluate grid points in a process pool; reports are
merged in parameter order regardless of completion order.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections.abc import Callable
from types import ModuleType

from . import bijections, trunclab
from .partitions import divisor_diff, jacobi_cube, m_k, set_a_size
from .qseries import (
    IntSeries,
    _euler_cubed,
    _require_positive,
    _require_window,
    bilateral_theta,
    triple_product,
)
from .report import CSV_COLUMNS, CheckReport, _Record
from .trunclab import TruncParams, _require_half_window

_ALIASES = {"mk": "mk-identity"}
_GRID_FLAGS = ("R", "S", "k", "kmax", "m", "n", "nmax", "N")


class Axis(_Record):
    """One axis of a grid: the flags it reads, and a function from the flags
    to the axis's values, each a dict of check parameters. The function
    validates the flags and fills in the defaults."""

    __slots__ = _fields = ("flags", "values")

    def __init__(self, flags: tuple[str, ...], values: Callable[[dict], list[dict]]):
        self._set(flags, values)


class Table(_Record):
    """A coefficient table: its columns, the axes of its points, and the
    function from one point's parameters to that point's rows."""

    __slots__ = _fields = ("columns", "axes", "rows")

    def __init__(self, columns: tuple[str, ...], axes: tuple[Axis, ...],
                 rows: Callable[..., list[tuple]]):
        self._set(columns, axes, rows)


class Suite(_Record):
    """A suite: the name of its check in ``module``, the axes of its verify
    points, and its table, if it has one. The check is looked up when a
    point runs, never bound here, so a replaced check is the one called.
    With ``params`` set, the check takes the point as one TruncParams."""

    __slots__ = _fields = ("module", "check", "axes", "params", "table")

    def __init__(self, module: ModuleType, check: str, axes: tuple[Axis, ...],
                 params: bool = False, table: Table | None = None):
        self._set(module, check, axes, params, table)


def _positive(name: str, value: int) -> int:
    _require_positive(f"--{name}", value)
    return value


def _span(grid: dict, key: str, maxkey: str, default_max: int) -> list[int]:
    value, top = grid.get(key), grid.get(maxkey)
    if value is not None and top is not None:
        raise ValueError(f"give --{key} or --{maxkey}, not both")
    if value is not None:
        return [_positive(key, value)]
    if top is not None:
        return list(range(1, _positive(maxkey, top) + 1))
    return list(range(1, default_max + 1))


def _window(require: Callable[[int, int], None]) -> Axis:
    """--R and --S (default 3 and 1), checked by ``require``."""
    def values(g: dict) -> list[dict]:
        R = 3 if g["R"] is None else g["R"]
        S = 1 if g["S"] is None else g["S"]
        require(R, S)
        return [{"R": R, "S": S}]
    return Axis(("R", "S"), values)


def _order(g: dict) -> list[dict]:
    N = 100 if g["N"] is None else g["N"]
    if N < 0:
        raise ValueError(f"--N must be nonnegative, got {N}")
    return [{"N": N}]


def _scalar(flag: str, default: int) -> Axis:
    """One positive value of --flag."""
    def values(g: dict) -> list[dict]:
        return [{flag: _positive(flag, default if g[flag] is None else g[flag])}]
    return Axis((flag,), values)


def _sweep(key: str, maxkey: str, default_max: int) -> Axis:
    """--key for one value, or --maxkey for 1..max; 1..default_max if neither."""
    return Axis((key, maxkey),
                lambda g: [{key: v} for v in _span(g, key, maxkey, default_max)])


def _weights(default_max: int) -> Axis:
    """The sweep of --n / --nmax as one range of weights nmin..nmax."""
    def values(g: dict) -> list[dict]:
        ns = _span(g, "n", "nmax", default_max)
        return [{"nmin": ns[0], "nmax": ns[-1]}]
    return Axis(("n", "nmax"), values)


_WINDOW = _window(_require_window)
_ORDER = Axis(("N",), _order)


def _coeff_rows(N: int, *series: IntSeries) -> list[tuple]:
    """One row per degree n <= N: n, then the coefficient of q^n in each series."""
    return list(zip(range(N + 1), *(s.dense(N) for s in series)))


def _index_sum_rows(nmax: int, k: int | None = None) -> list[tuple]:
    sums = trunclab.index_weighted_sums(nmax, k)
    return [(n, sums[n], divisor_diff(n, 3, 1)) for n in range(1, nmax + 1)]


def _theorem12_rows(n: int, k: int) -> list[tuple]:
    a2, a1 = set_a_size(2, k - 1, n), set_a_size(1, -k, n)
    return [(n, k, a2, a1, a2 - a1)]


def _theta_table(series: str) -> Table:
    """The table of one truncated theta quotient series of trunclab."""
    return Table(("n", "coeff"), (_WINDOW, _scalar("k", 1), _ORDER),
                 lambda R, S, k, N: _coeff_rows(
                     N, getattr(trunclab, series)(TruncParams(R, S, k, N))))


# Verify axes are listed in the order their flags are validated; a grid runs
# its first axis outermost.
SUITES = {
    "pentagonal": Suite(
        trunclab, "pentagonal_check", (_WINDOW, _ORDER),
        table=Table(("n", "product", "theta"), (_WINDOW, _ORDER),
                    lambda R, S, N: _coeff_rows(N, triple_product(R, S, N),
                                                bilateral_theta(R, S, N)))),
    "jacobi-cube": Suite(
        trunclab, "jacobi_cube_check", (_ORDER,),
        table=Table(("n", "cube", "sparse_sum"), (_ORDER,),
                    lambda N: _coeff_rows(N, _euler_cubed(N), jacobi_cube(N)))),
    "am-identity": Suite(
        trunclab, "am_check", (_ORDER, _sweep("k", "kmax", 6)),
        table=Table(("n", "lhs", "rhs"), (_scalar("k", 2), _ORDER),
                    lambda k, N: _coeff_rows(N, trunclab.am_lhs(k, N),
                                             trunclab.am_rhs(k, N)))),
    "theorem12": Suite(
        bijections, "theorem12_check", (_sweep("n", "nmax", 30), _sweep("k", "kmax", 5)),
        table=Table(("n", "k", "A2_size", "A1_neg_size", "difference"),
                    (_sweep("n", "nmax", 30), _sweep("k", "kmax", 5)), _theorem12_rows)),
    "mk-identity": Suite(
        trunclab, "mk_identity_check", (_sweep("k", "kmax", 4), _weights(25)),
        table=Table(("n", "k", "m_k"), (_sweep("n", "nmax", 15), _sweep("k", "kmax", 4)),
                    lambda n, k: [(n, k, m_k(k, n))])),
    "phi": Suite(bijections, "verify_phi", (_sweep("n", "nmax", 25),)),
    "psi": Suite(bijections, "verify_psi",
                 (_sweep("n", "nmax", 25), _sweep("k", "kmax", 3))),
    "conjecture": Suite(trunclab, "conjecture_check",
                        (_WINDOW, _ORDER, _sweep("k", "kmax", 5)), params=True,
                        table=_theta_table("conjecture_series")),
    "theorem13": Suite(trunclab, "theorem13_check",
                       (_WINDOW, _ORDER, _sweep("k", "kmax", 5)), params=True,
                       table=_theta_table("theorem13_series")),
    "corollary14": Suite(
        trunclab, "corollary14_report", (_scalar("nmax", 200), _sweep("k", "kmax", 6)),
        table=Table(("n", "partial_sum", "divisor_diff"),
                    (_scalar("k", 1), _scalar("nmax", 30)),
                    lambda k, nmax: _index_sum_rows(nmax, k))),
    "gz": Suite(
        trunclab, "gz_check", (_ORDER, _sweep("k", "kmax", 5)),
        table=Table(("n", "coeff"), (_scalar("k", 1), _ORDER),
                    lambda k, N: _coeff_rows(N, trunclab.gz_series(k, N)))),
    "mao": Suite(trunclab, "mao_check",
                 (_WINDOW, _ORDER, _sweep("k", "kmax", 4)), params=True),
    "decomposition": Suite(trunclab, "decomposition_check",
                           (_WINDOW, _ORDER, _sweep("k", "kmax", 3)), params=True),
    "wang-yee": Suite(trunclab, "wang_yee_check",
                      (_window(_require_half_window), _scalar("m", 1), _ORDER)),
    "recurrence117": Suite(
        trunclab, "recurrence_check", (_scalar("nmax", 200),),
        table=Table(("n", "lhs", "divisor_diff"), (_scalar("nmax", 30),), _index_sum_rows)),
}


def _points(args: argparse.Namespace, axes: tuple[Axis, ...]) -> list[dict]:
    """Every combination of one value per axis. A flag no axis reads is a
    usage error, and every axis is validated before any point is formed, so
    no computation starts on a bad grid."""
    grid = {key: getattr(args, key) for key in _GRID_FLAGS}
    read = {flag for axis in axes for flag in axis.flags}
    unread = [f"--{key}" for key, val in grid.items()
              if val is not None and key not in read]
    if unread:
        raise ValueError(f"{args.command} {args.suite} does not read {', '.join(unread)}")
    points = [{}]
    for axis in axes:
        values = axis.values(grid)
        points = [{**point, **value} for point in points for value in values]
    return points


def _evaluate(suite: str, point: dict) -> CheckReport:
    entry = SUITES[suite]
    check = getattr(entry.module, entry.check)
    return check(TruncParams(**point)) if entry.params else check(**point)


def _worker_count() -> int:
    raw = os.environ.get("QTRUNC_WORKERS", "")
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"QTRUNC_WORKERS must be an integer, got {raw!r}") from None


def _run_points(suite: str, points: list[dict]) -> list[CheckReport]:
    workers = _worker_count()
    if workers > 1 and len(points) > 1:
        # imported here: the pool module pulls in multiprocessing, socket,
        # pickle and subprocess, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
            return list(pool.map(_evaluate, [suite] * len(points), points))
    return [_evaluate(suite, p) for p in points]


def _summary_line(reports: list[CheckReport]) -> str:
    passed = sum(1 for r in reports if r.passed)
    return f"{passed}/{len(reports)} points passed"


def _write_verify(out, args: argparse.Namespace, reports: list[CheckReport]) -> None:
    if args.format == "json":
        doc = {"suite": args.suite, "pass": all(r.passed for r in reports),
               "points": [r.to_dict() for r in reports]}
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
    elif args.format == "csv":
        import csv  # imported here, like the pool: only CSV output needs it
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for r in reports:
            writer.writerows(r.csv_rows())
    else:
        for r in reports:
            params = " ".join(f"{key}={val}" for key, val in r.params.items())
            out.write(f"[{'PASS' if r.passed else 'FAIL'}] {r.suite} {params}\n")
            for v in r.violations[:20]:
                out.write("    witness=%s expected=%s actual=%s\n" % tuple(
                    json.dumps(x, sort_keys=True) for x in (v.witness, v.expected, v.actual)))
            hidden = len(r.violations) - 20
            if hidden > 0:
                out.write(f"    ... {hidden} more violations\n")
        out.write(_summary_line(reports) + "\n")


def _emit(args: argparse.Namespace, write: Callable, summary: str) -> None:
    """Call ``write`` on the open --out file, then print ``summary``; or call
    it on stdout. A destination that cannot be written, a stdout closed at
    start included, is a usage error (exit 2), not a violation."""
    if sys.stdout is None:
        # fd 1 was closed at start; checked before open, which would take fd 1
        raise ValueError(f"cannot write to stdout: {os.strerror(errno.EBADF)}")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                write(fh)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
    try:
        if args.out:
            print(summary)
        else:
            write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # e.g. a closed reader: point fd 1 at devnull, so that the flush at
        # exit of what is still buffered cannot fail again with a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ValueError(f"cannot write to stdout: {exc.strerror}") from None


def run(args: argparse.Namespace) -> int:
    """Evaluate a verify invocation; returns the process exit code."""
    reports = _run_points(args.suite, _points(args, SUITES[args.suite].axes))
    _emit(args, lambda out: _write_verify(out, args, reports), _summary_line(reports))
    return 0 if all(r.passed for r in reports) else 1


def _write_table(out, args: argparse.Namespace, columns: tuple[str, ...],
                 rows: list[tuple]) -> None:
    if args.format == "json":
        print(json.dumps([dict(zip(columns, row)) for row in rows], indent=2,
                         sort_keys=True), file=out)
    elif args.format == "csv":
        import csv
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        lines = (columns, *rows)
        widths = [max(len(str(line[i])) for line in lines) for i in range(len(columns))]
        for line in lines:
            out.write("  ".join(str(val).rjust(w) for val, w in zip(line, widths)) + "\n")


def table(args: argparse.Namespace) -> int:
    """Evaluate a table invocation; returns the process exit code."""
    tab = SUITES[args.suite].table
    if tab is None:
        raise ValueError(f"table output is not available for suite {args.suite!r}")
    rows = [row for point in _points(args, tab.axes) for row in tab.rows(**point)]
    _emit(args, lambda out: _write_table(out, args, tab.columns, rows), f"{len(rows)} rows")
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.suite = _ALIASES.get(args.suite, args.suite)
        if args.suite not in SUITES:
            raise ValueError(
                f"unknown suite {args.suite!r}; choose from: " + ", ".join(SUITES)
            )
        if args.command == "verify":
            return run(args)
        return table(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
