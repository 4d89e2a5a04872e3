"""Golden corpus of CLI invocations: stdout digest, exit code and stderr.

The corpus is every suite name and alias, under ``verify`` and ``table``, in
text, json and csv, once at the suite's defaults and once at an explicit
grid that passes only flags the suite reads; plus a dozen usage errors.
``data/cli_golden.json`` records what each invocation printed. Refactors of
the CLI and the suites must reproduce it byte for byte.

To record the corpus again, at a commit whose outputs are known good:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from qtrunc import cli

DATA = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

NAMES = (
    "pentagonal", "jacobi-cube", "am-identity", "theorem12", "mk-identity", "mk",
    "phi", "psi", "conjecture", "theorem13", "corollary14", "gz", "mao",
    "decomposition", "wang-yee", "recurrence117",
)

# one explicit grid per suite and command; suites without a table get their
# verify grid, and must still answer that no table is available
VERIFY_GRIDS = {
    "pentagonal": "--R 5 --S 2 --N 60",
    "jacobi-cube": "--N 80",
    "am-identity": "--kmax 3 --N 60",
    "theorem12": "--nmax 12 --k 2",
    "mk-identity": "--n 15 --kmax 3",
    "mk": "--nmax 12 --k 2",
    "phi": "--n 12",
    "psi": "--nmax 8 --kmax 2",
    "conjecture": "--R 5 --S 3 --kmax 3 --N 80",
    "theorem13": "--R 4 --S 1 --k 2 --N 60",
    "corollary14": "--k 3 --nmax 150",
    "gz": "--kmax 3 --N 60",
    "mao": "--R 5 --S 2 --kmax 2 --N 80",
    "decomposition": "--R 4 --S 1 --k 2 --N 60",
    "wang-yee": "--R 4 --S 2 --m 2 --N 60",
    "recurrence117": "--nmax 300",
}
TABLE_GRIDS = dict(
    VERIFY_GRIDS,
    **{
        "pentagonal": "--R 5 --S 2 --N 40",
        "jacobi-cube": "--N 40",
        "am-identity": "--k 3 --N 40",
        "theorem12": "--n 15 --kmax 3",
        "mk-identity": "--nmax 10 --k 2",
        "mk": "--n 12 --kmax 3",
        "conjecture": "--R 5 --S 3 --k 2 --N 40",
        "theorem13": "--R 4 --S 1 --k 3 --N 40",
        "corollary14": "--k 2 --nmax 40",
        "gz": "--k 2 --N 40",
        "recurrence117": "--nmax 40",
    },
)
ERRORS = (
    "verify pentagonal --N -5",
    "verify nonsense",
    "table nonsense",
    "verify pentagonal --R 3 --S 3",
    "verify conjecture --R 4 --S 0",
    "verify wang-yee --R 3 --S 2",
    "verify theorem13 --k 2 --kmax 4",
    "verify mk-identity --n 3 --nmax 5",
    "verify phi --n 0",
    "verify corollary14 --nmax 0",
    "table am-identity --k 0",
    "table psi",
)


def corpus() -> list[list[str]]:
    out = []
    for command, grids in (("verify", VERIFY_GRIDS), ("table", TABLE_GRIDS)):
        for name in NAMES:
            for fmt in ("text", "json", "csv"):
                for grid in ("", grids[name]):
                    out.append([command, name, *grid.split(), "--format", fmt])
    return out + [line.split() for line in ERRORS]


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {
        "argv": argv,
        "code": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": err.getvalue(),
    }


def load() -> list[dict]:
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_is_reproduced_byte_for_byte(monkeypatch):
    monkeypatch.delenv("QTRUNC_WORKERS", raising=False)
    recorded = load()
    assert [row["argv"] for row in recorded] == corpus()
    changed = [row["argv"] for row in recorded if invoke(row["argv"]) != row]
    assert not changed, f"{len(changed)} invocations changed, first: {changed[:5]}"


def test_every_suite_has_a_verify_row():
    verified = {row["argv"][1] for row in load() if row["argv"][0] == "verify"}
    assert set(cli.SUITES) <= verified


if __name__ == "__main__":
    rows = [invoke(argv) for argv in corpus()]
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} invocations to {DATA}", file=sys.stderr)
