"""Machine-readable verdicts for verification runs.

Every check suite in this package returns a CheckReport rather than raising
on a mathematical failure: a failed identity or sign violation is report
content, while malformed parameters raise ValueError at the call site.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Violation:
    """One counterexample: where it happened, what was expected, what came out.

    ``witness`` is JSON-serializable. For coefficient checks it is the degree
    (an int); for bijection checks it is a dict naming the partition and index.
    """

    witness: Any
    expected: Any
    actual: Any

    def to_dict(self) -> dict:
        return {"witness": self.witness, "expected": self.expected, "actual": self.actual}


@dataclass
class CheckReport:
    """Verdict of one verification run over a parameter point or grid.

    ``passed`` is derived: a report passes exactly when it has no violations,
    so the two can never disagree.
    """

    suite: str
    params: dict
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, witness: Any, expected: Any, actual: Any) -> None:
        self.violations.append(Violation(witness, expected, actual))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "pass": self.passed,
            "violations": [v.to_dict() for v in self.violations],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def csv_rows(self) -> list[dict]:
        """Flatten to rows with columns suite, R, S, k, n, expected, actual, pass.

        A passing report yields one summary row; a failing one yields a row
        per violation with ``n`` taken from the witness when it is a degree.
        """
        base = {
            "suite": self.suite,
            "R": self.params.get("R", ""),
            "S": self.params.get("S", ""),
            "k": self.params.get("k", self.params.get("m", "")),
            "n": self.params.get("n", ""),
            "expected": "",
            "actual": "",
            "pass": self.passed,
        }
        if self.passed:
            return [base]
        rows = []
        for v in self.violations:
            row = dict(base)
            row["n"] = _cell(v.witness)
            row["expected"] = _cell(v.expected)
            row["actual"] = _cell(v.actual)
            rows.append(row)
        return rows


CSV_COLUMNS = ["suite", "R", "S", "k", "n", "expected", "actual", "pass"]


def _cell(value: Any):
    """Flatten a value for one CSV cell; structured values become JSON."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return json.dumps(value, sort_keys=True)
