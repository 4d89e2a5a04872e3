"""Machine-readable verdicts for verification runs.

Every check suite in this package returns a CheckReport rather than raising
on a mathematical failure: a failed identity or sign violation is report
content, while malformed parameters raise ValueError at the call site.
"""

from __future__ import annotations

import json


class _Record:
    """Frozen value behaviour over ``__slots__``, shared by the package's
    record classes: repr, equality and hash over the fields ``_fields``
    names, in that order, and no assignment once ``__init__`` has set them
    with ``_set``. Pickling calls the constructor again, since unpickling
    slots state would assign."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class Violation(_Record):
    """One counterexample: where it happened, what was expected, what came out.

    ``witness`` is JSON-serializable. For coefficient checks it is the degree
    (an int); for bijection checks it is a dict naming the partition and index.
    """

    __slots__ = _fields = ("witness", "expected", "actual")

    def __init__(self, witness: object, expected: object, actual: object):
        self._set(witness, expected, actual)

    def to_dict(self) -> dict:
        return {"witness": self.witness, "expected": self.expected, "actual": self.actual}


class CheckReport(_Record):
    """Verdict of one verification run over a parameter point or grid.

    ``passed`` is derived: a report passes exactly when it has no violations,
    so the two can never disagree. A report is built up by ``add``, so unlike
    the other records it takes assignment and has no hash.
    """

    __slots__ = _fields = ("suite", "params", "violations")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, suite: str, params: dict, violations: list[Violation] | None = None):
        self._set(suite, params, [] if violations is None else violations)

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, witness: object, expected: object, actual: object) -> None:
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


def _cell(value: object):
    """Flatten a value for one CSV cell; structured values become JSON."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return json.dumps(value, sort_keys=True)
