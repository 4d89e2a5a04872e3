"""CheckReport and Violation serialization."""

import csv
import io
import json

from qtrunc import CheckReport, Violation
from qtrunc.report import CSV_COLUMNS


def test_pass_is_derived_from_violations():
    report = CheckReport("demo", {"k": 1})
    assert report.passed
    report.add(4, 0, -2)
    assert not report.passed
    assert report.violations == [Violation(4, 0, -2)]


def test_violation_to_dict():
    v = Violation({"partition": [2, 1], "j": 0}, "image", "boom")
    assert v.to_dict() == {
        "witness": {"partition": [2, 1], "j": 0},
        "expected": "image",
        "actual": "boom",
    }


def test_to_json_is_sorted_and_stable():
    report = CheckReport("demo", {"k": 2, "N": 10})
    report.add(3, 1, 0)
    first = report.to_json(indent=2)
    assert first == report.to_json(indent=2)
    doc = json.loads(first)
    assert doc["pass"] is False
    assert doc["suite"] == "demo"
    assert doc["violations"] == [{"witness": 3, "expected": 1, "actual": 0}]
    # sort_keys puts "pass" before "suite" deterministically
    assert first.index('"pass"') < first.index('"suite"')


def test_csv_rows_for_a_passing_report():
    report = CheckReport("theorem13", {"R": 3, "S": 1, "k": 2, "N": 50})
    rows = report.csv_rows()
    assert rows == [{
        "suite": "theorem13", "R": 3, "S": 1, "k": 2, "n": "",
        "expected": "", "actual": "", "pass": True,
    }]


def test_csv_rows_expand_violations():
    report = CheckReport("mk-identity", {"k": 2, "nmin": 1, "nmax": 10})
    report.add({"n": 7, "k": 2}, 1, {"series_coeff": 0, "class_difference": 1})
    rows = report.csv_rows()
    assert len(rows) == 1
    row = rows[0]
    assert row["pass"] is False
    # structured cells are JSON so the CSV stays one value per cell
    assert json.loads(row["n"]) == {"n": 7, "k": 2}
    assert row["expected"] == 1
    assert json.loads(row["actual"]) == {"series_coeff": 0, "class_difference": 1}


def test_csv_rows_write_under_the_published_header():
    report = CheckReport("gz", {"k": 1, "N": 5})
    report.add(3, ">= 0", -2)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(report.csv_rows())
    lines = buf.getvalue().splitlines()
    assert lines[0] == "suite,R,S,k,n,expected,actual,pass"
    assert lines[1] == "gz,,,1,3,>= 0,-2,False"
