"""Command-line behavior: exit codes, formats, determinism, worker pool."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from qtrunc import CheckReport
from qtrunc import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_exit_zero(capsys):
    code, out, err = run_cli(["verify", "theorem12", "--n", "15", "--k", "2"], capsys)
    assert code == 0
    assert "A2_size=21" in out
    assert "A1_neg_size=3" in out
    assert "difference=18" in out
    assert "1/1 points passed" in out
    assert err == ""


def _rig_gz(monkeypatch):
    """Replace gz's check by one that reports a violation at k = 2."""
    def rigged(k, N):
        report = CheckReport("gz", {"k": k, "N": N})
        if k == 2:
            report.add(5, ">= 0", -1)
        return report

    monkeypatch.setattr("qtrunc.trunclab.gz_check", rigged)


def test_verify_violation_exit_one(capsys, monkeypatch):
    """A single reported violation anywhere in the grid must force exit 1."""
    _rig_gz(monkeypatch)
    code, out, _ = run_cli(["verify", "gz", "--kmax", "3", "--N", "10"], capsys)
    assert code == 1
    assert "[FAIL] gz k=2" in out
    assert "witness=5" in out and "actual=-1" in out
    assert "2/3 points passed" in out


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the rigged check reaches pool workers only by fork")
def test_worker_pool_carries_violations(tmp_path, capsys, monkeypatch):
    """Reports that hold violations come back from the pool intact: the
    pooled payload equals the serial one, byte for byte, and both exit 1."""
    _rig_gz(monkeypatch)
    argv = ["verify", "gz", "--kmax", "3", "--N", "10", "--format", "json"]
    serial = tmp_path / "serial.json"
    pooled = tmp_path / "pooled.json"
    monkeypatch.delenv("QTRUNC_WORKERS", raising=False)
    assert cli.main(argv + ["--out", str(serial)]) == 1
    monkeypatch.setenv("QTRUNC_WORKERS", "2")
    assert cli.main(argv + ["--out", str(pooled)]) == 1
    capsys.readouterr()
    assert serial.read_bytes() == pooled.read_bytes()
    assert b'"actual": -1' in serial.read_bytes()


def test_verify_usage_errors_exit_two(capsys):
    cases = [
        ["verify", "pentagonal", "--N", "-5"],
        ["verify", "nonsense"],
        ["verify", "pentagonal", "--R", "3", "--S", "3"],
        ["verify", "wang-yee", "--R", "3", "--S", "2"],
        ["verify", "theorem13", "--k", "2", "--kmax", "4"],
        ["table", "psi"],
        # a flag the suite does not read
        ["verify", "pentagonal", "--k", "3", "--nmax", "9"],
        ["table", "am-identity", "--kmax", "3"],
        ["verify", "wang-yee", "--k", "2"],
        ["table", "recurrence117", "--N", "50"],
    ]
    for argv in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_unread_flags_are_named_in_one_error(capsys):
    code, out, err = run_cli(["verify", "pentagonal", "--k", "3", "--nmax", "9"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: verify pentagonal does not read --k, --nmax\n"
    # verify and table read different flags: table gz reads --k, not --kmax
    code, _, err = run_cli(["table", "gz", "--kmax", "2"], capsys)
    assert code == 2
    assert err == "error: table gz does not read --kmax\n"


def test_verify_rejects_garbage_worker_count(capsys, monkeypatch):
    monkeypatch.setenv("QTRUNC_WORKERS", "soup")
    code, _, err = run_cli(["verify", "jacobi-cube", "--N", "10"], capsys)
    assert code == 2
    assert "QTRUNC_WORKERS" in err


def test_verify_json_document_shape(capsys):
    code, out, _ = run_cli(
        ["verify", "theorem13", "--R", "4", "--S", "1", "--kmax", "2",
         "--N", "40", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "theorem13"
    assert doc["pass"] is True
    assert [p["params"]["k"] for p in doc["points"]] == [1, 2]
    for point in doc["points"]:
        assert point["pass"] is True
        assert point["violations"] == []


def test_verify_csv_has_published_header(capsys):
    code, out, _ = run_cli(
        ["verify", "am-identity", "--kmax", "2", "--N", "30", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,R,S,k,n,expected,actual,pass"
    assert lines[1:] == ["am-identity,,,1,,,,True", "am-identity,,,2,,,,True"]


def test_verify_psi_sweeps_n_and_k(capsys):
    code, out, _ = run_cli(
        ["verify", "psi", "--nmax", "8", "--kmax", "2"], capsys
    )
    assert code == 0
    assert "16/16 points passed" in out


def test_out_flag_writes_payload_and_prints_summary(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "gz", "--kmax", "2", "--N", "20", "--format", "json",
         "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out.strip() == "2/2 points passed"
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["pass"] is True


def test_output_is_byte_identical_across_runs(tmp_path, capsys):
    argv = ["verify", "conjecture", "--R", "5", "--S", "2", "--kmax", "3",
            "--N", "50", "--format", "json"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert cli.main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_worker_pool_matches_serial_output(tmp_path, capsys, monkeypatch):
    argv = ["verify", "theorem13", "--R", "3", "--S", "1", "--kmax", "4",
            "--N", "40", "--format", "json"]
    serial = tmp_path / "serial.json"
    pooled = tmp_path / "pooled.json"
    assert cli.main(argv + ["--out", str(serial)]) == 0
    monkeypatch.setenv("QTRUNC_WORKERS", "3")
    assert cli.main(argv + ["--out", str(pooled)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == pooled.read_bytes()


def test_import_leaves_process_pool_unloaded():
    """The pool module is imported only when QTRUNC_WORKERS asks for one."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, qtrunc.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_import_loads_no_dataclasses_typing_or_csv():
    """Starting the CLI imports none of these: dataclasses pulls in inspect
    (and with it ast, dis and tokenize), and csv is needed only by
    --format csv. ``-S`` skips site, which may preload typing on its own."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, qtrunc.cli; print(sorted({'dataclasses', 'inspect', "
            "'typing', 'csv'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"


def test_table_gz_csv_row_count(capsys):
    code, out, _ = run_cli(
        ["table", "gz", "--k", "3", "--N", "20", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,coeff"
    assert len(lines) == 22  # header + orders 0..20
    assert lines[1] == "0,-1"


def test_table_recurrence_columns_agree(capsys):
    code, out, _ = run_cli(
        ["table", "recurrence117", "--nmax", "12", "--format", "csv"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 12
    for _, lhs, diff in rows:
        assert lhs == diff


def test_table_mk_json_and_alias(capsys):
    code, out, _ = run_cli(
        ["table", "mk", "--n", "15", "--kmax", "3", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == [
        {"n": 15, "k": 1, "m_k": 41},
        {"n": 15, "k": 2, "m_k": 18},
        {"n": 15, "k": 3, "m_k": 1},
    ]
    code, spelled_out, _ = run_cli(
        ["table", "mk-identity", "--n", "15", "--kmax", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert spelled_out == out


def test_table_text_alignment(capsys):
    code, out, _ = run_cli(["table", "theorem12", "--n", "15", "--kmax", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "k", "A2_size", "A1_neg_size", "difference"]
    assert lines[2].split() == ["15", "2", "21", "3", "18"]


def test_table_am_identity_columns_match(capsys):
    code, out, _ = run_cli(
        ["table", "am-identity", "--k", "2", "--N", "25", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 26
    for _, lhs, rhs in rows:
        assert lhs == rhs
