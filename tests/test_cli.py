"""Command-line behavior: exit codes, formats, determinism, worker pool."""

import errno
import io
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from qtrunc import cli, trunclab
from qtrunc.qseries import IntSeries


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


def _bump(bumps):
    """A rig for a side function of trunclab: the series it returns gains
    ``bumps``, a {degree: delta} map or a function from the side's
    arguments to one."""
    def rig(side):
        def rigged(*args):
            series = side(*args)
            delta = bumps(*args) if callable(bumps) else bumps
            return series + IntSeries(delta, series.order)
        return rigged
    return rig


# gz's coefficient at q^5 is 0 at k = 2, so this makes it -1
_GZ_RIG = _bump(lambda k, N: {5: -1} if k == 2 else {})


def _rig_gz(monkeypatch):
    """Rig gz's series side so that its coefficient at q^5 is -1 at k = 2;
    the real check then finds the violation."""
    monkeypatch.setattr(trunclab, "gz_series", _GZ_RIG(trunclab.gz_series))


# One row per claim: the verify arguments, the side function of trunclab
# that is rigged, the rig, and every violation the payload must then hold,
# as (witness, expected, actual).
RIGGED_SIDES = [
    pytest.param(["am-identity", "--k", "2", "--N", "20"], "am_rhs",
                 _bump({3: 1, 7: 1}), [(3, 1, 0), (7, 0, -1)], id="am-identity"),
    pytest.param(["pentagonal", "--R", "3", "--S", "1", "--N", "20"], "triple_product",
                 _bump({4: 1}), [({"check": "triple-vs-theta", "degree": 4}, 0, 1)],
                 id="pentagonal-triple-vs-theta"),
    pytest.param(["pentagonal", "--R", "3", "--S", "1", "--N", "20"], "pochhammer",
                 _bump({5: -1}), [({"check": "euler-vs-theta", "degree": 5}, 1, 0)],
                 id="pentagonal-euler-vs-theta"),
    pytest.param(["jacobi-cube", "--N", "20"], "jacobi_cube",
                 _bump({6: 1}), [(6, -6, -7)], id="jacobi-cube"),
    pytest.param(["conjecture", "--R", "5", "--S", "2", "--k", "2", "--N", "30"],
                 "conjecture_series", _bump({4: -50, 9: -50}),
                 [(4, ">= 0", -50), (9, ">= 0", -50)], id="conjecture"),
    pytest.param(["theorem13", "--R", "5", "--S", "2", "--k", "1", "--N", "30"],
                 "lambert_diff", _bump({1: 100, 6: 100}),
                 [(1, ">= 0", -100), (6, ">= 0", -99)], id="theorem13"),
    pytest.param(["gz", "--kmax", "3", "--N", "10"], "gz_series", _GZ_RIG,
                 [(5, ">= 0", -1)], id="gz"),
    # corollary14 reads the divisor difference as its bound: >= at odd k,
    # <= at even k
    pytest.param(["corollary14", "--k", "1", "--nmax", "10"], "lambert_diff",
                 _bump({4: 5}), [(4, ">= 6", 3)], id="corollary14-odd-k"),
    pytest.param(["corollary14", "--k", "2", "--nmax", "10"], "lambert_diff",
                 _bump({4: -5}), [(4, "<= -4", 1)], id="corollary14-even-k"),
    pytest.param(["recurrence117", "--nmax", "12"], "divisor_diff",
                 lambda side: lambda n, R, S: side(n, R, S) + (n in (1, 7)),
                 [(1, 2, 1), (7, 3, 2)], id="recurrence117"),
    pytest.param(["mao", "--R", "5", "--S", "2", "--k", "1", "--N", "30"], "_theta_sum",
                 _bump({12: 1}),
                 [({"series": "base R*k-S", "degree": 12}, 1, 0),
                  ({"series": "base R*k+S", "degree": 12}, 1, 0)], id="mao"),
    pytest.param(["decomposition", "--R", "5", "--S", "2", "--k", "1", "--N", "30"],
                 "i_series", _bump(lambda idx, P: {2: 1} if idx == 4 else {}),
                 [({"check": "identity", "degree": 5}, 1, 0)],
                 id="decomposition-identity"),
    # I3 and I4 enter the combination with weight 1 each, so moving 1000
    # from one to the other keeps the identity; only the first negative
    # degree of I3 over the triple product is reported
    pytest.param(["decomposition", "--R", "5", "--S", "2", "--k", "1", "--N", "30"],
                 "i_series", _bump(lambda idx, P: {2: {3: -1000, 4: 1000}.get(idx, 0)}),
                 [({"check": "I3-positivity", "degree": 2}, ">= 0", -999)],
                 id="decomposition-positivity"),
    pytest.param(["wang-yee", "--R", "3", "--S", "1", "--m", "1", "--N", "20"],
                 "wang_yee_rhs", _bump({9: 2}), [(9, 10, 8)], id="wang-yee"),
]


@pytest.mark.parametrize("argv, side, rig, violations", RIGGED_SIDES)
def test_rigged_side_is_reported_through_the_cli(argv, side, rig, violations,
                                                  capsys, monkeypatch):
    """Every claim, with one side rigged, exits 1 and reports exactly the
    rigged degrees, with the witness shape and the expected/actual values
    the payload promises."""
    monkeypatch.setattr(trunclab, side, rig(getattr(trunclab, side)))
    code, out, _ = run_cli(["verify", *argv, "--format", "json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert [v for point in doc["points"] for v in point["violations"]] == [
        {"witness": w, "expected": e, "actual": a} for w, e, a in violations]


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


@pytest.mark.parametrize("argv", [["verify", "gz", "--kmax", "1", "--N", "10"],
                                  ["table", "gz", "--k", "1", "--N", "10"]],
                         ids=["verify", "table"])
@pytest.mark.parametrize("where, errno_", [(".", errno.EISDIR),
                                           ("missing/report.txt", errno.ENOENT)],
                         ids=["directory", "missing-parent"])
def test_unwritable_out_is_a_usage_error(argv, where, errno_, tmp_path, capsys):
    """A directory, or a path under a missing directory, exits 2 after the
    grid has run, with one line on stderr, and not 1 with a traceback."""
    target = tmp_path / where
    code, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {target}: {os.strerror(errno_)}\n"
    assert [p.name for p in tmp_path.iterdir()] == []


# one passing verify, one table and one failing verify (gz rigged by _rig_gz)
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv, code, rigged", [
    (["verify", "theorem13", "--R", "4", "--S", "1", "--kmax", "2", "--N", "40"], 0, False),
    (["table", "conjecture", "--R", "5", "--S", "2", "--k", "2", "--N", "60"], 0, False),
    (["verify", "gz", "--kmax", "3", "--N", "10"], 1, True),
], ids=["verify", "table", "verify-failing"])
def test_out_holds_the_bytes_stdout_gets(argv, code, rigged, fmt, tmp_path, capsys,
                                         monkeypatch):
    """stdout and --out are one output path: the file holds exactly the
    bytes the same invocation writes to stdout."""
    if rigged:
        _rig_gz(monkeypatch)
    argv = argv + ["--format", fmt]
    assert cli.main(argv) == code
    payload = capsys.readouterr().out
    target = tmp_path / "payload"
    assert cli.main(argv + ["--out", str(target)]) == code
    assert capsys.readouterr().out.endswith(("points passed\n", "rows\n"))
    assert target.read_bytes() == payload.encode("utf-8")


class _SizedWrites(io.StringIO):
    """A stdout that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "text"])
@pytest.mark.parametrize("argv", [
    ["table", "conjecture", "--R", "5", "--S", "1", "--k", "1", "--N", "3000"],
    ["verify", "theorem12", "--nmax", "42", "--kmax", "5"],
], ids=["table", "verify"])
def test_csv_and_text_are_written_line_by_line(argv, fmt, monkeypatch):
    """CSV and text go out one row or line per write, never as one string
    holding the whole payload: every line here is under 80 characters and
    every payload over 4 kB. JSON is exempt by design: it is one json.dumps,
    because streaming it through JSONEncoder.iterencode is slower."""
    stdout = _SizedWrites()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(argv + ["--format", fmt]) == 0
    assert len(stdout.getvalue()) > 4096
    assert max(stdout.sizes) <= 256


@pytest.mark.parametrize("argv", [
    ["table", "conjecture", "--R", "5", "--S", "1", "--k", "1", "--N", "5000",
     "--format", "csv"],
    ["verify", "theorem12", "--nmax", "200", "--kmax", "5", "--format", "json"],
], ids=["table-csv", "verify-json"])
def test_closed_stdout_is_a_usage_error(argv):
    """A reader that closes the pipe after 100 bytes gets exit 2 and one
    line on stderr, not exit 1 (a violation) with a traceback. Each payload
    is larger than a pipe buffer, and stdout is left buffered, as it is for
    an installed copy."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    with subprocess.Popen([sys.executable, "-m", "qtrunc.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1].decode()
    assert (proc.returncode, err) == (
        2, f"error: cannot write to stdout: {os.strerror(errno.EPIPE)}\n")


@pytest.mark.parametrize("argv", [
    ["verify", "gz", "--kmax", "1", "--N", "10"],
    ["table", "gz", "--k", "1", "--N", "5"],
], ids=["verify", "table"])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_stdout_closed_at_start_is_a_usage_error(argv, out, tmp_path):
    """With fd 1 closed when the process starts, Python sets sys.stdout to
    None: exit 2 with one line on stderr, not exit 1 with a traceback, and
    --out is never opened, so the payload file cannot take fd 1."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    target = tmp_path / "payload"
    extra = ["--out", str(target)] if out else []
    proc = subprocess.run([sys.executable, "-m", "qtrunc.cli", *argv, *extra],
                          env=dict(os.environ, PYTHONPATH=src), stderr=subprocess.PIPE,
                          preexec_fn=lambda: os.close(1), timeout=60)
    assert (proc.returncode, proc.stderr.decode()) == (
        2, f"error: cannot write to stdout: {os.strerror(errno.EBADF)}\n")
    assert not target.exists()


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
