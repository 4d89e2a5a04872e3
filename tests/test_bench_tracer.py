"""The benchmark's layer tracer still installs over the library.

``bench/tracer.py`` wraps qtrunc's public functions and fetches a fixed list
of class methods by name from each class's ``__dict__``. Deleting or
renaming any of them makes every traced benchmark invocation fail, so this
test installs the tracer, runs one small invocation of every suite and
table the benchmark workloads use, and checks that tracing leaves the
payload bytes alone and that uninstalling restores every wrapped name.
"""

import contextlib
import io
import os
import sys
import types

from qtrunc import cli

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")

INVOCATIONS = (
    "verify wang-yee --R 3 --S 1 --m 2 --N 40",
    "verify am-identity --kmax 2 --N 40",
    "verify mao --R 5 --S 2 --kmax 2 --N 50",
    "verify decomposition --R 5 --S 2 --kmax 2 --N 60",
    "table am-identity --k 2 --N 30",
    "verify conjecture --R 5 --S 2 --kmax 2 --N 80",
    "verify theorem13 --R 5 --S 3 --kmax 2 --N 80",
    "verify gz --kmax 2 --N 60",
    "verify jacobi-cube --N 80",
    "verify recurrence117 --nmax 60",
    "verify corollary14 --kmax 2 --nmax 60",
    "table conjecture --R 5 --S 1 --k 2 --N 40",
    "verify phi --n 8",
    "verify psi --nmax 8 --kmax 2",
    "verify theorem12 --nmax 10 --kmax 2",
    "verify mk-identity --nmax 10 --kmax 2",
)


def load_tracer():
    # compiled from source, so no bytecode cache is written under bench/
    module = types.ModuleType("bench_tracer")
    with open(TRACER, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACER, "exec"), module.__dict__)
    return module


def payloads() -> list[tuple[int, str]]:
    out = []
    for line in INVOCATIONS:
        fmt = "json" if line.startswith("verify") else "csv"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(line.split() + ["--format", fmt])
        out.append((code, buf.getvalue()))
    return out


def test_tracer_wraps_and_restores_the_library(monkeypatch):
    monkeypatch.delenv("QTRUNC_WORKERS", raising=False)
    tracer_mod = load_tracer()
    modules = [sys.modules[name] for name in tracer_mod.MODULES]
    classes = {value for mod in modules for value in vars(mod).values()
               if isinstance(value, type) and value.__module__.startswith("qtrunc")}
    owners = modules + sorted(classes, key=lambda cls: cls.__name__)
    # every function the tracer may wrap; module state such as the rank
    # table may legitimately grow while the invocations run
    before = [{name: value for name, value in vars(owner).items()
               if isinstance(value, types.FunctionType)} for owner in owners]
    plain = payloads()
    assert [code for code, _ in plain] == [0] * len(INVOCATIONS)

    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        traced = payloads()
    finally:
        tracer.uninstall()
    assert traced == plain
    totals = tracer.totals()
    assert totals["trunclab.checks.calls"] > 0 and totals["bijections.verify.calls"] > 0

    for owner, saved in zip(owners, before):
        now = vars(owner)
        moved = [name for name, value in saved.items() if now.get(name) is not value]
        assert not moved, (owner, moved)


def test_tracer_counts_constructed_partitions(monkeypatch):
    """``partitions.objects`` and ``bijections.indexed`` count one per object
    built, through the ``__post_init__`` hooks the tracer wraps."""
    from qtrunc import IndexedPartition, Partition

    monkeypatch.delenv("QTRUNC_WORKERS", raising=False)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        before = tracer.totals()
        lams = [Partition((2,)), Partition((1, 1)), Partition()]
        IndexedPartition(lams[0], -1, 3)
        IndexedPartition(lams[1], 0, 2)
        after = tracer.totals()
    finally:
        tracer.uninstall()
    assert after["partitions.objects"] - before["partitions.objects"] == 3
    assert after["bijections.indexed"] - before["bijections.indexed"] == 2
