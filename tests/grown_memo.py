"""Test helpers for ``partitions._Grown``, the memo behind p(n) and the
rank table: record what a memo builds, and read it from several threads
at once."""

import sys
import threading


def counting_builds(monkeypatch, memo) -> list:
    """Return the list to which each build of the memo, which the test
    starts empty, appends the reach it was asked for."""
    builds = []
    build = memo.build
    monkeypatch.setattr(memo, "build", lambda M: builds.append(M) or build(M))
    return builds


def sweep_concurrently(read, top: int, strides=(1, 2, 3, 5)) -> dict:
    """One thread per stride reads ``read(m)`` for m in range(stride, top,
    stride), so the threads' rebuilds overlap, with the interpreter
    switching threads as often as it can. Returns each stride's reads."""
    results = {}

    def sweep(stride):
        results[stride] = [read(m) for m in range(stride, top, stride)]

    threads = [threading.Thread(target=sweep, args=(stride,)) for stride in strides]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results
