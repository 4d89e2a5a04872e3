"""One CLI invocation in a fresh interpreter, timed from the inside.

Usage: python3 bench/child.py RECORD TRACE -- qtrunc-args...

Writes a JSON record to RECORD: the clock reading once ``qtrunc.cli`` is
imported (the parent subtracts its own reading taken just before starting
this process), the wall time of ``cli.main(args)``, its exit code, this
process's peak resident set size and, with TRACE=1, the layer totals of
``tracer.py``, whose spans go to RECORD.spans.json. The CLI payload goes to
stdout as usual.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qtrunc.cli  # noqa: E402  (the import is what set-up time measures)

READY = time.perf_counter()


def main() -> None:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    args = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if trace:
        import tracer as tracer_mod  # found next to this file

        tracer = tracer_mod.Tracer()
        tracer.install()
    record = {"ready": READY}
    start = time.perf_counter()
    try:
        code = qtrunc.cli.main(args)
        sys.stdout.flush()
    except Exception as exc:  # a crash is a failed operation, not a lost run
        code = None
        record["error"] = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    record.update(
        wall_s=end - start,
        code=code,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.totals()
        tracer.dump(record_path + ".spans.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
