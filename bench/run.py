"""Benchmark of ``qtrunc verify`` / ``qtrunc table`` invocations.

    python3 bench/run.py --workload sign-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py                      # every workload, timed and traced

Each invocation runs in a fresh interpreter (``bench/child.py``), one at a
time, without the caller's settings in CALLER_ENV. A run repeats the
workload's invocations round-robin for about ``--seconds``, in whole rounds,
so that a slow spell of the host hits every invocation alike;
per-invocation times are medians over the rounds. Every output is checked
against ``oracle.py`` outside the timed region, and an invocation that
exits non-zero or fails its check counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` each round runs every invocation untraced and then traced
(``tracer.py``) and the run reports the per-layer metrics. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 150  # a child still running this long after the run began is killed

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Settings of the caller that children must not inherit: the pool is not
# timed, and the children import qtrunc from cached bytecode and write to a
# buffered stdout, as a user's installed copy does.
CALLER_ENV = ("QTRUNC_WORKERS", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")


def _time_is_up(start: float, rounds: int, seconds: float) -> bool:
    """Stop once another round would end more than half a round late."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds / 2 >= seconds


class Attempt:
    """One invocation in one child process, and the verdict on its output."""

    def __init__(self, invocation: workloads.Invocation, trace: bool, tag: str,
                 deadline: float):
        self.record_path = os.path.join(OUT, tag + ".json")
        env = {k: v for k, v in os.environ.items() if k not in CALLER_ENV}
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.record_path,
               "1" if trace else "0", "--", *invocation.argv]
        if os.path.exists(self.record_path):
            os.remove(self.record_path)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        self.payload = out
        self.record = {}
        self.error = None
        if os.path.exists(self.record_path):
            with open(self.record_path, encoding="utf-8") as fh:
                self.record = json.load(fh)
        if not self.record:
            self.error = f"no record (exit {proc.returncode}): {err.decode(errors='replace')[-400:]}"
        elif self.record.get("code") != 0:
            self.error = (f"exit code {self.record.get('code')} "
                          f"{self.record.get('error', '')}{err.decode(errors='replace')[-400:]}")
        else:
            try:
                self.error = invocation.check(out.decode("utf-8"))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self.error = f"unreadable output: {type(exc).__name__}: {exc}"
        self.setup_s = self.record.get("ready", start) - start
        self.wall_s = self.record.get("wall_s", 0.0)
        self.maxrss_kb = self.record.get("maxrss_kb", 0)
        self.trace = self.record.get("trace", {})
        if self.error:
            print(f"FAILED {invocation.label}: {self.error}", file=sys.stderr)


def timed_run(invocations, workload: str, seconds: float) -> dict:
    start = time.perf_counter()
    walls = [[] for _ in invocations]
    setups, rss_kb, attempted, failed, rounds = [], 0, 0, 0, 0
    while True:
        for i, inv in enumerate(invocations):
            a = Attempt(inv, False, f"{workload}-{i}", start + RUN_LIMIT_S)
            attempted += 1
            setups.append(a.setup_s)
            rss_kb = max(rss_kb, a.maxrss_kb)
            if a.error:
                failed += 1
            else:
                walls[i].append(a.wall_s)
        rounds += 1
        if _time_is_up(start, rounds, seconds):
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(statistics.median(w) for w in walls if w),
        "peak_rss_mb": rss_kb * 1024 / 1e6,
    }
    return {"attempted": attempted, "failed": failed, "correct": True,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            "rounds": {"wall_s": walls, "setup_s": setups}}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def traced_run(invocations, workload: str, seconds: float) -> dict:
    start = time.perf_counter()
    plain = [[] for _ in invocations]
    traced = [[] for _ in invocations]
    rounds = []  # per round: layer totals summed over the invocations
    payload_bytes, attempted, failed, correct = 0, 0, 0, True
    while True:
        totals: dict[str, float] = {}
        for i, inv in enumerate(invocations):
            a = Attempt(inv, False, f"{workload}-{i}", start + RUN_LIMIT_S)
            b = Attempt(inv, True, f"{workload}-{i}-traced", start + RUN_LIMIT_S)
            attempted += 2
            if not b.error and b.payload != a.payload:
                b.error = "traced payload differs from the untraced one"
                print(f"FAILED {inv.label}: {b.error}", file=sys.stderr)
            failed += bool(a.error) + bool(b.error)
            if a.error or b.error:
                continue
            plain[i].append(a.wall_s)
            traced[i].append(b.wall_s)
            for key, val in b.trace.items():
                totals[key] = totals.get(key, 0) + val
            if not rounds:
                payload_bytes += len(a.payload)
        rounds.append(totals)
        if _time_is_up(start, len(rounds), seconds):
            break
    metrics = {}
    for key in rounds[0]:
        values = [r.get(key, 0) for r in rounds]
        if key.endswith("self_s"):
            metrics[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:  # counts must repeat exactly
                print(f"count {key} differs between rounds: {values}", file=sys.stderr)
                correct = False
            metrics[key] = values[0]
    metrics["cli.payload_bytes"] = payload_bytes
    metrics["trace.overhead_s"] = (sum(statistics.median(t) for t in traced if t)
                                   - sum(statistics.median(p) for p in plain if p))
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())}}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    invocations = workloads.build(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    result = (traced_run if trace else timed_run)(invocations, workload, seconds)
    rounds = result.pop("rounds", None)
    with open(os.path.join(OUT, f"result-{workload}-{seed}-{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, invocations=[inv.label for inv in invocations], rounds=rounds),
                  fh, indent=1)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, with --workload all)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qtrunc", "cli.py")):
        print(f"error: no qtrunc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    results = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1) if args.trace is None else (args.trace,):
            result = run(workload, args.seed, args.seconds, bool(trace))
            print(f"{workload} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
            results[f"{workload}/trace={trace}"] = result
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
