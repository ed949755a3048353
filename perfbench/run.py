"""Benchmark of limhyper's three user-facing costs, graded against known answers.

    python3 perfbench/run.py --workload sweep-5|verify-docs|mine-5 \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; limhyper is imported from its ``src/``.
Each repetition is a fresh interpreter (``child.py``) driven in a closed
loop by this one process, so at most two processes compute at a time
(the sweep's pool of two).  See README.md in this directory for the
workloads, the metrics and what each layer metric should move.

``--trace 0`` measures set-up in three probe processes plus every
repetition, then repeats the workload until ``--seconds`` of workload
time are spent (at least once), and reports medians.  ``--trace 1`` runs
the workload once untraced and once traced, checks that both give the
same verdicts, and reports the per-layer metrics.

The last stdout line is one JSON object; the lines before it repeat the
metrics with units for a reader.  Exit code 0 when every verdict matches
the answer key, 1 when one does not, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from child import SWEEP_JOBS  # noqa: E402

WORKLOADS = ("sweep-5", "verify-docs", "mine-5")
SETUP_PROBES = 3
RUN_BUDGET_S = 170.0
DOC_COMMANDS = 1 + len(oracle.CARRIER_KINDS) * len(oracle.FLAVORS) + 1


class Rep(NamedTuple):
    """One child process: its set-up time and, unless it failed, its result."""

    setup_s: float | None
    result: dict | None
    error: str = ""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> Rep:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != '{"ready": true}':
        return Rep(None, None, f"{mode} child exited with {code} before set-up finished")
    if mode == "setup":
        return Rep(ready - t0, None)
    lines = rest.strip().splitlines()
    if code != 0 or not lines:
        return Rep(ready - t0, None, f"{mode} child exited with {code}")
    return Rep(ready - t0, json.loads(lines[-1]))


def expected_ops(workload: str, seed: int, answers: dict) -> int:
    checks = len(answers["statuses"])
    if workload == "sweep-5":
        return oracle.A000798[oracle.POINTS] * checks
    if workload == "verify-docs":
        return DOC_COMMANDS * len(answers["documents"])
    return len(oracle.mine_bucket(oracle.POINTS, seed % oracle.MINE_BUCKETS)) + checks


def grade(workload: str, facts, attempted: int, answers: dict, docs: dict) -> tuple[int, list[str]]:
    """Number of operations whose verdict disagrees with the answer key,
    with a line naming each; ``facts is None`` means the run raised."""
    if facts is None:
        return attempted, ["the run raised or was killed"]
    statuses = answers["statuses"]
    bad: list[str] = []
    if workload == "sweep-5":
        expected = oracle.A000798[oracle.POINTS]
        failed = facts["failures"] + len(statuses) * abs(facts["spaces"] - expected)
        if failed:
            bad.append(f"{facts['spaces']} spaces (expected {expected}), {facts['failures']} failures")
        return min(failed, attempted), bad
    if workload == "verify-docs":
        seen = 0
        for entry in facts:
            doc = docs[entry["doc"]]
            command = entry["command"]
            if command == "validate":
                ok = entry["code"] == 0 and entry.get("points") == doc["points"] and entry.get("opens") == doc["opens"]
            elif command == "report":
                size = doc["carriers"][entry["kind"]]
                ok = entry["code"] == 0 and entry.get("elements") == size and entry.get("lines") == size
            else:
                got = entry.get("checks", {})
                ok = entry["code"] == 0 and {c: s for c, (s, _) in got.items()} == statuses and all(
                    w == 0 for s, w in got.values() if s != "fail")
            seen += 1
            if not ok:
                bad.append(f"{entry['doc']} {command}: {entry}")
        return len(bad) + max(0, attempted - seen), bad
    hit = set()
    for i, hits in enumerate(facts):
        wrong = [h for h in hits if h[0] not in statuses or h[1] != "fail" or h[2] == 0]
        hit.update(h[0] for h in hits)
        if wrong:
            bad.append(f"space {i}: mining hits without status fail and a witness: {wrong}")
    bad += [f"no corruption in the bucket makes {cid} fail" for cid in statuses if cid not in hit]
    return len(bad) + max(0, attempted - len(statuses) - len(facts)), bad


def machine_facts() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return (f"machine: nproc={os.cpu_count()}, python {platform.python_version()}, cpu {model!r}; "
            f"sweep-5 runs at jobs={SWEEP_JOBS}; peak RSS from ru_maxrss, in KiB on Linux")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--answers", type=Path, default=oracle.ANSWERS,
                        help="answer key (the gate self-test passes a mutated copy)")
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_BUDGET_S

    if not (ROOT / "src" / "limhyper" / "__init__.py").is_file():
        print(f"error: no limhyper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        with open(args.answers, encoding="utf-8") as fh:
            answers = json.load(fh)
        docs = {name: oracle.document_facts(name, entry) for name, entry in answers["documents"].items()}
        if len(oracle.preorder_rows(oracle.POINTS)) != oracle.A000798[oracle.POINTS]:
            raise ValueError("own preorder enumeration disagrees with OEIS A000798")
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: answer key: {exc}", file=sys.stderr)
        return 2

    reps: list[Rep] = []
    setups: list[float] = []
    if args.trace:
        reps = [spawn(args.workload, args.seed, "run", deadline), spawn(args.workload, args.seed, "trace", deadline)]
    else:
        for _ in range(SETUP_PROBES):
            probe = spawn(args.workload, args.seed, "setup", deadline)
            if probe.setup_s is None:
                print(f"error: {probe.error}", file=sys.stderr)
                return 2
            setups.append(probe.setup_s)
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            rep = spawn(args.workload, args.seed, "run", deadline)
            reps.append(rep)
            if rep.result is None:
                break
            spent += rep.result["wall_s"]
            if spent >= args.seconds or time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break

    per_rep = expected_ops(args.workload, args.seed, answers)
    attempted = per_rep * len(reps)
    failed = 0
    problems: list[str] = []
    for rep in reps:
        if rep.error:
            print(f"error: {rep.error}", file=sys.stderr)
        if rep.setup_s is not None:
            setups.append(rep.setup_s)
        n_bad, lines = grade(args.workload, rep.result and rep.result["facts"], per_rep, answers, docs)
        failed += n_bad
        problems += lines
    if args.trace and all(r.result for r in reps) and reps[0].result["fingerprint"] != reps[1].result["fingerprint"]:
        failed = min(attempted, failed + per_rep)
        problems.append("traced and untraced runs gave different verdicts")
    correct = failed == 0

    metrics: dict[str, tuple[float, str]] = {}
    done = [r.result for r in reps if r.result]
    if args.trace and len(done) == 2:
        plain, traced = done
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["theorems.sweep_worker_util"] = (
            plain["children_cpu_s"] / (SWEEP_JOBS * plain["wall_s"]) if args.workload == "sweep-5" else 0.0, "ratio")
        metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    elif done:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in done), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in done), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kib"] for r in done) / 1024.0, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }

    for line in problems[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} repetition(s), {len(setups)} set-up sample(s)")
    print(machine_facts())
    for name, (value, unit) in metrics.items():
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<52} {shown} {unit}")
    print(f"  {'failed_share':<52} {failed / max(attempted, 1):>14.6g} share ({failed}/{attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
