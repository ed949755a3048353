"""One measured repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|run|trace

The process imports limhyper from ``src/`` of the checkout, builds the
workload's inputs and writes ``{"ready": true}`` on stdout; the time the
parent waits for that line is the set-up time.  In ``setup`` mode it
stops there.  Otherwise it runs the workload (with spans installed in
``trace`` mode), then writes one JSON result line: wall and CPU time of
the workload, peak RSS, and the facts the parent grades against the
answer key.  Outputs are graded by the parent, never here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

DOC_NAMES = ("discrete7", "discrete8", "chain16", "bipartite10")
SWEEP_JOBS = 2


def setup_sweep(seed, limhyper):
    """The sweep enumerates its own inputs; the seed is unused."""
    return None


def run_sweep(state, limhyper):
    return limhyper.sweep(oracle.POINTS, long_run=True, jobs=SWEEP_JOBS)


def facts_sweep(result, limhyper):
    facts = {
        "spaces": result.space_count,
        "failures": result.failure_count,
        "first_failures": [list(f) for f in result.first_failures],
    }
    return facts, json.dumps(facts)


def setup_docs(seed, limhyper):
    """Write each document with its points in a seeded order, so the
    bitmask layout changes with the seed while the verdicts do not."""
    rng = random.Random(seed)
    work = HERE / ".work" / f"docs-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    commands = []
    for name in DOC_NAMES:
        with open(oracle.DOCS / f"{name}.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        rng.shuffle(doc["points"])
        path = str(work / f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        commands.append((name, ["validate", path]))
        for kind in oracle.CARRIER_KINDS:
            for flavor in oracle.FLAVORS:
                commands.append((name, ["report", path, "--carrier", kind, "--topology", flavor]))
        commands.append((name, ["verify", path, "--json"]))
    return work, commands


def run_docs(state, limhyper):
    from limhyper import cli

    outputs = []
    for name, argv in state[1]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        outputs.append((name, argv, code, out.getvalue()))
    return outputs


def facts_docs(outputs, limhyper):
    facts = []
    digest = hashlib.sha256()
    for name, argv, code, text in outputs:
        command = argv[0]
        entry = {"doc": name, "command": command, "code": code}
        lines = text.splitlines()
        if command == "validate" and lines:
            head = lines[0].split()  # valid: N points, M open sets
            entry.update(points=int(head[1]), opens=int(head[3]))
        elif command == "report" and len(lines) > 4:
            entry.update(kind=argv[3], elements=int(lines[4].rsplit(" ", 1)[1]), lines=len(lines) - 5)
        elif command == "verify" and code in (0, 1):
            report = limhyper.parse_report(text)
            entry["checks"] = {r.check_id: [r.status, len(r.witness)] for r in report.results}
        facts.append(entry)
        digest.update(json.dumps([name, argv[0], argv[2:], code, text]).encode())
    return facts, digest.hexdigest()


def setup_mine(seed, limhyper):
    bucket = seed % oracle.MINE_BUCKETS
    families = oracle.mine_bucket(oracle.POINTS, bucket)
    return [limhyper.validate_topology(oracle.POINTS, opens) for opens in families]


def run_mine(spaces, limhyper):
    return [limhyper.mine_check_failures(space) for space in spaces]


def facts_mine(found, limhyper):
    facts = [
        [[cid, hit.result.status, len(hit.result.witness)] for cid, hit in hits.items()]
        for hits in found
    ]
    verdicts = [
        [[cid, hit.description, hit.result.status, list(hit.result.witness)] for cid, hit in hits.items()]
        for hits in found
    ]
    return facts, hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()


WORKLOADS = {
    "sweep-5": (setup_sweep, run_sweep, facts_sweep),
    "verify-docs": (setup_docs, run_docs, facts_docs),
    "mine-5": (setup_mine, run_mine, facts_mine),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()
    out = sys.stdout

    import limhyper

    if Path(limhyper.__file__).resolve().parent != ROOT / "src" / "limhyper":
        raise SystemExit(f"limhyper imported from {limhyper.__file__}, not from this checkout")
    setup, run, facts_of = WORKLOADS[args.workload]
    state = setup(args.seed, limhyper)
    try:
        print(json.dumps({"ready": True}), file=out, flush=True)
        if args.mode != "setup":
            result = measure(args.mode == "trace", run, facts_of, state, limhyper)
            print(json.dumps(result), file=out, flush=True)
    finally:
        if args.workload == "verify-docs":
            shutil.rmtree(state[0], ignore_errors=True)
    return 0


def measure(traced: bool, run, facts_of, state, limhyper) -> dict:
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(limhyper)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    raw = run(state, limhyper)
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    def cpu(a, b):
        return (b.ru_utime - a.ru_utime) + (b.ru_stime - a.ru_stime)

    facts, fingerprint = facts_of(raw, limhyper)
    result = {
        "wall_s": wall,
        "cpu_s": cpu(self0, self1) + cpu(kids0, kids1),
        "children_cpu_s": cpu(kids0, kids1),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_kib": max(self1.ru_maxrss, kids1.ru_maxrss),
        "facts": facts,
        "fingerprint": fingerprint,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(list(oracle.load_answers()["statuses"]))
    return result


if __name__ == "__main__":
    sys.exit(main())
