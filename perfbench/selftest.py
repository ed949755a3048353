"""Prove that the benchmark's gates can fail.

    python3 perfbench/selftest.py

1. With an answer key in which one expected status is flipped, a
   ``verify-docs`` run must report ``failed`` > 0, ``correct`` false and
   exit non-zero.
2. In a directory holding only BENCHMARK.json and this directory (no
   limhyper sources), a run must exit non-zero without printing a result.

Exit code 0 when both gates fail as they should.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
ARGS = ["--workload", "verify-docs", "--seed", "1", "--seconds", "1", "--trace", "0"]


def run(cwd: Path, extra: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *ARGS, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def mutated_key_fails() -> bool:
    key = json.loads((HERE / "docs" / "answers.json").read_text(encoding="utf-8"))
    key["statuses"]["check_baire"] = "pass"  # limhyper reports trivially_true
    path = WORK / "answers-mutated.json"
    path.write_text(json.dumps(key), encoding="utf-8")
    proc = run(ROOT, ["--answers", str(path)])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode != 0 and not result["correct"] and result["failed"] > 0
    print(f"mutated key: exit {proc.returncode}, failed {result['failed']}/{result['attempted']}"
          f" -> {'gate fails as it should' if ok else 'GATE DID NOT FAIL'}")
    return ok


def bare_directory_fails() -> bool:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, [])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"no sources: exit {proc.returncode}, stdout {len(proc.stdout)} bytes"
          f" -> {'refuses to run as it should' if ok else 'RAN WITHOUT SOURCES'}")
    return ok


def main() -> int:
    WORK.mkdir(exist_ok=True)
    results = [mutated_key_fails(), bare_directory_fails()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
