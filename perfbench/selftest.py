"""Harness self-test at tiny scale: python3 perfbench/selftest.py

Runs every workload once per trace mode with --seconds 1 and checks that
the last line parses, carries exactly the result keys, reports every metric
that BENCHMARK.json declares for that mode with its unit, and passes the
correctness and determinism gates.  It then copies BENCHMARK.json and the
benchmark's files into a directory without the program and checks that the
benchmark exits nonzero there without printing a result.  Takes about two
minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, declared: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not detail["digests_match"]:
        problems.append("traced and untraced reports differ")
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        problems.append(f"metrics {sorted(set(metrics) ^ set(names))} not as declared")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')!r}, declared {m['unit']!r}")
        v = got.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{m['name']} value {v!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check_result(run_bench(ROOT, workload, trace), spec[key])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}", *problems, sep="\n    ")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(Path(bare), spec["workloads"][0]["name"], 0)
        ok = proc.returncode != 0 and not proc.stdout.strip()
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} without the program: exit {proc.returncode}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
