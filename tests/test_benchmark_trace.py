"""Every benchmark workload's traced run fires the spans it expects.

``perfbench/worker.py`` aborts a benchmark run when a span that its
workload expects is instrumented but never fires (``silent``).  One traced
run per workload of ``BENCHMARK.json``, in a fresh interpreter with
``PYTHONPATH=src:perfbench`` as the benchmark sets it, catches that before
the benchmark runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_has_no_silent_span(workload, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "trace", workload, "1", str(tmp_path / "spans.json")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["silent"] == []
    assert [c["outcome"] for c in result["chunks"]] == [None] * len(result["chunks"])
