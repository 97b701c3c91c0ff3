"""Layered benchmark of the simplex_gibbs CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One invocation runs, one after
another and never concurrently, each in a fresh single-threaded interpreter
with BLAS/OpenMP threads pinned to 1:

  1. the untraced run: one warm-up chunk, then chunks of CLI calls for S
     seconds; items_per_s is their items over their summed wall time.  The
     run is split into SETUP_PARTS parts, and while it waits before each
     part, one set-up probe imports simplex_gibbs.cli in a fresh
     interpreter and makes its first call on one item; setup_s is the
     median of the probes, which are spread over the run so that a short
     slow spell of a shared machine sways few of them;
  2. the traced run: the first few chunks again, with every layer wrapped
     by tracer.py, giving the per-layer metrics.

The traced and untraced reports of the same chunk must hash alike, and so
must the warm-up and the first timed chunk.  The last line of stdout is
the result object; the line before it holds the machine facts, the
report digest and the other details.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones; both modes do the same work.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from workloads import PROBE_CHUNKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# set-up probes, one before each of this many parts of the timed run
SETUP_PARTS = 6
TIME_BUDGET_S = 170  # the whole invocation, every worker included
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Workers:
    """Starts workers one at a time, logging the load around each."""

    def __init__(self) -> None:
        self.env = worker_env()
        self.load: list[dict] = []

    def _cmd(self, mode: str, args, importtime: bool = False) -> list[str]:
        return [sys.executable, *(["-X", "importtime"] if importtime else []), str(HERE / "worker.py"),
                mode, *map(str, args)]

    def _result(self, mode: str, before, returncode: int, stdout: str, stderr: str) -> dict:
        self.load.append({"worker": mode, "before": before, "after": os.getloadavg()})
        if returncode != 0:
            tail = [ln for ln in stderr.splitlines() if not ln.startswith("import time:")][-20:]
            raise BenchError(f"{mode} worker exited {returncode}:\n" + "\n".join(tail))
        return json.loads(stdout.splitlines()[-1])

    def run(self, mode: str, *args, importtime: bool = False) -> tuple[dict, str]:
        before = os.getloadavg()
        proc = subprocess.run(self._cmd(mode, args, importtime), cwd=ROOT, env=self.env,
                              capture_output=True, text=True)
        return self._result(mode, before, proc.returncode, proc.stdout, proc.stderr), proc.stderr

    def run_with_pauses(self, pause, *args) -> dict:
        """The untraced worker; ``pause()`` runs while it waits before each part."""
        err_path = OUT_DIR / "run-worker.err"
        before = os.getloadavg()
        with open(err_path, "w") as err, subprocess.Popen(
            self._cmd("run", args), cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=err, text=True,
        ) as proc:
            try:
                while (line := proc.stdout.readline()).startswith('{"ready"'):
                    pause()
                    with contextlib.suppress(BrokenPipeError):  # a dead worker is reported below
                        proc.stdin.write("\n")
                        proc.stdin.flush()
                stdout = line + proc.stdout.read()
                proc.wait()
            finally:
                if proc.poll() is None:
                    proc.kill()
        return self._result("run", before, proc.returncode, stdout, err_path.read_text())


def import_seconds(importtime_log: str, module: str) -> float:
    """Cumulative import time of a module from ``python -X importtime`` output."""
    for line in importtime_log.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if line.startswith("import time:") and len(fields) == 3 and fields[2] == module:
            return int(fields[1]) / 1e6
    return 0.0


def measure(wl, seed: int, seconds: int) -> tuple[dict, dict]:
    """Run every worker of one invocation; return (result, detail)."""
    workers = Workers()
    OUT_DIR.mkdir(exist_ok=True)
    setups = []
    timed = workers.run_with_pauses(lambda: setups.append(workers.run("setup", wl.name, seed)[0]),
                                    wl.name, seed, seconds, SETUP_PARTS)
    spans_path = OUT_DIR / f"spans-{wl.name}.json"
    traced, importtime_log = workers.run("trace", wl.name, seed, spans_path, importtime=True)
    if traced["silent"]:
        raise BenchError(f"tracer self-check: {', '.join(traced['silent'])} never fired on {wl.name}")

    chunks = timed["chunks"]
    probe = chunks[:PROBE_CHUNKS]
    # a result must not differ between two runs of one invocation
    pairs = [(timed["warmup"], chunks[0])] + list(zip(probe, traced["chunks"]))
    for a, b in pairs:
        if a["digest"] != b["digest"]:
            for r in (a, b):
                r["outcome"] = r["outcome"] or "nondeterministic: report differs between runs"
    records = [s["first_call"] for s in setups] + [timed["warmup"]] + chunks + traced["chunks"]
    attempted = sum(r["items"] for r in records)
    failed = sum(r["items"] for r in records if r["outcome"] is not None)
    correct = all(r["outcome"] in (None, "budget_exhausted") for r in records)

    rates = [c["items"] / c["wall_s"] for c in chunks]
    items_per_s = sum(c["items"] for c in chunks) / sum(c["wall_s"] for c in chunks)
    untraced_wall = sum(c["wall_s"] for c in probe)
    traced_wall = sum(c["wall_s"] for c in traced["chunks"])
    end_to_end = {
        "items_per_s": (items_per_s, "1/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "completed_share": ((attempted - failed) / attempted, "ratio"),
    }
    per_layer = dict(traced["metrics"])
    per_layer["chain.import_s"] = (import_seconds(importtime_log, "simplex_gibbs.chain"), "s")
    per_layer["trace.overhead_share"] = (traced_wall / untraced_wall - 1.0, "ratio")
    per_layer["failed_share"] = (failed / attempted, "ratio")

    digest = hashlib.sha256("".join(c["digest"] or "-" for c in probe).encode()).hexdigest()
    detail = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "argv": ["simplex-gibbs", *wl.argv(seed, 0, wl.chunk_items)],
        "machine": {**machine_facts(), **timed["versions"]},
        "loadavg": workers.load,
        "setup_s_samples": [s["setup_s"] for s in setups],
        "import_s_samples": [s["import_s"] for s in setups],
        "chunks": len(chunks),
        "items_per_chunk": wl.chunk_items,
        "chunk_rate_quartiles": statistics.quantiles(rates, n=4),
        "report_digest": digest,
        "digests_match": all(a["digest"] == b["digest"] for a, b in pairs),
        "outcomes": dict(Counter(r["outcome"] for r in records if r["outcome"] is not None)),
        "report_checks_failed": dict(Counter(name for r in records for name in r["checks_failed"])),
        "absent": traced["absent"],
        "spans": traced["spans"],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "per_layer": per_layer}, detail


def _out_of_time(signum, frame):
    # unwinds through subprocess.run or run_with_pauses, which kill their worker
    raise BenchError(f"time budget of {TIME_BUDGET_S} s spent")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    # a terminated run unwinds through subprocess.run, which kills its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "simplex_gibbs" / "cli.py").is_file():
        print(f"error: no simplex_gibbs source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(TIME_BUDGET_S)
    try:
        result, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
