"""One measurement in a fresh interpreter; run.py starts it, one at a time.

    worker.py setup WORKLOAD SEED                import the CLI, make its first call
    worker.py run WORKLOAD SEED SECONDS PARTS    warm up, then time chunks untraced
                                                 for SECONDS, split into PARTS parts
    worker.py trace WORKLOAD SEED SPANS          rerun the probe chunks traced

The source tree must be on PYTHONPATH.  Prints one JSON object on stdout,
as its last line.  Before each part, ``run`` prints a ``{"ready": k}`` line
and waits for a line on stdin; run.py makes a set-up probe in that pause, so
the probes are spread over the timed run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

from workloads import PROBE_CHUNKS, WORKLOADS, Workload


def report_digest(report: dict) -> str:
    """SHA-256 of the report with its wall-clock field removed."""
    body = {k: v for k, v in report.items() if k != "elapsed_seconds"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def run_chunk(cli, wl: Workload, seed: int, chunk: int, items: int) -> dict:
    """One CLI call; ``outcome`` is None when the report is sound."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(wl.argv(seed, chunk, items))
    except Exception as exc:  # e.g. a violated window certificate
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return {"chunk": chunk, "items": items, "wall_s": wall, "digest": None,
                "outcome": f"error: {type(exc).__name__}: {exc}", "checks_failed": []}
    wall = time.perf_counter() - t0
    rec = {"chunk": chunk, "items": items, "wall_s": wall, "digest": None, "outcome": None,
           "checks_failed": []}
    if rc == 3:
        rec["outcome"] = "budget_exhausted"
    elif rc != 0:
        rec["outcome"] = f"exit {rc}"
    else:
        report = json.loads(out.getvalue())
        problems = wl.check(report, items)
        if problems:
            rec["outcome"] = "contract: " + "; ".join(problems)
        rec["digest"] = report_digest(report)
        rec["checks_failed"] = [c["name"] for c in report["checks"] if not c["passed"]]
    return rec


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def setup(wl: Workload, seed: int) -> dict:
    t0 = time.perf_counter()
    import simplex_gibbs.cli as cli

    t_import = time.perf_counter()
    first = run_chunk(cli, wl, seed, 0, 1)
    t1 = time.perf_counter()
    return {"setup_s": t1 - t0, "import_s": t_import - t0, "first_call": first}


def run(wl: Workload, seed: int, seconds: float, parts: int) -> dict:
    import simplex_gibbs.cli as cli

    warmup = run_chunk(cli, wl, seed, 0, wl.chunk_items)
    chunks = []
    for part in range(parts):
        print(json.dumps({"ready": part}), flush=True)
        sys.stdin.readline()
        deadline = time.perf_counter() + seconds / parts
        while time.perf_counter() < deadline or len(chunks) < PROBE_CHUNKS:
            chunks.append(run_chunk(cli, wl, seed, len(chunks), wl.chunk_items))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {"warmup": warmup, "chunks": chunks, "peak_rss_mb": rss_kib * 1024 / 1e6,
            "versions": _versions()}


def trace(wl: Workload, seed: int, spans_path: str) -> dict:
    import simplex_gibbs.cli as cli
    from tracer import Summary, Tracer, instrument, layer_metrics

    tracer = Tracer()
    instrument(tracer)
    chunks = [run_chunk(cli, wl, seed, c, wl.chunk_items) for c in range(PROBE_CHUNKS)]
    summary = Summary(tracer)
    tracer.write_spans(spans_path)
    expected = [name for name in wl.expected_spans if name in tracer.instrumented]
    return {
        "chunks": chunks,
        "metrics": layer_metrics(summary),
        "spans": len(tracer.starts),
        "absent": sorted(set(tracer.absent) | (set(wl.expected_spans) - tracer.instrumented)),
        "silent": [name for name in expected if summary.calls[name] == 0],
    }


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    wl = WORKLOADS[name]
    if mode == "setup":
        result = setup(wl, seed)
    elif mode == "run":
        result = run(wl, seed, float(argv[3]), int(argv[4]))
    elif mode == "trace":
        result = trace(wl, seed, argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
