#!/usr/bin/env python3
"""Per-layer timings of the perfect sampler and the collision stage, as min-of-k.

    python scripts/bench_layers.py --src SRC_DIR --label LABEL --out BENCH.json

Imports ``simplex_gibbs`` from SRC_DIR, so one copy of this script can time
clean exports of two commits with identical code and settings.  Each layer
is timed REPEATS times; one repeat runs a fixed batch of calls and
reports seconds per call.  A row keeps the minimum (the least disturbed
repeat), the median and the quartiles of the repeats.  Rows are merged into
the output file under their label, replacing older rows of that label, and
the file records the machine facts of the last run.

Layers, all at n = 16, the attempts and windows on window 1 of master 5,
between two load probes:
  - ``load_probe_first``: a fixed pure-Python loop that uses nothing of
    ``simplex_gibbs``, timed before every other row, so load drift between
    two invocations of the script shows in the file as a change of this
    row;
  - ``exact_split``: one scalar pair split, over a fixed set of 1000
    fractions and pair sums;
  - ``shared_step``: one shared step of all n columns of ``np.eye(n)``,
    one ``chain._apply_step``, over the first 1000 draws of window 1;
  - ``shared_step_lists``: the same step of the n + 1 chains of a tracked
    walk, the columns of ``np.eye(n)`` and the barycenter driver as float
    lists, one ``chain._step_lists``, over the same 1000 draws;
  - ``decode``: reading and decoding window 1 of replica 0 into pairs,
    fractions and coins, phase by phase, chunk by chunk through
    ``streams._draws_backward_batch`` with the one replica;
  - ``schedule_sample``: one ``EdgeSchedule.sample(1024, 7098)``, the
    connectivity driver's draw at n = 1024, epsilon = 0.5;
  - ``schedule_analysis_1024``: one ``analyze_schedule`` of that draw
    (``default_rng(0)``), as the connectivity driver makes it, reading no
    split record;
  - ``connectivity_trial``: one connectivity trial at n = 1024,
    ``analyze_schedule(EdgeSchedule.sample(1024, 7098, rng))``, averaged
    over ``default_rng(0..19)``, with the garbage collector left on as the
    driver runs it;
  - ``schedule_analysis_16``: one ``analyze_schedule`` of
    ``EdgeSchedule.sample(16, 45)``, the collision stage's schedule, with
    every split record read, averaged over ``default_rng(0..19)``;
  - ``schedule_first_record_64``: one ``analyze_schedule`` of
    ``EdgeSchedule.sample(64, phase2_steps(64))``, a schedule as long as
    window 1's closing phase at n = 64, and a read of its first marked
    time's split record, as a window walk's first attempt reads it,
    averaged over ``default_rng(0..19)``;
  - ``marked_attempt_kernel``: one marked-time attempt of all n vertex
    columns against the driver with ``couplings._subset_couple_columns``,
    as the window walk makes it: the state taken as one float list per
    chain (``.T.tolist()`` with the driver last), then the list kernel;
  - ``marked_attempt_one_column``: the same attempt for the first column
    alone, as the replay and the collision stage make it;
  - ``match_fsum``: one exact piece-weight match, ``chain._match_fsum``,
    over the calls that ``run_cftp(16, 20, 10**6)`` makes through the
    kernel, captured once by wrapping ``couplings._match_fsum``.  A kernel
    that tests the piece weights itself first calls it only on a miss, so
    on such a tree the row times those calls alone;
  - ``couple_lambdas``: one fraction coupling, ``couplings.couple_lambdas``,
    over the (m, delta, u, coin) of every call that the kernel makes in
    ``run_cftp(16, 20, 10**6)``, captured the same way, each failed
    relation given the remainder uniform 0.5;
  - ``run_epoch``: one tracked window, averaged over replicas 0..7;
  - ``propagate_through_epoch``: one replay of a point through a window;
  - ``cftp_sample``: one exact sample, averaged over replicas 0..7;
  - ``cftp_sample_32`` and ``cftp_sample_64``: the same at n = 32 and
    n = 64;
  - ``run_cftp``: one ``run_cftp(16, 20, seed)``, the cftp-n16 benchmark
    chunk, averaged over the chunk seeds 10^6 .. 10^6 + 2;
  - ``run_cftp_marked_share``: the share of those ``run_cftp`` calls' wall
    time spent in marked-time attempts (``_subset_couple_columns`` as
    ``cftp`` calls it), one share per repeat, unit "share";
  - ``full_coupling_run``: one burn-in plus collision stage at C = 1,
    averaged over the generators ``default_rng(0..7)``;
  - ``two_stage_pass``: the collision stage of those runs alone, from the
    burned-in states, schedules and generator states that
    ``full_coupling_run`` reaches with ``default_rng(0..7)``; each call
    restores its generator state into a fresh ``PCG64`` generator;
  - ``run_couple``: one ``run_couple(16, 1.0, 25, seed)``, the couple-n16
    benchmark chunk, averaged over the chunk seeds 10^6 .. 10^6 + 2;
  - ``burn_in_step``: one step of ``proportional_run`` from the first
    vertex and the barycenter, over the 267 steps of the C = 1 burn-in,
    averaged over the generators ``default_rng(0..7)``;
  - ``step_draws_bulk``: the draws of those 267 steps, one
    ``sample_step_draw(16, rng, size=267)``;
  - ``load_probe_last``: the load probe again, timed after every other row.
The script calls only API that every commit since the array schedules
has, except three rows.  The two marked-attempt rows call the kernel on
float lists, and a tree whose kernel still takes arrays gets them as rows
with unit "missing" and no timings; so does ``shared_step_lists`` in a
tree without ``chain._step_lists``.  Run it single-threaded on an otherwise
idle machine, one label at a time, and compare two labels' rows against
their load probes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

N = 16
MASTER = 5
REPLICAS = range(8)
REPEATS = 9
# the first three chunk seeds of the benchmark seed 1: cftp-n16 runs 20
# samples per chunk, couple-n16 25 replicas
CHUNK_SEEDS = (1_000_000, 1_000_001, 1_000_002)
CHUNK_SAMPLES = 20
CHUNK_REPLICAS = 25
# burn_in_steps(16, 4.0): the burn-in of a C = 1 coupled run at n = 16
BURN_IN = 267
# the row of a layer that the timed tree cannot run as this script calls it
MISSING = {"unit": "missing"}


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def marked_time_state(replica: int):
    """Tracked state of window (N, MASTER, replica, 1) at its first marked time.

    Returns (columns, driver, split record, u, coin).  The blocks are read
    with ``read_blocks`` and decoded with ``_pairs_from_words``, in time
    order.
    """
    import numpy as np

    cftp = importlib.import_module("simplex_gibbs.cftp")
    chain = importlib.import_module("simplex_gibbs.chain")
    streams = importlib.import_module("simplex_gibbs.streams")
    partitions = importlib.import_module("simplex_gibbs.partitions")
    lo, hi, _p1, p2 = cftp.window_geometry(N, 1)

    def draws(a, b):
        rows = streams.read_blocks(MASTER, replica, a, b)[::-1]
        i, j = streams._pairs_from_words(rows[:, 0], N)
        return list(zip(i.tolist(), j.tolist(), rows[:, 1].tolist(), rows[:, 2].tolist()))

    mat = np.eye(N)
    center = chain.SimplexPoint.center(N).values.copy()
    for i, j, lam, _coin in draws(lo + p2, hi):
        chain._apply_step(mat, i - 1, j - 1, lam)
        chain._apply_step(center, i - 1, j - 1, lam)
    closing = draws(lo, lo + p2)
    analysis = partitions.analyze_schedule(partitions.EdgeSchedule(N, [(i, j) for i, j, _u, _c in closing]))
    first = analysis.marked[0]
    for i, j, u, _coin in closing[: first - 1]:
        chain._apply_step(mat, i - 1, j - 1, u)
        chain._apply_step(center, i - 1, j - 1, u)
    _i, _j, u, coin = closing[first - 1]
    return mat.copy(), center, analysis.splits[first], u, coin


def stage_input(replica: int):
    """(x, y, schedule, generator state) where ``full_coupling_run(N, 1.0)``
    with ``default_rng(replica)`` starts its collision stage."""
    import numpy as np

    chain = importlib.import_module("simplex_gibbs.chain")
    partitions = importlib.import_module("simplex_gibbs.partitions")
    two_stage = importlib.import_module("simplex_gibbs.two_stage")
    rng = np.random.default_rng(replica)
    y0 = chain.sample_uniform_simplex(N, rng)
    x, y = two_stage.proportional_run(chain.SimplexPoint.vertex(N, 1), y0, BURN_IN, rng)
    schedule = partitions.EdgeSchedule.sample(N, two_stage.stage_steps(N, 1.0), rng)
    return x, y, schedule, rng.bit_generator.state


def layers() -> dict:
    """Name -> (calls per repeat, zero-arg callable running those calls), or None."""
    import numpy as np

    cftp = importlib.import_module("simplex_gibbs.cftp")
    chain = importlib.import_module("simplex_gibbs.chain")
    couplings = importlib.import_module("simplex_gibbs.couplings")
    two_stage = importlib.import_module("simplex_gibbs.two_stage")
    cols, center, rec, u, coin = marked_time_state(0)
    out = {}
    gen = np.random.default_rng(0)
    splits = list(zip(gen.random(1000).tolist(), (2.0 * gen.random(1000)).tolist()))
    out["exact_split"] = (len(splits), lambda: [chain.exact_split(lam, s) for lam, s in splits])
    streams = importlib.import_module("simplex_gibbs.streams")
    rows = streams.read_blocks(MASTER, 0, 0, 1000)
    ii, jj = streams._pairs_from_words(rows[:, 0], N)
    draws = list(zip((ii - 1).tolist(), (jj - 1).tolist(), rows[:, 1].tolist()))
    mat = np.eye(N)
    out["shared_step"] = (len(draws), lambda: [chain._apply_step(mat, i0, j0, lam) for i0, j0, lam in draws])
    step_lists = getattr(chain, "_step_lists", None)
    if step_lists is None:  # a tree that steps lists one at a time: the row is missing
        out["shared_step_lists"] = None
    else:
        chains = [*np.eye(N).T.tolist(), chain.SimplexPoint.center(N).values.tolist()]
        out["shared_step_lists"] = (len(draws), lambda: [step_lists(chains, i0, j0, lam) for i0, j0, lam in draws])
    lo, hi, _p1, p2 = cftp.window_geometry(N, 1)
    phases = ((lo + p2, hi), (lo, lo + p2))

    def decode():
        return [list(streams._draws_backward_batch(MASTER, (0,), a, b, N)) for a, b in phases]

    out["decode"] = (20, lambda: [decode() for _ in range(20)])
    partitions = importlib.import_module("simplex_gibbs.partitions")
    out["schedule_sample"] = (20, lambda: [
        partitions.EdgeSchedule.sample(1024, 7098, np.random.default_rng(r)) for r in range(20)
    ])
    drawn = partitions.EdgeSchedule.sample(1024, 7098, np.random.default_rng(0))
    out["schedule_analysis_1024"] = (5, lambda: [partitions.analyze_schedule(drawn) for _ in range(5)])
    out["connectivity_trial"] = (20, lambda: [
        partitions.analyze_schedule(partitions.EdgeSchedule.sample(1024, 7098, np.random.default_rng(r)))
        for r in range(20)
    ])
    stage = [partitions.EdgeSchedule.sample(N, 45, np.random.default_rng(r)) for r in range(20)]

    def read_every_record(schedule):
        analysis = partitions.analyze_schedule(schedule)
        return [analysis.splits[s] for s in analysis.marked]

    out["schedule_analysis_16"] = (len(stage), lambda: [read_every_record(s) for s in stage])
    closing = [
        partitions.EdgeSchedule.sample(64, cftp.phase2_steps(64), np.random.default_rng(r)) for r in range(20)
    ]

    def read_first_record(schedule):
        analysis = partitions.analyze_schedule(schedule)
        return analysis.splits[analysis.marked[0]]

    out["schedule_first_record_64"] = (len(closing), lambda: [read_first_record(s) for s in closing])

    def attempt(state):  # as the walk makes it: one float list per chain, the driver last
        chains = state.T.tolist()
        return couplings._subset_couple_columns(chains[:-1], chains[-1], rec, u, coin, lambda: 0.5)

    every = np.column_stack((cols, center))
    first = np.column_stack((cols[:, 0], center))
    try:
        attempt(first)
    except AttributeError:  # a kernel that takes arrays: these two rows are missing
        out["marked_attempt_kernel"] = out["marked_attempt_one_column"] = None
    else:
        out["marked_attempt_kernel"] = (200, lambda: [attempt(every) for _ in range(200)])
        out["marked_attempt_one_column"] = (200, lambda: [attempt(first) for _ in range(200)])
    matches = kernel_calls("_match_fsum")
    out["match_fsum"] = (len(matches), lambda: [
        chain._match_fsum(t, others, c, max_move=m) for t, others, c, m in matches
    ])
    relations = [args[:4] for args in kernel_calls("couple_lambdas")]
    out["couple_lambdas"] = (len(relations), lambda: [
        couplings.couple_lambdas(m, d, u, coin, half) for m, d, u, coin in relations
    ])
    certified = next(r for r in (cftp.run_epoch(N, MASTER, k, 1) for k in range(40)) if r.coalesced)
    point = chain.SimplexPoint.vertex(N, 1)
    out["run_epoch"] = (len(REPLICAS), lambda: [cftp.run_epoch(N, MASTER, r, 1) for r in REPLICAS])
    out["propagate_through_epoch"] = (
        10, lambda: [cftp.propagate_through_epoch(point, certified) for _ in range(10)]
    )
    out["cftp_sample"] = (len(REPLICAS), lambda: [cftp.cftp_sample(N, MASTER, r) for r in REPLICAS])
    for n in (32, 64):
        out[f"cftp_sample_{n}"] = (
            len(REPLICAS), lambda n=n: [cftp.cftp_sample(n, MASTER, r) for r in REPLICAS]
        )
    out["run_cftp"] = (len(CHUNK_SEEDS), run_cftp_chunks)
    out["full_coupling_run"] = (len(REPLICAS), lambda: [
        two_stage.full_coupling_run(N, 1.0, np.random.default_rng(r)) for r in REPLICAS
    ])
    stages = [stage_input(r) for r in REPLICAS]

    def run_stage(x, y, schedule, state):
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = state
        return two_stage.two_stage_pass(x, y, schedule, rng)

    out["two_stage_pass"] = (len(stages), lambda: [run_stage(*s) for s in stages])
    experiments = importlib.import_module("simplex_gibbs.experiments")
    out["run_couple"] = (len(CHUNK_SEEDS), lambda: [
        experiments.run_couple(N, 1.0, CHUNK_REPLICAS, seed) for seed in CHUNK_SEEDS
    ])
    x0, y0 = chain.SimplexPoint.vertex(N, 1), chain.SimplexPoint.center(N)
    out["burn_in_step"] = (len(REPLICAS) * BURN_IN, lambda: [
        two_stage.proportional_run(x0, y0, BURN_IN, np.random.default_rng(r)) for r in REPLICAS
    ])
    rng = np.random.default_rng(0)
    out["step_draws_bulk"] = (50, lambda: [chain.sample_step_draw(N, rng, size=BURN_IN) for _ in range(50)])
    return out


def load_probe() -> int:
    """A fixed pure-Python loop, independent of the package: a machine-load gauge."""
    total = 0
    for k in range(200_000):
        total += k * k % 7
    return total


def half() -> float:
    """The remainder uniform of the ``couple_lambdas`` row."""
    return 0.5


def kernel_calls(name: str) -> list[tuple]:
    """The arguments, in signature order, of each call that the kernel makes
    to ``couplings.<name>`` in ``run_cftp(16, 20, 10**6)``."""
    couplings = importlib.import_module("simplex_gibbs.couplings")
    experiments = importlib.import_module("simplex_gibbs.experiments")
    fn = getattr(couplings, name)
    calls = []

    def logged(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return fn(*args, **kwargs)

    setattr(couplings, name, logged)
    try:
        experiments.run_cftp(N, CHUNK_SAMPLES, CHUNK_SEEDS[0])
    finally:
        setattr(couplings, name, fn)
    return calls


def run_cftp_chunks() -> None:
    """The cftp-n16 benchmark chunks: run_cftp(16, 20, seed) for each seed."""
    experiments = importlib.import_module("simplex_gibbs.experiments")
    for seed in CHUNK_SEEDS:
        experiments.run_cftp(N, CHUNK_SAMPLES, seed)


def summarize(values: list[float], unit: str, calls: int) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "unit": unit,
        "calls_per_repeat": calls,
        "repeats": REPEATS,
        "min": min(values),
        "median": statistics.median(values),
        "quartiles": [q1, q2, q3],
        "max": max(values),
    }


def time_layer(calls: int, fn) -> dict:
    fn()  # warm caches and lazy imports outside the timed repeats
    per_call = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        per_call.append((time.perf_counter() - t0) / calls)
    return summarize(per_call, "s/call", calls)


def marked_share() -> dict:
    """Share of the ``run_cftp`` row's wall time spent in marked-time attempts."""
    cftp = importlib.import_module("simplex_gibbs.cftp")
    kernel = cftp._subset_couple_columns
    spent = [0.0]

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return kernel(*args)
        finally:
            spent[0] += time.perf_counter() - t0

    cftp._subset_couple_columns = timed
    try:
        run_cftp_chunks()
        shares = []
        for _ in range(REPEATS):
            spent[0] = 0.0
            t0 = time.perf_counter()
            run_cftp_chunks()
            shares.append(spent[0] / (time.perf_counter() - t0))
    finally:
        cftp._subset_couple_columns = kernel
    return summarize(shares, "share", len(CHUNK_SEEDS))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="source directory holding simplex_gibbs")
    ap.add_argument("--label", required=True, help="row label, e.g. parent or change")
    ap.add_argument("--out", type=Path, help="JSON file to merge the rows into")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    rows = [{"label": args.label, "layer": "load_probe_first", **time_layer(1, load_probe)}]
    rows += [
        {"label": args.label, "layer": name, **(MISSING if layer is None else time_layer(*layer))}
        for name, layer in layers().items()
    ]
    rows.append({"label": args.label, "layer": "run_cftp_marked_share", **marked_share()})
    rows.append({"label": args.label, "layer": "load_probe_last", **time_layer(1, load_probe)})
    for r in rows:
        if r["unit"] == "missing":
            print(f"{r['label']:>8} {r['layer']:<26} missing")
            continue
        scale, unit = (1e6, "us") if r["unit"] == "s/call" else (1.0, "")
        print(f"{r['label']:>8} {r['layer']:<26} min {r['min'] * scale:10.3f} {unit:2}"
              f"  median {r['median'] * scale:10.3f} {unit}")
    if args.out is not None:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        kept = [r for r in doc.get("rows", []) if r["label"] != args.label]
        doc.update({
            "script": "scripts/bench_layers.py",
            "n": N,
            "master": MASTER,
            "machine": machine_facts(),
            "rows": kept + rows,
        })
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
