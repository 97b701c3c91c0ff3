"""Span tracer that instruments simplex_gibbs from outside the package.

``instrument`` wraps the public module-level functions of every layer
module, plus the few methods and private helpers that the per-layer
metrics need, and rebinds each wrapper in every namespace of the package
that binds the original (``subset_couple_step`` is bound in ``couplings``,
``two_stage`` and ``cftp``; all three bindings get the same wrapper).

A span records name, start, end and parent in flat arrays that stay in
memory until ``write_spans`` dumps them once at the end.  A span's self
time is its duration minus the durations of its child spans; spans of one
thread nest, so the children never overlap.  Functions that run once per
chain step or more, and generator functions, are counted instead of
spanned: a span there would cost more than the work it measures, and a
generator's call returns before its work is done.

A name that a later refactor renamed or removed is listed in
``Tracer.absent``; its metrics read 0 and nothing raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "simplex_gibbs"
LAYERS = ("chain", "couplings", "partitions", "two_stage", "streams", "cftp", "experiments", "cli")

# Public functions that are counted, not spanned (one call per pair update).
COUNT_ONLY = frozenset({"chain.exact_split"})

# Bindings instrumented besides the layers' public module-level functions.
EXTRA = {
    "chain.SimplexPoint.__post_init__": "count",
    "chain.LambdaLaw.__post_init__": "count",
    "chain._pair_table": "count",
    "partitions.EdgeSchedule.sample": "span",
    "cftp.TransitionMatrix.shared_step": "span",
    "cftp.TransitionMatrix.identity": "span",
}


class Tracer:
    """In-memory spans, call counts and observed outcomes of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.tally: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.doublings: list[int] = []
        self.instrumented: set[str] = set()
        self.absent: list[str] = []
        self.lambda_success: bool | None = None

    def gauge_max(self, key: str, value: float) -> None:
        self.gauges[key] = max(self.gauges.get(key, 0.0), float(value))

    def span(self, name: str, fn, observe=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def count(self, name: str, fn, observe=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        """Dump every span once, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [self.name_ids[k], self.parents[k], self.starts[k] - t0, self.ends[k] - t0]
            for k in range(len(self.starts))
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "parent", "start", "end"], "spans": spans}, fh)


# -- observers: read a wrapped call's result, never alter it ------------------


def _pair_table_bytes(t: Tracer, args, result) -> None:
    t.gauge_max("pair_table_bytes", sum(a.nbytes for a in result))


def _lambda_outcome(t: Tracer, args, result) -> None:
    t.lambda_success = bool(result.success)


def _subset_outcome(t: Tracer, args, result) -> None:
    success = bool(result[2].success)
    t.tally["subset_success"] += success
    # couple_lambdas accepted the relation, yet the exact-weight nudge refused it
    t.tally["nudge_refused"] += bool(t.lambda_success) and not success
    t.lambda_success = None


def _schedule_outcome(t: Tracer, args, result) -> None:
    t.tally["schedule_connected"] += bool(result.connected)


def _run_outcome(t: Tracer, args, result) -> None:
    t.tally["run_coalesced"] += bool(result.coalesced)


def _blocks_read(t: Tracer, args, result) -> None:
    t.tally["blocks_read"] += len(result)


def _epoch_outcome(t: Tracer, args, result) -> None:
    t.tally["epoch_certified"] += bool(result.coalesced)


def _sample_doublings(t: Tracer, args, result) -> None:
    t.doublings.append(int(result.doublings))


def _matrix_bytes(t: Tracer, args, result) -> None:
    t.gauge_max("matrix_bytes", result.mat.nbytes)


OBSERVERS = {
    "chain._pair_table": _pair_table_bytes,
    "couplings.couple_lambdas": _lambda_outcome,
    "couplings.subset_couple_step": _subset_outcome,
    "partitions.analyze_schedule": _schedule_outcome,
    "two_stage.full_coupling_run": _run_outcome,
    "streams.read_blocks": _blocks_read,
    "cftp.run_epoch": _epoch_outcome,
    "cftp.cftp_sample": _sample_doublings,
    "cftp.TransitionMatrix.identity": _matrix_bytes,
}


def _wrap(tracer: Tracer, name: str, kind: str, fn):
    make = tracer.count if kind == "count" else tracer.span
    return make(name, fn, OBSERVERS.get(name))


def instrument(tracer: Tracer) -> None:
    """Wrap every layer of the imported package; call once per process."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            tracer.absent.append(layer)
    wrappers: dict[int, tuple[object, object]] = {}

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            counted = name in COUNT_ONLY or inspect.isgeneratorfunction(obj)
            wrappers[id(obj)] = (obj, _wrap(tracer, name, "count" if counted else "span", obj))
            tracer.instrumented.add(name)

    for name, kind in EXTRA.items():
        layer, *path = name.split(".")
        owner = modules.get(layer)
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
        raw = vars(owner).get(path[-1]) if owner is not None else None
        if raw is None:
            tracer.absent.append(name)
            continue
        if len(path) == 1:
            wrappers[id(raw)] = (raw, _wrap(tracer, name, kind, raw))
        elif isinstance(raw, classmethod):
            setattr(owner, path[-1], classmethod(_wrap(tracer, name, kind, raw.__func__)))
        else:
            setattr(owner, path[-1], _wrap(tracer, name, kind, raw))
        tracer.instrumented.add(name)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])


class Summary:
    """Per-name calls, self time and span durations of a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        n = len(tracer.starts)
        dur = [tracer.ends[k] - tracer.starts[k] for k in range(n)]
        child = [0.0] * n
        for k, p in enumerate(tracer.parents):
            if p >= 0:
                child[p] += dur[k]
        self.calls: Counter = Counter(tracer.counts)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        for k in range(n):
            name = tracer.names[tracer.name_ids[k]]
            self.calls[name] += 1
            self.self_time[name] += dur[k] - child[k]
            self.durations[name].append(dur[k])

    def self_s(self, *names: str) -> float:
        return sum(self.self_time.get(name, 0.0) for name in names)

    def layer_self_s(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer)

    def percentile_ms(self, name: str, q: float) -> float:
        """Nearest-rank percentile of the span durations, in ms (0 if none)."""
        d = sorted(self.durations.get(name, ()))
        if not d:
            return 0.0
        return 1e3 * d[max(0, math.ceil(q * len(d)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: Summary) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    t = s.tracer
    calls = s.calls
    subset = calls["couplings.subset_couple_step"]
    doublings = t.doublings
    return {
        "chain.simplex_point.count": (calls["chain.SimplexPoint.__post_init__"], "count"),
        "chain.lambda_law.count": (calls["chain.LambdaLaw.__post_init__"], "count"),
        "chain.step.calls": (calls["chain.step"], "count"),
        "chain.step.self_s": (s.self_s("chain.step"), "s"),
        "chain.sample_step_draw.calls": (calls["chain.sample_step_draw"], "count"),
        "chain.sample_step_draw.self_s": (s.self_s("chain.sample_step_draw"), "s"),
        "chain.pair_updates": (calls["chain.exact_split"], "count"),
        "chain.pair_table_bytes": (t.gauges.get("pair_table_bytes", 0.0), "B"),
        "couplings.proportional_step_pair.calls": (calls["couplings.proportional_step_pair"], "count"),
        "couplings.proportional_step_pair.self_s": (s.self_s("couplings.proportional_step_pair"), "s"),
        "couplings.subset_couple_step.calls": (subset, "count"),
        "couplings.subset_couple_step.self_s": (s.self_s("couplings.subset_couple_step"), "s"),
        "couplings.subset_success_ratio": (_ratio(t.tally["subset_success"], subset), "ratio"),
        "couplings.nudge_refused": (t.tally["nudge_refused"], "count"),
        "partitions.schedule_sample.self_s": (s.self_s("partitions.EdgeSchedule.sample"), "s"),
        "partitions.analyze_schedule.calls": (calls["partitions.analyze_schedule"], "count"),
        "partitions.analyze_schedule.self_s": (s.self_s("partitions.analyze_schedule"), "s"),
        "partitions.connected_ratio": (
            _ratio(t.tally["schedule_connected"], calls["partitions.analyze_schedule"]),
            "ratio",
        ),
        "two_stage.full_coupling_run.p50_ms": (s.percentile_ms("two_stage.full_coupling_run", 0.5), "ms"),
        "two_stage.full_coupling_run.p90_ms": (s.percentile_ms("two_stage.full_coupling_run", 0.9), "ms"),
        "two_stage.proportional_run.self_s": (s.self_s("two_stage.proportional_run"), "s"),
        "two_stage.two_stage_pass.self_s": (s.self_s("two_stage.two_stage_pass"), "s"),
        "two_stage.coalesced_ratio": (
            _ratio(t.tally["run_coalesced"], calls["two_stage.full_coupling_run"]),
            "ratio",
        ),
        "streams.read_blocks.calls": (calls["streams.read_blocks"], "count"),
        "streams.read_blocks.self_s": (s.self_s("streams.read_blocks"), "s"),
        "streams.blocks_read": (t.tally["blocks_read"], "count"),
        "streams.aux_uniform.calls": (calls["streams.aux_uniform"], "count"),
        "cftp.cftp_sample.p50_ms": (s.percentile_ms("cftp.cftp_sample", 0.5), "ms"),
        "cftp.cftp_sample.p90_ms": (s.percentile_ms("cftp.cftp_sample", 0.9), "ms"),
        "cftp.run_epoch.calls": (calls["cftp.run_epoch"], "count"),
        "cftp.run_epoch.self_s": (s.self_s("cftp.run_epoch"), "s"),
        "cftp.propagate_through_epoch.calls": (calls["cftp.propagate_through_epoch"], "count"),
        "cftp.propagate_through_epoch.self_s": (s.self_s("cftp.propagate_through_epoch"), "s"),
        "cftp.shared_step.calls": (calls["cftp.TransitionMatrix.shared_step"], "count"),
        "cftp.matrix_bytes": (t.gauges.get("matrix_bytes", 0.0), "B"),
        "cftp.certify_ratio": (_ratio(t.tally["epoch_certified"], calls["cftp.run_epoch"]), "ratio"),
        "cftp.doublings_p50": (statistics.median(doublings) if doublings else 0, "count"),
        "cftp.doublings_max": (max(doublings, default=0), "count"),
        "experiments.driver.self_s": (s.layer_self_s("experiments"), "s"),
        "cli.self_s": (s.layer_self_s("cli"), "s"),
    }
