"""The benchmark's workloads: one CLI command each, run in chunks.

A chunk is one in-process ``simplex_gibbs.cli.main`` call with ``--json``;
its items are the replicas, samples or trials the command runs.  Chunk c
of workload seed S passes ``--seed S * CHUNK_SEED_STRIDE + c``, so a seed
fixes every input and distinct seeds never share one.

``check`` returns the ways a report breaks the exactness contract or does
not describe the run that was asked for.  The drivers' statistical checks
(KS tests, 3-sigma means, frequency targets) are recorded, not gated: a
correct program fails them on a few percent of seeds at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

CHUNK_SEED_STRIDE = 1_000_000
# chunks rerun under tracing; fixed, so traced counts repeat for a seed
PROBE_CHUNKS = 3


def _stats(report: dict) -> dict:
    return {s["name"]: s for s in report.get("statistics", [])}


def _sample_size_problems(report: dict, command: str, key: str, items: int) -> list[str]:
    if report.get("command") != command:
        return [f"report is for command {report.get('command')!r}"]
    stat = _stats(report).get(key)
    if stat is None:
        return [f"statistic {key} missing"]
    if stat["sample_size"] != items:
        return [f"{key} covers {stat['sample_size']} items, {items} were asked for"]
    return []


def check_couple(report: dict, items: int) -> list[str]:
    problems = _sample_size_problems(report, "couple", "coalesced_frequency", items)
    if problems:
        return problems
    stats = _stats(report)
    detail = stats["coalesced_frequency"]["detail"]
    if report["total_steps"] != items * (detail["burn"] + detail["stage"]):
        problems.append("total_steps does not match burn + stage per replica")
    audit = stats.get("weight_audit_max_abs", {}).get("value")
    if audit != 0.0:
        problems.append(f"coalesced replica with weight audit {audit!r}, not exactly 0.0")
    return problems


def check_cftp(report: dict, items: int) -> list[str]:
    problems = _sample_size_problems(report, "cftp", "coordinate_ks_min_p", items)
    if problems:
        return problems
    stats = _stats(report)
    n = report["parameters"]["n"]
    if len(stats["coordinate_ks_min_p"]["detail"]["per_coordinate"]) != n:
        problems.append("KS p-values do not cover every coordinate")
    hist = stats.get("doublings_median", {}).get("detail", {})
    if sum(hist.values()) != items or min(map(int, hist), default=0) < 1:
        problems.append(f"doublings histogram {hist} does not account for {items} samples")
    return problems


def check_connectivity(report: dict, items: int) -> list[str]:
    problems = _sample_size_problems(report, "connectivity", "connected_frequency", items)
    if problems:
        return problems
    stats = _stats(report)
    n, T = report["parameters"]["n"], report["parameters"]["T"]
    freq = stats["connected_frequency"]["value"]
    successes = stats["connected_frequency"]["detail"]["successes"]
    if not (0 <= successes <= items and freq == successes / items):
        problems.append(f"connected frequency {freq!r} from {successes} of {items} trials")
    if not 0.0 <= stats["marked_count_mean"]["value"] <= n - 1:
        problems.append("a schedule has more than n - 1 marked times")
    if report["total_steps"] != items * T:
        problems.append("total_steps does not match T per trial")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    items_flag: str
    chunk_items: int  # items per CLI call in the timed loop
    check: Callable[[dict, int], list[str]]
    expected_spans: tuple[str, ...]  # must fire in the traced run, unless absent
    why: str

    def argv(self, seed: int, chunk: int, items: int) -> list[str]:
        return [
            *self.command,
            self.items_flag,
            str(items),
            "--seed",
            str(seed * CHUNK_SEED_STRIDE + chunk),
            "--json",
        ]


_COMMON_SPANS = ("cli.main", "partitions.analyze_schedule")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="couple-n16",
            command=("couple", "--n", "16", "--C", "1"),
            items_flag="--replicas",
            chunk_items=25,
            check=check_couple,
            expected_spans=_COMMON_SPANS + (
                "experiments.run_couple",
                "two_stage.full_coupling_run",
                "two_stage.proportional_run",
                "two_stage.two_stage_pass",
                "partitions.EdgeSchedule.sample",
                "chain.sample_step_draw",
                "chain.step",
                "chain.SimplexPoint.__post_init__",
                "chain.exact_split",
                "chain.LambdaLaw.__post_init__",
                "couplings.proportional_step_pair",
                "couplings.subset_couple_step",
                "couplings.couple_lambdas",
            ),
            why="burn-in plus collision stage: chain stepping and per-step object churn, no streams",
        ),
        Workload(
            name="cftp-n16",
            command=("cftp", "--n", "16"),
            items_flag="--samples",
            chunk_items=20,
            check=check_cftp,
            expected_spans=_COMMON_SPANS + (
                "experiments.run_cftp",
                "cftp.cftp_sample",
                "cftp.run_epoch",
                "cftp.propagate_through_epoch",
                "cftp.TransitionMatrix.shared_step",
                "streams.read_blocks",
                "couplings.subset_couple_step",
                "couplings.couple_lambdas",
                "chain.SimplexPoint.__post_init__",
                "chain.exact_split",
            ),
            why="backward-window perfect sampler: subset kernel, matrix steps, Philox streams, replay",
        ),
        Workload(
            name="connectivity-n1024",
            command=("connectivity", "--n", "1024", "--epsilon", "0.5"),
            items_flag="--trials",
            chunk_items=8,
            check=check_connectivity,
            expected_spans=_COMMON_SPANS + (
                "experiments.run_connectivity",
                "partitions.EdgeSchedule.sample",
                "chain._pair_table",
            ),
            why="schedule sampling and partition analysis only, 8.4 MB pair table beyond L2",
        ),
    )
}
