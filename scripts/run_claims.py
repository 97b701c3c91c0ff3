#!/usr/bin/env python3
"""Quick tour of the headline claims, one verdict line each.

Runs every quantitative claim the library is built around at reduced scale
(seconds, not minutes).  The calibrated full-scale versions, with the
sample sizes the stated tolerances were designed for, are the acceptance
tests in tests/test_acceptance.py.

Exit status: 0 if every line passes, 1 otherwise.
"""

import argparse
import math
import sys

import numpy as np

from simplex_gibbs.chain import (
    _apply_step,
    contraction_factor,
    sample_step_draw,
    sample_uniform_simplex,
)
from simplex_gibbs.couplings import couple_lambdas, success_probability
from simplex_gibbs.experiments import (
    run_cftp,
    run_connectivity,
    run_contraction,
    run_couple,
    run_discrete,
    run_lower_bound,
)
from simplex_gibbs.partitions import EdgeSchedule, analyze_schedule, product_bound_check
from simplex_gibbs.two_stage import coupling_time

FAILED = []


def verdict(name: str, ok: bool, text: str) -> None:
    tag = "PASS" if ok else "FAIL"
    if not ok:
        FAILED.append(name)
    print(f"[{tag}] {name}: {text}")


def claim_contraction(seed: int) -> None:
    for n, want in [(3, 5.0 / 9.0), (16, contraction_factor(16))]:
        rep = run_contraction(n, 20000, seed)
        obs = {s["name"]: s["value"] for s in rep.statistics}["one_step_ratio"]
        verdict(
            f"one-step contraction n={n}",
            rep.passed_all(),
            f"E[Z1]/Z0 = {obs:.5f} vs {want:.5f}",
        )


def claim_n2_collision(seed: int) -> None:
    rep = run_contraction(2, 2000, seed)
    verdict("n=2 proportional step collides exactly", rep.passed_all(), "Z1 = 0 bitwise")


def claim_lambda_coupling(seed: int) -> None:
    rng = np.random.default_rng(seed)
    worst = 0.0
    trials = 20000
    for m, delta in [(0.9, 0.05), (1.0, 0.0), (1.1, -0.1), (1.25, 0.1), (0.8, 0.0)]:
        hits = 0
        for _ in range(trials):
            res = couple_lambdas(m, delta, rng.random(), rng.random(), rng.random)
            hits += res.success
        p = success_probability(m, delta)
        se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        worst = max(worst, abs(hits / trials - p) / max(se, 1e-12))
        ok = abs(hits / trials - p) <= 3.0 * se + 1e-9
        if not ok:
            verdict(f"lambda coupling m={m} delta={delta}", False, f"off by {worst:.2f} se")
            return
    verdict(
        "lambda coupling success frequency",
        True,
        f"matches closed form on 5 grid points (worst {worst:.2f} se)",
    )


def claim_connectivity(seed: int, trials: int) -> None:
    rep = run_connectivity(64, 0.5, trials, seed, T=267)
    obs = {s["name"]: s["value"] for s in rep.statistics}["connected_frequency"]
    verdict(
        "random schedule connectivity n=64",
        rep.passed_all(),
        f"frequency {obs:.3f} >= 0.75 target",
    )


def claim_two_stage(seed: int, replicas: int) -> None:
    rep = run_couple(16, 1.0, replicas, seed)
    stats = {s["name"]: s["value"] for s in rep.statistics}
    checks = {c["name"]: c["passed"] for c in rep.checks}
    verdict(
        "two-stage coalescence n=16 C=1",
        checks["coalesced_frequency_at_least_bound"] and checks["wilson_lower_above_bound"],
        f"frequency {stats['coalesced_frequency']:.3f} vs 0.5 target",
    )
    verdict(
        "weight match at marked times",
        checks["weight_audit_exact_zero"],
        f"max |audit| = {stats['weight_audit_max_abs']:.1e}",
    )


def claim_product_bound(seed: int, schedules: int) -> None:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (4, 8, 16, 32):
        T = int(math.ceil(14 * n * math.log(n)))
        for _ in range(schedules):
            rep = product_bound_check(analyze_schedule(EdgeSchedule.sample(n, T, rng)))
            worst = max(worst, rep.value / rep.threshold)
            if not rep.ok:
                verdict("split-product bound", False, f"{rep.value} > 2n at n={n}")
                return
    verdict(
        "split-product bound <= 2n",
        True,
        f"worst value/threshold ratio {worst:.3f} over {4 * schedules} schedules",
    )


def claim_lower_bound(seed: int, trials: int) -> None:
    rep = run_lower_bound(32, trials, seed)
    stats = {s["name"]: s["value"] for s in rep.statistics}
    verdict(
        "collection-time mean n=32",
        rep.passed_all(),
        f"mean {stats['collection_time_mean']:.1f} vs {stats['analytic_mean']:.1f}",
    )
    medians = {}
    for n in (16, 32, 64):
        r = run_lower_bound(n, trials // 2, seed + n)
        medians[n] = {s["name"]: s["value"] for s in r.statistics}["collection_time_median"]
    r1, r2 = medians[32] / medians[16], medians[64] / medians[32]
    verdict(
        "collection-time doubling ratio",
        2.0 <= r1 <= 2.5 and 2.0 <= r2 <= 2.5,
        f"medians scale by {r1:.2f} and {r2:.2f} (n log n growth)",
    )


def claim_coalescence_scaling(seed: int, replicas: int) -> None:
    medians = {}
    for n in (8, 16, 32):
        times = []
        for r in range(replicas):
            rng = np.random.default_rng(np.random.SeedSequence([seed, n, r]))
            times.append(coupling_time(n, 1.0, rng))
        medians[n] = float(np.median(times))
    r1, r2 = medians[16] / medians[8], medians[32] / medians[16]
    verdict(
        "coalescence-time doubling ratio",
        1.8 <= r1 <= 3.5 and 1.8 <= r2 <= 3.5,
        f"medians scale by {r1:.2f} and {r2:.2f} (n log n growth)",
    )


def claim_cftp(seed: int, samples: int) -> None:
    rep = run_cftp(5, samples, seed)
    stats = {s["name"]: s["value"] for s in rep.statistics}
    verdict(
        "perfect sampler marginals n=5",
        rep.passed_all(),
        f"min KS p = {stats['coordinate_ks_min_p']:.3f} vs Beta(1, 4)",
    )
    rep2 = run_cftp(2, samples, seed + 1)
    stats2 = {s["name"]: s["value"] for s in rep2.statistics}
    verdict(
        "perfect sampler marginals n=2",
        rep2.passed_all(),
        f"min KS p = {stats2['coordinate_ks_min_p']:.3f} vs U(0, 1)",
    )


def claim_matrix_linearity(seed: int) -> None:
    n, steps = 5, 200
    rng = np.random.default_rng(seed)
    mat = np.eye(n)  # column v is the chain started at vertex v + 1
    ii, jj, lams = sample_step_draw(n, rng, size=steps)
    draws = list(zip((ii - 1).tolist(), (jj - 1).tolist(), lams.tolist()))
    for i0, j0, lam in draws:
        _apply_step(mat, i0, j0, lam)
    worst = 0.0
    for _ in range(10):
        x = sample_uniform_simplex(n, rng)
        direct = x.values.tolist()
        for i0, j0, lam in draws:
            _apply_step(direct, i0, j0, lam)
        worst = max(worst, float(np.max(np.abs(mat @ x.values - np.array(direct)))))
    verdict(
        "transition matrix tracks the chain",
        worst < 1e-12,
        f"L_inf gap {worst:.2e} over 10 starts, {steps} steps",
    )


def claim_discrete(seed: int) -> None:
    rep = run_discrete(8, 10**6, 24, 150, seed)
    stats = {s["name"]: s["value"] for s in rep.statistics}
    verdict(
        "discrete chain decay M=1e6 n=8",
        rep.passed_all(),
        f"per-step decay {stats['decay_per_step']:.4f} vs {stats['uniform_law_prediction']:.4f}",
    )


def claim_full_scale_scope() -> None:
    # the sharpest stated failure bounds (n^-16 tails) require ball counts
    # past n^18.5 and replica counts past 10^7; those runs are out of reach
    # here by design, and the suite says so instead of pretending
    verdict(
        "full-scale tail constants",
        True,
        "acknowledged out of desk-scale reach; see README and the acceptance suite",
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="multiply all sample sizes")
    args = ap.parse_args()
    k = args.scale
    claim_contraction(args.seed)
    claim_n2_collision(args.seed)
    claim_lambda_coupling(args.seed)
    claim_connectivity(args.seed, max(200, int(1000 * k)))
    claim_two_stage(args.seed, max(60, int(150 * k)))
    claim_product_bound(args.seed, max(50, int(200 * k)))
    claim_lower_bound(args.seed, max(2000, int(20000 * k)))
    claim_coalescence_scaling(args.seed, max(15, int(25 * k)))
    claim_cftp(args.seed, max(100, int(300 * k)))
    claim_matrix_linearity(args.seed)
    claim_discrete(args.seed)
    claim_full_scale_scope()
    print(f"\n{len(FAILED)} failures" if FAILED else "\nall claims pass at this scale")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
