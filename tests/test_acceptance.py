"""Full-scale acceptance gate: every headline quantitative claim, one test each.

Each test runs at the calibrated sample size, asserts the stated tolerance,
and prints a single verdict line.  Tolerances are pinned here on purpose;
loosening them is a library change, not a test fix.  The final test records
what this suite deliberately does NOT claim: constants that only bind at
astronomically large scale are covered by invariants, oracle equivalence,
and scaling bands, never by direct simulation.
"""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st

from simplex_gibbs.cftp import cftp_sample
from simplex_gibbs.chain import (
    SimplexPoint,
    _apply_step,
    contraction_factor,
    sample_uniform_simplex,
)
from simplex_gibbs.couplings import couple_lambdas, success_probability
from simplex_gibbs.experiments import (
    analytic_collector_mean,
    run_cftp,
    run_connectivity,
    run_contraction,
    run_discrete,
    run_lower_bound,
    wilson_lower,
)
from simplex_gibbs.partitions import EdgeSchedule, analyze_schedule, product_bound_check
from simplex_gibbs.two_stage import coupling_time, full_coupling_run

from conftest import draw_step, step

SEED = 1729
KS_ALPHA = 1e-3


def _rng(*parts):
    return np.random.default_rng(np.random.SeedSequence([SEED, *parts]))


@pytest.fixture(scope="module")
def collision_runs():
    """1000 burn-in + collision-stage replicas at n=16, C=1, shared by the
    coalescence-frequency and weight-invariant criteria."""
    runs = []
    for r in range(1000):
        runs.append(full_coupling_run(16, 1.0, _rng(516, r)))
    return runs


def test_criterion_01_one_step_contraction():
    """E[Z_1]/Z_0 from a fixed pair matches the closed-form factor within 2%."""
    targets = {3: 5.0 / 9.0, 16: 0.952778}
    for n, target in targets.items():
        rep = run_contraction(n, 100000, SEED)
        obs = {s["name"]: s["value"] for s in rep.statistics}["one_step_ratio"]
        assert contraction_factor(n) == pytest.approx(target, abs=5e-7)
        assert abs(obs - contraction_factor(n)) / contraction_factor(n) <= 0.02
        assert rep.passed_all()
        print(f"[PASS] criterion 1 (n={n}): E[Z1]/Z0 = {obs:.6f} vs {target} within 2%")


def test_criterion_02_n2_exact_coalescence():
    """One proportional step collides every n=2 pair bit-exactly."""
    rng = _rng(2)
    hits = 0
    for _ in range(10000):
        x = sample_uniform_simplex(2, rng)
        y = sample_uniform_simplex(2, rng)
        d = draw_step(2, rng)
        hits += step(x, d).equals_bitwise(step(y, d))
    assert hits == 10000
    # extreme pair as well: vertex against barycenter
    d = draw_step(2, rng)
    assert step(SimplexPoint.vertex(2, 1), d).equals_bitwise(step(SimplexPoint.center(2), d))
    print("[PASS] criterion 2: 10000/10000 n=2 pairs collide bit-exactly in one step")


def test_criterion_03_fraction_coupling_grid():
    """MC success frequency matches the closed form within 3 SE on the full
    (m, delta) grid; both coupled fractions stay uniform marginally."""
    grid_m = [0.8, 0.9, 1.0, 1.1, 1.25]
    grid_d = [-0.1, 0.0, 0.05, 0.1]
    trials = 100000
    worst_se = 0.0
    worst_p = 1.0
    for gi, m in enumerate(grid_m):
        for gj, delta in enumerate(grid_d):
            rng = _rng(3, gi, gj)
            lam_x = np.empty(trials)
            lam_y = np.empty(trials)
            hits = 0
            for t in range(trials):
                res = couple_lambdas(m, delta, rng.random(), rng.random(), rng.random)
                hits += res.success
                lam_x[t] = res.lam_x
                lam_y[t] = res.lam_y
            p = success_probability(m, delta)
            se = math.sqrt(max(p * (1.0 - p), 1e-12) / trials)
            gap = abs(hits / trials - p)
            assert gap <= 3.0 * se + 1e-9, (m, delta, hits / trials, p)
            worst_se = max(worst_se, gap / se)
            px = st.kstest(lam_x, "uniform").pvalue
            py = st.kstest(lam_y, "uniform").pvalue
            assert px > KS_ALPHA and py > KS_ALPHA, (m, delta, px, py)
            worst_p = min(worst_p, px, py)
    print(
        f"[PASS] criterion 3: 20 grid points within 3 SE (worst {worst_se:.2f});"
        f" marginal KS min p = {worst_p:.4f} > 0.001"
    )


def test_criterion_04_schedule_connectivity():
    """Random schedules of length 267 connect n=64 at least 75% of the time."""
    rep = run_connectivity(64, 0.5, 10000, SEED)
    assert rep.parameters["T"] == 267
    freq = {s["name"]: s["value"] for s in rep.statistics}["connected_frequency"]
    assert freq >= 0.75
    assert rep.passed_all()
    print(f"[PASS] criterion 4: n=64 connected frequency {freq:.4f} >= 0.75")


def test_criterion_05_two_stage_coalescence(collision_runs):
    """Burn-in 6 n ln n plus one stage of n ln n coalesces n=16 at rate
    >= 0.5, with the Wilson 95% lower bound also clearing 0.5."""
    assert collision_runs[0].burn == math.ceil(6 * 16 * math.log(16))
    assert collision_runs[0].T == math.ceil(16 * math.log(16))
    k = sum(r.coalesced for r in collision_runs)
    freq = k / len(collision_runs)
    lower = wilson_lower(k, len(collision_runs))
    assert freq >= 0.5
    assert lower > 0.5
    print(
        f"[PASS] criterion 5: coalescence frequency {freq:.3f} over 1000 replicas,"
        f" Wilson lower {lower:.3f} > 0.5"
    )


def test_criterion_06_weight_invariant(collision_runs):
    """Every coalesced replica matched the distinguished-piece weights
    exactly (difference 0.0, not merely small) at every marked time."""
    audited = 0
    for run in collision_runs:
        if not run.coalesced:
            continue
        assert run.certified  # collision always arrives via the mechanism
        for a in run.stage.audits:
            assert a.success
            assert a.weight_diff == 0.0
            audited += 1
    assert audited > 0
    print(
        f"[PASS] criterion 6: weight difference exactly 0.0 at all {audited}"
        " marked times across coalesced replicas"
    )


def test_criterion_07_split_product_bound():
    """The per-coordinate split-factor product stays <= 2n on 10^4 random
    schedules for each n in {4, 8, 16, 32}; zero violations."""
    worst = 0.0
    for n in (4, 8, 16, 32):
        rng = _rng(7, n)
        T = math.ceil(2 * n * math.log(n))
        violations = 0
        for _ in range(10000):
            rep = product_bound_check(analyze_schedule(EdgeSchedule.sample(n, T, rng)))
            violations += rep.value > rep.threshold
            worst = max(worst, rep.value / rep.threshold)
        assert violations == 0, f"n={n}: {violations} violations"
    print(
        f"[PASS] criterion 7: 0 violations in 40000 schedules;"
        f" worst value/threshold = {worst:.3f}"
    )


def test_criterion_08_collection_lower_bound():
    """Collector mean at n=32 within 3% of the closed form; median times
    double in the [2.0, 2.5] band as n doubles (2 n log n scaling)."""
    rep = run_lower_bound(32, 100000, SEED)
    stats = {s["name"]: s["value"] for s in rep.statistics}
    rel = abs(stats["collection_time_mean"] - analytic_collector_mean(32))
    rel /= analytic_collector_mean(32)
    assert rel <= 0.03
    assert rep.passed_all()
    medians = {}
    for n in (16, 32, 64):
        r = run_lower_bound(n, 100000, SEED + n)
        medians[n] = {s["name"]: s["value"] for s in r.statistics}[
            "collection_time_median"
        ]
    r1 = medians[32] / medians[16]
    r2 = medians[64] / medians[32]
    assert 2.0 <= r1 <= 2.5 and 2.0 <= r2 <= 2.5, (r1, r2)
    print(
        f"[PASS] criterion 8: n=32 mean within {100 * rel:.2f}% of closed form;"
        f" median ratios {r1:.2f}, {r2:.2f} in [2.0, 2.5]"
    )


def test_criterion_09_coalescence_time_scaling():
    """Median certified-collision time ratios stay in [1.8, 3.5] as n
    doubles through {8, 16, 32}: n log n scaling, not quadratic."""
    medians = {}
    for n in (8, 16, 32):
        times = [coupling_time(n, 1.0, _rng(9, n, r)) for r in range(101)]
        medians[n] = float(np.median(times))
    r1 = medians[16] / medians[8]
    r2 = medians[32] / medians[16]
    assert 1.8 <= r1 <= 3.5 and 1.8 <= r2 <= 3.5, (r1, r2)
    print(
        f"[PASS] criterion 9: median collision-time ratios {r1:.2f}, {r2:.2f}"
        " in [1.8, 3.5]"
    )


def test_criterion_10_perfect_sampler_distribution():
    """Perfect samples match the stationary marginals (n=5 against
    Beta(1, 4), n=2 against Uniform(0, 1)) and are bit-for-bit repeatable."""
    rep5 = run_cftp(5, 2000, SEED)
    stats = {s["name"]: s for s in rep5.statistics}
    min_p = stats["coordinate_ks_min_p"]["value"]
    assert min_p > KS_ALPHA
    per = stats["coordinate_ks_min_p"]["detail"]["per_coordinate"]
    assert len(per) == 5 and all(p > KS_ALPHA for p in per)
    sigma = math.sqrt(4.0 / 6.0) / (5.0 * math.sqrt(2000))
    assert stats["coordinate_mean_max_abs_dev"]["value"] <= 3.0 * sigma
    assert rep5.passed_all()
    for r in (0, 7, 123):
        a = cftp_sample(5, SEED, r)
        b = cftp_sample(5, SEED, r)
        assert np.array_equal(a.point.values, b.point.values)
        assert a.doublings == b.doublings
    rep2 = run_cftp(2, 10000, SEED + 1)
    p2 = {s["name"]: s["value"] for s in rep2.statistics}["coordinate_ks_min_p"]
    assert p2 > KS_ALPHA
    assert rep2.passed_all()
    print(
        f"[PASS] criterion 10: n=5 KS min p = {min_p:.4f}, means within 3 sigma,"
        f" bit-exact reruns; n=2 KS min p = {p2:.4f}"
    )


def test_criterion_11_matrix_linearity_oracle():
    """Evolving the vertex-columns matrix and evolving points directly agree
    to L_inf < 1e-12 over 1000 shared-draw steps from 10 random starts."""
    n, steps = 5, 1000
    rng = _rng(11)
    draws = [draw_step(n, rng) for _ in range(steps)]
    mat = np.eye(n)
    for d in draws:
        _apply_step(mat, d.i - 1, d.j - 1, d.lam)
    worst = 0.0
    for _ in range(10):
        x = sample_uniform_simplex(n, rng)
        direct = x
        for d in draws:
            direct = step(direct, d)
        worst = max(worst, float(np.max(np.abs(mat @ x.values - direct.values))))
    assert worst < 1e-12
    print(f"[PASS] criterion 11: matrix vs direct L_inf = {worst:.2e} < 1e-12")


def test_criterion_12_full_scale_claims_acknowledged():
    """The sharpest stated constants only bind far beyond desk scale; the
    suite documents that instead of simulating it.

    Concretely: failure-probability tails like n^-16 would need replica
    counts past 10^16 to falsify, and the discrete chain approximates the
    continuous one in distribution only for ball counts past n^18.5.  Those
    regimes are covered indirectly (exact invariants, the linearity oracle,
    scaling-band checks), and the documentation says so explicitly.
    """
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert "not reproducible at desk scale" in readme
    assert "n^-16" in readme and "n^18.5" in readme
    # the discrete command accordingly makes no distributional claim at
    # feasible M: only the decay band and exact mass conservation
    rep = run_discrete(8, 10**6, 24, 100, SEED)
    names = {c["name"] for c in rep.checks}
    assert names == {"decay_within_10pct_of_uniform", "mass_conserved"}
    assert rep.passed_all()
    print(
        "[PASS] criterion 12: full-scale tail/regime constants acknowledged as"
        " not reproducible at desk scale; covered by invariants and scaling bands"
    )
