"""Seeded experiment drivers behind the command-line interface.

Each driver runs one study end to end and returns a :class:`SummaryReport`:
an echo of the command and its parameters, a list of named statistics, and a
list of pass/fail checks against the quantitative targets the study probes.
Every statistic carries the sample size and master seed it was computed from,
so a report is reproducible from its own text.

Replica ``r`` of a driver always derives its stream from
``SeedSequence([seed, r])``; reports are bit-for-bit deterministic given the
arguments, except for the wall-clock field.  Replicas are independent and
reduced with order-independent aggregates (sums, maxima, sorted quantiles),
so a parallel map over replicas would produce the identical report; the
drivers below run them sequentially.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cftp import MAX_DOUBLINGS_DEFAULT, _first_epochs, cftp_sample
from .chain import (
    LambdaLaw,
    SimplexPoint,
    _apply_step,
    _pairs_at,
    _sq_distance_raw,
    _step_count,
    _step_draws,
    _step_lists,
    contraction_factor,
    pair_count,
    sq_distance,
)
from .partitions import EdgeSchedule, analyze_schedule
from .two_stage import burn_in_steps, full_coupling_run, stage_steps

__all__ = [
    "SummaryReport",
    "wilson_lower",
    "run_simulate",
    "run_contraction",
    "run_couple",
    "run_connectivity",
    "run_lower_bound",
    "run_cftp",
    "run_discrete",
]

KS_ALPHA = 1e-3
CONTRACTION_TOL = 0.02  # relative error allowed on one-step contraction
COLLECTOR_TOL = 0.03  # relative error allowed on the collector mean
DECAY_TOL = 0.10  # relative band for the discrete-chain decay rate
MEAN_SIGMA_MULT = 3.0
FLOOR_EXPONENT = 2.0  # couple's floor monitor asks for coordinates >= n^-2
WILSON_Z = 1.959963984540054  # two-sided 95%

_COMPARISONS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}


def _num(x):
    """JSON-safe scalar: non-finite floats become None."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def wilson_lower(successes: int, trials: int) -> float:
    """Lower end of the Wilson score interval, at z = WILSON_Z, for a binomial proportion."""
    if trials <= 0:
        raise ValueError("need trials > 0")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    if successes == 0:
        return 0.0
    p = successes / trials
    zz = WILSON_Z * WILSON_Z
    center = p + zz / (2.0 * trials)
    rad = WILSON_Z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials))
    return max(0.0, (center - rad) / (1.0 + zz / trials))


@dataclass
class SummaryReport:
    """Outcome of one experiment run.

    statistics: dicts with keys name, value, sample_size, seed and an
    optional detail mapping.  checks: dicts with keys name, passed,
    observed, threshold, comparison.  A driver builds the report from its
    command, parameters and seed, which starts its clock, adds records
    with ``stat`` and ``check``, sets total_steps, and returns
    ``finish()``, which stamps elapsed_seconds; none of those four fields
    is a constructor argument.  Deterministic given the driver arguments
    except for elapsed_seconds.
    """

    command: str
    parameters: dict
    seed: int
    statistics: list = field(default_factory=list, init=False)
    checks: list = field(default_factory=list, init=False)
    elapsed_seconds: float = field(default=0.0, init=False)
    total_steps: int = field(default=0, init=False)
    _t0: float = field(default_factory=time.perf_counter, init=False, repr=False, compare=False)

    def stat(self, name, value, sample_size, detail: dict | None = None) -> None:
        rec = {
            "name": name,
            "value": _num(value),
            "sample_size": int(sample_size),
            "seed": int(self.seed),
        }
        if detail is not None:
            rec["detail"] = detail
        self.statistics.append(rec)

    def check(self, name, observed, threshold, comparison) -> bool:
        obs = _num(observed)
        passed = obs is not None and _COMPARISONS[comparison](obs, float(threshold))
        self.checks.append(
            {
                "name": name,
                "passed": bool(passed),
                "observed": obs,
                "threshold": float(threshold),
                "comparison": comparison,
            }
        )
        return bool(passed)

    def finish(self) -> "SummaryReport":
        """Stamp the seconds since the report was built and return it."""
        self.elapsed_seconds = time.perf_counter() - self._t0
        return self

    def passed_all(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": dict(self.parameters),
            "seed": int(self.seed),
            "statistics": [dict(s) for s in self.statistics],
            "checks": [dict(c) for c in self.checks],
            "elapsed_seconds": float(self.elapsed_seconds),
            "total_steps": int(self.total_steps),
        }

    def format_lines(self) -> list[str]:
        """Human rendering: one line per statistic and per check."""
        out = [f"{self.command}: {json.dumps(self.parameters, sort_keys=True)}"]
        for s in self.statistics:
            val = s["value"]
            shown = "nan" if val is None else f"{val:.10g}"
            out.append(
                f"  {s['name']} = {shown}  (sample_size={s['sample_size']}, seed={s['seed']})"
            )
        for c in self.checks:
            tag = "PASS" if c["passed"] else "FAIL"
            obs = c["observed"]
            shown = "nan" if obs is None else f"{obs:.10g}"
            out.append(
                f"  [{tag}] {c['name']}: {shown} {c['comparison']} {c['threshold']:.10g}"
            )
        out.append(
            f"  elapsed = {self.elapsed_seconds:.3f}s over {self.total_steps} steps"
        )
        return out


def _replica_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, r]))


def _write_traces(path, rows) -> None:
    # repr() round-trips doubles exactly, so traces are bit-faithful
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replica", "t", "value"])
        for r, t, v in rows:
            w.writerow([r, t, repr(float(v))])


def _write_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _law_params(law: LambdaLaw | None) -> str:
    if law is None or law.kind == "uniform":
        return "uniform"
    return f"beta:{float(law.a)!r}"


def _coord_cdf(n: int):
    """Stationary cdf of one coordinate under the uniform law on the simplex."""
    import scipy.stats as _st

    return _st.beta(1, n - 1).cdf


# ---------------------------------------------------------------------------
# simulate


def run_simulate(
    n: int,
    T: int,
    replicas: int,
    seed: int,
    law: LambdaLaw | None = None,
    traces_path=None,
) -> SummaryReport:
    """Run independent chains from a vertex start and summarize where they end.

    Statistics only, no thresholds: the command exists to exercise the chain
    and produce traces.  The trace value at time t is the squared distance
    to the barycenter.
    """
    if n < 2 or T < 0 or _step_count(replicas, "replicas") < 1:
        raise ValueError("need n >= 2, T >= 0, replicas >= 1")
    run = SummaryReport(
        "simulate",
        {"n": n, "T": T, "replicas": replicas, "seed": seed, "law": _law_params(law)},
        seed,
    )
    center = SimplexPoint.center(n)
    start = SimplexPoint.vertex(n, 1).values.tolist()
    finals = np.empty(replicas)
    final_sq = np.empty(replicas)
    drift = 0.0
    rows = []
    for r in range(replicas):
        rng = _replica_rng(seed, r)
        xs = start.copy()
        if traces_path is not None:
            rows.append((r, 0, _sq_distance_raw(xs, center.values)))
        for t, (i0, j0, lam) in enumerate(_step_draws(n, T, rng, law), start=1):
            _apply_step(xs, i0, j0, lam)
            if traces_path is not None:
                rows.append((r, t, _sq_distance_raw(xs, center.values)))
        x = SimplexPoint(xs)
        finals[r] = x.values[0]
        final_sq[r] = sq_distance(x, center)
        drift = max(drift, abs(math.fsum(x.to_list()) - 1.0))
    run.total_steps = replicas * T
    if traces_path is not None:
        _write_traces(traces_path, rows)
    run.stat("final_first_coordinate_mean", float(finals.mean()), replicas)
    run.stat("final_sq_distance_to_center_mean", float(final_sq.mean()), replicas)
    run.stat("max_abs_sum_drift", drift, replicas)
    if law is None or law.kind == "uniform":
        import scipy.stats as _st

        ks = _st.kstest(finals, _coord_cdf(n))
        run.stat("final_first_coordinate_ks_p", float(ks.pvalue), replicas)
    return run.finish()


# ---------------------------------------------------------------------------
# contraction


def run_contraction(
    n: int, replicas: int, seed: int, law: LambdaLaw | None = None
) -> SummaryReport:
    """One shared-draw step from a fixed pair; compare E[Z_1]/Z_0 to theory.

    The fixed pair is a vertex against the barycenter, so Z_0 = (n-1)/n.
    Replica r draws its step from its own stream: the pair number
    ``rng.integers(0, n(n-1)/2)``, then the fraction ``law.sample(rng)``.
    The predicted ratio is ``contraction_factor(n, E[lam^2])``; at n = 2 the
    prediction is zero and the check demands exact collision.
    """
    if n < 2 or _step_count(replicas, "replicas") < 1:
        raise ValueError("need n >= 2, replicas >= 1")
    run = SummaryReport(
        "contraction",
        {"n": n, "replicas": replicas, "seed": seed, "law": _law_params(law)},
        seed,
    )
    mix = law if law is not None else LambdaLaw.uniform()
    x0 = SimplexPoint.vertex(n, 1).values.tolist()
    y0 = SimplexPoint.center(n).values.tolist()
    z0 = _sq_distance_raw(x0, y0)
    c = pair_count(n)
    ks = np.empty(replicas, dtype=np.int64)
    lams = np.empty(replicas)
    for r in range(replicas):
        rng = _replica_rng(seed, r)
        ks[r] = rng.integers(0, c)
        lams[r] = mix.sample(rng)
    ii, jj = _pairs_at(n, ks)
    ratios = np.empty(replicas)
    for r, (i, j, lam) in enumerate(zip(ii.tolist(), jj.tolist(), lams.tolist())):
        xs, ys = x0.copy(), y0.copy()
        _step_lists((xs, ys), i - 1, j - 1, lam)
        ratios[r] = _sq_distance_raw(xs, ys) / z0
    run.total_steps = replicas
    observed = float(ratios.mean())
    se = float(ratios.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    predicted = contraction_factor(n, mix.lambda_sq)
    run.stat(
        "one_step_ratio",
        observed,
        replicas,
        detail={"z0": _num(z0), "std_error": _num(se)},
    )
    run.stat("predicted_ratio", predicted, replicas)
    if predicted == 0.0:
        run.check("one_step_ratio_exact_zero", observed, 0.0, "==")
    else:
        rel_err = abs(observed - predicted) / predicted
        run.stat("one_step_ratio_rel_error", rel_err, replicas)
        run.check("one_step_ratio_rel_error", rel_err, CONTRACTION_TOL, "<=")
    return run.finish()


# ---------------------------------------------------------------------------
# couple


def run_couple(
    n: int,
    C: float,
    replicas: int,
    seed: int,
    d: float | None = None,
    e: float | None = None,
    traces_path=None,
    records_path=None,
) -> SummaryReport:
    """Burn-in plus one collision stage per replica; compare the coalescence
    frequency against the 1 - 8 n^-C target.

    Each replica couples a vertex start against an independent stationary
    start: shared proportional steps for ``burn_in_steps(n, d)`` steps,
    then one stage of length ``ceil(C n ln n)`` driven by a fresh random
    edge schedule, with subset couplings attempted at the schedule's marked
    times.  C scales the collision stage.  The exponents d and e
    parameterize the burn-in target and a report-only monitor: burn-in
    drives the expected squared distance to 2 n^-d, and the closeness
    monitor asks for sup difference at most 2 n^-e at marked times.  Left
    as None they resolve to the C-scaled defaults 4C and 2C.  (The floor
    monitor's exponent is the fixed ``FLOOR_EXPONENT``.)  Reported
    alongside the frequency: its Wilson lower confidence bound, the largest
    absolute weight mismatch over marked times of coalesced replicas (exact
    zero is part of the coupling's contract), and a KS check that the
    stationary side still has the stationary first-coordinate marginal at
    the end.
    """
    if n < 2 or _step_count(replicas, "replicas") < 1:
        raise ValueError("need n >= 2, replicas >= 1")
    d = 4.0 * C if d is None else d
    e = 2.0 * C if e is None else e
    for name, v in (("C", C), ("d", d), ("e", e)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"need {name} > 0, got {v!r}")
    run = SummaryReport(
        "couple",
        {"n": n, "C": C, "b": FLOOR_EXPONENT, "d": d, "e": e, "replicas": replicas, "seed": seed},
        seed,
    )
    burn = burn_in_steps(n, d)
    T = stage_steps(n, C)
    coalesced = 0
    certified = 0
    connected = 0
    audit_max = 0.0
    marked_total = 0
    close_cond = 0
    sup_after_burn = np.empty(replicas)
    y_final = np.empty(replicas)
    sup_target = 2.0 * float(n) ** (-e)
    floor_target = float(n) ** (-FLOOR_EXPONENT)
    rows = []
    records = []
    for r in range(replicas):
        rng = _replica_rng(seed, r)
        z = [] if traces_path is not None else None
        res = full_coupling_run(n, C, rng, burn=burn, z_out=z)
        if traces_path is not None:
            rows.extend((r, t, v) for t, v in enumerate(z))
        coalesced += res.coalesced
        certified += res.certified
        connected += res.stage.connected
        sup_after_burn[r] = res.sup_diff_after_burn
        y_final[r] = res.stage.y.values[0]
        rep_audit = 0.0
        for a in res.stage.audits:
            marked_total += 1
            close_cond += a.pre_sup_diff <= sup_target and a.pre_min_coord >= floor_target
            if res.coalesced and a.success:
                rep_audit = max(rep_audit, abs(a.weight_diff))
        audit_max = max(audit_max, rep_audit)
        if records_path is not None:
            records.append(
                {
                    "replica": r,
                    "coalesced": bool(res.coalesced),
                    "certified": bool(res.certified),
                    "connected": bool(res.stage.connected),
                    "all_succeeded": bool(res.stage.all_succeeded),
                    "failed_at": res.stage.failed_at,
                    "sup_diff_after_burn": float(res.sup_diff_after_burn),
                    "marked_count": len(res.stage.audits),
                    "weight_audit_max": float(rep_audit),
                }
            )
    run.total_steps = replicas * (burn + T)
    if traces_path is not None:
        _write_traces(traces_path, rows)
    if records_path is not None:
        _write_jsonl(records_path, records)
    bound = max(0.0, 1.0 - 8.0 * float(n) ** (-C))
    freq = coalesced / replicas
    lower = wilson_lower(coalesced, replicas)
    run.stat(
        "coalesced_frequency",
        freq,
        replicas,
        detail={"successes": coalesced, "burn": burn, "stage": T},
    )
    run.stat("certified_frequency", certified / replicas, replicas)
    run.stat("connected_frequency", connected / replicas, replicas)
    run.stat("wilson_lower_bound", lower, replicas)
    run.stat("target_bound", bound, replicas)
    run.stat(
        "sup_diff_after_burn_mean",
        float(sup_after_burn.mean()),
        replicas,
        detail={"max": _num(sup_after_burn.max()), "target": _num(sup_target)},
    )
    if marked_total:
        run.stat(
            "marked_closeness_fraction",
            close_cond / marked_total,
            marked_total,
        )
    run.stat("weight_audit_max_abs", audit_max, replicas)
    import scipy.stats as _st

    ks = _st.kstest(y_final, _coord_cdf(n))
    run.stat("stationary_side_ks_p", float(ks.pvalue), replicas)
    run.check("coalesced_frequency_at_least_bound", freq, bound, ">=")
    run.check("wilson_lower_above_bound", lower, bound, ">")
    run.check("weight_audit_exact_zero", audit_max, 0.0, "<=")
    run.check("stationary_side_ks_p", float(ks.pvalue), KS_ALPHA, ">")
    return run.finish()


# ---------------------------------------------------------------------------
# connectivity


def run_connectivity(
    n: int, epsilon: float, trials: int, seed: int, T: int | None = None
) -> SummaryReport:
    """Frequency with which a random edge schedule of length T connects [n].

    Default T = ceil((1/2 + epsilon) n ln n); the target frequency is
    1 - 2 n^-epsilon.
    """
    if n < 2 or _step_count(trials, "trials") < 1:
        raise ValueError("need n >= 2, trials >= 1")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("need epsilon > 0")
    if T is None:
        T = int(math.ceil((0.5 + epsilon) * n * math.log(n)))
    T = _step_count(T, "T")
    run = SummaryReport(
        "connectivity",
        {"n": n, "epsilon": epsilon, "trials": trials, "seed": seed, "T": T},
        seed,
    )
    connected = 0
    marked_counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        rng = _replica_rng(seed, t)
        analysis = analyze_schedule(EdgeSchedule.sample(n, T, rng))
        connected += analysis.connected
        marked_counts[t] = len(analysis.marked)
    run.total_steps = trials * T
    bound = max(0.0, 1.0 - 2.0 * float(n) ** (-epsilon))
    freq = connected / trials
    run.stat("connected_frequency", freq, trials, detail={"successes": connected, "T": T})
    run.stat("target_bound", bound, trials)
    run.stat("marked_count_mean", float(marked_counts.mean()), trials)
    run.check("connected_frequency_at_least_bound", freq, bound, ">=")
    return run.finish()


# ---------------------------------------------------------------------------
# lowerbound


def analytic_collector_mean(n: int) -> float:
    """n + n^2 sum_{j=2}^{n-1} 1/(j(n-j)): the closed-form collector mean."""
    if n < 3:
        raise ValueError("need n >= 3")
    return n + n * n * math.fsum(1.0 / (j * (n - j)) for j in range(2, n))


def exact_collector_mean(n: int) -> float:
    """Exact mean of the simulated collector chain: sum_k n^2/(k(n-k)).

    The simulated chain collects coordinate j at a step iff the ordered draw
    (i, j) has i already collected and j not; from k collected the success
    probability is k(n-k)/n^2.  The closed form above replaces the first
    waiting time n^2/(n-1) by n; the two agree to O(1/n).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    return n * n * math.fsum(1.0 / (k * (n - k)) for k in range(1, n))


def run_lower_bound(n: int, trials: int, seed: int) -> SummaryReport:
    """Simulate the coordinate-collection lower bound and compare its mean
    to the closed form.

    One trial starts with coordinate 1 collected and repeatedly draws an
    ordered pair (i, j) uniformly (i = j allowed); j becomes collected iff
    i already is and j is not.  The trial ends when all n coordinates are
    collected.  Mixing cannot beat this schedule: a coordinate that has
    never shared a step with touched mass retains its initial value.

    All trials share one master stream (SeedSequence([seed, 0])) and are
    advanced in lockstep, which keeps the run vectorized; the report is
    still deterministic in (n, trials, seed).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if _step_count(trials, "trials") < 1:
        raise ValueError("need trials >= 1")
    run = SummaryReport("lowerbound", {"n": n, "trials": trials, "seed": seed}, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    mask = np.zeros((trials, n), dtype=bool)
    mask[:, 0] = True
    counts = np.ones(trials, dtype=np.int64)
    times = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    t = 0
    while active.size:
        t += 1
        i = rng.integers(0, n, size=active.size)
        j = rng.integers(0, n, size=active.size)
        collect = mask[active, i] & ~mask[active, j]
        if collect.any():
            hit = active[collect]
            mask[hit, j[collect]] = True
            counts[hit] += 1
            finished = counts[hit] == n
            if finished.any():
                times[hit[finished]] = t
            active = active[counts[active] < n]
    run.total_steps = int(times.sum())
    mean = float(times.mean())
    se = float(times.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    analytic = analytic_collector_mean(n)
    exact = exact_collector_mean(n)
    run.stat("collection_time_mean", mean, trials, detail={"std_error": _num(se)})
    run.stat("collection_time_median", float(np.median(times)), trials)
    run.stat("analytic_mean", analytic, trials)
    run.stat("exact_chain_mean", exact, trials)
    rel_err = abs(mean - analytic) / analytic
    run.stat("mean_rel_error", rel_err, trials)
    run.check("mean_within_3pct_of_analytic", rel_err, COLLECTOR_TOL, "<=")
    if trials > 1:
        run.check(
            "mean_within_3se_of_exact",
            abs(mean - exact),
            MEAN_SIGMA_MULT * se,
            "<=",
        )
    return run.finish()


# ---------------------------------------------------------------------------
# cftp


def run_cftp(
    n: int,
    samples: int,
    seed: int,
    max_doublings: int = MAX_DOUBLINGS_DEFAULT,
    traces_path=None,
) -> SummaryReport:
    """Draw perfect samples and test them against the stationary marginals.

    Reports the per-coordinate KS p-values against Beta(1, n-1), the largest
    deviation of a coordinate mean from 1/n (threshold three standard errors),
    and the distribution of how many backward windows each sample needed.
    A sample that exhausts its doubling budget raises; the driver does not
    substitute a biased value.  Window 1 of the samples is walked in groups
    (``cftp._first_epochs``); each sample then finishes in ``cftp_sample``
    from its window-1 record, so the report equals that of one
    ``cftp_sample`` call per sample, bit for bit.
    """
    if n < 2 or _step_count(samples, "samples") < 1:
        raise ValueError("need n >= 2, samples >= 1")
    if _step_count(max_doublings, "max_doublings") < 1:
        raise ValueError("max_doublings must be >= 1")
    run = SummaryReport(
        "cftp",
        {
            "n": n,
            "samples": samples,
            "seed": seed,
            "law": "uniform",
            "max_doublings": max_doublings,
        },
        seed,
    )
    points = np.empty((samples, n))
    doublings = np.empty(samples, dtype=np.int64)
    rows = []
    total = 0
    for r, first in enumerate(_first_epochs(n, seed, samples)):
        res = cftp_sample(n, seed, r, max_doublings=max_doublings, first=first)
        points[r] = res.point.values
        doublings[r] = res.doublings
        total += res.total_steps
        if traces_path is not None:
            rows.extend(
                (r, rec.k, 1.0 if rec.coalesced else 0.0) for rec in res.epochs
            )
    run.total_steps = total
    if traces_path is not None:
        _write_traces(traces_path, rows)
    import scipy.stats as _st

    cdf = _coord_cdf(n)
    pvals = _st.kstest(points, cdf, axis=0).pvalue.tolist()
    # sd of a coordinate mean: coordinate variance (n-1)/(n^2 (n+1))
    sigma = math.sqrt((n - 1.0) / (n + 1.0)) / (n * math.sqrt(samples))
    mean_dev = float(np.max(np.abs(points.mean(axis=0) - 1.0 / n)))
    hist = {str(k): int(c) for k, c in zip(*np.unique(doublings, return_counts=True))}
    run.stat("coordinate_ks_min_p", min(pvals), samples, detail={"per_coordinate": pvals})
    run.stat(
        "coordinate_mean_max_abs_dev",
        mean_dev,
        samples,
        detail={"sigma": _num(sigma)},
    )
    run.stat("doublings_median", float(np.median(doublings)), samples, detail=hist)
    run.stat("steps_per_sample_mean", total / samples, samples)
    run.check("coordinate_ks_min_p", min(pvals), KS_ALPHA, ">")
    run.check("coordinate_means_within_3_sigma", mean_dev, MEAN_SIGMA_MULT * sigma, "<=")
    run.check("doublings_median_at_most_two", float(np.median(doublings)), 2.0, "<=")
    return run.finish()


# ---------------------------------------------------------------------------
# discrete


def run_discrete(
    n: int, M: int, steps: int, replicas: int, seed: int, traces_path=None
) -> SummaryReport:
    """Couple two discrete mass-splitting chains (M balls, symmetric binomial
    splits) with shared uniforms and measure the distance decay per step.

    The chains start at all-mass-in-one-box and at the balanced composition.
    With s balls on an edge the shared uniform is pushed through the
    Binomial(s, 1/2) quantile, so as M grows the squared normalized distance
    should decay like the continuous chain's factor; the check uses the
    uniform-law prediction with a 10% band, and the binomial-split refinement
    ``contraction_factor(n, 1/4)`` is reported alongside.
    """
    if n < 2 or M < n or steps < 1 or _step_count(replicas, "replicas") < 1:
        raise ValueError("need n >= 2, M >= n, steps >= 1, replicas >= 1")
    run = SummaryReport(
        "discrete",
        {"n": n, "M": M, "steps": steps, "replicas": replicas, "seed": seed},
        seed,
    )
    q, rem = divmod(M, n)
    y0 = np.full(n, q, dtype=np.int64)
    y0[:rem] += 1
    x0 = np.zeros(n, dtype=np.int64)
    x0[0] = M
    z0 = float(np.sum(((x0 - y0) / M) ** 2))
    z_final = np.empty(replicas)
    violations = 0
    rows = []
    eps = 1e-12  # keep the uniform off 0 and 1; ppf(0) would return -1
    import scipy.stats as _st

    for r in range(replicas):
        rng = _replica_rng(seed, r)
        x = x0.copy()
        y = y0.copy()
        if traces_path is not None:
            rows.append((r, 0, z0))
        for t, (a, b, lam) in enumerate(_step_draws(n, steps, rng), start=1):
            u = min(max(lam, eps), 1.0 - eps)
            for c in (x, y):
                s = int(c[a] + c[b])
                if s > 0:
                    top = int(_st.binom.ppf(u, s, 0.5))
                    if top < 0 or top > s:
                        violations += 1
                        top = min(max(top, 0), s)
                    c[a] = top
                    c[b] = s - top
            if traces_path is not None:
                rows.append((r, t, float(np.sum(((x - y) / M) ** 2))))
        violations += int(x.sum()) != M
        violations += int(y.sum()) != M
        z_final[r] = float(np.sum(((x - y) / M) ** 2))
    run.total_steps = replicas * steps
    if traces_path is not None:
        _write_traces(traces_path, rows)
    z_mean = float(z_final.mean())
    decay = (z_mean / z0) ** (1.0 / steps) if z_mean > 0 else 0.0
    uniform_pred = contraction_factor(n)
    binom_pred = contraction_factor(n, 0.25)
    run.stat("decay_per_step", decay, replicas, detail={"z0": z0, "z_mean": _num(z_mean)})
    run.stat("uniform_law_prediction", uniform_pred, replicas)
    run.stat("binomial_split_prediction", binom_pred, replicas)
    rel_err = abs(decay - uniform_pred) / uniform_pred
    run.stat("decay_rel_error_vs_uniform", rel_err, replicas)
    run.check("decay_within_10pct_of_uniform", rel_err, DECAY_TOL, "<=")
    run.check("mass_conserved", violations, 0, "<=")
    return run.finish()
