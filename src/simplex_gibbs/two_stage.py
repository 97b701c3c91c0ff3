"""Two-stage coupled run: contraction burn-in, then schedule-driven collisions.

The coupling that certifies mixing runs in two phases.  First both chains
advance under the proportional coupling (shared pair and fraction draws)
for burn_in_steps(n, 4C) = ceil(6 C n ln n) steps, which contracts their
squared distance to O(n^-4C) in expectation.  Second, a fresh edge schedule
of length ceil(C n ln n) is drawn up front, its split structure is computed,
and the chains run forward through it: at every marked time the
weight-matching subset coupling is attempted on the two pieces of the
split (``couplings._subset_couple_columns`` with one follower column),
at every other time the step is proportional.  The pass is
non-Markovian only through the schedule: each chain still makes uniform
pair and fraction draws marginally, so both remain faithful copies of the
dynamics.

If the schedule is connected and every marked attempt succeeds, the final
states are bitwise identical: each coordinate's last update happens at a
marked time where its side of the split is the singleton containing it,
and the exact weight enforcement pins it to the partner chain's double.
The first failed attempt demotes the remainder of the pass to proportional
stepping; collision can then no longer be certified for that replica.

Both phases are hot loops, so both walk raw float lists: the inputs are
validated ``SimplexPoint``s, in between the chains are lists of doubles
stepped in place together by ``chain._step_lists``, and one validated
``SimplexPoint`` per chain is built at exit.  ``proportional_run`` takes
its draws in bulk, one ``sample_step_draw(n, rng, size=...)`` per bounded
chunk of steps; the bulk draws decode the generator's PCG64 words directly
and equal one generator call per pair and per fraction bit for bit,
leaving the generator where those calls would, so the stage that follows
reads the same stream.
``two_stage_pass`` draws one fraction per unmarked time and hands the two
lists to ``couplings._subset_couple_columns`` at a marked time, x as the
one follower and y as the driver, which it steps in place.  Piece weights are ``math.fsum`` sums, exact and independent
of order, so the lists give the bits that validated points would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    SimplexPoint,
    _sq_distance_raw,
    _step_draws,
    _step_lists,
    sample_uniform_simplex,
    sq_distance,
)
from .couplings import _subset_couple_columns
from .partitions import EdgeSchedule, analyze_schedule

# coupled runs coupling_time makes before it gives up
_MAX_ATTEMPTS = 64


def stage_steps(n: int, C: float) -> int:
    """ceil(C n ln n), the schedule length of the collision stage."""
    if n < 2 or C <= 0:
        raise ValueError("need n >= 2 and C > 0")
    return int(math.ceil(C * n * math.log(n)))


def burn_in_steps(n: int, d: float) -> int:
    """ceil(1.5 d n ln n): steps driving expected squared distance to 2 n^-d."""
    if n < 2 or d <= 0:
        raise ValueError("need n >= 2 and d > 0")
    return int(math.ceil(1.5 * d * n * math.log(n)))


def proportional_run(
    x: SimplexPoint,
    y: SimplexPoint,
    steps: int,
    rng: np.random.Generator,
    z_out: list[float] | None = None,
) -> tuple[SimplexPoint, SimplexPoint]:
    """Advance both chains through shared draws for the given step count.

    The points are validated on entry and rebuilt as validated points on
    exit; in between both chains are raw float lists.  The draws come from
    ``sample_step_draw(n, rng, size=...)``, one call per bounded chunk of
    steps (``chain._step_draws``), equal to one generator call per pair and
    per fraction in the order the generator yields them, and each is
    applied to both lists with one ``chain._step_lists``.  When z_out is a
    list, the squared distance after each step is appended to it (one
    value per step).  Raises
    ValueError for a step count that is negative, a bool or not an integer
    (``chain._step_draws`` checks it).
    """
    if x.n != y.n:
        raise ValueError("dimension mismatch")
    xs, ys = x.values.tolist(), y.values.tolist()
    for i0, j0, lam in _step_draws(x.n, steps, rng):
        _step_lists((xs, ys), i0, j0, lam)
        if z_out is not None:
            z_out.append(_sq_distance_raw(xs, ys))
    return SimplexPoint(xs), SimplexPoint(ys)


@dataclass(frozen=True)
class MarkedAudit:
    """Record of one marked-time coupling attempt.

    weight_diff is w_x(S(s,1)) - w_y(S(s,1)) evaluated immediately after
    the step; the success path enforces it to be exactly 0.0.  reason is
    "ok" or why the attempt failed (``couplings.REASONS``).  The pre-step
    closeness and floor observations feed the condition monitor summaries.
    """

    time: int
    success: bool
    reason: str
    weight_diff: float
    m: float
    delta: float
    p: float
    piece_small_size: int
    pre_sup_diff: float
    pre_min_coord: float


@dataclass(frozen=True)
class StagePassResult:
    x: SimplexPoint
    y: SimplexPoint
    connected: bool
    all_succeeded: bool
    failed_at: int | None
    coalesced: bool
    audits: tuple[MarkedAudit, ...]


def two_stage_pass(
    x: SimplexPoint,
    y: SimplexPoint,
    schedule: EdgeSchedule,
    rng: np.random.Generator,
    z_out: list[float] | None = None,
) -> StagePassResult:
    """Run the collision stage along a fixed schedule.

    The fraction draws come from rng in time order: marked times consume a
    driver uniform and a thinning coin (plus one remainder uniform on
    failure), other times a single shared fraction.  The y chain is the
    driver; its fractions are plain uniforms throughout.  The split
    structure comes from ``analyze_schedule(schedule)``.  Both chains are
    walked as raw float lists and validated once, at exit.

    Weight-matching attempts are made only when the schedule is connected.
    A disconnected schedule cannot certify a collision, and its components
    never tie their piece weights together, so the pass degrades to plain
    proportional stepping and reports non-collision.
    """
    if x.n != y.n or x.n != schedule.n:
        raise ValueError("dimension mismatch")
    analysis = analyze_schedule(schedule)
    splits = analysis.splits if analysis.connected else {}
    audits: list[MarkedAudit] = []
    failed_at: int | None = None
    xs, ys = x.values.tolist(), y.values.tolist()
    ii, jj = (schedule.edges - 1).T.tolist()
    for s, (i0, j0) in enumerate(zip(ii, jj), start=1):
        rec = splits.get(s) if failed_at is None else None
        if rec is None:
            _step_lists((xs, ys), i0, j0, float(rng.random()))
        else:
            pre_sup = max(abs(a - b) for a, b in zip(xs, ys))
            pre_min = min(min(xs), min(ys))
            u = float(rng.random())
            coin = float(rng.random())
            (cpl,) = _subset_couple_columns([xs], ys, rec, u, coin, rng.random)
            small = rec.piece_small
            diff = math.fsum([xs[l - 1] for l in small]) - math.fsum([ys[l - 1] for l in small])
            audits.append(
                MarkedAudit(
                    time=s,
                    success=cpl.success,
                    reason=cpl.reason,
                    weight_diff=diff,
                    m=cpl.m,
                    delta=cpl.delta,
                    p=cpl.p,
                    piece_small_size=len(small),
                    pre_sup_diff=pre_sup,
                    pre_min_coord=pre_min,
                )
            )
            if not cpl.success:
                failed_at = s
        if z_out is not None:
            z_out.append(_sq_distance_raw(xs, ys))
    x, y = SimplexPoint(xs), SimplexPoint(ys)
    all_ok = failed_at is None and len(audits) == len(analysis.marked)
    return StagePassResult(
        x=x,
        y=y,
        connected=analysis.connected,
        all_succeeded=all_ok,
        failed_at=failed_at,
        coalesced=x.equals_bitwise(y),
        audits=tuple(audits),
    )


@dataclass(frozen=True)
class FullRunResult:
    """One burn-in plus collision stage between a vertex start and a
    stationary start."""

    n: int
    C: float
    burn: int
    T: int
    sup_diff_after_burn: float
    stage: StagePassResult

    @property
    def coalesced(self) -> bool:
        return self.stage.coalesced

    @property
    def certified(self) -> bool:
        """Collision by mechanism: connected schedule, every attempt good."""
        return self.stage.connected and self.stage.all_succeeded


def full_coupling_run(
    n: int,
    C: float,
    rng: np.random.Generator,
    burn: int | None = None,
    z_out: list[float] | None = None,
) -> FullRunResult:
    """Burn in proportionally, then run the collision stage.

    The x chain starts at the first vertex (the worst natural start), the
    y chain at an exact stationary draw taken first from rng, so a
    collision transfers stationarity to the x chain.  Draw order: the
    stationary start, the burn-in step draws, then the whole stage
    schedule, then the stage fraction draws.  burn overrides the default
    ceil(6 C n ln n) burn-in length and, like any step count of
    ``proportional_run``, must be a nonnegative integer; z_out, if a list,
    receives the squared distance at every step, starting with the
    initial value.
    """
    x0 = SimplexPoint.vertex(n, 1)
    y0 = sample_uniform_simplex(n, rng)
    if burn is None:
        burn = burn_in_steps(n, 4.0 * C)
    T = stage_steps(n, C)
    if z_out is not None:
        z_out.append(sq_distance(x0, y0))
    x, y = proportional_run(x0, y0, burn, rng, z_out=z_out)
    sup_after = float(np.max(np.abs(x.values - y.values)))
    schedule = EdgeSchedule.sample(n, T, rng)
    stage = two_stage_pass(x, y, schedule, rng, z_out=z_out)
    return FullRunResult(n=n, C=C, burn=burn, T=T, sup_diff_after_burn=sup_after, stage=stage)


def coupling_time(n: int, C: float, rng: np.random.Generator) -> int:
    """Total steps until a certified collision, repeating the run as needed.

    Each attempt costs burn + T steps whether or not it collides.  Raises
    RuntimeError if _MAX_ATTEMPTS runs fail in a row (vanishingly unlikely
    for sensible C; the cap keeps bad parameters from looping forever).
    """
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        run = full_coupling_run(n, C, rng)
        if run.coalesced:
            return attempt * (run.burn + run.T)
    raise RuntimeError(f"no collision in {_MAX_ATTEMPTS} attempts for n={n}, C={C}")
