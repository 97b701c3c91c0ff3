"""Perfect sampling from the uniform law via backward coupling windows.

The sampler examines disjoint windows of past time, nearest first, each
twice the length of the one before.  Inside a window it runs a grand
coupling of n + 1 tracked chains: the n vertex chains, carried jointly as the
columns of one matrix, and a barycenter chain that acts as the driver.
A window has two phases.  The long opening phase applies shared draws to
every chain, shrinking the vertex images toward the driver.  The short
closing phase layers the window's final edges: at each marked time every
vertex column attempts the weight-matching fraction coupling against the
driver, all columns sharing the driver fraction and one thinning coin.

A window certifies when its closing-phase edges connect all coordinates and
every column's every attempt succeeds; the exact piece enforcement then
forces all n + 1 chains into bitwise collision, which is checked, not
assumed.  The collided point is pushed forward through the already-examined
(nearer) windows by replaying their per-step maps.

One walk, ``_walk_windows``, runs every window, tracked or replayed, for
one replica or a group.  Each replica walks its chains (the n vertex chains
of a tracked run, or the one chain of a replay) with the driver as one more
chain.  In the opening phase one replica of at most _LIST_CHAINS chains,
which is every replay, holds them as float lists, stepped together by
``chain._step_lists``; a group stacks its replicas' matrices in one float
array, every shared step one ``chain._apply_step`` on index arrays for all
chains, and one larger replica steps its matrix on scalar indices.  The
closing phase walks each replica's chains as float lists: a shared step
is one ``_step_lists``, and every marked-time attempt one
``couplings._subset_couple_columns`` call on the followers against the
driver, which steps the lists in place.  Every attempt's outcome is
committed.  A tracked run notes why its first failing column failed and
attempts no more; a replayed chain attempts at every marked time before
its cutoff, with its own slope and intercept, and resolves its own
failures from per-block remainder draws.  The map each window applies
is thus one fixed function of the stream, no matter when or beside which
replicas it is walked.  Window 1 has the same geometry for every replica,
so ``experiments.run_cftp`` walks it for groups of samples
(``_first_epochs``); ``cftp_sample`` walks deeper windows and replays with
one replica.  If the budget of window doublings is exhausted without a
certificate the sampler raises instead of returning a biased point.

Randomness is counter-addressed (see :mod:`.streams`): the step at absolute
time t owns block -t - 1, so a step's draws never depend on which window or
replay consults them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import SimplexPoint, _apply_step, _step_count, _step_lists
from .couplings import _subset_couple_columns
from .partitions import EdgeSchedule, PartitionAnalysis, analyze_schedule
from .streams import _draws_backward_batch, aux_uniform

# first-window phase lengths in units of n * ln(n)
PHASE1_MULT = 12
PHASE2_MULT = 2

MAX_DOUBLINGS_DEFAULT = 20

# ``_first_epochs`` walks window 1 of at most this many replicas at once,
# and of fewer when their matrices would hold more than _GROUP_ENTRIES
# doubles (8 MiB), so a group's memory stays bounded for every n
_GROUP_REPLICAS = 64
_GROUP_ENTRIES = 1 << 20

# ``_walk_windows`` steps one replica of at most this many chains as float
# lists.  Measured per shared step: the array costs 2.0-2.2 us at 17 to 65
# chains; the lists cost 1.2, 1.4, 2.0-2.2, 2.3-2.6, 3.1-3.3 and 3.9-4.1 us
# at 17, 25, 33, 41, 49 and 65 chains, so they stop paying near 32
_LIST_CHAINS = 32


def phase1_steps(n: int) -> int:
    """Opening-phase length of the first window: ceil(12 n ln n)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return int(math.ceil(PHASE1_MULT * n * math.log(n)))


def phase2_steps(n: int) -> int:
    """Closing-phase length of the first window: ceil(2 n ln n)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return int(math.ceil(PHASE2_MULT * n * math.log(n)))


def window_geometry(n: int, k: int) -> tuple[int, int, int, int]:
    """Block range and phase split of window k (1-based).

    Returns (lo, hi, p1, p2): the window owns blocks [lo, hi), runs its
    first p1 steps as the shared opening phase and its last p2 steps as the
    coupling phase.  Window 1 covers blocks [0, T); window k covers
    [T * 2^(k-2), T * 2^(k-1)), and the phase split keeps the first
    window's 2/14 closing proportion (exactly, since the lengths double).
    """
    if k < 1:
        raise ValueError(f"window index must be >= 1, got {k}")
    t1, t2 = phase1_steps(n), phase2_steps(n)
    t = t1 + t2
    hi = t << (k - 1)
    lo = 0 if k == 1 else t << (k - 2)
    length = hi - lo
    p2 = (length * t2 + t - 1) // t
    return lo, hi, length - p2, p2


@dataclass(frozen=True)
class FailureNote:
    """First failed column attempt of a window, kept for diagnostics.

    lo and hi are the clipped image interval of the attempted relation: the
    remainder law of the failed coupling is uniform outside [lo, hi] plus a
    thinned slice inside, so the two endpoints describe it completely.
    reason says why the attempt failed: "out_of_range" (the candidate
    fraction left [0, 1]), "thinned" (the coin exceeded min(1, m)),
    "degenerate" (a pair sum gave no usable relation) or "nudge_refused"
    (the relation held but no exact piece-weight match was found within
    ENFORCE_TOL).  ``EpochRecord.to_json_dict`` writes every field of the
    note except reason.
    """

    time: int
    column: int
    m: float
    delta: float
    lo: float
    hi: float
    reason: str


@dataclass(frozen=True)
class EpochRecord:
    """Outcome of one window's tracked run.

    master and replica identify the stream, so the record alone suffices to
    replay the window.  cutoff is the closing-phase time of the first
    tracked failure (None when every attempt succeeded); replays through
    this window attempt couplings only at marked times strictly before it,
    where every tracked column succeeded.  final is the collided
    point when the window certified.
    """

    n: int
    master: int
    replica: int
    k: int
    lo: int
    hi: int
    p1: int
    p2: int
    connected: bool
    marked: tuple[int, ...]
    cutoff: int | None
    coalesced: bool
    failure: FailureNote | None
    final: SimplexPoint | None

    def to_json_dict(self) -> dict:
        """JSON form for audit logs; replayable given the same build."""
        fail = None
        if self.failure is not None:
            # degenerate attempts can carry non-finite m/delta; keep JSON strict
            fail = {
                "time": self.failure.time,
                "column": self.failure.column,
                "m": self.failure.m if math.isfinite(self.failure.m) else None,
                "delta": self.failure.delta if math.isfinite(self.failure.delta) else None,
                "remainder_lo": self.failure.lo,
                "remainder_hi": self.failure.hi,
            }
        return {
            "n": self.n,
            "master": self.master,
            "replica": self.replica,
            "window": self.k,
            "blocks": [self.lo, self.hi],
            "phase_lengths": [self.p1, self.p2],
            "connected": self.connected,
            "marked_times": list(self.marked),
            "cutoff": self.cutoff,
            "coalesced": self.coalesced,
            "failure": fail,
            "final": None if self.final is None else self.final.to_list(),
        }


class BudgetExhaustedError(RuntimeError):
    """No window certified within the allowed number of doublings."""

    def __init__(self, n: int, master: int, replica: int, doublings: int) -> None:
        super().__init__(
            f"no collision within {doublings} window doublings "
            f"(n={n}, master={master}, replica={replica})"
        )
        self.n = n
        self.master = master
        self.replica = replica
        self.doublings = doublings


def _failure_note(s: int, cpls) -> FailureNote | None:
    """Note of the first failed column of the attempt at closing time s."""
    v = next((v for v, c in enumerate(cpls) if not c.success), None)
    if v is None:
        return None
    c = cpls[v]
    fin = math.isfinite(c.m) and math.isfinite(c.delta)
    return FailureNote(
        time=s, column=v + 1, m=c.m, delta=c.delta,
        lo=max(0.0, min(1.0, c.delta)) if fin else 0.0,
        hi=max(0.0, min(1.0, c.m + c.delta)) if fin else 0.0,
        reason=c.reason,
    )


def _remainder_draw(master: int, replica: int, block: int):
    """The block's remainder uniform as a one-shot zero-argument callable.

    The uniform is derived by ``aux_uniform`` on the first call only; every
    later call returns the same value.  An attempt in which every relation
    holds thus derives none, and its failed columns share one.
    """
    drawn = []

    def aux() -> float:
        if not drawn:
            drawn.append(aux_uniform(master, replica, block))
        return drawn[0]

    return aux


def _walk_windows(
    starts: np.ndarray, master: int, replicas, lo: int, hi: int, p2: int, cutoffs=None
) -> list[tuple[PartitionAnalysis, np.ndarray, np.ndarray, FailureNote | None]]:
    """Walk window [lo, hi) forward in time for R replicas at once.

    starts is an (R, n, C) array: replica replicas[r] walks the C columns
    starts[r] with the barycenter driver as one more chain.  A shared step
    is the exact split of each chain's pair sum, so every chain is the
    single-chain trajectory of its start, bit for bit, however it is held;
    started from the identity, the columns carry the opening phase's map,
    which acts linearly (up to rounding) on any start.  Each replica's
    blocks are decoded in bounded chunks by ``streams._draws_backward_batch``
    and its closing schedule analyzed on its own.

    The opening phase, blocks [lo + p2, hi) in time order, applies every
    draw as a shared step.  One replica of at most _LIST_CHAINS chains
    (every replay, and a tracked run at n < _LIST_CHAINS) holds them as
    C + 1 float lists stepped by ``chain._step_lists``.  Any other walk
    holds its R matrices stacked as one (R * n, C + 1) float array, row i of
    matrix r (1-based) being its row r * n + i - 1, and steps all of them
    with one ``chain._apply_step``: on index arrays for a group, on Python
    scalars for one replica.

    The closing phase walks one replica after another, its matrix taken as
    C + 1 float lists.  Time s (1-based) owns block lo + p2 - s.  Every time
    is one ``_step_lists``, except the replica's marked times before its
    cutoff, where all its columns attempt the fraction coupling against its
    driver in one ``_subset_couple_columns`` call, which steps the lists in
    place; a failed relation draws its remainder from the block
    (``_remainder_draw``: ``aux_uniform``, derived at most once and only
    when a relation fails).  Every attempt's outcome is
    committed.  cutoffs=None is the tracked run: at a replica's first
    attempt with a failed column it notes the first such column and
    attempts no more, taking the shared steps to the end of the window, so
    a failed window ends where its replay with cutoff note.time + 1 ends.
    A sequence of recorded cutoffs, one per replica, is the replay.  With
    hi = lo + p2 the opening phase is empty.

    Returns, per replica: the schedule's analysis, its C columns, its
    driver and its failure note.
    """
    reps, n, cols = starts.shape
    center = SimplexPoint.center(n).values
    if reps == 1 and cols + 1 <= _LIST_CHAINS:
        walk = [*starts[0].T.tolist(), center.tolist()]
        step = _step_lists
        held = [walk]
    else:
        walk = np.empty((reps * n, cols + 1))
        step = _apply_step
        mat = walk.reshape(reps, n, cols + 1)
        mat[:, :, :cols] = starts
        mat[:, :, cols] = center
        held = (m.T.tolist() for m in mat)  # one replica's lists at a time
        base = np.arange(reps)[:, None] * n - 1  # row i (1-based) of matrix r is walk row base[r] + i
    for ii, jj, lams, _coins in _draws_backward_batch(master, replicas, lo + p2, hi, n):
        if reps == 1:
            times = zip((ii[0] - 1).tolist(), (jj[0] - 1).tolist(), lams[0].tolist())
        else:
            times = zip((ii + base).T, (jj + base).T, lams.T[:, :, None])
        for i0, j0, lam in times:
            step(walk, i0, j0, lam)

    ii, jj, us, coins = (
        np.concatenate(parts, axis=1)
        for parts in zip(*_draws_backward_batch(master, replicas, lo, lo + p2, n))
    )
    walked = []
    for r, chains in enumerate(held):
        analysis = analyze_schedule(EdgeSchedule(n, np.stack((ii[r], jj[r]), axis=-1)))
        cutoff = p2 + 1 if cutoffs is None else cutoffs[r]
        tries = {s for s in analysis.marked if s < cutoff} if analysis.connected else set()
        note = None
        closing = zip((ii[r] - 1).tolist(), (jj[r] - 1).tolist(), us[r].tolist(), coins[r].tolist())
        for s, (i0, j0, u, coin) in enumerate(closing, start=1):
            if s not in tries or note is not None:
                _step_lists(chains, i0, j0, u)
                continue
            aux = _remainder_draw(master, replicas[r], lo + p2 - s)
            cpls = _subset_couple_columns(chains[:cols], chains[cols], analysis.splits[s], u, coin, aux)
            if cutoffs is None:
                note = _failure_note(s, cpls)
        out = np.array(chains).T
        walked.append((analysis, out[:, :cols], out[:, cols], note))
    return walked


def _epoch_record(
    n: int, master: int, replica: int, k: int,
    analysis: PartitionAnalysis, cols: np.ndarray, driver: np.ndarray, failure: FailureNote | None,
) -> EpochRecord:
    """Window k's record from its tracked walk, the certificate checked."""
    lo, hi, p1, p2 = window_geometry(n, k)
    coalesced = analysis.connected and failure is None
    final: SimplexPoint | None = None
    if coalesced:
        differs = (cols != driver[:, None]).any(axis=0)
        if differs.any():
            raise RuntimeError(
                f"window {k} certificate violated: column {int(differs.argmax()) + 1} "
                "differs from the driver after full success"
            )
        final = SimplexPoint(driver)
    return EpochRecord(
        n=n, master=master, replica=replica, k=k, lo=lo, hi=hi, p1=p1, p2=p2,
        connected=analysis.connected, marked=analysis.marked,
        cutoff=None if failure is None else failure.time,
        coalesced=coalesced, failure=failure, final=final,
    )


def run_epoch(n: int, master: int, replica: int, k: int) -> EpochRecord:
    """Run window k's tracked chains and report whether it certified."""
    lo, hi, _p1, p2 = window_geometry(n, k)
    walked = _walk_windows(np.eye(n)[None], master, (replica,), lo, hi, p2)
    return _epoch_record(n, master, replica, k, *walked[0])


def _first_epochs(n: int, master: int, samples: int):
    """Window 1's record of each replica 0 .. samples - 1, in replica order.

    The replicas are walked in groups by ``_walk_windows``, each record
    equal to ``run_epoch(n, master, replica, 1)`` bit for bit, since a
    replica's walk does not depend on the others in its group.  A group
    holds at most _GROUP_REPLICAS replicas and _GROUP_ENTRIES matrix
    entries; a group of one (every group when n >= 724) is the same walk
    with one replica, as ``run_epoch`` takes it.
    """
    lo, hi, _p1, p2 = window_geometry(n, 1)
    size = max(1, min(_GROUP_REPLICAS, _GROUP_ENTRIES // (n * (n + 1))))
    for start in range(0, samples, size):
        group = range(start, min(samples, start + size))
        starts = np.broadcast_to(np.eye(n), (len(group), n, n))
        for replica, walked in zip(group, _walk_windows(starts, master, group, lo, hi, p2)):
            yield _epoch_record(n, master, replica, 1, *walked)


def propagate_through_epoch(value: SimplexPoint, record: EpochRecord) -> SimplexPoint:
    """Push a point forward through one examined window's map.

    The replayed chain is the one follower column of a one-replica replay
    through ``_walk_windows``, the walk of the tracked run, so it faces the
    same per-step draws: shared steps everywhere except marked closing-phase
    times before the window's cutoff, where it attempts the coupling against
    the re-derived driver with its own slope and intercept and, on failure,
    draws its fraction from the block's remainder uniform.  For a certified
    window the map is constant in exact arithmetic: each attempt's success
    region is an intersection of half-spaces containing all the vertex
    columns, hence the whole simplex.  In floating point an input's attempt
    can still fail when its exact-weight nudge is refused at ENFORCE_TOL
    (the uniform point that the golden file replays through window n=8,
    master=1, replica=7, k=2 fails once); the replay then commits its
    remainder draw and attempts again at later marked times.  That such a
    replay still ends on the recorded collided point is checked by the
    tests on a grid of windows and inputs, not proven.
    """
    if value.n != record.n:
        raise ValueError(f"point has n={value.n}, window has n={record.n}")
    cutoff = record.p2 + 1 if record.cutoff is None else record.cutoff
    analysis, follower, _driver, _note = _walk_windows(
        value.values[None, :, None], record.master, (record.replica,),
        record.lo, record.hi, record.p2, (cutoff,),
    )[0]
    if analysis.connected != record.connected or analysis.marked != record.marked:
        raise RuntimeError("replayed schedule disagrees with the recorded window")
    return SimplexPoint(follower[:, 0])


@dataclass(frozen=True)
class CftpResult:
    """One exact draw plus the window log that produced it."""

    point: SimplexPoint
    epochs: tuple[EpochRecord, ...]

    @property
    def doublings(self) -> int:
        return len(self.epochs)

    @property
    def total_steps(self) -> int:
        """Steps spent in tracked windows (replays excluded)."""
        return sum(r.hi - r.lo for r in self.epochs)


def cftp_sample(
    n: int,
    master: int,
    replica: int,
    max_doublings: int = MAX_DOUBLINGS_DEFAULT,
    *,
    first: EpochRecord | None = None,
) -> CftpResult:
    """Draw one exact uniform sample, or raise if the budget runs out.

    Deterministic in (n, master, replica): the same arguments always return
    the same bitwise point.  Each coordinate of the output has cdf
    1 - (1 - t)^(n - 1) on [0, 1].  The mixing law is always uniform: the
    closing-phase fraction coupling is built on uniform marginals, so the
    sampler takes no law.  first, if given, is window 1's record as
    ``run_epoch(n, master, replica, 1)`` returns it, already walked (as
    ``run_cftp`` walks it for many samples at once); it stands in for that
    call.  A record of another window or stream raises ValueError.
    """
    if _step_count(max_doublings, "max_doublings") < 1:
        raise ValueError("max_doublings must be >= 1")
    if first is not None and (first.n, first.master, first.replica, first.k) != (n, master, replica, 1):
        raise ValueError(
            f"first is window {first.k} of (n={first.n}, master={first.master}, "
            f"replica={first.replica}), not window 1 of (n={n}, master={master}, replica={replica})"
        )
    records: list[EpochRecord] = []
    for k in range(1, max_doublings + 1):
        rec = first if k == 1 and first is not None else run_epoch(n, master, replica, k)
        records.append(rec)
        if rec.coalesced:
            point = rec.final
            for earlier in records[-2::-1]:
                point = propagate_through_epoch(point, earlier)
            return CftpResult(point=point, epochs=tuple(records))
    raise BudgetExhaustedError(n, master, replica, max_doublings)
