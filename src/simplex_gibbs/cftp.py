"""Perfect sampling from the uniform law via backward coupling windows.

The sampler examines disjoint windows of past time, nearest first, each
twice the length of the one before.  Inside a window it runs a grand
coupling of n + 1 tracked chains: the n vertex chains, carried jointly as a
:class:`TransitionMatrix`, and a barycenter chain that acts as the driver.
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

One walk, ``_walk_window``, runs every window of ``cftp_sample``, tracked
or replayed.  The tracked run carries the n vertex chains as the columns of a
:class:`TransitionMatrix`; a replay carries its one chain as a one-column
matrix.  In both the driver rides as the last column of the same matrix,
so every shared step is one ``TransitionMatrix.shared_step`` for the
followers and the driver together, and every marked-time attempt is one
call of ``couplings._subset_couple_columns`` on the follower columns
against the driver column.  The window's blocks are read and decoded in
bounded chunks.  The tracked run attempts all n columns at once and notes
why the first failing column failed; a replayed chain attempts with its
own slope and intercept and resolves its own failures from per-block
remainder draws.  The map each window applies is
thus one fixed function of the stream, no matter when it is replayed.  If
the budget of window doublings is exhausted without a certificate the
sampler raises instead of returning a biased point.

Window 1 has the same geometry for every replica, so a driver drawing many
samples walks it for a group of replicas at once (``_first_epochs``, used
by ``experiments.run_cftp``).  ``_walk_windows`` stacks the group's
matrices, driver as the last column, in one (R, n, n + 1) array: every
shared step is one gather, exact split and scatter of each replica's rows
i and j, and each replica marked at a closing time attempts on its own
matrix with the same kernel and failure policy as the tracked walk.  Its
records equal ``run_epoch``'s bit for bit, and ``cftp_sample`` takes one
as its window 1; deeper windows and replays stay per sample.

Randomness is counter-addressed (see :mod:`.streams`): the step at absolute
time t owns block -t - 1, so a step's draws never depend on which window or
replay consults them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .chain import SimplexPoint, _apply_step
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


@dataclass
class TransitionMatrix:
    """Chains stepped together, one per column, by shared pair-mixing steps.

    Started from the identity, column v holds the current state of the
    chain started at vertex e_(v+1).  Because each shared step acts
    linearly on the state, ``mat @ x`` for any starting point x reproduces
    (up to accumulated rounding, not bitwise) the chain run directly from
    x with the same draws.  A shared step is one ``chain._apply_step`` on
    the whole matrix, the same exact split as a single chain applied
    entrywise, so each column IS the single-chain trajectory of its start,
    bit for bit.  A replay carries its one replayed chain as a one-column
    matrix.  While a window is walked, the driver rides as one more column,
    the last, so a shared step moves the followers and the driver in one
    update.
    """

    mat: np.ndarray

    @classmethod
    def identity(cls, n: int) -> "TransitionMatrix":
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        return cls(np.eye(n))

    @property
    def n(self) -> int:
        return int(self.mat.shape[0])

    def shared_step(self, i: int, j: int, lam: float) -> None:
        """Apply one shared step with pair (i, j), 1-based, to all columns."""
        _apply_step(self.mat, i - 1, j - 1, lam)


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
    matching what the tracked chains committed.  final is the collided
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


def _walk_window(
    tm: TransitionMatrix,
    master: int,
    replica: int,
    lo: int,
    hi: int,
    p2: int,
    cutoff: int | None,
) -> tuple[PartitionAnalysis, np.ndarray, FailureNote | None]:
    """Walk window [lo, hi) forward in time, the columns of tm and the driver.

    The driver starts at the barycenter and rides as the last column of one
    matrix with the C columns of tm, so a shared step is one
    ``TransitionMatrix.shared_step`` for all C + 1 chains.  The opening
    phase, blocks [lo + p2, hi) in time order, applies every draw as a
    shared step.  In the closing phase, time s (1-based) owns block
    lo + p2 - s.  Every time is a shared step, except marked times before
    the cutoff, where every column attempts the fraction coupling against
    the driver column in one call of ``_subset_couple_columns``; a failed
    relation draws its remainder uniform from the block (``aux_uniform``,
    read at most once per time).  cutoff=None is the tracked run: it
    attempts at every marked time and stops at the first attempt with a
    failed column, with the note of the first such column, because nothing
    after it is read.  A recorded cutoff is the replay: its column commits
    every outcome and the walk runs to the end.  With hi = lo + p2 the
    opening phase is empty and the walk starts the closing phase from the
    given columns.  Blocks are read and decoded in bounded chunks by
    ``streams._draws_backward_batch`` with this one replica, row 0 of each
    chunk; the closing phase's draws are kept for its schedule analysis.

    tm is stepped in place.  Returns the schedule's analysis, the driver
    state and the failure note.  An attempt's outcome is written back only
    after the failure check, so after a tracked failure the driver and tm
    stand as they were before the failed attempt.
    """
    n, cols = tm.mat.shape
    walk = TransitionMatrix(np.column_stack((tm.mat, SimplexPoint.center(n).values)))
    mat, shared_step = walk.mat, walk.shared_step
    for ii, jj, lams, _coins in _draws_backward_batch(master, (replica,), lo + p2, hi, n):
        for i, j, lam in zip(ii[0].tolist(), jj[0].tolist(), lams[0].tolist()):
            shared_step(i, j, lam)

    ii, jj, us, coins = (
        np.concatenate(parts, axis=1)[0]
        for parts in zip(*_draws_backward_batch(master, (replica,), lo, lo + p2, n))
    )
    analysis = analyze_schedule(EdgeSchedule(n, np.column_stack((ii, jj))))
    us, coins = us.tolist(), coins.tolist()
    last = p2 if cutoff is None else cutoff - 1
    note = None
    for s, (i, j, u) in enumerate(zip(ii.tolist(), jj.tolist(), us), start=1):
        rec = analysis.splits.get(s) if analysis.connected and s <= last else None
        if rec is None:
            shared_step(i, j, u)
            continue
        aux = cache(partial(aux_uniform, master, replica, lo + p2 - s))
        xs, y, cpls = _subset_couple_columns(mat[:, :cols], mat[:, cols], rec, u, coins[s - 1], aux)
        if cutoff is None:
            note = _failure_note(s, cpls)
            if note is not None:
                break
        mat[:, :cols] = xs
        mat[:, cols] = y
    tm.mat = mat[:, :cols].copy()
    return analysis, mat[:, cols].copy(), note


def _walk_windows(
    starts: np.ndarray, master: int, replicas, lo: int, hi: int, p2: int
) -> list[tuple[PartitionAnalysis, np.ndarray, np.ndarray, FailureNote | None]]:
    """The tracked ``_walk_window`` of window [lo, hi) for R replicas at once.

    starts is an (R, n, C) array: replica replicas[r] walks from the C
    columns starts[r], with the barycenter driver as one more column, all R
    matrices in one (R, n, C + 1) array.  A shared step of all of them is
    one ``chain._apply_step`` on their stacked rows.  Each replica's blocks
    are decoded by ``streams._draws_backward_batch`` and its closing
    schedule analyzed on its own.  At each closing time the live replicas without an attempt
    there take the shared step together, and each replica marked there
    attempts on its own matrix with ``_subset_couple_columns``.  A replica
    stops at its first failed attempt, as the tracked walk does, and keeps
    its state from before that attempt.

    Returns, per replica, what ``_walk_window(tm, master, replica, lo, hi,
    p2, None)`` returns from those columns, bit for bit: the schedule's
    analysis, the columns tm would hold, the driver and the failure note.
    """
    reps, n, cols = starts.shape
    mat = np.empty((reps, n, cols + 1))
    mat[:, :, :cols] = starts
    mat[:, :, cols] = SimplexPoint.center(n).values
    flat = mat.reshape(reps * n, cols + 1)
    base = np.arange(reps)[:, None] * n - 1  # 1-based row i of matrix r is flat row base[r] + i
    for ii, jj, lams, _coins in _draws_backward_batch(master, replicas, lo + p2, hi, n):
        for ri, rj, lam in zip((ii + base).T, (jj + base).T, lams.T[:, :, None]):
            _apply_step(flat, ri, rj, lam)

    ii, jj, us, coins = (
        np.concatenate(parts, axis=1)
        for parts in zip(*_draws_backward_batch(master, replicas, lo, lo + p2, n))
    )
    analyses = [analyze_schedule(EdgeSchedule(n, e)) for e in np.stack((ii, jj), axis=-1)]
    marked = np.zeros((p2, reps), dtype=bool)
    for r, analysis in enumerate(analyses):
        if analysis.connected:
            marked[[s - 1 for s in analysis.marked], r] = True
    rows_i, rows_j = (ii + base).T, (jj + base).T
    live = np.ones(reps, dtype=bool)
    notes: list[FailureNote | None] = [None] * reps
    for s in range(1, p2 + 1):
        t = s - 1
        attempts = marked[t] & live
        step = np.flatnonzero(live & ~attempts)
        _apply_step(flat, rows_i[t, step], rows_j[t, step], us[step, t][:, None])
        for r in np.flatnonzero(attempts).tolist():
            aux = cache(partial(aux_uniform, master, replicas[r], lo + p2 - s))
            xs, y, cpls = _subset_couple_columns(
                mat[r, :, :cols], mat[r, :, cols], analyses[r].splits[s],
                float(us[r, t]), float(coins[r, t]), aux,
            )
            notes[r] = _failure_note(s, cpls)
            if notes[r] is None:
                mat[r, :, :cols] = xs
                mat[r, :, cols] = y
            else:
                live[r] = False
    return [
        (analyses[r], mat[r, :, :cols].copy(), mat[r, :, cols].copy(), notes[r])
        for r in range(reps)
    ]


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
    tm = TransitionMatrix.identity(n)
    analysis, center, failure = _walk_window(tm, master, replica, lo, hi, p2, None)
    return _epoch_record(n, master, replica, k, analysis, tm.mat, center, failure)


def _first_epochs(n: int, master: int, samples: int):
    """Window 1's record of each replica 0 .. samples - 1, in replica order.

    The replicas are walked in groups by ``_walk_windows``, each record
    equal to ``run_epoch(n, master, replica, 1)`` bit for bit.  A group
    holds at most _GROUP_REPLICAS replicas and _GROUP_ENTRIES matrix
    entries.  A group of one replica yields None instead, since one walk is
    faster through ``run_epoch``; ``cftp_sample`` then runs it.
    """
    lo, hi, _p1, p2 = window_geometry(n, 1)
    size = max(1, min(_GROUP_REPLICAS, _GROUP_ENTRIES // (n * (n + 1))))
    for start in range(0, samples, size):
        group = range(start, min(samples, start + size))
        if len(group) == 1:
            yield None
            continue
        starts = np.broadcast_to(np.eye(n), (len(group), n, n))
        for replica, walked in zip(group, _walk_windows(starts, master, group, lo, hi, p2)):
            yield _epoch_record(n, master, replica, 1, *walked)


def propagate_through_epoch(value: SimplexPoint, record: EpochRecord) -> SimplexPoint:
    """Push a point forward through one examined window's map.

    The replayed chain is carried as a one-column TransitionMatrix through
    the same walk as the tracked run, so it faces the same per-step draws:
    shared steps everywhere except marked closing-phase times before the
    window's cutoff, where it attempts the coupling against the re-derived
    driver with its own slope and intercept and, on failure, draws its
    fraction from the block's remainder uniform.  For a certified window
    the map is constant in exact arithmetic: each attempt's success region
    is an intersection of half-spaces containing all the vertex columns,
    hence the whole simplex.  In floating point an input's attempt can
    still fail when its exact-weight nudge is refused at ENFORCE_TOL (the
    uniform point that the golden file replays through window n=8,
    master=1, replica=7, k=2 fails once); the replay then commits its
    remainder draw and attempts again at later marked times.  That such a
    replay still ends on the recorded collided point is checked by the
    tests on a grid of windows and inputs, not proven.
    """
    if value.n != record.n:
        raise ValueError(f"point has n={value.n}, window has n={record.n}")
    follower = TransitionMatrix(np.array(value.values[:, None]))
    cutoff = record.p2 + 1 if record.cutoff is None else record.cutoff
    analysis, _, _ = _walk_window(
        follower, record.master, record.replica, record.lo, record.hi, record.p2, cutoff
    )
    if analysis.connected != record.connected or analysis.marked != record.marked:
        raise RuntimeError("replayed schedule disagrees with the recorded window")
    return SimplexPoint(follower.mat[:, 0])


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
    if max_doublings < 1:
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
