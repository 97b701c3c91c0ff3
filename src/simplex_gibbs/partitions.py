"""Edge schedules and the split structure they induce.

An edge schedule assigns one coordinate pair (i(s), j(s)) to each time
s = 1..T.  For 0 <= t <= T let P(t) be the partition of {1..n} into
connected components of the graph whose edges are the pairs scheduled at
times strictly greater than t.  P(T) is all singletons, partitions refine
as t grows, and P(0) is connected exactly when the whole schedule is.

Time s is called marked when removing edge s splits a component: the
endpoints of edge s lie in different parts of P(s).  At a marked time the
part p(s) of P(s-1) containing both endpoints splits into the two pieces
that are its endpoints' parts in P(s).  A schedule has at most n - 1 marked
times, with equality iff it is connected.

The coupled runs in this package attempt a weight-matching coupling exactly
at the marked times, on the two pieces of the split; everything here is
pure bookkeeping shared by those runs and by the diagnostics.

An ``EdgeSchedule`` stores its pairs as one read-only (T, 2) int64 array,
16 bytes per time, checked by one array test in its constructor.
``analyze_schedule`` finds the marked times in one backward union-find pass
of O(T alpha(n) + n) time and O(n) memory beyond two int lists of the
array's columns, whatever the schedule.  The pass stops once the forest
spans [n], so a connected schedule is read back only to the latest time s
at which the edges of times s..T connect [n].  Its ``splits`` is a
read-only mapping whose records are built on first access: the record of a
marked time with part p(s) costs O(|p(s)| log |p(s)|) when it is first
read, so a caller that needs only connectivity or the marked times pays for
no record.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .chain import _pairs_at, _step_count, pair_count


@dataclass(frozen=True, eq=False, init=False)
class EdgeSchedule:
    """Length-T sequence of 1-based coordinate pairs, one per time step.

    ``edges`` holds the pairs as one read-only (T, 2) int64 array, row s - 1
    being the pair of time s.  Two schedules are equal when they have the
    same n and the same pairs.
    """

    n: int
    edges: np.ndarray

    def __init__(self, n: int, pairs) -> None:
        """Schedule of a sequence of (i, j) pairs or a (T, 2) integer array.

        Raises ValueError for an n that is not an integer (a bool included)
        or is below 2, a non-integer or boolean dtype, a shape other than
        (T, 2), or a pair outside 1 <= i < j <= n, naming the first such
        time.  n is stored as a Python int.  The pairs are copied, so later
        writes to the caller's array do not reach the schedule.
        """
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {n!r}")
        n = int(n)
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        a = np.asarray(pairs)
        if a.shape == (0,):  # an empty sequence, whose dtype numpy cannot infer
            a = np.empty((0, 2), np.int64)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"pairs must have shape (T, 2), got {a.shape}")
        if a.dtype.kind not in "iu":
            raise ValueError(f"pairs must be integers, got dtype {a.dtype}")
        i, j = a[:, 0], a[:, 1]
        ok = (1 <= i) & (i < j) & (j <= n)
        if not ok.all():
            s = int(ok.argmin())
            raise ValueError(f"pair ({i[s]}, {j[s]}) at time {s + 1} out of range for n={n}")
        edges = a.astype(np.int64)
        edges.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @property
    def T(self) -> int:
        return self.edges.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeSchedule):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges.tobytes()))

    @classmethod
    def sample(cls, n: int, T: int, rng: np.random.Generator) -> "EdgeSchedule":
        """Draw T independent uniform unordered pairs."""
        T = _step_count(T, "T")
        edges = np.empty((T, 2), dtype=np.int64)
        edges[:, 0], edges[:, 1] = _pairs_at(n, rng.integers(0, pair_count(n), size=T))
        return cls(n, edges)


@dataclass(frozen=True)
class SplitRecord:
    """One marked time: part p(s) of P(s-1) and its two pieces in P(s).

    piece_small is S(s, 1): the smaller piece, ties broken toward the piece
    containing the smaller coordinate.  piece_i and piece_j are the same two
    pieces keyed by which endpoint of edge s they contain.
    """

    time: int
    i: int
    j: int
    part: tuple[int, ...]
    piece_i: tuple[int, ...]
    piece_j: tuple[int, ...]

    @property
    def piece_small(self) -> tuple[int, ...]:
        a, b = self.piece_i, self.piece_j
        if len(a) != len(b):
            return a if len(a) < len(b) else b
        return a if a[0] < b[0] else b


@dataclass(frozen=True)
class PartitionAnalysis:
    """Marked times and split records for one schedule.

    ``splits`` is a read-only mapping from each marked time, keyed and
    iterated in ``marked`` order, to its ``SplitRecord``.  A record is built
    on first access and cached, so a caller that reads only ``marked`` or
    ``connected`` builds none.  ``splits.get(s)`` and ``s in splits`` answer
    for an unmarked s without building or raising.
    """

    schedule: EdgeSchedule
    marked: tuple[int, ...]
    splits: Mapping[int, SplitRecord]

    @property
    def connected(self) -> bool:
        return len(self.marked) == self.schedule.n - 1


class _LazySplits(Mapping[int, SplitRecord]):
    """The split records of one backward pass, each built on first access.

    ``rows`` maps each marked time, in increasing order, to
    (i, j, root_i, size_i, root_j, size_j): the roots and sizes of the
    endpoints' components just before the pass joined them.  ``succ`` maps
    each coordinate to the next member of its chain (0 ends a chain); every
    component the pass formed is the run of its size that starts at its
    root.  ``parent`` marks the final roots, where the chains start.
    """

    __slots__ = ("_rows", "_parent", "_succ", "_order", "_pos", "_built")

    def __init__(self, rows: dict[int, tuple[int, int, int, int, int, int]],
                 parent: list[int], succ: list[int]) -> None:
        self._rows, self._parent, self._succ = rows, parent, succ
        self._order: list[int] | None = None
        self._pos: list[int] = []
        self._built: dict[int, SplitRecord] = {}

    def _lay_out(self) -> None:
        """Concatenate the final chains into one order and index it."""
        parent, succ = self._parent, self._succ
        order, pos = [], [0] * len(succ)
        for r in range(1, len(succ)):
            if parent[r] != r:
                continue
            k = r
            while k:
                pos[k] = len(order)
                order.append(k)
                k = succ[k]
        self._order, self._pos = order, pos

    def __getitem__(self, s: int) -> SplitRecord:
        rec = self._built.get(s)
        if rec is None:
            i, j, ri, ni, rj, nj = self._rows[s]
            if self._order is None:
                self._lay_out()
            order, pos = self._order, self._pos
            piece_i = tuple(sorted(order[pos[ri]:pos[ri] + ni]))
            piece_j = tuple(sorted(order[pos[rj]:pos[rj] + nj]))
            part = tuple(sorted(piece_i + piece_j))
            rec = self._built[s] = SplitRecord(s, i, j, part, piece_i, piece_j)
        return rec

    def get(self, s: int, default: SplitRecord | None = None) -> SplitRecord | None:
        return self[s] if s in self._rows else default

    def __contains__(self, s: object) -> bool:
        return s in self._rows

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def analyze_schedule(schedule: EdgeSchedule) -> PartitionAnalysis:
    """Walk the schedule backward and note every marked time's split.

    At time s (processed from T down to 1) the components joined so far are
    exactly the parts of P(s); edge s is marked iff its endpoints lie in
    different parts, and the part they form together is p(s) in P(s-1).
    The components form a union-find forest (union by size, path halving).
    A join appends the smaller component's member chain to the larger one's,
    so a chain only grows at its end, and every component ever formed stays
    a run of the final chains, starting at its root.  A marked time is
    therefore noted in O(1) as its endpoints' roots and component sizes.

    The pass reads the two columns of ``schedule.edges`` as int lists and
    stops at the (n - 1)-th join: the forest then spans [n], so no earlier
    time can be marked.  The edges it skips would only halve paths, which
    moves no root, size or chain, so the records are those of the full pass.
    A connected uniform random schedule is thus read back only about
    (n/2) ln n edges from its end, the length at which a random graph on
    [n] connects; the column lists still cost O(T).
    """
    n, edges = schedule.n, schedule.edges
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    tail = list(range(n + 1))
    succ = [0] * (n + 1)
    times: list[int] = []
    rows: list[tuple[int, int, int, int, int, int]] = []
    ii, jj = edges[:, 0].tolist(), edges[:, 1].tolist()
    for s, i, j in zip(range(len(ii), 0, -1), reversed(ii), reversed(jj)):
        ri, rj = i, j
        while parent[ri] != ri:
            parent[ri] = parent[parent[ri]]
            ri = parent[ri]
        while parent[rj] != rj:
            parent[rj] = parent[parent[rj]]
            rj = parent[rj]
        if ri == rj:
            continue
        si, sj = size[ri], size[rj]
        times.append(s)
        rows.append((i, j, ri, si, rj, sj))
        if si < sj:
            ri, rj = rj, ri
        parent[rj] = ri
        size[ri] = si + sj
        succ[tail[ri]] = rj
        tail[ri] = tail[rj]
        if len(times) == n - 1:
            break
    times.reverse()
    rows.reverse()
    splits = _LazySplits(dict(zip(times, rows)), parent, succ)
    return PartitionAnalysis(schedule=schedule, marked=tuple(times), splits=splits)


@dataclass(frozen=True)
class ProductBoundReport:
    """Per-coordinate split products against the 2n certification threshold.

    For coordinate l the product runs over the marked times whose splitting
    part contains l, with factor 1 + |S(s, 1)| / |p(s)| each.  The maximum
    over coordinates is the quantity certified to stay below 2n; it is in
    fact at most (n + 1) / 2 for every schedule.
    """

    n: int
    value: float
    per_coordinate: tuple[float, ...]
    threshold: float

    @property
    def ok(self) -> bool:
        return self.value <= self.threshold


def product_bound_check(analysis: PartitionAnalysis) -> ProductBoundReport:
    """Accumulate each coordinate's split-factor product and compare to 2n."""
    n = analysis.schedule.n
    prod = np.ones(n + 1)
    for s in analysis.marked:
        rec = analysis.splits[s]
        f = 1.0 + len(rec.piece_small) / len(rec.part)
        for l in rec.part:
            prod[l] *= f
    per = tuple(float(prod[l]) for l in range(1, n + 1))
    return ProductBoundReport(n=n, value=max(per), per_coordinate=per, threshold=2.0 * n)
