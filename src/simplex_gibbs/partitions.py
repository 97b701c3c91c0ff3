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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from simplex_gibbs.chain import _pairs_at, pair_count


@dataclass(frozen=True)
class EdgeSchedule:
    """Length-T sequence of 1-based coordinate pairs, one per time step."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        for s, (i, j) in enumerate(self.pairs, start=1):
            if not 1 <= i < j <= self.n:
                raise ValueError(f"bad pair ({i}, {j}) at time {s} for n={self.n}")

    @property
    def T(self) -> int:
        return len(self.pairs)

    @classmethod
    def sample(cls, n: int, T: int, rng: np.random.Generator) -> "EdgeSchedule":
        """Draw T independent uniform unordered pairs."""
        if T < 0:
            raise ValueError("T must be nonnegative")
        i, j = _pairs_at(n, rng.integers(0, pair_count(n), size=T))
        return cls(n, tuple(zip(i.tolist(), j.tolist())))

    def to_lists(self) -> list[list[int]]:
        """JSON form: [[i, j], ...] in time order."""
        return [[i, j] for i, j in self.pairs]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": self.to_lists()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "EdgeSchedule":
        """Inverse of to_json_dict; validates through the constructor."""
        return cls(int(d["n"]), tuple((int(i), int(j)) for i, j in d["edges"]))


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
    """Marked times and split records for one schedule."""

    schedule: EdgeSchedule
    marked: tuple[int, ...]
    splits: dict[int, SplitRecord]

    @property
    def connected(self) -> bool:
        return len(self.marked) == self.schedule.n - 1


class _UnionFind:
    """Union-find over 1..n with explicit member lists."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n + 1))
        self.members = {k: [k] for k in range(1, n + 1)}

    def find(self, k: int) -> int:
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if len(self.members[ra]) < len(self.members[rb]):
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.members[ra].extend(self.members.pop(rb))


def analyze_schedule(schedule: EdgeSchedule) -> PartitionAnalysis:
    """Walk the schedule backward and record every marked time's split.

    At time s (processed from T down to 1) the components accumulated so far
    are exactly the parts of P(s); edge s is marked iff its endpoints lie in
    different parts, and the part they form together is p(s) in P(s-1).
    """
    uf = _UnionFind(schedule.n)
    marked: list[int] = []
    splits: dict[int, SplitRecord] = {}
    for s in range(schedule.T, 0, -1):
        i, j = schedule.pairs[s - 1]
        ri, rj = uf.find(i), uf.find(j)
        if ri == rj:
            continue
        piece_i = tuple(sorted(uf.members[ri]))
        piece_j = tuple(sorted(uf.members[rj]))
        part = tuple(sorted(piece_i + piece_j))
        splits[s] = SplitRecord(time=s, i=i, j=j, part=part, piece_i=piece_i, piece_j=piece_j)
        marked.append(s)
        uf.union(i, j)
    return PartitionAnalysis(schedule=schedule, marked=tuple(sorted(marked)), splits=splits)


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
