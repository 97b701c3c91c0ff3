"""Schedule partition structure against a brute-force reference."""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from simplex_gibbs.partitions import (
    EdgeSchedule,
    PartitionAnalysis,
    SplitRecord,
    analyze_schedule,
    product_bound_check,
)

from conftest import ALPHA


# ------------------------------------------------------------- reference


def _components(n, edges):
    """Connected components by plain BFS over an explicit adjacency map."""
    adj = {k: set() for k in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, parts = set(), []
    for start in range(1, n + 1):
        if start in seen:
            continue
        queue, comp = [start], set()
        while queue:
            v = queue.pop()
            if v in comp:
                continue
            comp.add(v)
            queue.extend(adj[v] - comp)
        seen |= comp
        parts.append(tuple(sorted(comp)))
    return tuple(sorted(parts, key=lambda p: p[0]))


def _pairs(schedule):
    """The schedule's pairs as (i, j) tuples of Python ints, in time order.

    Convert once per schedule: a conversion per time step makes the grid
    tests quadratic in T.
    """
    return list(map(tuple, schedule.edges.tolist()))


def _partition_at(n, pairs, t):
    """P(t): components of the graph of the pairs scheduled after time t."""
    assert 0 <= t <= len(pairs)
    return _components(n, pairs[t:])


def _reference_analysis(n, pairs):
    """Marked times and splits computed directly from the definition."""
    T = len(pairs)
    marked, splits = [], {}
    for s in range(1, T + 1):
        later = pairs[s:]
        parts_after = _components(n, later)
        i, j = pairs[s - 1]
        part_of = {v: p for p in parts_after for v in p}
        if part_of[i] is part_of[j]:
            continue
        marked.append(s)
        splits[s] = (part_of[i], part_of[j])
    return marked, splits


def _all_pairs(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def _analyze_eager(schedule):
    """The eager backward pass: every record's sorted pieces built in the pass.

    Union-find with one explicit member list per root; at each marked time
    both pieces and their union are copied and sorted.  O(n^2) work, kept as
    the oracle for the lazy ``analyze_schedule``.
    """
    parent = list(range(schedule.n + 1))
    members = {k: [k] for k in range(1, schedule.n + 1)}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    marked, splits = [], {}
    pairs = _pairs(schedule)
    for s in range(schedule.T, 0, -1):
        i, j = pairs[s - 1]
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        piece_i = tuple(sorted(members[ri]))
        piece_j = tuple(sorted(members[rj]))
        part = tuple(sorted(piece_i + piece_j))
        splits[s] = SplitRecord(time=s, i=i, j=j, part=part, piece_i=piece_i, piece_j=piece_j)
        marked.append(s)
        if len(members[ri]) < len(members[rj]):
            ri, rj = rj, ri
        parent[rj] = ri
        members[ri].extend(members.pop(rj))
    return PartitionAnalysis(schedule=schedule, marked=tuple(sorted(marked)), splits=splits)


def _oracle_grid():
    """Schedules at n in {2, 3, 16, 64, 1024}: 20 seeds of each length
    T in {0, 1, n, ceil(2 n ln n)}, and 5 of T = ceil(20 n ln n), which
    connects far from time 1, so the backward pass stops early on it."""
    for n in (2, 3, 16, 64, 1024):
        long = math.ceil(20 * n * math.log(n))
        for T in sorted({0, 1, n, math.ceil(2 * n * math.log(n)), long}):
            for seed in range(5 if T == long else 20):
                yield EdgeSchedule.sample(n, T, np.random.default_rng([n, T, seed]))


# ------------------------------------------------------------- exhaustive


@pytest.mark.parametrize("n,maxT", [(3, 3), (4, 4)])
def test_analysis_matches_reference_exhaustively(n, maxT):
    pairs_pool = _all_pairs(n)
    for T in range(0, maxT + 1):
        for combo in itertools.product(pairs_pool, repeat=T):
            sched = EdgeSchedule(n, combo)
            ana = analyze_schedule(sched)
            ref_marked, ref_splits = _reference_analysis(n, list(combo))
            assert list(ana.marked) == ref_marked, combo
            for s in ref_marked:
                rec = ana.splits[s]
                assert rec.piece_i == ref_splits[s][0], combo
                assert rec.piece_j == ref_splits[s][1], combo
                assert tuple(sorted(rec.piece_i + rec.piece_j)) == rec.part
            # connectivity agrees with the t = 0 component count
            assert ana.connected == (len(_components(n, list(combo))) == 1), combo


# ------------------------------------------------------------- eager oracle


def test_lazy_analysis_matches_eager_oracle():
    kinds = {"connected": 0, "disconnected": 0, "repeated_edge": 0}
    for sched in _oracle_grid():
        ana, oracle = analyze_schedule(sched), _analyze_eager(sched)
        assert ana.marked == oracle.marked
        assert ana.connected == oracle.connected
        for s in oracle.marked:
            assert ana.splits[s] == oracle.splits[s], (sched.n, sched.T, s)
        assert set(ana.splits) == set(oracle.splits)
        kinds["connected" if ana.connected else "disconnected"] += 1
        kinds["repeated_edge"] += len(set(_pairs(sched))) < sched.T
    # the grid reaches both outcomes and schedules that repeat an edge
    assert all(kinds.values()), kinds


def test_splits_is_a_read_only_mapping_built_on_access():
    for sched in (sch for sch in _oracle_grid() if sch.n <= 64):
        ana = analyze_schedule(sched)
        splits = ana.splits
        assert list(splits) == list(ana.marked)
        assert len(splits) == len(ana.marked)
        for s in set(range(sched.T + 2)) - set(ana.marked):
            assert splits.get(s) is None
            assert s not in splits
            with pytest.raises(KeyError):
                splits[s]
        for s in ana.marked:
            assert s in splits
            assert splits[s] is splits[s] is splits.get(s)
        if ana.marked:
            with pytest.raises(TypeError):
                splits[ana.marked[0]] = None


def test_analysis_memory_stays_linear_at_n4096():
    n = 4096
    sched = EdgeSchedule.sample(n, math.ceil(n * math.log(n)), np.random.default_rng(4096))
    tracemalloc.start()
    try:
        ana = analyze_schedule(sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the eager pass peaked near 66 MB on this schedule size, sorting copies
    # of both pieces and their union at every marked time
    assert peak < 8 * 2**20, peak
    assert len(ana.marked) <= n - 1


def test_prefix_before_spanning_suffix_shifts_marked_times():
    # once the suffix spans [n], no prefix time can be marked, and the pass
    # that stops there yields the suffix's own records, shifted in time
    for n, L in ((2, 5), (16, 300), (64, 40), (1024, 5000)):
        rng = np.random.default_rng([n, L])
        suffix = EdgeSchedule.sample(n, math.ceil(3 * n * math.log(n)) + 1, rng)
        short = analyze_schedule(suffix)
        assert short.connected
        prefix = EdgeSchedule.sample(n, L, rng)
        long = analyze_schedule(EdgeSchedule(n, np.concatenate((prefix.edges, suffix.edges))))
        assert long.marked == tuple(s + L for s in short.marked)
        assert min(long.marked) > L
        for s in short.marked:
            assert long.splits[s + L] == dataclasses.replace(short.splits[s], time=s + L)


# ------------------------------------------------------------- frozen


def test_frozen_three_coordinate_example():
    sched = EdgeSchedule(3, ((1, 2), (2, 3)))
    ana = analyze_schedule(sched)
    assert ana.marked == (1, 2)
    assert ana.connected
    pairs = _pairs(sched)
    assert _partition_at(3, pairs, 0) == ((1, 2, 3),)
    assert _partition_at(3, pairs, 1) == ((1,), (2, 3))
    assert _partition_at(3, pairs, 2) == ((1,), (2,), (3,))
    assert ana.splits[2].part == (2, 3)
    assert ana.splits[2].piece_small == (2,)
    assert ana.splits[1].part == (1, 2, 3)
    assert ana.splits[1].piece_small == (1,)
    assert set(ana.splits[1].part) - set(ana.splits[1].piece_small) == {2, 3}


def test_frozen_repeated_edge_example():
    sched = EdgeSchedule(3, ((1, 2), (1, 2)))
    ana = analyze_schedule(sched)
    # the later copy of the edge already joins 1 and 2, so time 1 is unmarked
    assert ana.marked == (2,)
    assert not ana.connected
    assert ana.splits[2].part == (1, 2)


def test_frozen_product_balanced_tree():
    # splits: {1,2,3,4} -> {1,2}|{3,4} -> singletons; every factor is 3/2
    sched = EdgeSchedule(4, ((1, 3), (3, 4), (1, 2)))
    ana = analyze_schedule(sched)
    assert ana.connected
    rep = product_bound_check(ana)
    assert rep.value == pytest.approx(2.25, abs=1e-15)
    assert rep.per_coordinate == tuple([2.25] * 4)
    assert rep.threshold == 8.0 and rep.ok


def test_frozen_product_star_tree():
    # splits peel off one coordinate at a time; coordinate 4 sees all three
    sched = EdgeSchedule(4, ((1, 2), (2, 3), (3, 4)))
    ana = analyze_schedule(sched)
    assert ana.connected
    rep = product_bound_check(ana)
    assert rep.value == pytest.approx(2.5, abs=1e-14)
    assert rep.per_coordinate[0] == pytest.approx(1.25)
    assert rep.per_coordinate[3] == pytest.approx(2.5)


def test_empty_and_trivial_schedules():
    sched = EdgeSchedule(5, ())
    ana = analyze_schedule(sched)
    assert ana.marked == ()
    assert not ana.connected
    assert _partition_at(5, _pairs(sched), 0) == ((1,), (2,), (3,), (4,), (5,))
    two = EdgeSchedule(2, ((1, 2),))
    ana2 = analyze_schedule(two)
    assert ana2.marked == (1,) and ana2.connected


# ------------------------------------------------------------- invariants


@given(
    n=hst.integers(min_value=2, max_value=8),
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    mult=hst.floats(min_value=0.2, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_analysis_invariants(n, seed, mult):
    rng = np.random.default_rng(seed)
    T = int(mult * n * max(1.0, math.log(n))) + 1
    sched = EdgeSchedule.sample(n, T, rng)
    ana = analyze_schedule(sched)
    assert len(ana.marked) <= n - 1
    assert ana.connected == (len(ana.marked) == n - 1)
    for s in ana.marked:
        rec = ana.splits[s]
        assert rec.time == s
        assert not set(rec.piece_i) & set(rec.piece_j)
        assert rec.i in rec.piece_i and rec.j in rec.piece_j
        large = set(rec.part) - set(rec.piece_small)
        assert len(rec.piece_small) <= len(large)
        assert set(rec.piece_small) | large == set(rec.part)
        assert large in (set(rec.piece_i), set(rec.piece_j))
    # successive partitions refine as t grows
    pairs = _pairs(sched)
    for t in range(1, sched.T + 1):
        finer, coarser = _partition_at(n, pairs, t), _partition_at(n, pairs, t - 1)
        cover = {v: p for p in coarser for v in p}
        for p in finer:
            assert set(p) <= set(cover[p[0]])


@given(
    n=hst.integers(min_value=2, max_value=10),
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_product_never_exceeds_half_n_plus_one(n, seed):
    # the certified threshold is 2n, but the sharp bound is (n + 1) / 2
    rng = np.random.default_rng(seed)
    sched = EdgeSchedule.sample(n, 3 * n, rng)
    rep = product_bound_check(analyze_schedule(sched))
    assert rep.value <= (n + 1) / 2.0 + 1e-12
    assert rep.ok


# ------------------------------------------------------------- sampling


def test_schedule_sampler_uniform_over_pairs():
    rng = np.random.default_rng(15)
    sched = EdgeSchedule.sample(6, 30000, rng)
    counts = {}
    for p in _pairs(sched):
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == 15
    expected = sched.T / 15
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert st.chi2.sf(chi2, 14) > ALPHA


def test_schedule_validation():
    with pytest.raises(ValueError):
        EdgeSchedule(3, ((3, 1),))
    with pytest.raises(ValueError):
        EdgeSchedule(3, ((1, 4),))
    with pytest.raises(ValueError):
        EdgeSchedule(1, ())
    with pytest.raises(ValueError, match="time 2 out of range"):
        EdgeSchedule(3, ((1, 2), (2, 2), (3, 1)))
    assert EdgeSchedule(3, ((1, 2),)).edges.tolist() == [[1, 2]]
    # non-integer pairs are refused, even when they hold whole numbers
    for pairs in (((1.5, 2),), ((1.0, 2.0),), np.ones((1, 2), dtype=bool)):
        with pytest.raises(ValueError, match="integers"):
            EdgeSchedule(3, pairs)
    for pairs in (((1, 2, 3),), (1, 2), np.ones((1, 2, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match="shape"):
            EdgeSchedule(3, pairs)
    assert EdgeSchedule(3, ((np.int64(1), np.int64(3)),)) == EdgeSchedule(3, ((1, 3),))
    # n must be an integer, neither truncated nor parsed, and a numpy
    # integer n is stored as a Python int
    for n in (3.7, "3", 3.5, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            EdgeSchedule(n, ((1, 2),))
    assert type(EdgeSchedule(np.int64(3), ((1, 2),)).n) is int


def test_decoded_schedule_equals_constructed_schedule():
    for n, T in ((2, 5), (16, 45), (1024, 700)):
        sched = EdgeSchedule.sample(n, T, np.random.default_rng(n))
        pairs = _pairs(sched)
        assert EdgeSchedule(n, sched.edges) == EdgeSchedule(n, pairs) == sched
        assert hash(EdgeSchedule(n, pairs)) == hash(sched)
        assert sched.edges.shape == (T, 2) and sched.edges.dtype == np.int64
    empty = EdgeSchedule(3, np.empty((0, 2), np.int64))
    assert empty.T == 0 and empty == EdgeSchedule(3, ()) and empty.edges.shape == (0, 2)
    assert EdgeSchedule(3, ((1, 2),)) != EdgeSchedule(4, ((1, 2),))


@pytest.mark.parametrize(
    "i, j", [([1, 0], [2, 2]), ([1, 2], [2, 2]), ([1, 3], [2, 2]), ([1, 2], [2, 4])],
    ids=["i_below_1", "i_equals_j", "i_above_j", "j_above_n"],
)
def test_decoded_schedule_checks_its_arrays(i, j):
    with pytest.raises(ValueError, match="time 2 out of range"):
        EdgeSchedule(3, np.column_stack((i, j)))
    with pytest.raises(ValueError):
        EdgeSchedule(1, np.empty((0, 2), np.int64))


def test_edges_are_read_only():
    source = np.array([[1, 2], [2, 3]])
    sched = EdgeSchedule(3, source)
    assert not sched.edges.flags.writeable
    with pytest.raises(ValueError):
        sched.edges[0, 0] = 2
    # the schedule holds its own copy of the caller's array
    source[0] = (1, 3)
    assert sched.edges.tolist() == [[1, 2], [2, 3]]
    assert source.flags.writeable
