"""Backward-window perfect sampler: streams, matrix walks, windows, output law."""

import dataclasses
import json
import math
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from simplex_gibbs import cftp, streams
from simplex_gibbs.chain import SimplexPoint, _apply_step, sample_uniform_simplex
from simplex_gibbs.cftp import (
    BudgetExhaustedError,
    CftpResult,
    FailureNote,
    _first_epochs,
    _walk_windows,
    cftp_sample,
    phase1_steps,
    phase2_steps,
    propagate_through_epoch,
    run_epoch,
    window_geometry,
)
from simplex_gibbs.couplings import _subset_couple_columns
from simplex_gibbs.partitions import EdgeSchedule, analyze_schedule
from simplex_gibbs.streams import (
    WORDS_PER_STEP,
    _pairs_from_words,
    _draws_backward_batch,
    aux_uniform,
    generator_at_block,
    read_blocks,
)

from conftest import ALPHA, StepDraw, coordinate_cdf, draw_step, pair_at, step
from test_chain import _branchy_split


def _shared_step(mat, d):
    """One shared step of every column of mat with the 1-based draw d."""
    _apply_step(mat, d.i - 1, d.j - 1, d.lam)


def _spread(mat):
    """Largest coordinate range across columns; 0 iff all columns equal."""
    return float(np.max(mat.max(axis=1) - mat.min(axis=1)))


def _column_sums(mat):
    return np.array([math.fsum(mat[:, v]) for v in range(mat.shape[1])])


def _l1_diameter_bound(m):
    """Max L1 distance between two columns; bounds the map's image diameter.

    Any two starting points map into the convex hull of the columns, so
    their images' L1 distance is at most the largest pairwise column
    distance.  The identity matrix gives 2; a fully collided map gives 0.
    """
    best = 0.0
    for a in range(m.shape[1] - 1):
        diffs = np.abs(m[:, a + 1 :] - m[:, a : a + 1]).sum(axis=0)
        best = max(best, float(diffs.max()))
    return best


# ---------------------------------------------------------------- streams

def test_read_blocks_matches_sequential_doubles():
    g = generator_at_block(7, 3, 0)
    seq = g.random(8 * WORDS_PER_STEP).reshape(8, WORDS_PER_STEP)
    assert np.array_equal(read_blocks(7, 3, 0, 8), seq)
    # a positioned read sees exactly the tail blocks
    assert np.array_equal(read_blocks(7, 3, 5, 8), seq[5:])


def test_backward_iteration_is_chunk_invariant(monkeypatch):
    replicas = (0, 4)
    # each replica's decoded draws of blocks 39 down to 3, one row at a time:
    # pair, fraction and coin
    draws = [
        [(*pair_from_word(float(row[0]), 16), float(row[1]), float(row[2]))
         for _b, row in iter_blocks_backward(11, replica, 3, 40)]
        for replica in replicas
    ]
    assert draws[0] != draws[1]
    for chunk in (1, 7, 64):
        monkeypatch.setattr(streams, "_CHUNK_BLOCKS", chunk)
        parts = list(_draws_backward_batch(11, replicas, 3, 40, 16))
        assert len(parts) == -(-37 // chunk)
        ii, jj, lams, coins = (np.concatenate(p, axis=1) for p in zip(*parts))
        for r in range(len(replicas)):
            decoded = list(zip(ii[r].tolist(), jj[r].tolist(), lams[r].tolist(), coins[r].tolist()))
            assert decoded == draws[r]


def test_aux_uniform_is_addressed_by_block():
    assert aux_uniform(1, 2, 9) == aux_uniform(1, 2, 9)
    vals = {aux_uniform(1, 2, b) for b in range(50)}
    assert len(vals) == 50
    assert all(0.0 <= v < 1.0 for v in vals)
    # distinct replicas see distinct remainder streams
    assert aux_uniform(1, 2, 9) != aux_uniform(1, 3, 9)


def test_remainder_uniform_is_derived_only_when_a_relation_fails(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return aux_uniform(*args)

    monkeypatch.setattr(cftp, "aux_uniform", counted)
    rec = run_epoch(16, 5, 0, 1)
    assert rec.coalesced and calls == []
    # with no opening phase the vertex columns lie far from the driver, and
    # the attempt that fails derives its block's uniform once
    p2 = phase2_steps(16)
    _analysis, _cols, _driver, note = _walk_windows(np.eye(16)[None], 5, (0,), 0, p2, p2)[0]
    assert note.reason in ("out_of_range", "thinned", "degenerate")
    assert calls == [(5, 0, p2 - note.time)]
    once = cftp._remainder_draw(1, 2, 9)
    assert once() == once() == aux_uniform(1, 2, 9)
    assert calls[1:] == [(1, 2, 9)]


def test_pair_from_word_covers_all_pairs():
    i, j = _pairs_from_words(np.linspace(0.0, 0.9999, 600), 4)
    assert set(zip(i.tolist(), j.tolist())) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
    i, j = _pairs_from_words(np.array([0.999999999]), 4)
    assert (int(i[0]), int(j[0])) == (3, 4)


@pytest.mark.parametrize("n", [2, 5, 1024, 10**5])
def test_pair_from_word_endpoints(n):
    i, j = _pairs_from_words(np.array([0.0, math.nextafter(1.0, 0.0)]), n)
    assert list(zip(i.tolist(), j.tolist())) == [(1, 2), (n - 1, n)]


@pytest.mark.parametrize("n", [2, 3, 16, 1024])
def test_array_word_decoder_matches_pair_from_word(n):
    words = read_blocks(3, 1, 0, 2000)[:, 0]
    i, j = _pairs_from_words(words, n)
    assert list(zip(i.tolist(), j.tolist())) == [pair_from_word(u, n) for u in words.tolist()]


def test_streams_reject_bad_ranges():
    with pytest.raises(ValueError):
        generator_at_block(1, 1, -1)
    with pytest.raises(ValueError):
        read_blocks(1, 1, 5, 3)


# --------------------------------------------------------------- geometry

def test_window_geometry_frozen_values():
    assert (phase1_steps(5), phase2_steps(5)) == (97, 17)
    assert phase1_steps(5) + phase2_steps(5) == 114
    assert window_geometry(5, 1) == (0, 114, 97, 17)
    assert window_geometry(5, 2) == (114, 228, 97, 17)
    assert window_geometry(5, 3) == (228, 456, 194, 34)
    assert window_geometry(2, 1) == (0, 20, 17, 3)
    assert window_geometry(16, 1) == (0, 622, 533, 89)


@given(n=st.integers(2, 40), k=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_window_geometry_invariants(n, k):
    lo, hi, p1, p2 = window_geometry(n, k)
    assert 0 <= lo < hi and p1 >= 0 and p2 >= 1 and p1 + p2 == hi - lo
    # windows tile the past with doubling depth
    lo2, hi2, _, _ = window_geometry(n, k + 1)
    assert lo2 == hi and hi2 == 2 * hi
    # the closing-phase share matches the first window's split exactly
    t1, t2 = phase1_steps(n), phase2_steps(n)
    assert p2 == math.ceil((hi - lo) * t2 / (t1 + t2))


# ---------------------------------------------- matrix of vertex chains
# The windows walk the n vertex chains as the columns of np.eye(n), each
# shared step one ``_apply_step`` on the whole matrix.

def test_matrix_columns_are_vertex_chains_bitwise(rng):
    draws = [draw_step(5, rng) for _ in range(300)]
    mat = np.eye(5)
    for d in draws:
        _shared_step(mat, d)
    for v in range(1, 6):
        chain = SimplexPoint.vertex(5, v)
        for d in draws:
            chain = step(chain, d)
        assert np.array_equal(mat[:, v - 1], chain.values)
    assert np.all(np.abs(_column_sums(mat) - 1.0) < 1e-12)


def test_shared_step_matches_scalar_splits_per_column(rng):
    # every entry of rows i and j is the oracle split of its column's pair
    # sum, bit for bit, including zero pair sums of the identity's columns
    mat = np.eye(16)
    ref = mat.T.tolist()
    lams = [0.0, 1.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 5e-324]
    for t in range(400):
        d = draw_step(16, rng)
        lam = lams[t] if t < len(lams) else d.lam
        _apply_step(mat, d.i - 1, d.j - 1, lam)
        for col in ref:
            col[d.i - 1], col[d.j - 1] = _branchy_split(lam, col[d.i - 1] + col[d.j - 1])
        assert mat.tobytes() == np.array(ref).T.tobytes()


def test_matrix_apply_tracks_direct_chains(rng):
    draws = [draw_step(5, rng) for _ in range(1000)]
    mat = np.eye(5)
    for d in draws:
        _shared_step(mat, d)
    for _ in range(10):
        x0 = SimplexPoint(rng.dirichlet(np.ones(5)))
        direct = x0
        for d in draws:
            direct = step(direct, d)
        assert float(np.max(np.abs(mat @ x0.values - direct.values))) < 1e-12
    # shared steps are contractions: vertex images end almost collided
    assert _spread(mat) < 1e-6


def test_matrix_identity_and_validation():
    # run_epoch starts its walk from np.eye(n)[None]; window_geometry refuses n < 2
    mat = np.eye(3)
    assert mat.shape == (3, 3) and _spread(mat) == 1.0
    assert np.array_equal(_column_sums(mat), np.ones(3))
    with pytest.raises(ValueError):
        run_epoch(1, 0, 0, 1)


def test_shared_step_columns_are_one_step_images():
    mat = np.eye(4)
    d = StepDraw(2, 4, 0.3)
    _shared_step(mat, d)
    # every column is the one-step image of its vertex, bit for bit
    for v in range(1, 5):
        assert np.array_equal(mat[:, v - 1], step(SimplexPoint.vertex(4, v), d).values)


def test_half_splits_converge_to_flat_matrix():
    mat = np.eye(3)
    for _ in range(40):
        for i0, j0 in ((0, 1), (0, 2), (1, 2)):
            _apply_step(mat, i0, j0, 0.5)
    assert np.max(np.abs(mat - 1.0 / 3.0)) < 1e-9


def test_l1_diameter_bound_endpoints_and_domination(rng):
    assert _l1_diameter_bound(np.eye(4)) == 2.0
    collided = np.tile(rng.dirichlet(np.ones(4))[:, None], (1, 4))
    assert _l1_diameter_bound(collided) == 0.0
    mat = np.eye(4)
    for _ in range(5):
        _shared_step(mat, draw_step(4, rng))
    bound = _l1_diameter_bound(mat)
    for _ in range(1000):
        v, w = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        assert float(np.abs(mat @ v - mat @ w).sum()) <= bound + 1e-12


def test_column_stochasticity_over_a_million_steps(rng):
    mat = np.eye(5)
    idx = rng.integers(0, 10, size=1_000_000)
    lams = rng.random(1_000_000)
    ii, jj = np.triu_indices(5, 1)
    for t in range(1_000_000):
        _apply_step(mat, int(ii[idx[t]]), int(jj[idx[t]]), float(lams[t]))
    assert float(np.max(np.abs(_column_sums(mat) - 1.0))) < 1e-9


def test_opening_phase_diameter_collapse(rng):
    # 1.5 * 20 * n * ln n shared steps at n=8: diameter never above 8^-3
    steps = math.ceil(1.5 * 20 * 8 * math.log(8))
    assert steps == 500
    ii, jj = np.triu_indices(8, 1)
    for _ in range(1000):
        mat = np.eye(8)
        idx = rng.integers(0, len(ii), size=steps)
        lams = rng.random(steps)
        for t in range(steps):
            _apply_step(mat, int(ii[idx[t]]), int(jj[idx[t]]), float(lams[t]))
        assert _l1_diameter_bound(mat) <= 8.0 ** -3


# ----------------------------------------------------------------- epochs

def test_epoch_is_deterministic():
    a = run_epoch(5, 99, 42, 1)
    b = run_epoch(5, 99, 42, 1)
    assert a.coalesced == b.coalesced and a.cutoff == b.cutoff
    if a.coalesced:
        assert a.final.equals_bitwise(b.final)


def test_epoch_record_consistency():
    saw_fail = saw_ok = False
    for r in range(120):
        rec = run_epoch(5, 20240817, r, 1)
        assert (rec.final is not None) == rec.coalesced
        if rec.coalesced:
            saw_ok = True
            assert rec.connected and rec.cutoff is None and rec.failure is None
            vals = rec.final.values
            assert np.all(vals >= 0.0) and abs(math.fsum(vals) - 1.0) < 1e-12
        elif rec.connected:
            saw_fail = True
            assert rec.cutoff is not None and rec.failure is not None
            assert rec.failure.time == rec.cutoff
            assert 1 <= rec.failure.column <= 5
            assert 1 <= rec.cutoff <= rec.p2
        else:
            assert rec.cutoff is None and rec.failure is None
    assert saw_ok and saw_fail


def test_epoch_certification_rate_is_high_at_n5():
    ok = sum(run_epoch(5, 20240817, r, 1).coalesced for r in range(200))
    assert ok / 200 >= 0.85


def test_n2_windows_always_certify():
    for r in range(40):
        rec = run_epoch(2, 5, r, 1)
        assert rec.coalesced


# --------------------------------------------------------- failure notes

def _tracked_note(cols, master, replica):
    """Tracked closing phase of window 1 from the given columns; its note.

    hi = lo + p2 leaves the opening phase empty, so the walk starts its
    closing phase from cols against the barycenter driver.
    """
    n = cols.shape[0]
    lo, _hi, _p1, p2 = window_geometry(n, 1)
    walked = _walk_windows(np.array(cols, dtype=float)[None], master, (replica,), lo, lo + p2, p2)
    return walked[0][3]


def test_failure_note_reason_nudge_refused():
    rec = run_epoch(16, 5, 1, 1)
    f = rec.failure
    assert (f.time, f.column, f.reason) == (74, 1, "nudge_refused")
    # the relation itself held: the candidate lay in [0, 1] and won the coin
    row = read_blocks(5, 1, rec.p2 - f.time, rec.p2 - f.time + 1)[0]
    u, coin = float(row[1]), float(row[2])
    assert 0.0 <= f.m * u + f.delta <= 1.0 and coin <= min(1.0, f.m)
    # the reason is a diagnostic only; the JSON record does not carry it
    assert "reason" not in rec.to_json_dict()["failure"]


def test_failure_note_reason_degenerate_vertex_column():
    # vertex e_3 has no mass on the pair of window (4, 5, 4)'s first marked
    # time, so its pair sum is zero and no relation exists
    note = _tracked_note(np.eye(4)[:, [2]], 5, 4)
    assert (note.time, note.column, note.reason) == (4, 1, "degenerate")
    assert note.m == math.inf and math.isnan(note.delta)
    assert note.lo == note.hi == 0.0


def test_failure_note_reason_thinned():
    note = _tracked_note(np.eye(4), 5, 4)
    assert (note.time, note.column, note.reason) == (4, 1, "thinned")
    _lo, _hi, _p1, p2 = window_geometry(4, 1)
    row = read_blocks(5, 4, p2 - note.time, p2 - note.time + 1)[0]
    u, coin = float(row[1]), float(row[2])
    assert 0.0 <= note.m * u + note.delta <= 1.0 and coin > note.m
    # column 3 fails the same marked time, later in column order
    assert _tracked_note(np.eye(4)[:, [2, 0]], 5, 4).reason == "degenerate"


def test_tracked_run_reports_first_failing_column():
    # n = 2, window (2, 5, 1): one marked time, t = 3, with driver fraction
    # u > 1/2.  A column whose pair sum exceeds the driver's by 1e-10 keeps
    # its relation but cannot match weights within ENFORCE_TOL; a column of
    # pair sum 1/2 has slope 2 and lands out of range.
    assert read_blocks(5, 1, 0, 1)[0, 1] > 0.5
    refused = [0.5, 0.5 + 1e-10]
    oor = [0.25, 0.25]
    center = [0.5, 0.5]
    assert _tracked_note(np.array([refused]).T, 5, 1).reason == "nudge_refused"
    assert _tracked_note(np.array([oor]).T, 5, 1).reason == "out_of_range"
    note = _tracked_note(np.array([refused, oor]).T, 5, 1)
    assert (note.time, note.column, note.reason) == (3, 1, "nudge_refused")
    note = _tracked_note(np.array([oor, refused]).T, 5, 1)
    assert (note.column, note.reason) == (1, "out_of_range")
    note = _tracked_note(np.array([center, refused, oor]).T, 5, 1)
    assert (note.column, note.reason) == (2, "nudge_refused")


# ----------------------------------------------------------- walk oracle

def pair_from_word(u: float, n: int) -> tuple[int, int]:
    """Scalar word decoder: pair number min(c - 1, floor(u * c)) of c = n(n-1)/2."""
    c = n * (n - 1) // 2
    return pair_at(n, min(c - 1, int(u * c)))


def iter_blocks_backward(master, replica, lo, hi):
    """Yield (block, row) pairs for blocks hi-1 down to lo, reading 2^16 at a time."""
    for top in range(hi, lo, -(1 << 16)):
        bottom = max(lo, top - (1 << 16))
        rows = read_blocks(master, replica, bottom, top)
        for b in range(top - 1, bottom - 1, -1):
            yield b, rows[b - bottom]


def _reference_walk(mat, master, replica, lo, hi, p2, cutoff):
    """The per-step walk of one replica of ``cftp._walk_windows``.

    mat holds the replica's columns and is stepped in place, one block at a
    time.  The driver is a separate vector stepped by its own
    ``_apply_step``, each block is decoded with ``pair_from_word`` and
    ``float``, and the whole closing phase is read at once.  cutoff is the
    replica's entry of cutoffs (None for the tracked run).  Every attempt is
    committed; the tracked run notes its first failed column and attempts no
    more.  Returns the schedule's analysis, the driver and the failure note.
    """
    n = mat.shape[0]
    center = np.array(SimplexPoint.center(n).values)
    for _b, row in iter_blocks_backward(master, replica, lo + p2, hi):
        i, j = pair_from_word(float(row[0]), n)
        lam = float(row[1])
        _apply_step(mat, i - 1, j - 1, lam)
        _apply_step(center, i - 1, j - 1, lam)

    rows = read_blocks(master, replica, lo, lo + p2)[::-1]
    pairs = [pair_from_word(float(row[0]), n) for row in rows]
    analysis = analyze_schedule(EdgeSchedule(n, tuple(pairs)))
    last = p2 if cutoff is None else cutoff - 1
    note = None
    for s, ((i, j), row) in enumerate(zip(pairs, rows), start=1):
        u = float(row[1])
        rec = analysis.splits.get(s) if analysis.connected and s <= last and note is None else None
        if rec is None:
            _apply_step(mat, i - 1, j - 1, u)
            _apply_step(center, i - 1, j - 1, u)
            continue
        aux = cache(partial(aux_uniform, master, replica, lo + p2 - s))
        cols, driver = mat.T.tolist(), center.tolist()
        cpls = _subset_couple_columns(cols, driver, rec, u, float(row[2]), aux)
        mat[:] = np.array(cols).T
        center = np.array(driver)
        v = next((v for v, c in enumerate(cpls) if not c.success), None)
        if cutoff is None and v is not None:
            c = cpls[v]
            fin = math.isfinite(c.m) and math.isfinite(c.delta)
            note = FailureNote(
                time=s, column=v + 1, m=c.m, delta=c.delta,
                lo=max(0.0, min(1.0, c.delta)) if fin else 0.0,
                hi=max(0.0, min(1.0, c.m + c.delta)) if fin else 0.0,
                reason=c.reason,
            )
    return analysis, center, note


def _note_bits(note):
    """Every field of a FailureNote, floats as hex so NaN compares equal."""
    if note is None:
        return None
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(note))


def _walk_agrees(got, cols, master, replica, lo, hi, p2, cutoff):
    """Check one replica's walk output against the reference walk from cols."""
    analysis, got_cols, driver, note = got
    want_mat = np.array(cols, dtype=float)
    want = _reference_walk(want_mat, master, replica, lo, hi, p2, cutoff)
    assert analysis == want[0]
    assert driver.tobytes() == want[1].tobytes()
    assert _note_bits(note) == _note_bits(want[2])
    assert got_cols.shape == want_mat.shape
    assert got_cols.tobytes() == want_mat.tobytes()
    return note


def _walks_agree(cols, master, replica, lo, hi, p2, cutoff):
    """Walk one replica from cols, check it bit for bit; the note."""
    cutoffs = None if cutoff is None else (cutoff,)
    got = _walk_windows(np.array(cols, dtype=float)[None], master, (replica,), lo, hi, p2, cutoffs)
    return _walk_agrees(got[0], cols, master, replica, lo, hi, p2, cutoff)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
def test_walk_matches_per_step_reference(n):
    # tracked runs from the identity, then replays of a vertex and a uniform
    # point at the recorded cutoff and at a forced mid-schedule cutoff
    rng = np.random.default_rng(n)
    failures = 0
    for master in (0, 5):
        for replica in range(16):
            for k in (1, 2, 3):
                lo, hi, _p1, p2 = window_geometry(n, k)
                note = _walks_agree(np.eye(n), master, replica, lo, hi, p2, None)
                failures += note is not None
                recorded = p2 + 1 if note is None else note.time
                inputs = (np.eye(n)[:, replica % n], sample_uniform_simplex(n, rng).values)
                for x0 in inputs:
                    for cutoff in (recorded, p2 // 2 + 1):
                        _walks_agree(x0[:, None], master, replica, lo, hi, p2, cutoff)
    if n == 16:
        assert failures > 0  # the state after a tracked failure is compared too


def test_walk_matches_reference_on_forced_failures():
    # closing phases that start from chosen columns, each failing for its
    # own reason (see the failure-note tests above)
    lo, _hi, _p1, p2 = window_geometry(4, 1)
    for cols in (np.eye(4), np.eye(4)[:, [2]], np.eye(4)[:, [2, 0]]):
        assert _walks_agree(cols, 5, 4, lo, lo + p2, p2, None) is not None
    lo, _hi, _p1, p2 = window_geometry(2, 1)
    refused, oor, center = [0.5, 0.5 + 1e-10], [0.25, 0.25], [0.5, 0.5]
    for cols in ([refused, oor], [oor, refused], [center, refused, oor]):
        assert _walks_agree(np.array(cols).T, 5, 1, lo, lo + p2, p2, None) is not None


@pytest.mark.parametrize("n", [30, 31, 32, 33])
def test_walk_matches_reference_at_the_list_border(n):
    # a tracked run holds n + 1 chains: float lists up to n = 31, the matrix
    # from n = 32 on; a replay holds two chains, always lists
    assert cftp._LIST_CHAINS == 32
    rng = np.random.default_rng(n)
    for replica in range(3):
        for k in (1, 2):
            lo, hi, _p1, p2 = window_geometry(n, k)
            note = _walks_agree(np.eye(n), 5, replica, lo, hi, p2, None)
            recorded = p2 + 1 if note is None else note.time
            for x0 in (np.eye(n)[:, replica], sample_uniform_simplex(n, rng).values):
                _walks_agree(x0[:, None], 5, replica, lo, hi, p2, recorded)


def test_walk_is_the_same_on_lists_and_on_the_matrix(monkeypatch):
    # _LIST_CHAINS = 0 walks every opening phase on the matrix, 10**6 every
    # one-replica opening phase on lists; records and replays are equal
    def outputs():
        out = []
        for n in (5, 16, 40):
            for replica in range(4):
                for k in (1, 2):
                    rec = run_epoch(n, 5, replica, k)
                    replay = propagate_through_epoch(SimplexPoint.vertex(n, 1), rec)
                    out.append((_record_bits(rec), replay.values.tobytes()))
        return out

    monkeypatch.setattr(cftp, "_LIST_CHAINS", 0)
    on_matrix = outputs()
    monkeypatch.setattr(cftp, "_LIST_CHAINS", 10**6)
    assert outputs() == on_matrix
    assert any(rec[1] is not None for rec, _replay in on_matrix)  # failed windows too


def test_walk_is_chunk_invariant(monkeypatch):
    # with 7-block chunks, chunk borders fall inside the opening phase, on
    # the opening/closing border and inside the closing phase
    windows = [(16, 5, r, k) for r in range(4) for k in (1, 2)] + [(5, 99, 345, 1), (8, 1, 7, 2)]

    def outputs():
        out = []
        for n, master, replica, k in windows:
            rec = run_epoch(n, master, replica, k)
            starts = (SimplexPoint.vertex(n, 1), sample_uniform_simplex(n, np.random.default_rng(0)))
            replays = [propagate_through_epoch(z0, rec).values.tobytes() for z0 in starts]
            out.append((json.dumps(rec.to_json_dict()), _note_bits(rec.failure), replays))
        return out

    default = outputs()
    sizes = []
    read = streams.read_blocks

    def spy(master, replica, lo, hi):
        sizes.append(hi - lo)
        return read(master, replica, lo, hi)

    monkeypatch.setattr(streams, "_CHUNK_BLOCKS", 7)
    monkeypatch.setattr(streams, "read_blocks", spy)
    assert outputs() == default
    assert max(sizes) == 7 and min(sizes) < 7


def test_certificate_violation_names_first_differing_column(monkeypatch):
    replica = next(r for r in range(30) if run_epoch(5, 99, r, 1).coalesced)
    walk = cftp._walk_windows

    def perturbed(*args):
        out = walk(*args)
        cols = out[0][1]
        for v in (2, 4):  # columns 3 and 5, 1-based
            cols[0, v] = math.nextafter(cols[0, v], 1.0)
        return out

    monkeypatch.setattr(cftp, "_walk_windows", perturbed)
    with pytest.raises(RuntimeError, match=r"window 1 certificate violated: column 3 differs"):
        run_epoch(5, 99, replica, 1)


# ------------------------------------------------- batched first window

def _record_bits(rec):
    """A window record as comparable data: JSON form, note bits, final bytes."""
    final = None if rec.final is None else rec.final.values.tobytes()
    return json.dumps(rec.to_json_dict()), _note_bits(rec.failure), final


def _group_sizes(monkeypatch):
    """Record the group size of every ``_walk_windows`` call from now on."""
    sizes = []
    walk = cftp._walk_windows

    def spy(starts, *args):
        sizes.append(starts.shape[0])
        return walk(starts, *args)

    monkeypatch.setattr(cftp, "_walk_windows", spy)
    return sizes


def test_batched_first_windows_match_run_epoch(monkeypatch):
    # groups of 7 do not divide 30 replicas: the last group holds 2
    monkeypatch.setattr(cftp, "_GROUP_REPLICAS", 7)
    sizes = _group_sizes(monkeypatch)
    failures = 0
    for n in (2, 3, 4, 8, 16, 32):
        for master in (0, 5, 777):
            sizes.clear()  # run_epoch below walks groups of one
            got = list(_first_epochs(n, master, 30))
            assert len(got) == 30 and sizes == [7, 7, 7, 7, 2]
            for replica, rec in enumerate(got):
                assert _record_bits(rec) == _record_bits(run_epoch(n, master, replica, 1))
                failures += not rec.coalesced
    assert failures > 0  # failed records, notes included, are compared too


def test_first_window_groups_are_bounded(monkeypatch):
    sizes = _group_sizes(monkeypatch)
    assert len(list(_first_epochs(16, 5, 70))) == 70
    assert sizes == [64, 6]
    # matrix entries bound a group: here two n=4 matrices of 4 x 5, then a
    # trailing group of one
    monkeypatch.setattr(cftp, "_GROUP_ENTRIES", 2 * 4 * 5)
    got = list(_first_epochs(4, 5, 5))
    assert sizes[2:] == [2, 2, 1]
    assert [_record_bits(r) for r in got] == [_record_bits(run_epoch(4, 5, r, 1)) for r in range(5)]
    # at the default bound an n=1024 group holds one matrix; the groups are
    # recorded, not walked
    groups = []
    monkeypatch.setattr(cftp, "_walk_windows", lambda starts, master, replicas, *a: groups.append(
        (starts.shape[0], list(replicas))) or [])
    assert list(_first_epochs(1024, 5, 3)) == [] and groups == [(1, [0]), (1, [1]), (1, [2])]


def test_batched_walk_is_chunk_invariant(monkeypatch):
    # with 7-block chunks, chunk borders fall inside both phases and on
    # the border between them, in the batched window 1 and in the
    # one-replica list walks of window 2 and of a replay through it
    def outputs():
        batched = [[_record_bits(r) for r in _first_epochs(n, master, 6)] for n, master in ((16, 5), (5, 99))]
        deeper = []
        for replica in range(4):
            rec = run_epoch(16, 5, replica, 2)
            replay = propagate_through_epoch(SimplexPoint.vertex(16, 1), rec)
            deeper.append((_record_bits(rec), replay.values.tobytes()))
        return batched, deeper

    default = outputs()
    sizes = []
    read = streams.read_blocks

    def spy(master, replica, lo, hi):
        sizes.append(hi - lo)
        return read(master, replica, lo, hi)

    monkeypatch.setattr(streams, "_CHUNK_BLOCKS", 7)
    monkeypatch.setattr(streams, "read_blocks", spy)
    assert outputs() == default
    assert max(sizes) == 7 and min(sizes) < 7


def _batch_agrees(starts, master, replicas):
    """Closing phase of window 1 from each replica's own columns, batched.

    Checks every output of the tracked ``_walk_windows`` against
    ``_reference_walk`` from the same columns, bit for bit, and returns the
    failure notes.  Then replays the batch three times with mixed cutoffs,
    each replica taking its recorded cutoff, p2 // 2 + 1 and p2 + 1 in
    turn, and checks those too.
    """
    starts = np.array(starts, dtype=float)
    lo, _hi, _p1, p2 = window_geometry(starts.shape[1], 1)
    walked = _walk_windows(starts, master, replicas, lo, lo + p2, p2)
    notes = [
        _walk_agrees(got, cols, master, replica, lo, lo + p2, p2, None)
        for cols, replica, got in zip(starts, replicas, walked)
    ]
    choices = [(p2 + 1 if note is None else note.time, p2 // 2 + 1, p2 + 1) for note in notes]
    for turn in range(3):
        cutoffs = [c[(r + turn) % 3] for r, c in enumerate(choices)]
        replayed = _walk_windows(starts, master, replicas, lo, lo + p2, p2, cutoffs)
        for cols, replica, cutoff, got in zip(starts, replicas, cutoffs, replayed):
            assert _walk_agrees(got, cols, master, replica, lo, lo + p2, p2, cutoff) is None
    return notes


def test_batched_walk_matches_forced_failures():
    # the columns of the failure-note tests above, several replicas a batch
    eye = np.eye(4)
    notes = _batch_agrees([eye] * 5, 5, [4, 0, 1, 2, 3])
    assert (notes[0].time, notes[0].column, notes[0].reason) == (4, 1, "thinned")
    notes = _batch_agrees([eye[:, [2]], eye[:, [0]]], 5, [4, 4])
    assert [(f.time, f.column, f.reason) for f in notes] == [(4, 1, "degenerate"), (4, 1, "thinned")]
    assert _batch_agrees([eye[:, [2, 0]], eye[:, [0, 2]]], 5, [4, 4])[0].reason == "degenerate"
    refused, oor, center = [0.5, 0.5 + 1e-10], [0.25, 0.25], [0.5, 0.5]
    notes = _batch_agrees([np.array([refused, oor]).T, np.array([oor, refused]).T], 5, [1, 1])
    assert [(f.time, f.column, f.reason) for f in notes] == [(3, 1, "nudge_refused"), (3, 1, "out_of_range")]
    notes = _batch_agrees([np.array([center, refused, oor]).T], 5, [1])
    assert (notes[0].column, notes[0].reason) == (2, "nudge_refused")


def test_failed_tracked_walk_equals_replay_past_its_cutoff():
    # a tracked window commits its failed attempt and then takes only shared
    # steps, so it ends bit for bit where the replay of the same start ends
    # when that replay attempts up to and including the failing time
    failed = 0
    for n in (4, 8, 16):
        starts = np.broadcast_to(np.eye(n), (40, n, n))
        for k in (1, 2):
            lo, hi, _p1, p2 = window_geometry(n, k)
            for replica, (analysis, cols, driver, note) in enumerate(
                _walk_windows(starts, 5, range(40), lo, hi, p2)
            ):
                if note is None:
                    continue
                failed += 1
                (again,) = _walk_windows(starts[:1], 5, (replica,), lo, hi, p2, (note.time + 1,))
                assert again[0] == analysis and again[3] is None
                assert again[1].tobytes() == cols.tobytes()
                assert again[2].tobytes() == driver.tobytes()
    assert failed == 25  # the failed windows of this grid


def test_thinned_attempt_flips_with_its_coin(monkeypatch):
    # e_1 alone through window (4, 5, 4) is thinned at time 4.  With that
    # block's coin set to min(1, m), the largest coin that keeps the
    # candidate, the same attempt succeeds, in the walk and in the reference
    # walk, which both read the patched blocks: an outcome that reads the
    # coin of any other block fails one of the two asserts.
    col = np.eye(4)[:, [0]]
    note = _batch_agrees([col], 5, [4])[0]
    assert (note.time, note.column, note.reason) == (4, 1, "thinned")
    lo, _hi, _p1, p2 = window_geometry(4, 1)
    block = lo + p2 - note.time
    read = streams.read_blocks

    def with_coin(master, replica, a, b):
        rows = read(master, replica, a, b)
        if (master, replica) == (5, 4) and a <= block < b:
            rows[block - a, 2] = min(1.0, note.m)
        return rows

    monkeypatch.setattr(streams, "read_blocks", with_coin)
    monkeypatch.setitem(globals(), "read_blocks", with_coin)
    assert _batch_agrees([col, col], 5, [4, 4]) == [None, None]


# ------------------------------------------------------------ propagation

def test_driver_replay_reproduces_certified_point():
    # a point bitwise equal to the window's driver start stays locked to the
    # driver: slope 1, intercept 0, every coupling succeeds as a passthrough
    hits = 0
    for r in range(30):
        rec = run_epoch(5, 99, r, 1)
        if not rec.coalesced:
            continue
        z = propagate_through_epoch(SimplexPoint.center(5), rec)
        assert z.equals_bitwise(rec.final)
        hits += 1
    assert hits >= 20


def test_certified_window_map_is_constant():
    # arbitrary inputs land on the collided point: in exact arithmetic the
    # success region of each closing-phase attempt contains the whole
    # simplex once all vertex columns succeed, and every success pins the
    # input to the driver
    rng = np.random.default_rng(3)
    checked = 0
    for r in range(12):
        rec = run_epoch(5, 99, r, 1)
        if not rec.coalesced:
            continue
        for _ in range(3):
            z0 = SimplexPoint(rng.dirichlet(np.ones(5)))
            assert propagate_through_epoch(z0, rec).equals_bitwise(rec.final)
            checked += 1
    assert checked >= 15


def test_certified_windows_map_every_input_to_final():
    # floating point does not promise that every replayed attempt succeeds:
    # the fixed uniform point of the golden file has one refused nudge in
    # window (8, 1, 7, 2).  Check the constant map on hard inputs instead:
    # every vertex, the barycenter and a few uniform points
    windows = [
        (n, master, replica, k)
        for n in (4, 8, 16)
        for master in (0, 1)
        for replica in range(4)
        for k in (1, 2)
    ]
    windows.append((8, 1, 7, 2))
    rng = np.random.default_rng(11)
    inputs = {}
    for n in (4, 8, 16):
        inputs[n] = [SimplexPoint.vertex(n, v) for v in range(1, n + 1)]
        inputs[n] += [SimplexPoint.center(n), sample_uniform_simplex(n, np.random.default_rng(0))]
        inputs[n] += [sample_uniform_simplex(n, rng) for _ in range(2)]
    checked = 0
    for n, master, replica, k in windows:
        rec = run_epoch(n, master, replica, k)
        if not rec.coalesced:
            continue
        for z0 in inputs[n]:
            assert propagate_through_epoch(z0, rec).equals_bitwise(rec.final)
            checked += 1
    assert checked >= 400


def test_propagation_is_deterministic_and_valid():
    rec = run_epoch(5, 99, 345, 1)  # this window fails; its map still applies
    assert not rec.coalesced
    rng = np.random.default_rng(0)
    z0 = SimplexPoint(rng.dirichlet(np.ones(5)))
    a = propagate_through_epoch(z0, rec)
    b = propagate_through_epoch(z0, rec)
    assert a.equals_bitwise(b)
    assert abs(math.fsum(a.values) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        propagate_through_epoch(SimplexPoint.center(4), rec)


def test_attemptless_map_equals_matrix_composition():
    rec = run_epoch(5, 99, 7, 1)
    assert rec.connected
    # force the replay to treat every closing-phase step as shared: the map
    # is then the plain matrix composition of the window's draw sequence
    noatt = dataclasses.replace(rec, cutoff=1)
    mat = np.eye(5)
    ii, jj = np.triu_indices(5, 1)
    c = len(ii)
    for _b, row in iter_blocks_backward(rec.master, rec.replica, rec.lo, rec.hi):
        k = min(c - 1, int(float(row[0]) * c))
        _apply_step(mat, int(ii[k]), int(jj[k]), float(row[1]))
    rng = np.random.default_rng(1)
    for _ in range(5):
        z0 = SimplexPoint(rng.dirichlet(np.ones(5)))
        out = propagate_through_epoch(z0, noatt)
        assert float(np.max(np.abs(out.values - mat @ z0.values))) < 1e-12


def test_epoch_record_round_trips_to_json():
    rec = run_epoch(5, 99, 0, 1)
    d = rec.to_json_dict()
    blob = json.loads(json.dumps(d))
    assert blob["n"] == 5 and blob["window"] == 1
    assert blob["blocks"] == [0, 114] and blob["phase_lengths"] == [97, 17]
    assert blob["coalesced"] == rec.coalesced
    assert blob["marked_times"] == list(rec.marked)
    if rec.coalesced:
        assert blob["final"] == rec.final.to_list() and blob["failure"] is None
    elif rec.connected:
        f = blob["failure"]
        assert f["time"] == rec.cutoff
        assert 0.0 <= f["remainder_lo"] <= f["remainder_hi"] <= 1.0


# ---------------------------------------------------------------- sampler

def test_sampler_is_bitwise_deterministic():
    a = cftp_sample(5, 99, 42)
    b = cftp_sample(5, 99, 42)
    assert isinstance(a, CftpResult)
    assert a.point.equals_bitwise(b.point)
    assert a.doublings == b.doublings


def test_sampler_window_log_shape():
    deep = 0
    for r in range(150):
        res = cftp_sample(5, 99, r)
        assert res.doublings == len(res.epochs)
        assert res.epochs[-1].coalesced
        assert all(not e.coalesced for e in res.epochs[:-1])
        assert [e.k for e in res.epochs] == list(range(1, res.doublings + 1))
        assert res.total_steps == res.epochs[-1].hi
        assert abs(math.fsum(res.point.values) - 1.0) < 1e-12
        deep = max(deep, res.doublings)
    # at least one replica exercised the propagation path
    assert deep >= 2


def test_budget_exhaustion_raises():
    # find a replica whose first window fails, then forbid doubling
    for r in range(200):
        if not run_epoch(5, 20240817, r, 1).coalesced:
            with pytest.raises(BudgetExhaustedError) as err:
                cftp_sample(5, 20240817, r, max_doublings=1)
            assert err.value.doublings == 1
            return
    pytest.fail("no failing first window found in 200 replicas")


def test_sampler_takes_its_own_first_window():
    # 345 fails window 1 and goes on through run_epoch and a replay
    for replica in (0, 345):
        first = run_epoch(5, 99, replica, 1)
        got, want = cftp_sample(5, 99, replica, first=first), cftp_sample(5, 99, replica)
        assert got.point.values.tobytes() == want.point.values.tobytes()
        assert [_record_bits(r) for r in got.epochs] == [_record_bits(r) for r in want.epochs]
        assert got.epochs[0] is first
    assert cftp_sample(5, 99, 345).doublings > 1
    for other in (run_epoch(4, 99, 0, 1), run_epoch(5, 98, 0, 1), run_epoch(5, 99, 1, 1),
                  run_epoch(5, 99, 0, 2)):
        with pytest.raises(ValueError, match="not window 1"):
            cftp_sample(5, 99, 0, first=other)


def test_sampler_rejects_bad_budget():
    with pytest.raises(ValueError):
        cftp_sample(5, 1, 1, max_doublings=0)


def test_output_marginals_match_coordinate_law():
    pts = np.array([cftp_sample(5, 20240817, r).point.values for r in range(400)])
    for c in range(5):
        res = stats.kstest(pts[:, c], lambda t: coordinate_cdf(t, 5))
        assert res.pvalue > ALPHA
    assert abs(pts.mean() - 0.2) < 0.02


def test_output_marginal_n2_is_uniform():
    xs = np.array([cftp_sample(2, 7, r).point.values[0] for r in range(600)])
    assert stats.kstest(xs, "uniform").pvalue > ALPHA
