"""Burn-in contraction, the collision stage, and full coupled runs."""

from __future__ import annotations

import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from simplex_gibbs import chain, two_stage
from simplex_gibbs.chain import (
    SimplexPoint,
    sample_uniform_simplex,
    sq_distance,
)
from simplex_gibbs.couplings import _subset_couple_columns
from simplex_gibbs.partitions import EdgeSchedule, analyze_schedule
from simplex_gibbs.two_stage import (
    MarkedAudit,
    StagePassResult,
    burn_in_steps,
    coupling_time,
    full_coupling_run,
    proportional_run,
    stage_steps,
    two_stage_pass,
)

from conftest import StepDraw, draw_step, step, weight


# ------------------------------------------------------------- step counts


def test_step_count_helpers_frozen():
    assert stage_steps(16, 1.0) == 45
    assert burn_in_steps(16, 4.0) == 267
    assert stage_steps(2, 1.0) == 2
    assert burn_in_steps(64, 4.0) == 1598
    with pytest.raises(ValueError):
        stage_steps(1, 1.0)
    with pytest.raises(ValueError):
        burn_in_steps(4, 0.0)


def test_burn_in_hits_distance_target():
    # E[Z] after ceil(1.5 d n ln n) shared-draw steps should be under
    # 2 n^-d; the run average sits well inside, so a plain mean suffices
    rng = np.random.default_rng(400)
    n, d, reps = 8, 2.0, 300
    steps = burn_in_steps(n, d)
    acc = 0.0
    for _ in range(reps):
        x = SimplexPoint.vertex(n, 1)
        y = sample_uniform_simplex(n, rng)
        x2, y2 = proportional_run(x, y, steps, rng)
        acc += sq_distance(x2, y2)
    assert acc / reps < 2.0 * n ** -d


def test_proportional_run_contracts():
    rng = np.random.default_rng(401)
    n = 6
    x = SimplexPoint.vertex(n, 1)
    y = sample_uniform_simplex(n, rng)
    z0 = sq_distance(x, y)
    x2, y2 = proportional_run(x, y, 60, rng)
    assert sq_distance(x2, y2) < 0.5 * z0


def _proportional_run_reference(x, y, steps, rng, z_out):
    """The burn-in as one validated SimplexPoint pair per step."""
    for _ in range(steps):
        draw = draw_step(x.n, rng)
        x, y = step(x, draw), step(y, draw)
        z_out.append(sq_distance(x, y))
    return x, y


@pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
def test_proportional_run_matches_reference_bitwise(n):
    # same final points, same trace, and the generator left at the same
    # position: the collision stage's schedule draws follow from it
    for seed in range(10):
        x0 = SimplexPoint.vertex(n, 1 + seed % n)
        y0 = sample_uniform_simplex(n, np.random.default_rng([n, seed]))
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        z_a: list[float] = []
        z_b: list[float] = []
        xa, ya = proportional_run(x0, y0, 300, rng_a, z_out=z_a)
        xb, yb = _proportional_run_reference(x0, y0, 300, rng_b, z_b)
        assert xa.equals_bitwise(xb) and ya.equals_bitwise(yb)
        assert [z.hex() for z in z_a] == [z.hex() for z in z_b]
        assert rng_a.random() == rng_b.random()


def test_proportional_run_draws_once_per_chunk(monkeypatch):
    sizes = []
    bulk = chain.sample_step_draw

    def spy(n, rng, law=None, *, size):
        sizes.append(size)
        return bulk(n, rng, law, size=size)

    monkeypatch.setattr(chain, "sample_step_draw", spy)
    x0, y0 = SimplexPoint.vertex(16, 1), SimplexPoint.center(16)
    proportional_run(x0, y0, burn_in_steps(16, 4.0), np.random.default_rng(0))
    assert sizes == [267]
    sizes.clear()
    monkeypatch.setattr(chain, "_DRAW_CHUNK", 100)
    x1, y1 = proportional_run(x0, y0, 267, np.random.default_rng(0))
    assert sizes == [100, 100, 67]
    # the chunk boundaries move no draw
    xr, yr = _proportional_run_reference(x0, y0, 267, np.random.default_rng(0), [])
    assert x1.equals_bitwise(xr) and y1.equals_bitwise(yr)


def test_proportional_run_refuses_negative_steps():
    x0, y0 = SimplexPoint.vertex(4, 1), SimplexPoint.center(4)
    with pytest.raises(ValueError, match="nonnegative"):
        proportional_run(x0, y0, -5, np.random.default_rng(0))


@pytest.mark.parametrize("steps", [True, 2.5])
def test_step_counts_must_be_integers(steps):
    # a bool would run one step and report burn=True; a float would fail
    # deep inside range() with a TypeError
    x0, y0 = SimplexPoint.vertex(4, 1), SimplexPoint.center(4)
    with pytest.raises(ValueError, match="integer"):
        proportional_run(x0, y0, steps, np.random.default_rng(0))
    with pytest.raises(ValueError, match="integer"):
        full_coupling_run(4, 1.0, np.random.default_rng(0), burn=steps)


def test_numpy_integer_step_counts_are_accepted():
    a = full_coupling_run(4, 1.0, np.random.default_rng(0), burn=np.int64(5))
    b = full_coupling_run(4, 1.0, np.random.default_rng(0), burn=5)
    assert a.burn == 5
    assert a.stage.x.equals_bitwise(b.stage.x) and a.stage.y.equals_bitwise(b.stage.y)


# ------------------------------------------------------------- stage pass


def _two_stage_pass_reference(x, y, schedule, rng, z_out=None):
    """The collision stage as one validated SimplexPoint pair per step."""
    analysis = analyze_schedule(schedule)
    audits = []
    failed_at = None
    for s, (i, j) in enumerate(schedule.edges.tolist(), start=1):
        rec = analysis.splits.get(s) if analysis.connected else None
        if rec is not None and failed_at is None:
            pre_sup = float(np.max(np.abs(x.values - y.values)))
            pre_min = float(min(np.min(x.values), np.min(y.values)))
            u = float(rng.random())
            coin = float(rng.random())
            xs, ys = x.values.tolist(), y.values.tolist()
            (cpl,) = _subset_couple_columns([xs], ys, rec, u, coin, rng.random)
            x, y = SimplexPoint(xs), SimplexPoint(ys)
            diff = weight(rec.piece_small, x) - weight(rec.piece_small, y)
            audits.append(
                MarkedAudit(
                    time=s,
                    success=cpl.success,
                    reason=cpl.reason,
                    weight_diff=diff,
                    m=cpl.m,
                    delta=cpl.delta,
                    p=cpl.p,
                    piece_small_size=len(rec.piece_small),
                    pre_sup_diff=pre_sup,
                    pre_min_coord=pre_min,
                )
            )
            if not cpl.success:
                failed_at = s
        else:
            draw = StepDraw(i, j, float(rng.random()))
            x, y = step(x, draw), step(y, draw)
        if z_out is not None:
            z_out.append(sq_distance(x, y))
    return StagePassResult(
        x=x,
        y=y,
        connected=analysis.connected,
        all_succeeded=failed_at is None and len(audits) == len(analysis.marked),
        failed_at=failed_at,
        coalesced=x.equals_bitwise(y),
        audits=tuple(audits),
    )


def _bits(value):
    """A stage result or audit field as comparable bits: floats as hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, SimplexPoint):
        return [v.hex() for v in value.values.tolist()]
    if isinstance(value, MarkedAudit):
        return {f.name: _bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    return value


def _assert_stages_equal_bitwise(got, want):
    for f in dataclasses.fields(StagePassResult):
        assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name


def test_stage_pass_small_connected_schedule():
    sched = EdgeSchedule(3, ((1, 2), (2, 3)))
    ana = analyze_schedule(sched)
    assert ana.connected
    rng = np.random.default_rng(402)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        x = sample_uniform_simplex(3, rng)
        y = sample_uniform_simplex(3, rng)
        res = two_stage_pass(x, y, sched, rng)
        # collision certified exactly when the whole mechanism went through
        assert res.coalesced == (res.connected and res.all_succeeded)
        if res.coalesced:
            assert res.x.equals_bitwise(res.y)
            assert all(a.success and a.weight_diff == 0.0 for a in res.audits)
        outcomes[res.coalesced] += 1
    # far-apart starts both succeed and fail with this tiny schedule
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_stage_pass_disconnected_schedule_never_couples():
    # the schedule has marked times, but a disconnected one attempts none,
    # and the pass equals the validated-point reference bit for bit
    sched = EdgeSchedule(4, ((1, 2), (3, 4), (1, 2)))
    ana = analyze_schedule(sched)
    assert not ana.connected and ana.marked
    rng = np.random.default_rng(403)
    for _ in range(20):
        x = sample_uniform_simplex(4, rng)
        y = sample_uniform_simplex(4, rng)
        state = rng.bit_generator.state
        z: list[float] = []
        res = two_stage_pass(x, y, sched, rng, z_out=z)
        assert not res.coalesced and not res.all_succeeded
        assert res.audits == ()
        ref_rng = np.random.default_rng()
        ref_rng.bit_generator.state = state
        z_ref: list[float] = []
        _assert_stages_equal_bitwise(res, _two_stage_pass_reference(x, y, sched, ref_rng, z_ref))
        assert [v.hex() for v in z] == [v.hex() for v in z_ref]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_stage_audits_record_why_an_attempt_failed():
    # x has no mass on the first marked pair (1, 2), so its attempt has no
    # usable relation, and the pass attempts nothing after it
    sched = EdgeSchedule(3, ((1, 2), (2, 3)))
    x = SimplexPoint(np.array([0.0, 0.0, 1.0]))
    res = two_stage_pass(x, SimplexPoint.center(3), sched, np.random.default_rng(412))
    assert [(a.time, a.success, a.reason) for a in res.audits] == [(1, False, "degenerate")]
    assert res.failed_at == 1 and not res.coalesced
    # a coalesced run records only ok; a failed one fails its last attempt
    rng = np.random.default_rng(413)
    runs = [full_coupling_run(4, 1.0, rng) for _ in range(40)]
    for r in runs:
        reasons = [a.reason for a in r.stage.audits]
        assert [a.success for a in r.stage.audits] == [t == "ok" for t in reasons]
        if r.coalesced:
            assert set(reasons) == {"ok"}
        elif r.stage.failed_at is not None:
            assert reasons[-1] != "ok" and set(reasons[:-1]) <= {"ok"}
    assert any(r.coalesced for r in runs) and any(r.stage.failed_at for r in runs)


def test_stage_pass_dimension_mismatch():
    rng = np.random.default_rng(404)
    x = sample_uniform_simplex(4, rng)
    y = sample_uniform_simplex(5, rng)
    with pytest.raises(ValueError):
        two_stage_pass(x, y, EdgeSchedule(4, ((1, 2),)), rng)


def test_stage_pass_matches_reference_bitwise(monkeypatch):
    # the list walk against the per-step validated-point loop it replaced:
    # final bits, flags, every audit field, the z trace and the generator
    # position after the run
    reasons = Counter()
    for n in (2, 3, 5, 8, 16, 64):
        for C in (0.5, 1.0):
            for seed in range(15 if n == 64 else 60):
                runs = []
                for stage in (two_stage_pass, _two_stage_pass_reference):
                    monkeypatch.setattr(two_stage, "two_stage_pass", stage)
                    rng = np.random.default_rng([n, seed])
                    z: list[float] = []
                    run = full_coupling_run(n, C, rng, z_out=z)
                    runs.append((run, [v.hex() for v in z], rng.random()))
                (got, z_got, next_got), (want, z_want, next_want) = runs
                _assert_stages_equal_bitwise(got.stage, want.stage)
                assert got.sup_diff_after_burn.hex() == want.sup_diff_after_burn.hex()
                assert z_got == z_want and next_got.hex() == next_want.hex()
                reasons.update(a.reason for a in got.stage.audits)
    assert {"ok", "out_of_range", "thinned", "nudge_refused"} <= set(reasons)


@pytest.mark.parametrize("T", [0, 5, 45, 400])
def test_stage_pass_builds_two_points_whatever_its_length(T, monkeypatch):
    # validated points are built at exit only, not per step
    rng = np.random.default_rng(415)
    x, y = SimplexPoint.vertex(16, 1), sample_uniform_simplex(16, rng)
    sched = EdgeSchedule.sample(16, T, rng)
    built = []
    post_init = SimplexPoint.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(SimplexPoint, "__post_init__", counting)
    two_stage_pass(x, y, sched, rng)
    assert len(built) == 2


# ------------------------------------------------------------- full runs


def test_full_run_certification_equals_bitwise_collision():
    rng = np.random.default_rng(405)
    for n in (4, 8):
        for _ in range(60):
            r = full_coupling_run(n, 1.0, rng)
            assert r.coalesced == r.certified
            if r.coalesced:
                assert r.stage.x.equals_bitwise(r.stage.y)
                assert len(r.stage.audits) == n - 1
                assert all(a.weight_diff == 0.0 for a in r.stage.audits)
                assert all(a.success for a in r.stage.audits)


def test_full_run_two_coordinates_always_collides():
    rng = np.random.default_rng(406)
    for _ in range(50):
        r = full_coupling_run(2, 1.0, rng)
        assert r.coalesced


def test_full_run_collision_rate_has_margin():
    # the acceptance gate demands > 1/2 at n=16; check a cheaper size
    # clears a stronger bar so regressions surface here first
    rng = np.random.default_rng(407)
    hits = sum(full_coupling_run(8, 1.0, rng).coalesced for _ in range(150))
    assert hits / 150 >= 0.75


def test_full_run_audit_fields_sane():
    rng = np.random.default_rng(408)
    r = full_coupling_run(8, 1.0, rng)
    assert r.burn == burn_in_steps(8, 4.0) and r.T == stage_steps(8, 1.0)
    assert 0.0 <= r.sup_diff_after_burn < 1.0
    for a in r.stage.audits:
        assert 1 <= a.time <= r.T
        assert 0.0 <= a.p <= 1.0
        assert a.piece_small_size >= 1
        assert a.pre_sup_diff >= 0.0 and a.pre_min_coord >= 0.0


def test_full_run_deterministic_given_seed():
    r1 = full_coupling_run(6, 1.0, np.random.default_rng(409))
    r2 = full_coupling_run(6, 1.0, np.random.default_rng(409))
    assert r1.coalesced == r2.coalesced
    assert r1.stage.x.equals_bitwise(r2.stage.x)
    assert r1.stage.y.equals_bitwise(r2.stage.y)
    assert [a.time for a in r1.stage.audits] == [a.time for a in r2.stage.audits]


def test_coupling_time_is_block_multiple():
    rng = np.random.default_rng(410)
    block = burn_in_steps(8, 4.0) + stage_steps(8, 1.0)
    times = [coupling_time(8, 1.0, rng) for _ in range(40)]
    assert all(t % block == 0 for t in times)
    # collision rate near 0.9 puts the median at a single block
    assert sorted(times)[len(times) // 2] == block


def test_coupling_time_gives_up_on_hopeless_cap(monkeypatch):
    calls = []

    def never_coalesces(n, C, rng):
        calls.append((n, C))
        return SimpleNamespace(coalesced=False)

    monkeypatch.setattr(two_stage, "full_coupling_run", never_coalesces)
    with pytest.raises(RuntimeError, match=r"^no collision in 64 attempts for n=16, C=1\.0$"):
        coupling_time(16, 1.0, np.random.default_rng(411))
    assert calls == [(16, 1.0)] * 64
