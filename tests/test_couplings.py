"""Fraction-level maximal coupling and the weight-matching subset step."""

from __future__ import annotations

import math
from functools import cache

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from simplex_gibbs import cftp
from simplex_gibbs.chain import (
    SimplexPoint,
    _apply_step,
    _match_fsum,
    sample_uniform_simplex,
)
from simplex_gibbs.couplings import (
    DEGENERATE,
    ENFORCE_TOL,
    NUDGE_REFUSED,
    OK,
    OUT_OF_RANGE,
    REASONS,
    THINNED,
    _subset_couple_columns,
    couple_lambdas,
    remainder_inverse,
    success_probability,
)
from simplex_gibbs.partitions import EdgeSchedule, SplitRecord, analyze_schedule

from conftest import ALPHA, StepDraw, step, weight

# the (m, delta) grid exercised throughout: slopes both sides of 1 and
# intercepts of both signs
GRID_M = (0.8, 0.9, 1.0, 1.1, 1.25)
GRID_DELTA = (-0.1, 0.0, 0.05, 0.1)

# success_probability on the grid, worked by hand from the two formulas
FROZEN_P = {
    (0.8, -0.1): 0.7,
    (0.8, 0.0): 0.8,
    (0.8, 0.05): 0.8,
    (0.8, 0.1): 0.8,
    (0.9, -0.1): 0.8,
    (0.9, 0.0): 0.9,
    (0.9, 0.05): 0.9,
    (0.9, 0.1): 0.9,
    (1.0, -0.1): 0.9,
    (1.0, 0.0): 1.0,
    (1.0, 0.05): 0.95,
    (1.0, 0.1): 0.9,
    (1.1, -0.1): 1.0 - 0.1 / 1.1,
    (1.1, 0.0): 1.0 / 1.1,
    (1.1, 0.05): 0.95 / 1.1,
    (1.1, 0.1): 0.9 / 1.1,
    (1.25, -0.1): 0.8,
    (1.25, 0.0): 0.8,
    (1.25, 0.05): 0.76,
    (1.25, 0.1): 0.72,
}


def _aux_from(rng):
    return lambda: float(rng.random())


# ---------------------------------------------------------- probability


def test_success_probability_frozen_grid():
    for (m, d), p in FROZEN_P.items():
        assert success_probability(m, d) == pytest.approx(p, abs=1e-12), (m, d)


def test_success_probability_edge_cases():
    assert success_probability(1.0, 0.0) == 1.0
    assert success_probability(0.0, 0.0) == 0.0
    assert success_probability(-2.0, 0.1) == 0.0
    assert success_probability(math.inf, 0.0) == 0.0
    assert success_probability(1.0, math.nan) == 0.0
    assert success_probability(1.0, 2.0) == 0.0
    assert success_probability(1.0, -2.0) == 0.0
    assert success_probability(5.0, -2.0) == pytest.approx(0.6 - 0.4)


@given(
    m=hst.floats(min_value=0.05, max_value=20.0),
    delta=hst.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=300)
def test_success_probability_orientation_invariant(m, delta):
    # swapping the chains maps (m, delta) to (1/m, -delta/m)
    p1 = success_probability(m, delta)
    p2 = success_probability(1.0 / m, -delta / m)
    assert p1 == pytest.approx(p2, abs=1e-9)
    assert 0.0 <= p1 <= 1.0


def test_success_frequency_matches_probability():
    rng = np.random.default_rng(101)
    trials = 20000
    for m, d in ((0.8, -0.1), (0.9, 0.05), (1.1, -0.1), (1.25, 0.1)):
        p = success_probability(m, d)
        u = rng.random(trials)
        coin = rng.random(trials)
        hits = sum(
            couple_lambdas(m, d, float(u[t]), float(coin[t]), _aux_from(rng)).success
            for t in range(trials)
        )
        se = math.sqrt(p * (1.0 - p) / trials)
        assert abs(hits / trials - p) < 4.0 * se + 1e-12, (m, d)


# ---------------------------------------------------------- marginals


def test_coupled_fraction_marginal_is_uniform():
    rng = np.random.default_rng(77)
    trials = 20000
    for m, d in ((0.8, 0.1), (1.25, -0.1), (0.9, 0.0)):
        out = np.empty(trials)
        for t in range(trials):
            out[t] = couple_lambdas(
                m, d, float(rng.random()), float(rng.random()), _aux_from(rng)
            ).lam_x
        assert st.kstest(out, "uniform").pvalue > ALPHA, (m, d)


def test_success_relation_holds_exactly_on_success():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        m = float(rng.uniform(0.5, 2.0))
        d = float(rng.uniform(-0.2, 0.2))
        c = couple_lambdas(m, d, float(rng.random()), float(rng.random()), _aux_from(rng))
        if c.success:
            assert c.lam_x == m * c.lam_y + d
            assert 0.0 <= c.lam_x <= 1.0


def test_failure_draw_avoids_carved_mass_for_small_slope():
    # for m < 1 the remainder density vanishes on the image window
    rng = np.random.default_rng(6)
    m, d = 0.5, 0.2
    lo, hi = 0.2, 0.7
    for _ in range(3000):
        c = couple_lambdas(m, d, float(rng.random()), float(rng.random()), _aux_from(rng))
        if not c.success:
            assert not (lo < c.lam_x < hi)


# ---------------------------------------------------------- remainder


def test_remainder_inverse_frozen_values():
    # window [0.2, 0.6], factor 0.5: total mass 0.8
    assert remainder_inverse(0.125, 0.2, 0.6, 0.5) == pytest.approx(0.1)
    assert remainder_inverse(0.25, 0.2, 0.6, 0.5) == pytest.approx(0.2)
    assert remainder_inverse(0.5, 0.2, 0.6, 0.5) == pytest.approx(0.6)
    assert remainder_inverse(1.0, 0.2, 0.6, 0.5) == pytest.approx(1.0)
    # zero factor skips the window entirely
    assert remainder_inverse(0.5, 0.25, 0.75, 0.0) == pytest.approx(0.75)
    # degenerate windows reduce to the identity
    assert remainder_inverse(0.3, 0.6, 0.4, 0.5) == 0.3
    assert remainder_inverse(0.3, 0.0, 1.0, 0.0) == 0.3


@given(
    u=hst.floats(min_value=0.0, max_value=1.0),
    lo=hst.floats(min_value=0.0, max_value=1.0),
    width=hst.floats(min_value=0.0, max_value=1.0),
    factor=hst.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=400)
def test_remainder_inverse_range_and_monotonicity(u, lo, width, factor):
    hi = min(1.0, lo + width)
    v = remainder_inverse(u, lo, hi, factor)
    assert 0.0 <= v <= 1.0
    u2 = min(1.0, u + 0.125)
    assert remainder_inverse(u2, lo, hi, factor) >= v


def test_remainder_inverse_distribution():
    rng = np.random.default_rng(13)
    lo, hi, factor = 0.3, 0.8, 0.25
    z = lo + factor * (hi - lo) + (1.0 - hi)

    def cdf(t):
        t = np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)
        below = np.minimum(t, lo)
        inside = factor * np.clip(t - lo, 0.0, hi - lo)
        above = np.clip(t - hi, 0.0, 1.0 - hi)
        return (below + inside + above) / z

    x = np.array([remainder_inverse(float(rng.random()), lo, hi, factor) for _ in range(8000)])
    assert st.kstest(x, cdf).pvalue > ALPHA


# ---------------------------------------------------------- scalar oracle


def subset_couple_step(x, y, i, j, piece_i, piece_j, u, coin, aux):
    """The weight-matching attempt on one pair of validated points.

    The scalar form the package used before every caller moved to
    ``_subset_couple_columns``; it is kept here as the reference the kernel
    is checked against, bit for bit.  On success the two updated x
    coordinates are nudged so that both piece weights match the y chain
    under fsum; a nudge that finds no exact match within ENFORCE_TOL
    demotes the attempt to NUDGE_REFUSED and the unnudged states are
    returned.
    """
    pi = sorted(piece_i)
    pj = sorted(piece_j)
    xv, yv = x.values, y.values
    i0, j0 = i - 1, j - 1
    s_x = float(xv[i0]) + float(xv[j0])
    s_y = float(yv[i0]) + float(yv[j0])
    if s_x > 0.0 and s_y > 0.0:
        m = s_y / s_x
        terms = [float(yv[l - 1]) for l in pi if l != i]
        terms += [-float(xv[l - 1]) for l in pi if l != i]
        delta = math.fsum(terms) / s_x
    else:
        m = math.inf if s_x == 0.0 else 0.0
        delta = math.nan
    cpl = couple_lambdas(m, delta, u, coin, aux)

    xa = np.array(xv)
    ya = np.array(yv)
    _apply_step(xa, i0, j0, min(1.0, max(0.0, cpl.lam_x)))
    _apply_step(ya, i0, j0, min(1.0, max(0.0, cpl.lam_y)))
    if cpl.success:
        nudged = []
        for piece, k in ((pi, i), (pj, j)):
            target = math.fsum(float(ya[l - 1]) for l in piece)
            others = [float(xa[l - 1]) for l in piece if l != k]
            nudged.append(_match_fsum(target, others, float(xa[k - 1]), max_move=ENFORCE_TOL))
        if None in nudged:
            cpl = cpl._replace(code=NUDGE_REFUSED)
        else:
            xa[i0], xa[j0] = nudged
    return SimplexPoint(xa), SimplexPoint(ya), cpl


# ---------------------------------------------------------- subset step


def _split(i, j, piece_i, piece_j):
    return SplitRecord(time=1, i=i, j=j, part=tuple(sorted(piece_i + piece_j)),
                       piece_i=piece_i, piece_j=piece_j)


def _attempt(x, y, rec, u, coin, aux):
    """One-follower kernel attempt on validated points."""
    xs, ys = x.values.tolist(), y.values.tolist()
    (cpl,) = _subset_couple_columns([xs], ys, rec, u, coin, aux)
    return SimplexPoint(xs), SimplexPoint(ys), cpl


def _engineered_pair():
    # n = 4 states with gentle disagreement; dyadic so the relation
    # parameters are exact decimals
    x = SimplexPoint(np.array([0.25, 0.25, 0.25, 0.25]))
    y = SimplexPoint(np.array([0.3, 0.2, 0.3, 0.2]))
    return x, y


def test_subset_couple_step_success_matches_weights_exactly():
    x, y = _engineered_pair()
    rec = _split(1, 3, (1, 2), (3, 4))
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(200):
        u = float(rng.random())
        coin = float(rng.random())
        x2, y2, c = _attempt(x, y, rec, u, coin, _aux_from(rng))
        # s_x = 0.5, s_y = 0.6, m = 1.2, delta = (0.2 - 0.25) / 0.5 = -0.1
        assert c.m == pytest.approx(1.2)
        assert c.delta == pytest.approx(-0.1)
        if c.success:
            hits += 1
            assert weight([1, 2], x2) == weight([1, 2], y2)
            assert weight([3, 4], x2) == weight([3, 4], y2)
            # untouched coordinates keep their own values
            assert x2.values[1] == 0.25 and y2.values[3] == 0.2
    assert 0 < hits < 200


def test_subset_couple_step_singleton_piece_collides_coordinate():
    rec = _split(2, 4, (2,), (1, 3, 4, 5))
    rng = np.random.default_rng(9)
    for _ in range(300):
        x = sample_uniform_simplex(5, rng)
        y = sample_uniform_simplex(5, rng)
        u, coin = float(rng.random()), float(rng.random())
        x2, y2, c = _attempt(x, y, rec, u, coin, _aux_from(rng))
        if c.success:
            # piece {2} forces bitwise equality of that coordinate
            assert float(x2.values[1]) == float(y2.values[1])


def test_subset_couple_step_failure_keeps_marginal_behavior():
    x, y = _engineered_pair()
    rec = _split(1, 3, (1, 2), (3, 4))
    rng = np.random.default_rng(31)
    lams = []
    for _ in range(4000):
        u, coin = float(rng.random()), float(rng.random())
        x2, y2, c = _attempt(x, y, rec, u, coin, _aux_from(rng))
        lams.append(c.lam_x)
        assert c.lam_y == u
    assert st.kstest(np.array(lams), "uniform").pvalue > ALPHA


def test_subset_couple_step_success_rate_matches_formula():
    x, y = _engineered_pair()
    rec = _split(1, 3, (1, 2), (3, 4))
    rng = np.random.default_rng(8)
    trials = 4000
    hits = 0
    for _ in range(trials):
        u, coin = float(rng.random()), float(rng.random())
        _, _, c = _attempt(x, y, rec, u, coin, _aux_from(rng))
        hits += c.success
    p = success_probability(1.2, -0.1)
    se = math.sqrt(p * (1.0 - p) / trials)
    assert abs(hits / trials - p) < 4.0 * se


def test_degenerate_pair_sum_forces_failure():
    x = SimplexPoint(np.array([0.0, 0.0, 1.0]))
    y = SimplexPoint(np.array([0.2, 0.3, 0.5]))
    rng = np.random.default_rng(2)
    _, _, c = _attempt(x, y, _split(1, 2, (1,), (2, 3)), 0.5, 0.5, _aux_from(rng))
    assert not c.success and c.reason == "degenerate"
    assert c.p == 0.0


def test_couple_lambdas_codes_and_probability():
    aux = lambda: 0.25
    assert couple_lambdas(1.2, -0.1, 0.5, 0.5, aux).code == OK
    assert couple_lambdas(1.2, -0.1, 0.05, 0.5, aux).code == OUT_OF_RANGE
    assert couple_lambdas(0.9, 0.05, 0.5, 0.95, aux).code == THINNED
    assert couple_lambdas(math.inf, math.nan, 0.5, 0.5, aux).code == DEGENERATE
    for (m, d), p in FROZEN_P.items():
        c = couple_lambdas(m, d, 0.5, 0.5, aux)
        assert c.p == success_probability(m, d) == pytest.approx(p, abs=1e-12)
        assert c.reason == REASONS[c.code]


# ------------------------------------------------- column-batched kernel

# reasons under which couple_lambdas drew a remainder uniform
RELATION_FAILED = ("out_of_range", "thinned", "degenerate")


def _scalar_reason(cpl, u: float, coin: float) -> str:
    """Why a subset_couple_step attempt failed, read off its outputs."""
    if not (math.isfinite(cpl.m) and cpl.m > 0.0 and math.isfinite(cpl.delta)):
        return "degenerate"
    if not 0.0 <= cpl.m * u + cpl.delta <= 1.0:
        return "out_of_range"
    if coin > min(1.0, cpl.m):
        return "thinned"
    return "ok" if cpl.success else "nudge_refused"


def _follower(y: np.ndarray, part0: list[int], scale: float, rng) -> np.ndarray | None:
    """A point equal to y off the part whose part weight equals y's exactly.

    In a tracked run the union of the two pieces already carries the same
    fsum weight in every chain (earlier splits tied it), so the followers
    are built that way: the part's coordinates are perturbed by a relative
    amount of order scale, then its largest one is re-solved for the weight.
    """
    x = np.array(y)
    x[part0] = y[part0] * (1.0 + scale * rng.uniform(-1.0, 1.0, len(part0)))
    k = part0[int(np.argmax(x[part0]))]
    others = [float(x[l]) for l in part0 if l != k]
    v = _match_fsum(math.fsum(y[part0].tolist()), others, float(x[k]))
    if v is None:
        return None
    x[k] = v
    return x


def _oracle_columns(y, i0, j0, part0, rng) -> np.ndarray:
    """Followers covering every outcome of an attempt against driver y."""
    cols = []
    for scale in (1e-12, 1e-9, 1e-6, 1e-3, 0.3, 0.9):
        for _ in range(3):
            x = _follower(y, part0, scale, rng)
            if x is not None:
                cols.append(x)
    # a part weight off by far more than ENFORCE_TOL: the nudge is refused
    off = np.array(y)
    k = max(part0, key=lambda l: y[l])
    off[k] += 1e-10
    cols.append(off)
    if len(y) > 2:
        # a zero pair sum leaves no usable relation
        zero = np.array(y)
        rest = next(l for l in range(len(y)) if l not in (i0, j0))
        zero[rest] += zero[i0] + zero[j0]
        zero[i0] = zero[j0] = 0.0
        cols.append(zero)
    cols.append(np.array(y))  # the driver itself couples as a passthrough
    return np.array(cols).T


class _CountingAux:
    """Remainder uniforms (start + 1)/8, (start + 2)/8, ... mod 1, counting calls."""

    def __init__(self, start: int = 0) -> None:
        self.calls = start

    def __call__(self) -> float:
        self.calls += 1
        return self.calls / 8.0 % 1.0


def _hex(values) -> list:
    """Floats as hex, so that signed zeros and NaNs compare by their bits."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def _check_against_oracle(xs, y, rec, u, coin) -> list[str]:
    """Every column of one kernel call against the scalar oracle, bitwise.

    Every list entry and every PairCoupling field is compared as hex.

    The kernel's remainder uniforms are numbered in call order; column v's
    oracle gets the uniform the kernel should have given it, and uses it
    exactly when its relation failed.
    """
    aux = _CountingAux()
    out, y_next = xs.T.tolist(), y.tolist()  # copies, stepped in place
    cpls = _subset_couple_columns(out, y_next, rec, u, coin, aux)
    assert len(cpls) == xs.shape[1]
    seen = []
    ypt = SimplexPoint(y)
    oracle_aux = _CountingAux()
    for v in range(xs.shape[1]):
        before = oracle_aux.calls
        x2, y2, cpl = subset_couple_step(
            SimplexPoint(xs[:, v]), ypt, rec.i, rec.j, rec.piece_i, rec.piece_j, u, coin, oracle_aux
        )
        want = _scalar_reason(cpl, u, coin)
        seen.append(want)
        assert oracle_aux.calls - before == (want in RELATION_FAILED)
        got = cpls[v]
        assert got.reason == want
        assert _hex(got) == _hex(cpl) and got.lam_y == u
        assert _hex(y_next) == _hex(y2.values.tolist())
        # every column commits its outcome, failed columns included
        assert _hex(out[v]) == _hex(x2.values.tolist())
        # alone, given the same remainder uniform, a column commits the same
        one = xs[:, v].tolist()
        (alone,) = _subset_couple_columns([one], y.tolist(), rec, u, coin, _CountingAux(before))
        assert _hex(alone) == _hex(got)
        assert _hex(one) == _hex(out[v])
    assert aux.calls == oracle_aux.calls
    return seen


@pytest.mark.parametrize("n", [2, 4, 16])
def test_subset_couple_columns_matches_scalar_oracle(n):
    rng = np.random.default_rng(600 + n)
    counts = dict.fromkeys(REASONS, 0)
    for _ in range(4):
        sched = EdgeSchedule.sample(n, 4 * n, rng)
        analysis = analyze_schedule(sched)
        for s in analysis.marked:
            rec = analysis.splits[s]
            y = sample_uniform_simplex(n, rng).values
            part0 = [l - 1 for l in rec.part]
            xs = _oracle_columns(y, rec.i - 1, rec.j - 1, part0, rng)
            draws = [(float(rng.random()), float(rng.random())) for _ in range(3)]
            draws += [(0.999, 0.01), (0.001, 0.01), (0.5, 0.999)]
            for u, coin in draws:
                # forward and reversed column orders reorder the remainder draws
                for cols in (xs, xs[:, ::-1].copy()):
                    for r in _check_against_oracle(cols, y, rec, u, coin):
                        counts[r] += 1
    # at n = 2 the part is the whole simplex, so followers share the pair
    # sum with the driver: m = 1, delta = 0 and the relation always holds
    expected = ("ok", "nudge_refused") if n == 2 else REASONS
    assert all(counts[r] > 0 for r in expected), counts


def test_kernel_reports_refused_nudge_before_later_relation_failure():
    # one marked time: column 0's relation holds but its nudge is refused,
    # column 1 has no usable relation, column 2 succeeds
    rng = np.random.default_rng(7)
    analysis = analyze_schedule(EdgeSchedule.sample(4, 16, rng))
    rec = analysis.splits[analysis.marked[-1]]
    y = sample_uniform_simplex(4, rng).values
    i0, j0 = rec.i - 1, rec.j - 1
    refused = np.array(y)
    refused[i0] += 1e-10
    zero = np.array(y)
    rest = next(l for l in range(4) if l not in (i0, j0))
    zero[rest] += zero[i0] + zero[j0]
    zero[i0] = zero[j0] = 0.0
    xs = np.array([refused, zero, y]).T
    aux = _CountingAux()
    cpls = _subset_couple_columns(xs.T.tolist(), y.tolist(), rec, 0.5, 0.01, aux)
    assert [c.code for c in cpls] == [NUDGE_REFUSED, DEGENERATE, OK]
    assert aux.calls == 1  # only the failed relation draws a remainder
    seen = _check_against_oracle(xs, y, rec, 0.5, 0.01)
    assert seen == ["nudge_refused", "degenerate", "ok"]


def test_refused_nudge_round_half_even_tie():
    # window run_epoch(16, 5, 1, 1), time 74, column 1: piece {13, 15} with
    # the moved coordinate x_13 in [2^-3, 2^-2) (ulp 2^-55) and the sum in
    # the same binade.  x_15 sits exactly half a sum-ulp off that grid, so
    # every v + x_15 is a tie, rounded to an even last bit: fsum moves by
    # two ulps every two steps of v, and the odd target is never hit.
    x13 = float.fromhex("0x1.414fb9f831e52p-3")
    x15 = float.fromhex("0x1.080950172eba6p-5")
    target = float.fromhex("0x1.83520dfdfd93bp-3")
    assert math.ldexp(x15, 55) % 1.0 == 0.5
    assert math.fsum([x13, x15]) == float.fromhex("0x1.83520dfdfd93cp-3")
    sums = set()
    v = x13
    for _ in range(16):
        v = math.nextafter(v, 0.0)
        sums.add(math.fsum([v, x15]))
    assert target not in sums
    assert all(math.ldexp(t, 55) % 2.0 == 0.0 for t in sums)  # even last bit
    assert _match_fsum(target, [x15], x13) is None
    assert _match_fsum(target, [x15], x13, max_move=ENFORCE_TOL) is None


@cache
def _tie_attempt():
    """The marked-time attempt of window run_epoch(16, 5, 1, 1) at time 74.

    Captured from the window walk as (columns as an (n, C) array, driver,
    split record, u, coin).  Column 1's nudge meets the half-ulp tie of
    ``test_refused_nudge_round_half_even_tie`` and is refused.
    """
    kernel = cftp._subset_couple_columns
    seen = []

    def capture(cols, yv, rec, u, coin, aux):
        if rec.time == 74:
            seen.append((np.array(cols).T, np.array(yv), rec, u, coin))
        return kernel(cols, yv, rec, u, coin, aux)

    cftp._subset_couple_columns = capture
    try:
        note = cftp.run_epoch(16, 5, 1, 1).failure
    finally:
        cftp._subset_couple_columns = kernel
    assert (note.time, note.column, note.reason) == (74, 1, "nudge_refused")
    (state,) = seen
    return state


def _with_subnormal(v: np.ndarray, k: int, t: int) -> np.ndarray:
    """v with coordinate k set to the subnormal t * 2^-1074, its mass moved to
    the largest other coordinate."""
    w = np.array(v)
    big = max((l for l in range(len(w)) if l != k), key=lambda l: w[l])
    tiny = math.ldexp(float(t), -1074)
    w[big] += w[k] - tiny
    w[k] = tiny
    return w


def _adversarial_columns(y: np.ndarray, rec, rng, t: int) -> list[np.ndarray]:
    """Followers of driver y at the kernel's edges, for the split rec."""
    i0, j0 = rec.i - 1, rec.j - 1
    part0 = [l - 1 for l in rec.part]
    cols = [np.array(y)]  # bitwise the driver
    for scale in (1e-12, 1e-6, 0.3):  # part weight tied to the driver's
        x = _follower(y, part0, scale, rng)
        if x is not None:
            cols.append(x)
    held = [l - 1 for l in rec.piece_i + rec.piece_j if l not in (rec.i, rec.j)]
    for k in [i0, j0, *held[:1]]:  # a subnormal moved or held coordinate
        cols.append(_with_subnormal(y, k, t))
    cols.append(_with_subnormal(_with_subnormal(y, i0, t), j0, t))  # subnormal pair sum
    if len(y) > 2:  # a zero pair sum: DEGENERATE
        zero = np.array(y)
        rest = next(l for l in range(len(y)) if l not in (i0, j0))
        zero[rest] += zero[i0] + zero[j0]
        zero[i0] = zero[j0] = 0.0
        cols.append(zero)
    cols.append(sample_uniform_simplex(len(y), rng).values)
    return cols


@settings(max_examples=120, deadline=None)
@given(
    tie=hst.booleans(),
    n=hst.integers(2, 8),
    size_i=hst.integers(1, 7),
    size_j=hst.integers(1, 7),
    seed=hst.integers(0, 2**32 - 1),
    t=hst.integers(1, 2**52 - 1),
    subnormal_driver=hst.booleans(),
    u=hst.floats(0.0, 1.0),
    coin=hst.floats(0.0, 1.0),
)
@example(tie=True, n=2, size_i=1, size_j=1, seed=0, t=1, subnormal_driver=False, u=0.5, coin=0.5)
@example(tie=False, n=2, size_i=1, size_j=1, seed=0, t=1, subnormal_driver=True, u=0.5, coin=0.5)
@example(tie=False, n=5, size_i=1, size_j=1, seed=1, t=2**52 - 1, subnormal_driver=False, u=0.5, coin=0.01)
def test_kernel_matches_scalar_oracle_on_adversarial_columns(
    tie, n, size_i, size_j, seed, t, subnormal_driver, u, coin
):
    # a split with pieces of any size (singletons hold nothing), a driver
    # and followers with subnormal coordinates, a zero pair sum, a column
    # bitwise equal to the driver, and the half-ulp tie of window
    # (16, 5, 1, 1), whose column 1 must still be refused
    rng = np.random.default_rng(seed)
    if tie:
        xs, y, rec, u, coin = _tie_attempt()
        first = list(xs.T)
    else:
        size_i = min(size_i, n - 1)
        size_j = min(size_j, n - size_i)
        perm = (rng.permutation(n) + 1).tolist()
        piece_i, piece_j = tuple(sorted(perm[:size_i])), tuple(sorted(perm[size_i:size_i + size_j]))
        rec = _split(piece_i[rng.integers(size_i)], piece_j[rng.integers(size_j)], piece_i, piece_j)
        y = sample_uniform_simplex(n, rng).values
        if subnormal_driver:
            y = _with_subnormal(y, int(rng.integers(n)), t)
        first = []
    cols = np.array(first + _adversarial_columns(y, rec, rng, t)).T
    seen = _check_against_oracle(cols, y, rec, u, coin)
    if tie:
        assert seen[0] == "nudge_refused"


# ---------------------------------------------------------- proportional


def test_two_coordinate_proportional_step_collides_bitwise():
    rng = np.random.default_rng(44)
    for _ in range(100):
        x = sample_uniform_simplex(2, rng)
        y = sample_uniform_simplex(2, rng)
        d = StepDraw(1, 2, float(rng.random()))
        assert step(x, d).equals_bitwise(step(y, d))


def test_proportional_step_shares_draw():
    rng = np.random.default_rng(45)
    x = sample_uniform_simplex(4, rng)
    y = sample_uniform_simplex(4, rng)
    d = StepDraw(2, 4, 0.75)
    x2, y2 = step(x, d), step(y, d)
    sx = float(x.values[1]) + float(x.values[3])
    sy = float(y.values[1]) + float(y.values[3])
    # lam >= 1/2 takes the direct branch of the split, so == is exact
    assert x2.values[1] == 0.75 * sx
    assert y2.values[1] == 0.75 * sy
