"""Fraction-level maximal coupling and the weight-matching subset step."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from simplex_gibbs.chain import SimplexPoint, StepDraw, sample_uniform_simplex, weight
from simplex_gibbs.couplings import (
    couple_lambdas,
    proportional_step_pair,
    remainder_inverse,
    subset_couple_step,
    success_probability,
)

from conftest import ALPHA

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


# ---------------------------------------------------------- subset step


def _engineered_pair():
    # n = 4 states with gentle disagreement; dyadic so the relation
    # parameters are exact decimals
    x = SimplexPoint(np.array([0.25, 0.25, 0.25, 0.25]))
    y = SimplexPoint(np.array([0.3, 0.2, 0.3, 0.2]))
    return x, y


def test_subset_couple_step_success_matches_weights_exactly():
    x, y = _engineered_pair()
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(200):
        u = float(rng.random())
        coin = float(rng.random())
        x2, y2, c = subset_couple_step(x, y, 1, 3, [1, 2], [3, 4], u, coin, _aux_from(rng))
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
    rng = np.random.default_rng(9)
    for _ in range(300):
        x = sample_uniform_simplex(5, rng)
        y = sample_uniform_simplex(5, rng)
        u, coin = float(rng.random()), float(rng.random())
        x2, y2, c = subset_couple_step(x, y, 2, 4, [2], [1, 3, 4, 5], u, coin, _aux_from(rng))
        if c.success:
            # piece {2} forces bitwise equality of that coordinate
            assert float(x2.values[1]) == float(y2.values[1])


def test_subset_couple_step_failure_keeps_marginal_behavior():
    x, y = _engineered_pair()
    rng = np.random.default_rng(31)
    lams = []
    for _ in range(4000):
        u, coin = float(rng.random()), float(rng.random())
        x2, y2, c = subset_couple_step(x, y, 1, 3, [1, 2], [3, 4], u, coin, _aux_from(rng))
        lams.append(c.lam_x)
        assert c.lam_y == u
    assert st.kstest(np.array(lams), "uniform").pvalue > ALPHA


def test_subset_couple_step_success_rate_matches_formula():
    x, y = _engineered_pair()
    rng = np.random.default_rng(8)
    trials = 4000
    hits = 0
    for _ in range(trials):
        u, coin = float(rng.random()), float(rng.random())
        _, _, c = subset_couple_step(x, y, 1, 3, [1, 2], [3, 4], u, coin, _aux_from(rng))
        hits += c.success
    p = success_probability(1.2, -0.1)
    se = math.sqrt(p * (1.0 - p) / trials)
    assert abs(hits / trials - p) < 4.0 * se


def test_subset_couple_step_validation():
    x, y = _engineered_pair()
    aux = lambda: 0.5
    with pytest.raises(ValueError):
        subset_couple_step(x, y, 1, 3, [2], [3, 4], 0.5, 0.5, aux)
    with pytest.raises(ValueError):
        subset_couple_step(x, y, 1, 3, [1, 3], [3, 4], 0.5, 0.5, aux)
    with pytest.raises(ValueError):
        subset_couple_step(x, y, 1, 3, [1, 2], [3, 9], 0.5, 0.5, aux)


def test_degenerate_pair_sum_forces_failure():
    x = SimplexPoint(np.array([0.0, 0.0, 1.0]))
    y = SimplexPoint(np.array([0.2, 0.3, 0.5]))
    rng = np.random.default_rng(2)
    _, _, c = subset_couple_step(x, y, 1, 2, [1], [2, 3], 0.5, 0.5, _aux_from(rng))
    assert not c.success
    assert c.p == 0.0


# ---------------------------------------------------------- proportional


def test_two_coordinate_proportional_step_collides_bitwise():
    rng = np.random.default_rng(44)
    for _ in range(100):
        x = sample_uniform_simplex(2, rng)
        y = sample_uniform_simplex(2, rng)
        d = StepDraw(1, 2, float(rng.random()))
        x2, y2 = proportional_step_pair(x, y, d)
        assert x2.equals_bitwise(y2)


def test_proportional_step_pair_shares_draw():
    rng = np.random.default_rng(45)
    x = sample_uniform_simplex(4, rng)
    y = sample_uniform_simplex(4, rng)
    d = StepDraw(2, 4, 0.75)
    x2, y2 = proportional_step_pair(x, y, d)
    sx = float(x.values[1]) + float(x.values[3])
    sy = float(y.values[1]) + float(y.values[3])
    # lam >= 1/2 takes the direct branch of the split, so == is exact
    assert x2.values[1] == 0.75 * sx
    assert y2.values[1] == 0.75 * sy
