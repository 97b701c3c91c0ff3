"""Single-chain dynamics: exact splitting, laws, samplers, weights."""

from __future__ import annotations

import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from simplex_gibbs import chain
from simplex_gibbs.chain import (
    LambdaLaw,
    SimplexPoint,
    contraction_factor,
    exact_split,
    sample_step_draw,
    sample_uniform_simplex,
)
from simplex_gibbs.couplings import ENFORCE_TOL
from simplex_gibbs.partitions import EdgeSchedule
from simplex_gibbs.streams import _pairs_from_words
from simplex_gibbs.two_stage import proportional_run

from conftest import (
    ALPHA,
    StepDraw,
    coordinate_cdf,
    draw_step,
    pair_at,
    step,
    uniform_simplex_oracle,
    weight,
)


# ---------------------------------------------------------------- exact_split


@given(
    lam=hst.floats(min_value=0.0, max_value=1.0),
    s=hst.floats(min_value=0.0, max_value=1.0, exclude_min=False),
)
@settings(max_examples=500)
def test_exact_split_conserves_sum_as_reals(lam, s):
    a, b = exact_split(lam, s)
    assert a >= 0.0 and b >= 0.0
    # Fraction arithmetic is exact, so this checks real-number identity
    assert Fraction(a) + Fraction(b) == Fraction(s)


@given(
    lam=hst.floats(min_value=0.0, max_value=1.0),
    s=hst.floats(min_value=1e-300, max_value=1e300),
)
@settings(max_examples=500)
def test_exact_split_close_to_target(lam, s):
    a, _ = exact_split(lam, s)
    # a equals lam * s up to one rounding of either lam * s or s - lam * s
    assert abs(a - lam * s) <= 2.0 * math.ulp(s)


def test_exact_split_endpoints():
    assert exact_split(0.0, 0.75) == (0.0, 0.75)
    assert exact_split(1.0, 0.75) == (0.75, 0.0)
    assert exact_split(0.5, 0.0) == (0.0, 0.0)


def _branchy_split(lam, s):
    """The split as first written, with a branch: the bitwise oracle."""
    a = lam * s
    if a >= 0.5 * s:
        return a, s - a
    b = s - a
    return s - b, b


def _split_grid():
    """Edge-case fractions and pair sums, plus random ones of both."""
    rng = np.random.default_rng(20)
    lams = [0.0, 1.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 5e-324]
    lams += rng.random(40).tolist()
    tiny = sys.float_info.min
    sums = [0.0, 5e-324, 3e-320, math.nextafter(tiny, 0.0), tiny, math.nextafter(tiny, 1.0),
            1.0, 2.0, 1e300]
    sums += rng.random(30).tolist() + (2.0 ** rng.uniform(-1070.0, 1000.0, 30)).tolist()
    return lams, sums


def test_exact_split_matches_branchy_oracle_bitwise():
    lams, sums = _split_grid()
    for lam in lams:
        for s in sums:
            got, want = exact_split(lam, s), _branchy_split(lam, s)
            assert [v.hex() for v in got] == [v.hex() for v in want], (lam, s)
        # one call on an array of sums splits every entry to the same bits
        got = np.array(exact_split(lam, np.array(sums)))
        want = np.array([_branchy_split(lam, s) for s in sums]).T
        assert got.tobytes() == want.tobytes(), lam


@pytest.mark.parametrize("shape", ["list", "vector", "columns"])
def test_apply_step_matches_scalar_splits_in_every_shape(shape):
    # columns: vertices (zero pair sums), a subnormal-heavy point, random
    # points; every shape must step each chain to the oracle's bits
    rng = np.random.default_rng(7)
    n = 6
    cols = np.concatenate(
        [np.eye(n)[:, :2], np.array([[1.0 - 4e-310, 1e-310, 1e-310, 1e-310, 1e-310, 0.0]]).T,
         rng.dirichlet(np.ones(n), size=5).T], axis=1,
    )
    lams = [0.0, 1.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 5e-324]
    ref = cols.T.tolist()
    held = {"list": ref[3][:], "vector": cols[:, 3].copy(), "columns": cols.copy()}[shape]
    for t in range(300):
        i0, j0 = (int(v) for v in rng.choice(n, 2, replace=False))
        lam = lams[t] if t < len(lams) else float(rng.random())
        for col in ref:
            col[i0], col[j0] = _branchy_split(lam, col[i0] + col[j0])
        chain._apply_step(held, i0, j0, lam)
        want = np.array(ref).T if shape == "columns" else np.array(ref[3])
        assert np.asarray(held, dtype=np.float64).tobytes() == want.tobytes()


# coordinates: zeros, subnormals, and random doubles of [0, 1]
_COORDS = hst.one_of(
    hst.just(0.0),
    hst.floats(5e-324, math.ulp(0.0) * 2**52, allow_subnormal=True),
    hst.floats(0.0, 1.0),
)
_LAMS = hst.one_of(hst.sampled_from([0.0, 1.0, 0.5, math.nextafter(1.0, 0.0)]), hst.floats(0.0, 1.0))


@pytest.mark.parametrize("count", [1, 17])
@settings(max_examples=150, deadline=None)
@given(data=hst.data())
def test_step_lists_equals_apply_step_on_each_list(count, data):
    n = data.draw(hst.integers(2, 9))
    chains = [data.draw(hst.lists(_COORDS, min_size=n, max_size=n)) for _ in range(count)]
    i0, j0 = data.draw(hst.permutations(range(n)))[:2]
    lam = data.draw(_LAMS)
    want = [x[:] for x in chains]
    for x in want:
        chain._apply_step(x, i0, j0, lam)
    chain._step_lists(chains, i0, j0, lam)
    assert [[v.hex() for v in x] for x in chains] == [[v.hex() for v in x] for x in want]


# ---------------------------------------------------------------- SimplexPoint


def test_simplex_point_validation():
    with pytest.raises(ValueError):
        SimplexPoint(np.array([1.0]))
    with pytest.raises(ValueError):
        SimplexPoint(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SimplexPoint(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        SimplexPoint(np.array([np.nan, 1.0]))
    p = SimplexPoint(np.array([0.25, 0.75]))
    assert p.n == 2
    with pytest.raises(ValueError):
        p.values[0] = 0.3


def test_vertex_and_center():
    v = SimplexPoint.vertex(5, 3)
    assert v.values[2] == 1.0 and v.values.sum() == 1.0
    c = SimplexPoint.center(7)
    assert math.fsum(c.values.tolist()) == 1.0
    assert abs(float(c.values[0]) - 1.0 / 7.0) <= math.ulp(1.0 / 7.0)


def test_step_frozen_dyadic_examples():
    # dyadic inputs make every intermediate exact, so == is legitimate
    x = SimplexPoint(np.array([0.25, 0.25, 0.5]))
    y = step(x, StepDraw(1, 2, 0.5))
    assert y.values.tolist() == [0.25, 0.25, 0.5]
    z = step(x, StepDraw(1, 3, 0.75))
    assert z.values.tolist() == [0.5625, 0.25, 0.1875]
    w = step(SimplexPoint(np.array([0.5, 0.5])), StepDraw(1, 2, 0.25))
    assert w.values.tolist() == [0.25, 0.75]


@given(
    lam=hst.floats(min_value=0.0, max_value=1.0),
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200)
def test_step_conserves_pair_sum(lam, seed):
    r = np.random.default_rng(seed)
    x = sample_uniform_simplex(6, r)
    d = draw_step(6, r)
    d = StepDraw(d.i, d.j, lam)
    y = step(x, d)
    s = float(x.values[d.i - 1]) + float(x.values[d.j - 1])
    assert Fraction(float(y.values[d.i - 1])) + Fraction(float(y.values[d.j - 1])) == Fraction(s)
    # untouched coordinates are bitwise unchanged
    mask = np.ones(6, dtype=bool)
    mask[[d.i - 1, d.j - 1]] = False
    assert np.array_equal(x.values[mask], y.values[mask])


def test_fsum_drift_stays_tiny_over_long_runs():
    rng = np.random.default_rng(3)
    x, y = proportional_run(SimplexPoint.center(16), SimplexPoint.vertex(16, 1), 5000, rng)
    assert abs(math.fsum(x.values.tolist()) - 1.0) < 1e-12
    assert abs(math.fsum(y.values.tolist()) - 1.0) < 1e-12


# ---------------------------------------------------------------- bulk draws


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the scalar draws that ``sample_step_draw(..., size=K)`` falls back to."""
    calls = []
    scalar = chain._scalar_draws

    def spy(n, rng, law, size):
        calls.append(size)
        return scalar(n, rng, law, size)

    monkeypatch.setattr(chain, "_scalar_draws", spy)
    return calls


def _assert_bulk_equals_scalar(n, make_rng, size, law=None, hold_half=False):
    """K bulk draws equal K ``draw_step`` calls, and so do the draws that follow."""
    a, b = make_rng(), make_rng()
    if hold_half:  # a scalar integer draw leaves the high half of its word buffered
        a.integers(0, 3)
        b.integers(0, 3)
    i, j, lam = sample_step_draw(n, a, law, size=size)
    want = [draw_step(n, b, law) for _ in range(size)]
    assert i.dtype == j.dtype == np.int64 and lam.dtype == np.float64
    assert i.tolist() == [d.i for d in want] and j.tolist() == [d.j for d in want]
    assert [v.hex() for v in lam.tolist()] == [d.lam.hex() for d in want]
    # str() compares the array-valued states of other bit generators too
    assert str(a.bit_generator.state) == str(b.bit_generator.state)
    assert a.integers(0, 1000, size=5).tolist() == b.integers(0, 1000, size=5).tolist()
    assert a.random(3).tolist() == b.random(3).tolist()


@pytest.mark.parametrize("hold_half", [False, True], ids=["fresh", "held_half"])
@pytest.mark.parametrize("size", [0, 1, 2, 7, 8, 267])
@pytest.mark.parametrize("n", [2, 3, 16, 1024])
def test_bulk_draws_equal_scalar_draws(n, size, hold_half, fallbacks):
    for seed in range(3):
        _assert_bulk_equals_scalar(n, lambda: np.random.default_rng(seed), size, hold_half=hold_half)
    if n <= 16:
        # 2^32 mod c <= 16 here: a Lemire rejection has odds below 2^-28 per draw
        assert fallbacks == []


def test_bulk_draws_leave_the_last_high_half_buffered():
    # an odd number of fresh integer halves holds one, an even number none
    for size, held in ((1, 1), (2, 0), (7, 1), (8, 0)):
        rng = np.random.default_rng(5)
        sample_step_draw(16, rng, size=size)
        assert rng.bit_generator.state["has_uint32"] == held


def test_bulk_draws_fall_back_on_a_lemire_rejection(fallbacks):
    # c = n(n-1)/2 > 2^31 at n = 65537, so 2^32 mod c = 2^32 - c rejects about half of all halves
    n = 65537
    outcomes = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        entry = rng.bit_generator.state
        decoded = chain._decode_draws(n, rng.bit_generator, 1)
        if decoded is None:
            assert rng.bit_generator.state == entry
        outcomes.append(decoded is None)
        _assert_bulk_equals_scalar(n, lambda: np.random.default_rng(seed), 8)
    assert any(outcomes) and not all(outcomes)
    assert len(fallbacks) >= 9


@pytest.mark.parametrize(
    "n, make_rng, law",
    [
        (16, lambda: np.random.Generator(np.random.Philox(3)), None),
        (16, lambda: np.random.default_rng(3), LambdaLaw.beta(0.5)),
        (92683, lambda: np.random.default_rng(3), None),
    ],
    ids=["philox", "beta_law", "c_at_least_2^32"],
)
def test_bulk_draws_fall_back_to_scalar_draws(n, make_rng, law, fallbacks):
    _assert_bulk_equals_scalar(n, make_rng, 7, law=law)
    _assert_bulk_equals_scalar(n, make_rng, 8, law=law, hold_half=True)
    assert fallbacks == [7, 8]


def test_bulk_draws_decode_up_to_the_largest_n_below_2_to_32_pairs(fallbacks):
    assert chain.pair_count(92682) < 1 << 32 <= chain.pair_count(92683)
    _assert_bulk_equals_scalar(92682, lambda: np.random.default_rng(4), 9)
    assert fallbacks == []


def test_decoder_guard_passes_on_this_numpy():
    assert chain._decoder_guard()


def test_guard_mismatch_warns_once_and_falls_back(monkeypatch, fallbacks):
    decode = chain._decode_draws

    def moved(n, bg, size):
        got = decode(n, bg, size)
        return None if got is None else (got[0], got[1] * 0.5)

    monkeypatch.setattr(chain, "_BULK_OK", None)
    monkeypatch.setattr(chain, "_decode_draws", moved)
    with pytest.warns(RuntimeWarning, match="one at a time"):
        _assert_bulk_equals_scalar(16, lambda: np.random.default_rng(6), 7)
    assert chain._BULK_OK is False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_bulk_equals_scalar(16, lambda: np.random.default_rng(6), 8)
    # after the guard's own scalar reference draws, both calls drew scalar
    assert fallbacks[-2:] == [7, 8]


def test_negative_draw_count_raises():
    with pytest.raises(ValueError, match="nonnegative"):
        sample_step_draw(16, np.random.default_rng(0), size=-1)


def test_draw_size_is_required():
    with pytest.raises(TypeError):
        sample_step_draw(16, np.random.default_rng(0))


@pytest.mark.parametrize("count", [True, 2.5, -1])
def test_step_counts_are_checked_on_both_entry_points(count):
    # a bool would draw one step, a float would fail late with a TypeError
    # naming another number, and a negative count would draw nothing
    rng = np.random.default_rng(0)
    entry = rng.bit_generator.state
    with pytest.raises(ValueError, match="nonnegative integer"):
        sample_step_draw(16, rng, size=count)
    with pytest.raises(ValueError, match="nonnegative integer"):
        next(chain._step_draws(16, count, rng))
    assert rng.bit_generator.state == entry


# ---------------------------------------------------------------- LambdaLaw


def test_lambda_law_moments_frozen():
    assert LambdaLaw.uniform().lambda_sq == pytest.approx(1.0 / 3.0, abs=0.0)
    assert LambdaLaw.beta(1.0).lambda_sq == pytest.approx(1.0 / 3.0)
    # E[lam^2] = (a + 1) / (2 (2a + 1))
    assert LambdaLaw.beta(2.5).lambda_sq == pytest.approx(3.5 / 12.0)
    assert LambdaLaw.beta(4.0).lambda_sq == pytest.approx(5.0 / 18.0)


def test_lambda_law_moments_match_monte_carlo():
    rng = np.random.default_rng(5)
    for law in (LambdaLaw.uniform(), LambdaLaw.beta(0.5), LambdaLaw.beta(3.0)):
        x = np.fromiter((law.sample(rng) for _ in range(200000)), float, 200000)
        se = np.std(x**2) / math.sqrt(x.size)
        assert abs(float(np.mean(x**2)) - law.lambda_sq) < 5.0 * se


def test_lambda_law_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LambdaLaw("beta", -1.0)
    with pytest.raises(ValueError):
        LambdaLaw("triangular")


# ---------------------------------------------------------------- samplers


def test_step_draw_validation():
    with pytest.raises(ValueError):
        StepDraw(2, 2, 0.5)
    with pytest.raises(ValueError):
        StepDraw(0, 1, 0.5)
    with pytest.raises(ValueError):
        StepDraw(1, 2, 1.5)


def test_sample_step_draw_uniform_over_pairs():
    rng = np.random.default_rng(8)
    n = 5
    counts = {}
    trials = 40000
    i, j, _lam = sample_step_draw(n, rng, size=trials)
    for pair in zip(i.tolist(), j.tolist()):
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == n * (n - 1) // 2
    expected = trials / len(counts)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square with 9 degrees of freedom
    assert st.chi2.sf(chi2, len(counts) - 1) > ALPHA


def _row_walk(n, k):
    """Pair number k as 1-based (i, j), found by skipping whole rows."""
    i = 1
    while k >= n - i:
        k -= n - i
        i += 1
    return i, i + 1 + k


def test_pair_at_matches_triu_indices():
    for n in [*range(2, 201), 1024]:
        ii, jj = np.triu_indices(n, 1)
        got = np.array([pair_at(n, k) for k in range(len(ii))])
        np.testing.assert_array_equal(got[:, 0], ii + 1)
        np.testing.assert_array_equal(got[:, 1], jj + 1)
        # the package's array decoder gives the oracle's pair for every pair number
        i, j = chain._pairs_at(n, np.arange(len(ii)))
        assert i.tolist() == got[:, 0].tolist() and j.tolist() == got[:, 1].tolist()


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_pair_at_boundaries_match_row_walk(n):
    c = n * (n - 1) // 2
    for k in (0, n - 2, n - 1, c // 2, c - 1):
        assert pair_at(n, k) == _row_walk(n, k)
    assert pair_at(n, n - 2) == (1, n)
    assert pair_at(n, c - 1) == (n - 1, n)


# the largest n whose pair numbers the array decoder takes in int64
_PAIRS_AT_MAX_N = 1_518_500_250


@pytest.mark.parametrize("n", [10**4, 10**5, 10**6, _PAIRS_AT_MAX_N])
def test_pairs_at_matches_pair_at_at_scale(n):
    c = n * (n - 1) // 2
    ks = [0, n - 2, n - 1, c // 2, c - 1]
    # pair numbers whose count from the end sits on or next to a row start,
    # where a float square root can put the row one off
    for r in (1000, 2**20 + 7, 2**29, 2**30 + 3, n - 3, n - 2):
        if r < n - 1:
            ks += [c - 1 - back for back in (r * (r + 1) // 2 + d for d in (-1, 0, 1)) if 0 <= back < c]
    i, j = chain._pairs_at(n, np.array(ks))
    assert list(zip(i.tolist(), j.tolist())) == [pair_at(n, k) for k in ks]


def test_pairs_at_refuses_int64_overflow():
    n = _PAIRS_AT_MAX_N + 1
    with pytest.raises(ValueError, match="overflow"):
        chain._pairs_at(n, np.array([0]))
    # the schedule sampler decodes through it, so it shares the limit
    rng = np.random.default_rng(0)
    assert EdgeSchedule.sample(_PAIRS_AT_MAX_N, 3, rng).T == 3
    with pytest.raises(ValueError, match="overflow"):
        EdgeSchedule.sample(n, 3, rng)


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: EdgeSchedule.sample(3000, 100, rng),
        lambda rng: sample_step_draw(3000, rng, size=1),
        lambda rng: sample_step_draw(3000, rng, size=100),
        lambda rng: _pairs_from_words(np.array([0.5]), 3000),
    ],
    ids=["schedule", "step_draw", "step_draws_bulk", "pair_from_word"],
)
def test_pair_choice_memory_is_not_quadratic(draw):
    # a table of all n(n-1)/2 pairs at n=3000 would take about 72 MB
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        draw(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------- exact match


def _ulps(x, k):
    """The double k steps of nextafter from x (down for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _match_grid():
    """(target, others, candidate) cases of ``chain._match_fsum``."""
    rng = np.random.default_rng(15)
    pieces = []
    for k in range(7):
        for scale in (1e-6, 1e-3, 0.1, 1.0):
            others = (scale * rng.random(k)).tolist()
            pieces.append(others)
            if k:
                pieces.append([0.0, *others[1:]])
                pieces.append([1.5e-323, 2.5e-310, *others[2:]])  # subnormal others
    offsets = (1, -1, 2, -2, 7, -7, 40, -40)
    for others in pieces:
        for v in (1e-18, 3e-15, 1e-9, 1e-6, 1e-3, 0.1, 0.7, 1.0):
            t = math.fsum([v, *others])
            edge = math.ldexp(1.0, math.frexp(t)[1])  # the binade edge above t
            for target in {t, _ulps(t, 1), _ulps(t, -1), edge, _ulps(edge, 1), _ulps(edge, -1)}:
                d = max(0.0, math.fsum([target, *(-o for o in others)]))
                for cand in (d, v, -d, d + 1e-9, d - 1e-9, *(_ulps(d, k) for k in offsets)):
                    yield target, others, cand
    # the half-ulp tie: every v + others is a tie rounded to an even last bit
    for x in (0.75, 1.5, 0.3, 1e-3, 1.0):
        others = [math.ulp(x) / 2]
        t = math.fsum([x, *others])
        for target in (t, _ulps(t, 1), _ulps(t, -1)):
            for cand in (x, _ulps(x, 1), _ulps(x, -1), _ulps(x, 40)):
                yield target, others, cand


@pytest.mark.parametrize("max_move", [None, ENFORCE_TOL])
def test_match_fsum_refuses_only_where_a_scan_finds_no_solution(max_move):
    def admitted(v, cand):
        return v >= 0.0 and (max_move is None or abs(v - cand) <= max_move)

    cases = refused = 0
    for target, others, cand in _match_grid():
        cases += 1
        v = chain._match_fsum(target, others, cand, max_move=max_move)
        v0 = max(cand, 0.0)
        if admitted(v0, cand) and math.fsum([v0, *others]) == target:
            assert v == v0  # a solving candidate is kept
        if v is not None:
            assert admitted(v, cand) and math.fsum([v, *others]) == target
            continue
        refused += 1
        d = max(0.0, math.fsum([target, *(-o for o in others)]))
        scan, lo, hi = [0.0, d], d, d
        for _ in range(80):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            scan += [lo, hi]
        assert not any(admitted(w, cand) and math.fsum([w, *others]) == target for w in scan), (
            target,
            others,
            cand,
        )
    assert cases > 45_000 and 0 < refused < cases


def test_uniform_sampler_exact_unit_sum():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = sample_uniform_simplex(9, rng)
        assert math.fsum(x.values.tolist()) == 1.0


def test_uniform_sampler_marginal_matches_reference():
    rng = np.random.default_rng(12)
    n, m = 6, 4000
    ours = np.array([sample_uniform_simplex(n, rng).values for _ in range(m)])
    theirs = np.array([uniform_simplex_oracle(n, rng) for _ in range(m)])
    # first-coordinate marginal against the closed form and the oracle
    assert st.kstest(ours[:, 0], lambda t: coordinate_cdf(t, n)).pvalue > ALPHA
    assert st.ks_2samp(ours[:, 2], theirs[:, 2]).pvalue > ALPHA
    # exchangeability spot check: coordinate means all near 1/n
    assert np.allclose(ours.mean(axis=0), 1.0 / n, atol=4.0 * (1.0 / n) / math.sqrt(m))


def test_stationarity_of_uniform_law_under_stepping():
    # one step applied to a uniform draw leaves the coordinate marginal uniform
    rng = np.random.default_rng(21)
    n, m = 5, 4000
    out = np.empty(m)
    for t in range(m):
        x = sample_uniform_simplex(n, rng)
        y = step(x, draw_step(n, rng))
        out[t] = y.values[1]
    assert st.kstest(out, lambda t: coordinate_cdf(t, n)).pvalue > ALPHA


# ---------------------------------------------------------------- weights


def test_weight_is_order_independent_and_exact():
    rng = np.random.default_rng(4)
    x = sample_uniform_simplex(10, rng)
    s = [3, 1, 7, 9]
    w1 = weight(s, x)
    w2 = weight(list(reversed(s)), x)
    w3 = weight([9, 7, 3, 1, 1, 3], x)
    assert w1 == w2 == w3
    assert weight(range(1, 11), x) == 1.0
    assert weight([], x) == 0.0
    with pytest.raises(ValueError):
        weight([0, 1], x)
    with pytest.raises(ValueError):
        weight([11], x)


@given(seed=hst.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100)
def test_weight_matches_fraction_sum(seed):
    r = np.random.default_rng(seed)
    x = sample_uniform_simplex(7, r)
    idx = [1, 4, 6]
    exact = sum((Fraction(float(x.values[k - 1])) for k in idx), Fraction(0))
    # fsum returns the correctly rounded value of the exact sum
    assert weight(idx, x) == float(exact)


# ---------------------------------------------------------------- contraction


def test_contraction_factor_frozen_values():
    assert contraction_factor(2) == pytest.approx(0.0, abs=1e-15)
    assert contraction_factor(3) == pytest.approx(5.0 / 9.0, abs=1e-15)
    assert contraction_factor(16) == pytest.approx(686.0 / 720.0, abs=1e-15)
    # general second-moment form at E[lam^2] = 1/4
    assert contraction_factor(8, 0.25) == pytest.approx(0.75 + 6.0 / 56.0, abs=1e-15)


def test_contraction_factor_matches_one_step_monte_carlo():
    # E[|d'|^2] = factor * |d|^2 holds for every fixed zero-sum d, so a
    # one-step average over shared draws is an independent oracle
    rng = np.random.default_rng(17)
    n, m = 5, 60000
    d = np.array([0.4, -0.1, -0.25, 0.05, -0.1])
    z0 = float(np.dot(d, d))
    ii, jj = np.triu_indices(n, 1)
    idx = rng.integers(0, len(ii), size=m)
    lam = rng.random(m)
    vals = np.empty(m)
    for t in range(m):
        dd = d.copy()
        s = dd[ii[idx[t]]] + dd[jj[idx[t]]]
        dd[ii[idx[t]]] = lam[t] * s
        dd[jj[idx[t]]] = (1.0 - lam[t]) * s
        vals[t] = np.dot(dd, dd)
    se = float(np.std(vals)) / math.sqrt(m)
    assert abs(float(np.mean(vals)) - contraction_factor(n) * z0) < 4.0 * se
