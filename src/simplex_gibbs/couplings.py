"""Couplings of two pair-mixing chains.

Two mechanisms are provided.  The proportional coupling feeds the same
(i, j, lam) draw to both chains; squared distance then contracts by the
factor in ``chain.contraction_factor`` in expectation and never increases
the per-coordinate gap, but it cannot make two continuous states collide
in finite time for n > 2.

The subset coupling is the collision mechanism.  Given a coordinate set S
containing i but not j, the post-step weight of S agrees across the two
chains exactly when the mixing fractions satisfy the affine relation

    lam_x = m * lam_y + delta,
    m = (y_i + y_j) / (x_i + x_j),
    delta = (sum_{l in S, l != i} (y_l - x_l)) / (x_i + x_j).

``couple_lambdas`` realizes the maximal coupling of two uniform fractions
subject to that relation: the driver fraction lam_y = u is passed through,
the candidate m * u + delta is accepted when it lands in [0, 1] (thinned by
a coin with rate min(1, m) so the accepted candidate never exceeds the
uniform target density), and on failure lam_x is drawn from the exact
complementary density by inverse cdf.  Both marginals are uniform on [0, 1]
by construction and the success probability equals ``success_probability``.

``subset_couple_step`` applies the coupled fractions to both chains and, on
success, adjusts the two updated x coordinates so that the fsum weights of
the two pieces agree with the y chain bit for bit.  A piece that is a
singleton {l} therefore leaves x_l bitwise equal to y_l, which is what makes
full coalescence exact rather than approximate.  The adjustment is usually
nothing or a few ulps, but an exact match is not always reachable: when the
other coordinates of a piece sum to a value half an ulp of the piece weight
off the moved coordinate's grid, round-half-even lets the weight take only
every other double, and an odd target is missed by one ulp whatever the
moved coordinate is.  Such an attempt is refused (see ``subset_couple_step``).

``_subset_couple_columns`` is the same attempt for many follower chains
against one driver, held as the columns of an array; the perfect sampler's
tracked run uses it.  It reproduces ``subset_couple_step`` column by column,
bit for bit, and reports why each column failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from simplex_gibbs.chain import (
    SimplexPoint,
    StepDraw,
    _apply_step,
    _match_fsum,
    step,
)


def success_probability(m: float, delta: float) -> float:
    """Maximal probability that lam_x = m * lam_y + delta with both uniform.

    The constraint line carries at most min(1, m) density per unit of
    driver mass, giving

        m >= 1:  max(0, min(1, (1 - delta) / m) - max(0, -delta / m))
        m <  1:  max(0, min(1, m + delta) - max(0, delta))

    The two expressions agree on m = 1 and the value is invariant under
    swapping the roles of the chains (m, delta) -> (1/m, -delta/m).
    Degenerate inputs (m <= 0 or non-finite) give probability zero.
    """
    if not (math.isfinite(m) and math.isfinite(delta)) or m <= 0.0:
        return 0.0
    if m >= 1.0:
        p = min(1.0, (1.0 - delta) / m) - max(0.0, -delta / m)
    else:
        p = min(1.0, m + delta) - max(0.0, delta)
    return max(0.0, p)


def remainder_inverse(u: float, lo: float, hi: float, factor: float) -> float:
    """Inverse cdf of the normalized density 1 - (1 - factor) * 1_[lo, hi].

    The density lives on [0, 1], equals 1 outside [lo, hi] and factor
    inside, with factor in [0, 1].  An empty or fully covering window
    degrades to the identity (plain uniform).
    """
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, 0.0), 1.0)
    if hi <= lo:
        return u
    z = lo + factor * (hi - lo) + (1.0 - hi)
    if z <= 0.0:
        return u
    c = u * z
    if c < lo:
        return c
    c -= lo
    inside = factor * (hi - lo)
    if c < inside:
        return lo + c / factor
    return min(hi + (c - inside), 1.0)


@dataclass(frozen=True)
class PairCoupling:
    """Outcome of one attempted fraction coupling.

    lam_y is the driver draw, lam_x the coupled fraction (equal to
    m * lam_y + delta on success, a remainder draw otherwise).  p is the
    analytic success probability for the attempted relation.
    """

    success: bool
    lam_x: float
    lam_y: float
    m: float
    delta: float
    p: float


def couple_lambdas(
    m: float,
    delta: float,
    u: float,
    coin: float,
    aux: Callable[[], float],
) -> PairCoupling:
    """Maximal coupling of uniform fractions along lam_x = m * lam_y + delta.

    Args:
        m: slope of the relation; success impossible unless finite and > 0.
        delta: intercept of the relation.
        u: driver uniform; becomes lam_y unchanged.
        coin: thinning uniform; the candidate is kept only if
            coin <= min(1, m), which caps the accepted density at 1.
        aux: zero-arg callable yielding one uniform; invoked exactly once,
            and only when the attempt fails, to draw lam_x from the
            complementary density.

    Returns:
        PairCoupling; lam_x is marginally uniform on [0, 1] when u, coin and
        the aux draw are independent uniforms.
    """
    p = success_probability(m, delta)
    usable = math.isfinite(m) and m > 0.0 and math.isfinite(delta)
    if usable:
        cand = m * u + delta
        if 0.0 <= cand <= 1.0 and coin <= min(1.0, m):
            return PairCoupling(True, float(cand), float(u), float(m), float(delta), p)
        lo = max(0.0, min(1.0, delta))
        hi = max(0.0, min(1.0, m + delta))
        factor = 1.0 - min(1.0, 1.0 / m)
        lam_x = remainder_inverse(float(aux()), lo, hi, factor)
        return PairCoupling(False, float(lam_x), float(u), float(m), float(delta), p)
    return PairCoupling(False, float(aux()), float(u), float(m), float(delta), p)


def proportional_step_pair(
    x: SimplexPoint, y: SimplexPoint, draw: StepDraw
) -> tuple[SimplexPoint, SimplexPoint]:
    """Advance both chains with the same draw (the contraction coupling).

    For n = 2 a single shared step collides the chains exactly: both pair
    sums are the correctly rounded total, which is bitwise 1.0 for points
    with an exact unit fsum, so the split outputs are identical doubles.
    """
    return step(x, draw), step(y, draw)


# An exact-weight nudge is a rounding cleanup; refusing moves beyond this
# keeps it from silently repairing states whose piece weights genuinely
# disagree (e.g. pieces that were never tied together by earlier splits).
ENFORCE_TOL = 1e-12


def _piece_weight_nudge(xa: np.ndarray, ya: np.ndarray, piece0: list[int], k0: int) -> float | None:
    """Value for xa[k0] making fsum(xa over piece0) equal fsum(ya over piece0).

    Returns None when no nonnegative value works or the required move from
    the natural value exceeds ENFORCE_TOL.
    """
    target = math.fsum(float(ya[l]) for l in piece0)
    others = [float(xa[l]) for l in piece0 if l != k0]
    return _match_fsum(target, others, float(xa[k0]), max_move=ENFORCE_TOL)


def subset_couple_step(
    x: SimplexPoint,
    y: SimplexPoint,
    i: int,
    j: int,
    piece_i: Sequence[int],
    piece_j: Sequence[int],
    u: float,
    coin: float,
    aux: Callable[[], float],
) -> tuple[SimplexPoint, SimplexPoint, PairCoupling]:
    """Attempt the weight-matching coupling for pair (i, j) across a split.

    piece_i and piece_j are disjoint 1-based coordinate sets with
    i in piece_i and j in piece_j (the two sides of the split being layered
    at this step; their union need not be all of [n]).  On success the two
    updated x coordinates are nudged so that both piece weights match the y
    chain exactly under fsum.  The nudges are rounding cleanups, meant to
    move each coordinate by a few ulps at most, but they can fail even when
    the relation succeeded and the union weights agree exactly: a rounding
    tie can leave the target weight between two reachable fsum values (see
    ``chain._match_fsum``).  If either nudge finds no exact match, would
    need to move farther than ENFORCE_TOL, or would need a negative
    coordinate, the attempt is demoted to a failure and the unnudged states
    are returned.

    Returns:
        (x_next, y_next, PairCoupling).
    """
    pi = sorted({int(l) for l in piece_i})
    pj = sorted({int(l) for l in piece_j})
    if i not in pi or j not in pj:
        raise ValueError("piece_i must contain i and piece_j must contain j")
    if set(pi) & set(pj):
        raise ValueError("pieces must be disjoint")
    if pi[0] < 1 or pj[0] < 1 or max(pi[-1], pj[-1]) > x.n or x.n != y.n:
        raise ValueError("piece indices out of range")

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
        # a degenerate pair sum leaves no usable relation; forced failure
        m = math.inf if s_x == 0.0 else 0.0
        delta = math.nan
    cpl = couple_lambdas(m, delta, u, coin, aux)

    xa = np.array(xv)
    ya = np.array(yv)
    _apply_step(xa, i0, j0, min(1.0, max(0.0, cpl.lam_x)))
    _apply_step(ya, i0, j0, min(1.0, max(0.0, cpl.lam_y)))
    if cpl.success:
        vi = _piece_weight_nudge(xa, ya, [l - 1 for l in pi], i0)
        vj = _piece_weight_nudge(xa, ya, [l - 1 for l in pj], j0)
        if vi is None or vj is None:
            cpl = replace(cpl, success=False)
        else:
            xa[i0] = vi
            xa[j0] = vj
    return SimplexPoint(xa), SimplexPoint(ya), cpl


# per-column outcome codes of _subset_couple_columns, indexing REASONS
OK, OUT_OF_RANGE, THINNED, DEGENERATE, NUDGE_REFUSED, UNCHECKED = range(6)
REASONS = ("ok", "out_of_range", "thinned", "degenerate", "nudge_refused", "unchecked")


def _subset_couple_columns(
    xs: np.ndarray,
    y: np.ndarray,
    i0: int,
    j0: int,
    piece_i: Sequence[int],
    piece_j: Sequence[int],
    u: float,
    coin: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weight-matching attempt of every column of xs against the driver y.

    The array form of ``subset_couple_step`` for C follower chains sharing
    one driver: xs is (n, C), indices are 0-based, i0 lies in piece_i and j0
    in piece_j, and all columns share the driver fraction u and the
    thinning coin.  The pieces are trusted, not checked.  Per column, s_x,
    m, the candidate m * u + delta, the acceptance test and the exact split
    are the scalar path's IEEE operations applied elementwise, and delta is
    the same ``math.fsum(...) / s_x``, so every value is bitwise that of
    ``subset_couple_step``.

    The exact-weight nudges run only for columns before the first relation
    failure, since a tracked run reads nothing after its first failure.

    Returns:
        (xs_next, y_next, m, delta, code).  code[v] is an index into REASONS:
        OK, OUT_OF_RANGE, THINNED or DEGENERATE (no usable relation), or
        NUDGE_REFUSED; a column after the first relation failure whose
        relation held is UNCHECKED.  Columns coded OK hold their stepped,
        nudged values; every other column keeps its input values, because
        a failed attempt is resolved by the caller.  y_next is the driver
        stepped with u.
    """
    cols = xs.shape[1]
    piece_i, piece_j = list(piece_i), list(piece_j)
    y_next = np.array(y, dtype=np.float64)
    _apply_step(y_next, i0, j0, min(1.0, max(0.0, u)))
    s_x = xs[i0] + xs[j0]
    s_y = float(y[i0]) + float(y[j0])
    live = (s_x > 0.0) & (s_y > 0.0)
    rest = [l for l in piece_i if l != i0]
    ys = [float(y[l]) for l in rest]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a degenerate pair sum leaves no usable relation, as in the scalar path
        m = np.where(live, s_y / s_x, np.where(s_x == 0.0, math.inf, 0.0))
        delta = np.array([
            math.fsum(ys + negx) / sx if ok else math.nan
            for negx, sx, ok in zip((-xs[rest]).T.tolist(), s_x.tolist(), live.tolist())
        ])
        cand = m * u + delta
        usable = np.isfinite(m) & (m > 0.0) & np.isfinite(delta)
        in_range = (cand >= 0.0) & (cand <= 1.0)
        code = np.where(
            ~usable, DEGENERATE,
            np.where(~in_range, OUT_OF_RANGE, np.where(coin <= np.minimum(1.0, m), OK, THINNED)),
        )
        # exact split at the candidate, as TransitionMatrix.shared_step
        a = cand * s_x
        b = s_x - a
        xi = np.where(a >= 0.5 * s_x, a, s_x - b)

    failed = np.flatnonzero(code != OK)
    first = int(failed[0]) if failed.size else cols
    code[first:][code[first:] == OK] = UNCHECKED
    out = np.array(xs, dtype=np.float64)
    out[i0, :first] = xi[:first]
    out[j0, :first] = b[:first]
    nudged = []
    for piece, k0 in ((piece_i, i0), (piece_j, j0)):
        target = math.fsum(y_next[piece].tolist())
        held = [l for l in piece if l != k0]
        nudged.append([
            _match_fsum(target, others, float(out[k0, v]), max_move=ENFORCE_TOL)
            for v, others in enumerate(out[held, :first].T.tolist())
        ])
    for v, (vi, vj) in enumerate(zip(*nudged)):
        if vi is None or vj is None:
            code[v] = NUDGE_REFUSED
            out[i0, v] = xs[i0, v]
            out[j0, v] = xs[j0, v]
        else:
            out[i0, v] = vi
            out[j0, v] = vj
    return out, y_next, m, delta, code
