"""Couplings of two pair-mixing chains.

Two mechanisms are provided.  The proportional coupling feeds the same
(i, j, lam) draw to both chains (``chain._step_lists`` steps both);
squared distance then contracts by the factor in
``chain.contraction_factor`` in expectation and never increases the
per-coordinate gap, but it cannot make two continuous states collide in
finite time for n > 2.

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
It is the only place where the relation is accepted or refused, and it
says why it was refused.

``_subset_couple_columns`` is the one weight-matching attempt of the
package.  It couples any number of follower chains, each a float list,
against one driver list and steps every list in place, each follower with
its coupled fraction, so every outcome it returns is committed; its callers
differ only in when they stop attempting.  Per column it makes one call,
to ``couple_lambdas``, which builds the column's ``PairCoupling`` (a named
tuple): the follower's split is the exact split's two lines inline, and a
piece weight that already matches is kept without calling
``chain._match_fsum``.
On success it adjusts the two updated coordinates so that the fsum weights
of the two pieces agree with the driver bit for bit.  A piece that is a
singleton {l} therefore leaves x_l bitwise equal to y_l, which is what
makes full coalescence exact rather than approximate.  The adjustment is
usually nothing or a few ulps, but an exact match is not always reachable:
when the other coordinates of a piece sum to a value half an ulp of the
piece weight off the moved coordinate's grid, round-half-even lets the
weight take only every other double, and an odd target is missed by one
ulp whatever the moved coordinate is.  Such an attempt is refused.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .chain import _apply_step, _match_fsum
from .partitions import SplitRecord


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


# outcome codes of a coupling attempt, indexing REASONS
OK, OUT_OF_RANGE, THINNED, DEGENERATE, NUDGE_REFUSED = range(5)
REASONS = ("ok", "out_of_range", "thinned", "degenerate", "nudge_refused")


class PairCoupling(NamedTuple):
    """Outcome of one attempted fraction coupling.

    lam_y is the driver draw, lam_x the coupled fraction (equal to
    m * lam_y + delta on success, a remainder draw otherwise).  code is an
    index into REASONS: OK, or why the attempt failed.  The record is an
    immutable named tuple, built once per column of every marked-time
    attempt, so it is kept cheap to build; a copy with another code is
    ``cpl._replace(code=...)``.
    """

    lam_x: float
    lam_y: float
    m: float
    delta: float
    code: int

    @property
    def success(self) -> bool:
        return self.code == OK

    @property
    def reason(self) -> str:
        return REASONS[self.code]

    @property
    def p(self) -> float:
        """Analytic success probability of the attempted relation."""
        return success_probability(self.m, self.delta)


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
        the aux draw are independent uniforms.  Its code is OK,
        DEGENERATE (no usable relation), OUT_OF_RANGE (the candidate left
        [0, 1]) or THINNED (the coin exceeded min(1, m)), tested in that
        order.
    """
    m, delta, u = float(m), float(delta), float(u)
    if not (math.isfinite(m) and m > 0.0 and math.isfinite(delta)):
        return PairCoupling(float(aux()), u, m, delta, DEGENERATE)
    cand = m * u + delta
    if not 0.0 <= cand <= 1.0:
        code = OUT_OF_RANGE
    elif not coin <= min(1.0, m):
        code = THINNED
    else:
        return PairCoupling(cand, u, m, delta, OK)
    lo = max(0.0, min(1.0, delta))
    hi = max(0.0, min(1.0, m + delta))
    factor = 1.0 - min(1.0, 1.0 / m)
    return PairCoupling(remainder_inverse(float(aux()), lo, hi, factor), u, m, delta, code)


# An exact-weight nudge is a rounding cleanup; refusing moves beyond this
# keeps it from silently repairing states whose piece weights genuinely
# disagree (e.g. pieces that were never tied together by earlier splits).
ENFORCE_TOL = 1e-12


def _subset_couple_columns(
    cols: list[list[float]],
    yv: list[float],
    rec: SplitRecord,
    u: float,
    coin: float,
    aux: Callable[[], float],
) -> list[PairCoupling]:
    """Weight-matching attempt of every follower chain against the driver yv.

    cols holds C follower chains as float lists, and all C + 1 lists are
    stepped in place: the driver with ``chain._apply_step``, each follower
    with the exact split's two lines inline, as ``chain._step_lists`` runs
    them.  rec is the marked time's split: pair (i, j) steps, with i in
    piece_i and j in piece_j.  All followers share the driver fraction u
    and the thinning coin.  Each follower's slope m and intercept delta (an
    fsum over piece_i without i, divided by x_i + x_j) go to
    ``couple_lambdas``, which calls aux once per failed relation; a zero
    pair sum leaves no usable relation (m = inf or 0, delta = nan).  Only
    entries i and j of any list change.

    Each follower commits its own outcome, coded in its PairCoupling:
      - OK: the split at m * u + delta, with x_i and x_j then moved so that
        the fsum weights of both pieces equal the driver's bit for bit;
      - NUDGE_REFUSED: the relation held, but a move within ENFORCE_TOL
        matched no weight exactly (see ``chain._match_fsum``); the split at
        m * u + delta, unmoved, and no aux draw;
      - OUT_OF_RANGE, THINNED or DEGENERATE: the split at the remainder
        fraction.

    A piece whose fsum weight already equals the driver's keeps its moved
    coordinate as split.  That test is ``_match_fsum``'s first try, bit for
    bit, so ``_match_fsum`` runs only when it misses.

    Returns one PairCoupling per follower, in the order of cols.
    """
    i0, j0 = rec.i - 1, rec.j - 1
    held_i = [l - 1 for l in rec.piece_i if l != rec.i]
    held_j = [l - 1 for l in rec.piece_j if l != rec.j]
    s_y = yv[i0] + yv[j0]
    y_held = [yv[l] for l in held_i]
    _apply_step(yv, i0, j0, u)
    target_i = math.fsum([yv[l - 1] for l in rec.piece_i])
    target_j = math.fsum([yv[l - 1] for l in rec.piece_j])
    fsum = math.fsum
    cpls = []
    for col in cols:
        x_held = [col[l] for l in held_i]
        s_x = col[i0] + col[j0]
        if s_x > 0.0 and s_y > 0.0:
            m = s_y / s_x
            delta = fsum(y_held + [-v for v in x_held]) / s_x
        else:
            m, delta = (math.inf if s_x == 0.0 else 0.0), math.nan
        cpl = couple_lambdas(m, delta, u, coin, aux)
        lam = cpl.lam_x
        if not 0.0 <= lam <= 1.0:
            lam = min(1.0, max(0.0, lam))
        b = s_x - lam * s_x
        a = s_x - b
        col[i0] = a
        col[j0] = b
        if cpl.code == OK:
            vi = a if fsum(x_held + [a]) == target_i else _match_fsum(target_i, x_held, a, ENFORCE_TOL)
            xj_held = [col[l] for l in held_j]
            vj = b if fsum(xj_held + [b]) == target_j else _match_fsum(target_j, xj_held, b, ENFORCE_TOL)
            if vi is None or vj is None:
                cpl = cpl._replace(code=NUDGE_REFUSED)
            else:
                col[i0], col[j0] = vi, vj
        cpls.append(cpl)
    return cpls
