"""Random pairwise-mixing dynamics on the probability simplex.

The state space is the closed simplex of nonnegative n-vectors summing to
one.  One step selects an unordered coordinate pair {i, j} uniformly at
random together with a mixing fraction lam drawn from a symmetric law on
[0, 1], then replaces (x_i, x_j) by (lam * s, (1 - lam) * s) where
s = x_i + x_j.  The stationary law of this chain is uniform on the simplex.

Floating point discipline: the pair update is arranged so that the two
stored doubles sum exactly, as real numbers, to the computed pair sum
s = fl(x_i + x_j) (see ``exact_split``).  The only rounding per step is the
single addition forming s, so the exact total of the state drifts by at
most half an ulp per step and stays many orders of magnitude inside
SUM_TOL over any run length used here.  Points produced by the samplers in
this module additionally satisfy ``math.fsum(values) == 1.0`` bit for bit.
Coupled runs elsewhere in the package build on these facts to certify
coalescence and subset-weight agreement exactly instead of up to a
tolerance.

There is no stepping function for validated points: every loop of the
package holds its chains as raw floats (a list, a vector or the columns of
a matrix) and steps them in place with ``_apply_step``, or several lists
at once with ``_step_lists``, building a validated ``SimplexPoint`` only
where a point enters or leaves the loop.  Subset weights are ``math.fsum``
sums taken where they are needed.  Step draws likewise come only as
arrays: ``sample_step_draw(..., size=K)`` returns K pairs and fractions at
once, and ``_pairs_at`` decodes pair numbers in bulk.

Coordinate indices are 1-based everywhere in the public API.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Admission tolerance for externally supplied points.  Stepping itself is
# exactly sum-conserving, so drift can only come from the caller.
SUM_TOL = 1e-9


def exact_split(lam: float, s: float | np.ndarray) -> tuple:
    """Split s into (a, b) with a close to lam * s and a + b == s exactly.

    Sterbenz lemma: if doubles u, v satisfy v / 2 <= u <= v then v - u is
    computed without rounding.  With p = fl(lam * s) and b = fl(s - p):
      - if p >= s / 2, then s - p is exact, so b = s - p <= s / 2 and
        s - b = p is exact too: the split is (p, s - p);
      - if p < s / 2, then b lies in [s / 2, s], so s - b is exact.
    Either way a = s - b and b sum to s with zero error as real numbers,
    not merely to the last bit, and no branch is needed.  Being branch
    free, the same two lines split Python floats, numpy scalars and whole
    arrays entrywise, to the same bits.

    Args:
        lam: mixing fraction in [0, 1].
        s: nonnegative pair sum, a double or an array of them.

    Returns:
        Pair (a, b) of nonnegative doubles (or arrays) with a + b == s
        exactly.
    """
    b = s - lam * s
    return s - b, b


def _match_fsum(
    target: float,
    others: list[float],
    candidate: float,
    max_move: float | None = None,
) -> float | None:
    """Find v >= 0 with math.fsum([v, *others]) == target, near candidate.

    Three fixed tries, at most four fsum calls.  The candidate (clamped at
    zero) comes first, so a state that already matches is returned bitwise
    unchanged.  Next comes one Newton step from it, v0 + (target - f0),
    which settles nearly every other call.  Last comes
    d = fsum([target, -others...]), clamped at zero.  fsum is correctly
    rounded and monotone in v, so the solutions form one run of doubles
    around the exact centre target - sum(others).  When the others are
    nonnegative, d is the double nearest that centre and lies in the run
    whenever the run is not empty.  The run is empty when a step of v moves
    the rounded sum by two of its ulps: when v's ulp equals the sum's and
    the others' exact sum lies half an ulp off that grid, every v + others
    is a tie that rounds half to even, so the sum takes only even last bits
    and an odd target is skipped.  Returns None when no solution exists,
    when it would be negative, or (with max_move set) when it lies farther
    than max_move from the candidate; callers use that as a refusal to let
    a rounding cleanup turn into a real correction.
    """

    def admit(v: float) -> float | None:
        if v < 0.0:
            return None
        if max_move is not None and abs(v - candidate) > max_move:
            return None
        return v

    v0 = candidate if candidate >= 0.0 else 0.0
    f0 = math.fsum([v0, *others])
    if f0 == target:
        return admit(v0)
    v = admit(v0 + (target - f0))
    if v is not None and math.fsum([v, *others]) == target:
        return v
    d = max(0.0, math.fsum([target, *(-o for o in others)]))
    return admit(d) if math.fsum([d, *others]) == target else None


def _normalized_exact(values: np.ndarray) -> np.ndarray:
    """Scale values to the simplex and nudge one coordinate so fsum == 1.0."""
    v = np.asarray(values, dtype=np.float64)
    total = math.fsum(v.tolist())
    if not math.isfinite(total) or total <= 0.0:
        raise ValueError(f"cannot normalize values with sum {total}")
    v = v / total
    k = int(np.argmax(v))
    others = np.delete(v, k).tolist()
    adj = _match_fsum(1.0, others, float(v[k]))
    if adj is None:
        raise ValueError("normalization failed to reach an exact unit sum")
    v[k] = adj
    return v


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """Immutable point on the closed probability simplex.

    values must be a length n >= 2 vector of nonnegative finite doubles whose
    fsum lies within SUM_TOL of one.  The array is copied and frozen.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] < 2:
            raise ValueError("a simplex point needs at least two coordinates")
        if not np.isfinite(v).all():
            raise ValueError("simplex coordinates must be finite")
        if (v < 0.0).any():
            raise ValueError("simplex coordinates must be nonnegative")
        total = math.fsum(v.tolist())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"coordinates sum to {total!r}, outside 1 +/- {SUM_TOL}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @classmethod
    def vertex(cls, n: int, k: int = 1) -> "SimplexPoint":
        """Vertex e_k of the n-simplex (1-based k)."""
        if not 1 <= k <= n:
            raise ValueError(f"vertex index {k} out of range for n={n}")
        v = np.zeros(n)
        v[k - 1] = 1.0
        return cls(v)

    @classmethod
    def center(cls, n: int) -> "SimplexPoint":
        """Barycenter (1/n, ..., 1/n), nudged to an exact unit fsum."""
        return cls(_normalized_exact(np.full(n, 1.0 / n)))

    def to_list(self) -> list[float]:
        """JSON form: a plain array of n doubles."""
        return [float(t) for t in self.values]

    def equals_bitwise(self, other: "SimplexPoint") -> bool:
        return self.n == other.n and bool(np.array_equal(self.values, other.values))


@dataclass(frozen=True)
class LambdaLaw:
    """Symmetric law on [0, 1] for the mixing fraction.

    Supported kinds are the uniform law and Beta(a, a), both symmetric
    about 1/2 for every a > 0.  Construction checks the kind and the shape.
    The contraction report reads ``lambda_sq``, the second moment E[lam^2].
    """

    kind: str = "uniform"
    a: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "beta"):
            raise ValueError(f"unknown lambda law kind {self.kind!r}")
        if self.kind == "beta":
            if self.a is None or not (math.isfinite(self.a) and self.a > 0):
                raise ValueError("beta law needs a shape a > 0")

    @classmethod
    def uniform(cls) -> "LambdaLaw":
        return cls("uniform")

    @classmethod
    def beta(cls, a: float) -> "LambdaLaw":
        return cls("beta", float(a))

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "uniform":
            return rng.random()
        return rng.beta(self.a, self.a)

    @property
    def lambda_sq(self) -> float:
        """E[lam^2]; 1/3 for uniform, 1/4 + 1/(4(2a + 1)) for Beta(a, a).

        The Beta value is mean^2 + variance.  Reports carry its rounding,
        which can differ in the last bit from (a + 1) / (2 (2a + 1)).
        """
        if self.kind == "uniform":
            return 1.0 / 3.0
        return 0.25 + 0.25 / (2.0 * self.a + 1.0)


# default law of sample_step_draw, built once
_UNIFORM = LambdaLaw()

# steps drawn per sample_step_draw call of the stepping loops (``_step_draws``)
_DRAW_CHUNK = 1 << 12
_TWO_POW_M53 = 1.0 / 9007199254740992.0
# whether PCG64 draws are decoded in bulk: a fact about the installed numpy,
# so one per process; None until ``_decoder_guard`` has run
_BULK_OK: bool | None = None


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _step_count(k, name: str) -> int:
    """k as a count of steps or draws; ValueError unless a nonnegative integer.

    A bool is refused although it is an int: True would quietly count as one.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {k!r}")
    return int(k)


def _pairs_at(n: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair numbers k of n as 1-based (i, j) int64 arrays, row-major over i < j.

    The order is that of np.triu_indices(n, 1).  Counted from the end,
    back = c - 1 - k falls in row r from the bottom, which holds r + 1 pairs,
    where r is the largest integer with r(r + 1)/2 <= back, so no O(n^2)
    table is needed.  The row r comes from a float square root of
    8 back + 1.  The root of the rounded perfect square (2r + 1)^2 is
    exactly 2r + 1, and rounding and the root are monotone, so the float
    floor is never too low; it can be one row too high when 8 back + 1
    rounds up to the next square, and one integer correction makes r exact.
    The root is at least 1, so truncating (root - 1) / 2, a halving without
    rounding, is its floor.  Raises ValueError for an n whose pair numbers
    would overflow int64 in 8 back + 1, instead of decoding them wrongly.
    """
    c = n * (n - 1) // 2
    if 8 * c - 7 > np.iinfo(np.int64).max:
        raise ValueError(f"pair numbers of n={n} overflow int64")
    back = (c - 1) - np.asarray(k, dtype=np.int64)
    r = ((np.sqrt(8 * back + 1) - 1.0) * 0.5).astype(np.int64)
    r -= (r * (r + 1) >> 1) > back
    return n - 1 - r, n - back + (r * (r + 1) >> 1)


def _scalar_draws(n: int, rng: np.random.Generator, law: LambdaLaw, size: int):
    """Pair numbers and fractions of size draws, one pair of generator calls each."""
    c = pair_count(n)
    k = np.empty(size, dtype=np.int64)
    lam = np.empty(size)
    for t in range(size):
        k[t] = rng.integers(0, c)
        lam[t] = law.sample(rng)
    return k, lam


def _decode_draws(n: int, bg: np.random.PCG64, size: int):
    """Pair numbers and uniform fractions of size steps, decoded from raw words.

    Bit for bit what size scalar draws from a Generator on bg would give,
    and bg is left in the state those draws would leave it in.  Per step,
    ``integers(0, c)`` with c = n(n-1)/2 < 2^32 maps one 32-bit half to
    [0, c) by Lemire's multiply-and-shift: the buffered high half of the
    last word when one is held, else the low half of a fresh word, whose
    high half is then held.  ``random()`` takes one whole word w and returns
    (w >> 11) 2^-53.  So one integer word serves two steps, each followed
    by its fraction word, and a half held at entry feeds the first step.
    For c = 1, ``integers(0, 1)`` reads nothing.  A half h whose leftover
    h c mod 2^32 falls below 2^32 mod c is rejected and redrawn, which
    shifts the layout: then bg is restored to its entry state and None is
    returned, and the caller draws the steps one at a time.
    """
    c = pair_count(n)
    if size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    if c == 1:
        return np.zeros(size, dtype=np.int64), (bg.random_raw(size) >> 11) * _TWO_POW_M53
    entry = bg.state
    held = entry["has_uint32"]
    fresh = size - held  # steps whose integer half comes from a fresh word
    words = bg.random_raw(size + (fresh + 1) // 2)
    int_words = words[held::3]
    halves = int_words.astype("<u8").view("<u4")  # low, high, low, high, ...
    if held:
        halves = np.concatenate(([np.uint32(entry["uinteger"])], halves))
    m = halves[:size] * np.uint64(c)
    if (m.astype(np.uint32) < (1 << 32) % c).any():
        bg.state = entry
        return None
    # the scalar calls hold the high half of the last integer word, used or not
    state = bg.state
    state["has_uint32"] = fresh % 2
    if int_words.size:
        state["uinteger"] = int(halves[-1])
    bg.state = state
    body, pairs = words[held:], fresh // 2
    fractions = np.concatenate(
        (words[:held], body[: 3 * pairs].reshape(pairs, 3)[:, 1:].ravel(), body[3 * pairs + 1 :])
    )
    return (m >> 32).astype(np.int64), (fractions >> 11) * _TWO_POW_M53


def _decoder_guard() -> bool:
    """True when decoded draws and the state after them equal scalar draws.

    A short fixed stream per case: n = 2, odd and even sizes, and a half
    held at entry.  Guards against a numpy whose generator internals moved.
    """
    for n, size, held in ((2, 3, 0), (16, 7, 0), (16, 8, 1), (1024, 9, 1)):
        a, b = (np.random.Generator(np.random.PCG64(20111)) for _ in range(2))
        if held:
            a.integers(0, 3)
            b.integers(0, 3)
        got = _decode_draws(n, a.bit_generator, size)
        want = _scalar_draws(n, b, _UNIFORM, size)
        if got is None or not all(np.array_equal(g, w) for g, w in zip(got, want)):
            return False
        if a.bit_generator.state != b.bit_generator.state:
            return False
    return True


def _bulk_decoding() -> bool:
    """Whether to decode in bulk; runs the guard once and warns once if it fails."""
    global _BULK_OK
    if _BULK_OK is None:
        _BULK_OK = _decoder_guard()
        if not _BULK_OK:
            warnings.warn(
                "decoded PCG64 step draws differ from scalar draws in this numpy; "
                "drawing steps one at a time",
                RuntimeWarning,
                stacklevel=3,
            )
    return _BULK_OK


def sample_step_draw(
    n: int, rng: np.random.Generator, law: LambdaLaw | None = None, *, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw size steps' randomness: uniform unordered pairs and law draws.

    Args:
        n: dimension, n >= 2.
        rng: numpy Generator.
        law: mixing law; uniform by default.
        size: the number of draws K, a nonnegative integer.

    Returns:
        Arrays (i, j, lam) of K draws with 1-based indices i < j.  Draw t
        is the pair number ``rng.integers(0, n(n-1)/2)`` (row-major over
        i < j) and then the fraction ``law.sample(rng)``, the K draws in
        turn, and rng is left where those calls leave it.  Uniform draws
        from a PCG64 generator with c = n(n-1)/2 < 2^32 are decoded in bulk
        (``_decode_draws``); every other case, and a decode that meets a
        Lemire rejection, makes the K pairs of calls one at a time.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    size = _step_count(size, "size")
    law = law if law is not None else _UNIFORM
    drawn = None
    bg = rng.bit_generator
    if (
        law.kind == "uniform"
        and pair_count(n) < 1 << 32
        and type(bg) is np.random.PCG64
        and _bulk_decoding()
    ):
        drawn = _decode_draws(n, bg, size)
    k, lam = drawn if drawn is not None else _scalar_draws(n, rng, law, size)
    i, j = _pairs_at(n, k)
    return i, j, lam


def _step_draws(n: int, steps: int, rng: np.random.Generator, law: LambdaLaw | None = None):
    """Yield 0-based (i0, j0, lam) of steps draws, drawn in bounded chunks.

    One ``sample_step_draw(..., size=...)`` per chunk of at most
    ``_DRAW_CHUNK`` steps, so memory stays bounded for any step count.
    Raises ValueError, once iterated, unless steps is a nonnegative integer.
    """
    steps = _step_count(steps, "steps")
    for start in range(0, steps, _DRAW_CHUNK):
        i, j, lam = sample_step_draw(n, rng, law, size=min(_DRAW_CHUNK, steps - start))
        yield from zip((i - 1).tolist(), (j - 1).tolist(), lam.tolist())


def _apply_step(arr: np.ndarray | list[float], i0: int | np.ndarray, j0: int | np.ndarray, lam) -> None:
    """In-place pair update of rows i0 and j0 (0-based) with fraction lam.

    arr is a float list, a 1-D array or an (n, C) array of C chains held as
    columns, each column updated through the exact split entrywise.  Python
    floats and np.float64 share IEEE double arithmetic, so every shape
    holding the same values is updated to the same bits.  On an array, i0
    and j0 may also be equal-length index arrays and lam an (R, 1) array:
    one gather, split and scatter then steps R matrices whose rows are
    stacked in arr, matrix r its rows i0[r] and j0[r] with lam[r, 0].  The
    rows must be distinct, or a scatter would overwrite another's update.
    Index arrays serve only the opening phase of a group's window walk
    (``cftp._walk_windows``); ``_step_lists`` steps several lists at once.
    """
    s = arr[i0] + arr[j0]
    a, b = exact_split(lam, s)
    arr[i0] = a
    arr[j0] = b


def _step_lists(chains: list[list[float]], i0: int, j0: int, lam: float) -> None:
    """``_apply_step(x, i0, j0, lam)`` on each float list x of chains.

    The exact split's two lines run inline for each list, the same
    arithmetic in the same order, so every list ends bit for bit where
    ``_apply_step`` would leave it; inlining saves two calls per list.
    """
    for x in chains:
        s = x[i0] + x[j0]
        b = s - lam * s
        x[i0] = s - b
        x[j0] = b


def sample_uniform_simplex(n: int, rng: np.random.Generator) -> SimplexPoint:
    """Exact draw from the uniform law on the simplex.

    Normalized independent standard exponentials; the largest coordinate is
    then matched so that fsum(values) == 1.0 exactly (see ``_match_fsum``).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    g = rng.exponential(size=n)
    while math.fsum(g.tolist()) <= 0.0:  # unreachable in practice, defensive
        g = rng.exponential(size=n)
    return SimplexPoint(_normalized_exact(g))


def sq_distance(x: SimplexPoint, y: SimplexPoint) -> float:
    """Squared euclidean distance between two points of equal dimension."""
    if x.n != y.n:
        raise ValueError("dimension mismatch")
    return _sq_distance_raw(x.values, y.values)


def _sq_distance_raw(a: np.ndarray | list[float], b: np.ndarray | list[float]) -> float:
    """Squared euclidean distance of two raw vectors, taken on float64 arrays.

    ``sq_distance`` and the raw-list loops both go through here, so a raw
    loop reports the same bits as ``sq_distance`` of the same points.
    """
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.dot(d, d))


def contraction_factor(n: int, lambda_sq: float = 1.0 / 3.0) -> float:
    """One-step contraction of E[squared distance] under shared-draw coupling.

    For the uniform law this equals 1 - 2/(3(n-1)) - 2/(3n(n-1)); the
    general-law form 1 - 2/n + 4 E[lam^2] (n-2) / (n (n-1)) agrees with it
    at E[lam^2] = 1/3 and is exposed for reporting under other laws.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 1.0 - 2.0 / n + 4.0 * lambda_sq * (n - 2) / (n * (n - 1.0))
