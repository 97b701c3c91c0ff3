"""Shared fixtures and independent reference implementations.

Reference code here is deliberately written by a different method than the
package under test (order statistics instead of normalized exponentials,
brute force instead of incremental union-find, and so on) so that agreement
between the two is evidence, not tautology.  The exceptions are ``step``,
``weight`` and ``draw_step``: the package walks raw floats and draws steps
only in bulk, so these give the tests a validated-point step (through the
package's ``_apply_step``), an exact subset weight and one step's draw,
made by the generator calls that ``chain.sample_step_draw`` equals in
bulk, to state properties with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from simplex_gibbs.chain import SimplexPoint, _apply_step

# Conservative significance level for every statistical assertion in the
# suite.  With a few dozen seeded tests the chance of any false alarm stays
# well under a percent.
ALPHA = 1e-3


def uniform_simplex_oracle(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the simplex via spacings of sorted uniforms.

    Independent of the package sampler: n - 1 sorted uniforms on [0, 1] cut
    the interval into n spacings whose joint law is uniform on the simplex.
    """
    cuts = np.sort(rng.random(n - 1))
    grid = np.concatenate(([0.0], cuts, [1.0]))
    return np.diff(grid)


@dataclass(frozen=True)
class StepDraw:
    """One step's randomness: coordinate pair 1 <= i < j and fraction lam."""

    i: int
    j: int
    lam: float

    def __post_init__(self) -> None:
        if not (isinstance(self.i, (int, np.integer)) and isinstance(self.j, (int, np.integer))):
            raise ValueError("pair indices must be integers")
        if not 1 <= self.i < self.j:
            raise ValueError(f"need 1 <= i < j, got i={self.i}, j={self.j}")
        if not (math.isfinite(self.lam) and 0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must lie in [0, 1], got {self.lam!r}")


def pair_at(n: int, k: int) -> tuple[int, int]:
    """Pair number k of n as 1-based (i, j), row-major over i < j.

    The order is that of np.triu_indices(n, 1).  Counted from the end,
    back = c - 1 - k falls in row r from the bottom, which holds r + 1 pairs,
    where r is the largest integer with r(r + 1)/2 <= back.  math.isqrt keeps
    this exact for every n, where the package's float square root
    (``chain._pairs_at``) needs a correction and an int64 bound.
    """
    back = n * (n - 1) // 2 - 1 - k
    r = (math.isqrt(8 * back + 1) - 1) // 2
    return n - 1 - r, n - back + r * (r + 1) // 2


def draw_step(n: int, rng: np.random.Generator, law=None) -> StepDraw:
    """One step's draw: pair number ``rng.integers(0, c)``, then ``law.sample(rng)``.

    c = n(n-1)/2 and the law is uniform by default.  K calls make the
    generator calls of one ``sample_step_draw(n, rng, law, size=K)``.
    """
    i, j = pair_at(n, int(rng.integers(0, n * (n - 1) // 2)))
    return StepDraw(i, j, float(rng.random() if law is None else law.sample(rng)))


def step(x: SimplexPoint, draw: StepDraw) -> SimplexPoint:
    """Apply one pair-mixing step to a validated point.

    The updated pair is an exact split of the computed sum s = fl(x_i + x_j):
    the two new coordinates sum to s with zero error.
    """
    if draw.j > x.n:
        raise ValueError(f"pair ({draw.i}, {draw.j}) out of range for n={x.n}")
    arr = np.array(x.values)
    _apply_step(arr, draw.i - 1, draw.j - 1, draw.lam)
    return SimplexPoint(arr)


def weight(S, x: SimplexPoint) -> float:
    """Sum of coordinates over the 1-based index set S, exactly rounded.

    Computed with math.fsum, so the result does not depend on the iteration
    order of S; two point/set pairs with equal exact sums report bitwise
    equal weights.
    """
    idx = sorted({int(k) for k in S})
    if idx and (idx[0] < 1 or idx[-1] > x.n):
        raise ValueError(f"subset indices out of range for n={x.n}")
    return math.fsum(float(x.values[k - 1]) for k in idx)


def coordinate_cdf(t, n: int):
    """Marginal cdf of one coordinate under the uniform simplex law."""
    t = np.asarray(t, dtype=np.float64)
    return 1.0 - np.clip(1.0 - t, 0.0, 1.0) ** (n - 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
