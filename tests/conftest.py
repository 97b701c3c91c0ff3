"""Shared fixtures and independent reference implementations.

Reference code here is deliberately written by a different method than the
package under test (order statistics instead of normalized exponentials,
brute force instead of incremental union-find, and so on) so that agreement
between the two is evidence, not tautology.  The exceptions are ``step``
and ``weight``: the package walks raw floats and has no such functions, so
these two give the tests a validated-point step (through the package's
``_apply_step``) and an exact subset weight to state properties with.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from simplex_gibbs.chain import SimplexPoint, StepDraw, _apply_step

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
