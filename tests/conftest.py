"""Shared fixtures and independent reference implementations.

Reference code here is deliberately written by a different method than the
package under test (order statistics instead of normalized exponentials,
brute force instead of incremental union-find, and so on) so that agreement
between the two is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np
import pytest

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


def coordinate_cdf(t, n: int):
    """Marginal cdf of one coordinate under the uniform simplex law."""
    t = np.asarray(t, dtype=np.float64)
    return 1.0 - np.clip(1.0 - t, 0.0, 1.0) ** (n - 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
