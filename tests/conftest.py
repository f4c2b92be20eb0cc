"""Shared test references."""

import itertools

import numpy as np
import pytest


@pytest.fixture
def brute_force_max_trace():
    """Reference for tasks.max_trace: try every column permutation outright.

    Factorial in the matrix side; it validates the assignment route on
    small instances.
    """
    def max_trace(counts) -> float:
        m = np.asarray(counts, dtype=np.float64)
        side = m.shape[0]
        return float(max(sum(m[i, perm[i]] for i in range(side))
                         for perm in itertools.permutations(range(side))))
    return max_trace
