"""Assertions shared by several test modules."""

from itertools import permutations

import numpy as np


def assert_fully_symmetric(components, lead=0):
    """Every permutation of the component axes after ``lead`` batch axes leaves
    ``components`` bitwise unchanged."""
    rank = np.ndim(components) - lead
    for perm in permutations(range(rank)):
        axes = tuple(range(lead)) + tuple(lead + q for q in perm)
        assert np.array_equal(components, np.transpose(components, axes)), perm
