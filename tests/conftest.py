"""Helpers shared by the test modules."""

import numpy as np
import pytest


def _dense_transition(bank, i: int) -> np.ndarray:
    """P_{i+1}, block i (0-based) of a kernel bank, as a dense N x N matrix
    built from that block's panel views alone: `bank.transitions[i]` forms
    the whole (B, N, N) stack first."""
    n = bank.order
    dense = np.zeros((n, n))
    for r0, r1, panel in bank._views:
        dense[r0:r1, :r1] = panel[i]
    return dense


@pytest.fixture
def dense_transition():
    """`_dense_transition`, for the loops that check one bank block at a time."""
    return _dense_transition
